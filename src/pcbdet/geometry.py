"""Point-cloud primitives: distances, normalization, synthetic shapes, OFF meshes.

A point is a float64 array of shape (3,); a point cloud is a float64 array of
shape (n, 3). Clouds are semantically sets -- row order never affects any
computed quantity, which the test suite enforces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "TriangleMesh",
    "SHAPE_NAMES",
    "as_point",
    "as_cloud",
    "cloud_distances",
    "point_to_cloud_distance",
    "distance_gradient",
    "normalize_cloud",
    "generate_shape",
    "load_off_mesh",
    "sample_mesh",
    "save_dataset",
    "load_dataset",
    "read_text",
]

# Coincidence threshold: at or below this distance the subgradient is taken as zero.
COINCIDENT_EPS = 1e-12

# Degenerate-scale threshold for normalization.
DEGENERATE_SCALE = 1e-9

# Fewest points a synthetic cloud may have.
MIN_CLOUD_POINTS = 16

# Std of the Gaussian surface jitter applied by the synthetic generator,
# in units of the pre-normalization shape scale.
SHAPE_JITTER = 0.02

SHAPE_NAMES = (
    "sphere",
    "cube",
    "cylinder",
    "cone",
    "torus",
    "pyramid",
    "planes",
    "helix",
)


class OffParseError(ValueError):
    """Malformed OFF file; message names the offending 1-based line."""


def as_point(p) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point has non-finite coordinates")
    return p


def as_cloud(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) cloud, got shape {X.shape}")
    if X.shape[0] < 1:
        raise ValueError("cloud must contain at least one point")
    if not np.all(np.isfinite(X)):
        raise ValueError("cloud has non-finite coordinates")
    return X


@dataclass
class Dataset:
    """Labeled point clouds with a fixed class count."""

    clouds: list
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.clouds) != len(self.labels):
            raise ValueError("clouds and labels length mismatch")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("label out of range for num_classes")

    def __len__(self) -> int:
        return len(self.clouds)

    def clouds_of_class(self, k: int) -> list:
        return [X for X, lab in zip(self.clouds, self.labels) if lab == k]


def cloud_distances(points: np.ndarray, clouds) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each point to each cloud, and its unit direction.

    points is a (..., R, 3) array and clouds a sequence of M arrays of shape
    (..., n_m, 3), all already validated (as_point / as_cloud); the leading
    axes of every cloud broadcast against those of points, so one call serves
    R points against M shared clouds as well as a stack of problems, each
    pairing its own R points with its own M clouds. This is the one place a
    nearest point is chosen. Returns dists (..., R, M) and units
    (..., R, M, 3): units[..., r, m, :] is (points[..., r, :] - x*) /
    dists[..., r, m], with x* the point of clouds[m] nearest to
    points[..., r, :] (lowest index on ties), or the zero vector where the
    distance is at most COINCIDENT_EPS (any subgradient is valid there and
    zero avoids dividing by a vanishing norm).
    """
    lead = np.broadcast_shapes(points.shape[:-1], *(X.shape[:-2] + (1,) for X in clouds))
    dists = np.empty(lead + (len(clouds),))
    units = np.zeros(lead + (len(clouds), 3))
    for m, X in enumerate(clouds):
        # Temporaries are (..., R, n_m, 3): one cloud at a time.
        diff = points[..., :, None, :] - X[..., None, :, :]
        d2 = np.einsum("...nd,...nd->...n", diff, diff)
        idx = np.argmin(d2, axis=-1)[..., None]
        d = np.sqrt(np.take_along_axis(d2, idx, axis=-1))[..., 0]
        dists[..., m] = d
        nearest = np.take_along_axis(diff, idx[..., None], axis=-2)[..., 0, :]
        np.divide(nearest, d[..., None], out=units[..., m, :], where=(d > COINCIDENT_EPS)[..., None])
    return dists, units


def point_to_cloud_distance(c, X) -> float:
    """Minimum Euclidean distance from point c to any point of cloud X."""
    return float(cloud_distances(as_point(c)[None], [as_cloud(X)])[0][0, 0])


def distance_gradient(c, X) -> np.ndarray:
    """Subgradient of point_to_cloud_distance with respect to c (see cloud_distances)."""
    return cloud_distances(as_point(c)[None], [as_cloud(X)])[1][0, 0]


def normalize_cloud(X) -> np.ndarray:
    """Center the cloud at its centroid and scale the farthest point to norm 1.

    Scaling is skipped when the centered cloud's max norm is below 1e-9
    (single / coincident points).
    """
    X = as_cloud(X)
    centered = X - X.mean(axis=0)
    scale = float(np.linalg.norm(centered, axis=1).max())
    if scale < DEGENERATE_SCALE:
        return centered
    return centered / scale


# ---------------------------------------------------------------------------
# Synthetic shape families (desk-scale stand-in for a CAD-model benchmark)
# ---------------------------------------------------------------------------


# The families are deliberately anisotropic in different ways (slender rod,
# flat ring, thin sheets, ...) so that spatial closeness to one class says
# little about closeness to another.


def _sphere(rng, n):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v


def _cube(rng, n):
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-1.0, 1.0, size=(n, 2))
    pts = np.empty((n, 3))
    axis = face // 2
    rows = np.arange(n)
    pts[rows, axis] = np.where(face % 2 == 0, 1.0, -1.0)
    # uv fills the two other coordinates in ascending axis order.
    pts[rows[:, None], np.array([[1, 2], [0, 2], [0, 1]])[axis]] = uv
    return pts


def _cylinder(rng, n):
    # Slender rod along z: wide in z, thin in xy.
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    z = rng.uniform(-1.0, 1.0, size=n)
    r = 0.18
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def _cone(rng, n):
    # Lateral surface, apex up; sqrt sampling keeps density roughly uniform.
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    t = np.sqrt(rng.uniform(0.0, 1.0, size=n))
    r = 0.75 * t
    z = 1.0 - 1.6 * t
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def _torus(rng, n):
    # Flat ring: wide in every xy direction, thin in z.
    big, small = 1.0, 0.22
    out = np.empty((n, 3))
    filled = 0
    while filled < n:
        m = 2 * (n - filled)
        u = rng.uniform(0.0, 2.0 * math.pi, size=m)
        v = rng.uniform(0.0, 2.0 * math.pi, size=m)
        # Rejection step weights by surface area element (big + small*cos v).
        keep = rng.uniform(0.0, 1.0, size=m) < (big + small * np.cos(v)) / (big + small)
        u, v = u[keep], v[keep]
        take = min(len(u), n - filled)
        u, v = u[:take], v[:take]
        ring = big + small * np.cos(v)
        out[filled : filled + take] = np.column_stack(
            [ring * np.cos(u), ring * np.sin(u), small * np.sin(v)]
        )
        filled += take
    return out


def _pyramid(rng, n):
    # Square base with four triangular sides, sampled area-weighted.
    base = np.array(
        [[-0.9, -0.9, 0.0], [0.9, -0.9, 0.0], [0.9, 0.9, 0.0], [-0.9, 0.9, 0.0]]
    )
    apex = np.array([0.0, 0.0, 1.5])
    tris = [
        (base[0], base[1], base[2]),
        (base[0], base[2], base[3]),
        (base[0], base[1], apex),
        (base[1], base[2], apex),
        (base[2], base[3], apex),
        (base[3], base[0], apex),
    ]
    verts = np.array(tris)
    areas = 0.5 * np.linalg.norm(
        np.cross(verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]), axis=1
    )
    idx = rng.choice(len(tris), size=n, p=areas / areas.sum())
    r1 = np.sqrt(rng.uniform(size=n))
    r2 = rng.uniform(size=n)
    a, b, c = verts[idx, 0], verts[idx, 1], verts[idx, 2]
    return (1 - r1)[:, None] * a + (r1 * (1 - r2))[:, None] * b + (r1 * r2)[:, None] * c


def _planes(rng, n):
    # Two thin horizontal sheets: wide in xy, thin in z.
    z = np.where(rng.uniform(size=n) < 0.5, 0.3, -0.3)
    xy = rng.uniform(-1.0, 1.0, size=(n, 2))
    return np.column_stack([xy, z])


def _helix(rng, n):
    # Tube of radius 0.1 around a two-turn helix.
    t = rng.uniform(0.0, 4.0 * math.pi, size=n)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    cx = 0.7 * np.cos(t)
    cy = 0.7 * np.sin(t)
    cz = (t - 2.0 * math.pi) / (2.0 * math.pi) * 0.75
    # Radial direction in the horizontal plane plus the vertical axis spans
    # an approximate normal plane of the curve; good enough for a point shape.
    nx, ny = np.cos(t), np.sin(t)
    r = 0.1
    return np.column_stack(
        [
            cx + r * np.cos(phi) * nx,
            cy + r * np.cos(phi) * ny,
            cz + r * np.sin(phi),
        ]
    )


_SHAPE_FUNCS = {
    "sphere": _sphere,
    "cube": _cube,
    "cylinder": _cylinder,
    "cone": _cone,
    "torus": _torus,
    "pyramid": _pyramid,
    "planes": _planes,
    "helix": _helix,
}


def generate_shape(class_id: int, n: int, seed: int) -> np.ndarray:
    """Sample n jittered surface points of a built-in shape family, normalized.

    Deterministic given (class_id, n, seed).
    """
    if not 0 <= class_id < len(SHAPE_NAMES):
        raise ValueError(f"unknown shape class {class_id}; have {len(SHAPE_NAMES)} families")
    if n < MIN_CLOUD_POINTS:
        raise ValueError(f"need at least {MIN_CLOUD_POINTS} points per cloud")
    rng = np.random.default_rng([int(class_id), int(n), int(seed)])
    pts = _SHAPE_FUNCS[SHAPE_NAMES[class_id]](rng, n)
    pts = pts + SHAPE_JITTER * rng.normal(size=pts.shape)
    return normalize_cloud(pts)


# ---------------------------------------------------------------------------
# OFF mesh ingestion
# ---------------------------------------------------------------------------


@dataclass
class TriangleMesh:
    vertices: np.ndarray  # (V, 3)
    faces: np.ndarray  # (F, 3) int indices


def load_off_mesh(path) -> TriangleMesh:
    """Parse an ASCII OFF file with triangular faces."""
    raw = read_text(path).split("\n")
    # Skip blank and comment lines but keep real line numbers for errors.
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(raw)]
    lines = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise OffParseError("line 1: empty OFF file")
    no, header = lines[0]
    if header != "OFF":
        raise OffParseError(f"line {no}: expected 'OFF' header, got {header!r}")
    if len(lines) < 2:
        raise OffParseError(f"line {no}: missing count line")
    no, counts = lines[1]
    parts = counts.split()
    if len(parts) != 3:
        raise OffParseError(f"line {no}: expected 'V F E' counts")
    try:
        nv, nf = int(parts[0]), int(parts[1])
    except ValueError:
        raise OffParseError(f"line {no}: non-integer counts") from None
    body = lines[2:]
    if len(body) < nv + nf:
        raise OffParseError(f"line {no}: file declares {nv} vertices and {nf} faces but has {len(body)} data lines")
    verts = np.empty((nv, 3))
    for i in range(nv):
        lno, ln = body[i]
        parts = ln.split()
        if len(parts) < 3:
            raise OffParseError(f"line {lno}: vertex needs 3 coordinates")
        try:
            verts[i] = [float(parts[0]), float(parts[1]), float(parts[2])]
        except ValueError:
            raise OffParseError(f"line {lno}: bad vertex coordinate") from None
    faces = np.empty((nf, 3), dtype=np.int64)
    for i in range(nf):
        lno, ln = body[nv + i]
        parts = ln.split()
        try:
            arity = int(parts[0])
        except (ValueError, IndexError):
            raise OffParseError(f"line {lno}: bad face line") from None
        if arity != 3 or len(parts) < 4:
            raise OffParseError(f"line {lno}: only triangular faces are supported")
        try:
            idx = [int(parts[1]), int(parts[2]), int(parts[3])]
        except ValueError:
            raise OffParseError(f"line {lno}: bad face index") from None
        for j in idx:
            if not 0 <= j < nv:
                raise OffParseError(f"line {lno}: vertex index {j} out of range")
        faces[i] = idx
    if not np.all(np.isfinite(verts)):
        raise OffParseError("line 1: non-finite vertex coordinates")
    return TriangleMesh(vertices=verts, faces=faces)


def sample_mesh(mesh: TriangleMesh, n: int, seed: int) -> np.ndarray:
    """Area-weighted uniform surface sampling of a normalized mesh.

    The mesh is normalized first (vertex centroid to the origin, max vertex
    norm to 1), so every returned point lies exactly on a face of the
    normalized mesh. Deterministic given seed.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    verts = mesh.vertices - mesh.vertices.mean(axis=0)
    scale = float(np.linalg.norm(verts, axis=1).max())
    if scale >= DEGENERATE_SCALE:
        verts = verts / scale
    rng = np.random.default_rng([int(n), int(seed)])
    a = verts[mesh.faces[:, 0]]
    b = verts[mesh.faces[:, 1]]
    c = verts[mesh.faces[:, 2]]
    areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    total = areas.sum()
    if total <= 0:
        raise ValueError("mesh has zero surface area")
    idx = rng.choice(len(areas), size=n, p=areas / total)
    r1 = np.sqrt(rng.uniform(size=n))
    r2 = rng.uniform(size=n)
    pts = (
        (1 - r1)[:, None] * a[idx]
        + (r1 * (1 - r2))[:, None] * b[idx]
        + (r1 * r2)[:, None] * c[idx]
    )
    return pts


# ---------------------------------------------------------------------------
# Dataset serialization: one record per sample, "label n" then n coord lines
# ---------------------------------------------------------------------------


def read_text(path, encoding: str = "ascii") -> str:
    """The file's text with universal newlines, as text-mode reading gives it;
    a byte the encoding rejects raises ValueError naming the file and the
    1-based line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode(encoding)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: not {encoding} text") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _fmt(v: float) -> str:
    return f"{v:.9g}"


def save_dataset(ds: Dataset, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for X, lab in zip(ds.clouds, ds.labels):
            fh.write(f"{int(lab)} {len(X)}\n")
            for x, y, z in X:
                fh.write(f"{_fmt(x)} {_fmt(y)} {_fmt(z)}\n")


def load_dataset(path, num_classes: int) -> Dataset:
    """Read a dataset file; a malformed, truncated or non-finite record, or a
    label outside [0, num_classes), raises ValueError naming the file and the
    1-based line."""
    clouds: list = []
    labels: list = []
    lines = read_text(path).split("\n")
    i = 0
    while i < len(lines):
        ln = lines[i].strip()
        if not ln:
            i += 1
            continue
        try:
            lab, n = (int(v) for v in ln.split())
        except ValueError:
            raise ValueError(f"{path}: line {i + 1}: expected 'label n' record header") from None
        if n < 1:
            raise ValueError(f"{path}: line {i + 1}: a record needs at least one point")
        if not 0 <= lab < num_classes:
            raise ValueError(f"{path}: line {i + 1}: label {lab} out of range")
        # Never more rows than the file has lines left, whatever n claims.
        rows = np.empty((min(n, len(lines) - i - 1), 3))
        for j in range(n):
            try:
                x, y, z = lines[i + 1 + j].split()
                rows[j] = [float(x), float(y), float(z)]
            except (ValueError, IndexError):
                raise ValueError(
                    f"{path}: line {i + 2 + j}: expected 'x y z', point {j + 1} of the record at line {i + 1}"
                ) from None
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            raise ValueError(f"{path}: line {i + 2 + int(np.argmin(finite))}: non-finite coordinate")
        clouds.append(rows)
        labels.append(lab)
        i += 1 + n
    return Dataset(clouds=clouds, labels=np.asarray(labels), num_classes=num_classes)
