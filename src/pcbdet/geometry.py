"""Point-cloud primitives: distances, normalization, synthetic shapes, dataset files.

A point is a float64 array of shape (3,); a point cloud is a float64 array of
shape (n, 3). Clouds are semantically sets -- row order never affects any
computed quantity, which the test suite enforces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "SHAPE_NAMES",
    "as_point",
    "as_cloud",
    "DistanceState",
    "point_to_cloud_distance",
    "normalize_cloud",
    "ball_points",
    "generate_shape",
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


class DistanceState:
    """The one nearest-point kernel: distance from each point to each of fixed
    clouds, and its unit direction.

    clouds is a sequence of M arrays of shape (..., n_m, 3), already
    validated (as_cloud). query(points) takes a (..., R, 3) array (as_point
    rows) whose leading axes broadcast against those of every cloud, so one
    state serves R points against M shared clouds as well as a stack of
    problems, each pairing its own R points with its own M clouds. It
    returns dists (..., R, M) and units (..., R, M, 3): units[..., r, m, :]
    is (points[..., r, :] - x*) / dists[..., r, m], with x* the point of
    clouds[m] nearest to points[..., r, :] (lowest index on ties), or the
    zero vector where the distance is at most COINCIDENT_EPS (any
    subgradient is valid there and zero avoids dividing by a vanishing
    norm).

    The nearest point comes from a screen and an exact pick, bit for bit as
    a full scan finds it (the argmin of every squared distance
    d2_j = einsum(c - x_j, c - x_j)). The screen scores every point by
    s_j = |x_j|^2 - 2 c.x_j, which is d2_j - |c|^2 up to rounding, with no
    (..., R, n, 3) difference array, and takes idx = argmin s. With
    L = |c| + max_j |x_j| and u = eps/2, the computed s_j is within 4u L^2 of
    its exact value (3u L^2 for the two 3-term dot products, u L^2 for the
    subtraction), and the full scan's d2_j within 5u L^2 of the exact squared
    distance (2u from the rounded differences, 3u from the sum of their
    squares). So if every other s_k exceeds s_idx + tol, with
    tol = 32 eps L^2 = 64u L^2 > 2 (4u + 5u) L^2, every other d2_k exceeds
    d2_idx and the full scan picks idx too. tol is computed as 8 eps (2L)^2,
    which overflows to inf before any s_j or d2_j can, and the smallest
    normal number added to it covers the absolute error of products that
    underflow. Rows that fail this test (an exact tie, duplicated points, a
    score that overflows or is NaN) run the full scan. Every row then takes
    nearest = c - x_idx and d = sqrt(einsum(nearest, nearest)), the same
    differences summed by the same einsum as the full scan's d2 at idx.

    The state holds what does not depend on the points, for each cloud: its
    squared norms sq_norms (..., n), the C-contiguous neg2_xt = -2 x^T
    (..., 3, n) of the screen's product, and radius = max_j |x_j| (...).
    Per query there remain the product, the scores' argmin and screen, and
    the exact pick. No query changes the state, so a descent builds one and
    queries it at every iteration; a one-shot use is
    DistanceState(clouds).query(points).
    """

    def __init__(self, clouds):
        self.clouds = list(clouds)
        # A score term that overflows fails the screen; no warning.
        with np.errstate(over="ignore", invalid="ignore"):
            self.sq_norms = [np.einsum("...nd,...nd->...n", X, X) for X in self.clouds]
            self.neg2_xt = [np.ascontiguousarray(-2.0 * X.swapaxes(-1, -2)) for X in self.clouds]
            self.radius = [np.sqrt(xx.max(axis=-1)) for xx in self.sq_norms]

    def query(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(dists, units) of points against the clouds: see the class."""
        clouds = self.clouds
        lead = np.broadcast_shapes(points.shape[:-1], *(X.shape[:-2] + (1,) for X in clouds))
        dists = np.empty(lead + (len(clouds),))
        units = np.zeros(lead + (len(clouds), 3))
        f64 = np.finfo(np.float64)
        c_norm = np.sqrt(np.einsum("...d,...d->...", points, points))
        for m, X in enumerate(clouds):
            # A score that overflows fails the comparison below; no warning.
            with np.errstate(over="ignore", invalid="ignore"):
                s = np.matmul(points, self.neg2_xt[m])  # (..., R, n)
                s += self.sq_norms[m][..., None, :]
                idx = np.argmin(s, axis=-1)[..., None]
                s_min = np.take_along_axis(s, idx, axis=-1)[..., 0]
                np.put_along_axis(s, idx, np.inf, axis=-1)
                tol = 8 * f64.eps * (2 * (c_norm + self.radius[m][..., None])) ** 2 + f64.tiny
                unsure = ~(s.min(axis=-1) > s_min + tol)
            if unsure.any():
                rows = np.broadcast_to(X[..., None, :, :], lead + X.shape[-2:])[unsure]
                diff = np.broadcast_to(points, lead + (3,))[unsure][..., None, :] - rows
                idx[unsure] = np.argmin(np.einsum("...nd,...nd->...n", diff, diff), axis=-1)[:, None]
            X_idx = np.take_along_axis(X[(None,) * (len(lead) + 1 - X.ndim)], idx, axis=-2)
            nearest = points - X_idx
            d = np.sqrt(np.einsum("...d,...d->...", nearest, nearest))
            dists[..., m] = d
            np.divide(nearest, d[..., None], out=units[..., m, :], where=(d > COINCIDENT_EPS)[..., None])
        return dists, units


def point_to_cloud_distance(c, X) -> float:
    """Minimum Euclidean distance from point c to any point of cloud X."""
    return float(DistanceState([as_cloud(X)]).query(as_point(c)[None])[0][0, 0])


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


def ball_points(rng, count: int) -> np.ndarray:
    """count points drawn uniformly in the unit ball: a direction, then a radius."""
    return _sphere(rng, count) * rng.uniform(size=(count, 1)) ** (1.0 / 3.0)


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


# Shape family of each class id, in class order.
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
SHAPE_NAMES = tuple(_SHAPE_FUNCS)


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
# Dataset serialization: one record per sample, "label n" then n coord lines
# ---------------------------------------------------------------------------


def _check_text(path, encoding: str) -> None:
    """Raise ValueError naming the file and the 1-based line of the first
    byte the encoding rejects.

    The file is decoded in reads of 1 MiB run on to the next LF (a file
    with no LF is one read), which neither ASCII nor UTF-8 puts inside a
    character, so no character and no CRLF straddles two reads. Lines are
    counted only when a byte is
    rejected: the same reads are made again from the start, and each LF,
    CRLF and lone CR ends a line, as in text mode.
    """

    def line_ends(data: bytes) -> int:
        return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")

    with open(path, "rb") as fh:
        reads = iter(lambda: fh.read(1 << 20) + fh.readline(), b"")
        for k, chunk in enumerate(reads):
            try:
                chunk.decode(encoding)
            except UnicodeDecodeError as exc:
                fh.seek(0)
                line = 1 + sum(map(line_ends, itertools.islice(reads, k))) + line_ends(chunk[: exc.start])
                raise ValueError(f"{path}: line {line}: not {encoding} text") from None


def read_text(path, encoding: str = "ascii") -> str:
    """The file's text with universal newlines (LF, CRLF or a lone CR end a
    line); a byte the encoding rejects raises ValueError naming the file and
    the 1-based line."""
    _check_text(path, encoding)
    with open(path, encoding=encoding) as fh:
        return fh.read()


def save_dataset(ds: Dataset, path) -> None:
    """Write one string per record: % and the f-string spec .9g format a
    float alike, so a point line is f"{x:.9g} {y:.9g} {z:.9g}"."""
    with open(path, "w", encoding="ascii") as fh:
        for X, lab in zip(ds.clouds, ds.labels):
            fh.write(f"{int(lab)} {len(X)}\n" + ("%.9g %.9g %.9g\n" * len(X)) % tuple(X.ravel().tolist()))


def _points_at_once(block: list, n: int):
    """The record's n point lines as an (n, 3) array in one conversion, or
    None when they are not n lines of three numbers each. loadtxt reads
    each number it accepts with the string-to-double conversion float()
    uses, so the values are bit-identical."""
    # A short block (a truncated file) or an empty first line (loadtxt would
    # warn that it found no data) goes to the line-by-line reader.
    if len(block) < n or not block[0].strip():
        return None
    try:
        rows = np.loadtxt(block, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    return rows if rows.shape == (n, 3) else None


def _points_by_line(path, block: list, i: int, n: int) -> np.ndarray:
    """The points of the record whose header is at index i, from its block
    of at most n lines, one line at a time; the first line that is not
    'x y z' raises ValueError naming the file and the line."""
    rows = np.empty((len(block), 3))
    for j in range(n):
        try:
            x, y, z = block[j].split()
            rows[j] = [float(x), float(y), float(z)]
        except (ValueError, IndexError):
            raise ValueError(
                f"{path}: line {i + 2 + j}: expected 'x y z', point {j + 1} of the record at line {i + 1}"
            ) from None
    return rows


def load_dataset(path, num_classes: int) -> Dataset:
    """Read a dataset file one record at a time; a byte that is not ASCII, a
    malformed, truncated or non-finite record, or a label outside
    [0, num_classes), raises ValueError naming the file and the 1-based line.

    Lines may end in LF, CRLF or a lone CR, as in read_text. The whole file
    is checked for ASCII first, by the check read_text makes, so that error
    wins over any other.
    """
    clouds: list = []
    labels: list = []
    _check_text(path, "ascii")
    with open(path, encoding="ascii") as fh:
        i = 0
        for ln in fh:
            ln = ln.strip()
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
            # At most n lines, and never more than the file has left.
            block = list(itertools.islice(fh, n))
            rows = _points_at_once(block, n)
            if rows is None:
                rows = _points_by_line(path, block, i, n)
            finite = np.isfinite(rows).all(axis=1)
            if not finite.all():
                raise ValueError(f"{path}: line {i + 2 + int(np.argmin(finite))}: non-finite coordinate")
            clouds.append(rows)
            labels.append(lab)
            i += 1 + n
    return Dataset(clouds=clouds, labels=np.asarray(labels), num_classes=num_classes)
