"""Straight-line reference quantities the tests check the program against.

Each one re-encodes whole clouds with plain forward passes, or computes over
every row or line, so it shares no cache or shortcut with the code under
test.
"""

import math

import numpy as np
from scipy import special

from pcbdet.classifier import _point_layers, forward_logits
from pcbdet.geometry import COINCIDENT_EPS, Dataset, DistanceState, as_cloud, as_point


def full_scan_distances(points, clouds):
    """geometry.DistanceState.query by a full scan: every squared distance by
    einsum over the (..., R, n, 3) differences, argmin with its lowest-index
    tie rule, and the zero direction within COINCIDENT_EPS. The screened
    kernel must reproduce its dists and units bit for bit."""
    lead = np.broadcast_shapes(points.shape[:-1], *(X.shape[:-2] + (1,) for X in clouds))
    dists = np.empty(lead + (len(clouds),))
    units = np.zeros(lead + (len(clouds), 3))
    for m, X in enumerate(clouds):
        diff = points[..., :, None, :] - X[..., None, :, :]
        d2 = np.einsum("...nd,...nd->...n", diff, diff)
        idx = np.argmin(d2, axis=-1)[..., None]
        d = np.sqrt(np.take_along_axis(d2, idx, axis=-1))[..., 0]
        dists[..., m] = d
        nearest = np.take_along_axis(diff, idx[..., None], axis=-2)[..., 0, :]
        np.divide(nearest, d[..., None], out=units[..., m, :], where=(d > COINCIDENT_EPS)[..., None])
    return dists, units


def point_features(w, pts):
    """Per-point layer-2 activations relu(z2 + b2) of pts (..., 3): the bias
    and ReLU on every point's z2 from classifier._point_layers. pool_vector
    pools before them, and must give their max over points bit for bit."""
    a2 = _point_layers(w, pts)[1]
    a2 += w.b2
    return np.maximum(a2, 0.0, out=a2)


def dense_batch_backward(w, fwd, g_logits):
    """classifier._batch_backward over every row of the batch: a dense
    (B, n, 128) gradient wrt z2 holding each channel's winner, a dense
    (B, n, 64) one wrt z1, and BLAS products that sum over all B * n rows.
    The winner-rows backward must match it within rounding. fwd is what
    classifier._batch_forward returns plus a2, the (B, n, 128) per-point
    features."""
    B, n, _ = fwd["pts"].shape
    g_a3 = g_logits @ w.w4.T
    g_z3 = g_a3 * (fwd["a3"] > 0.0)
    g_w4 = fwd["a3"].T @ g_logits
    g_b4 = g_logits.sum(axis=0)
    g_w3 = fwd["pooled"].T @ g_z3
    g_b3 = g_z3.sum(axis=0)
    g_pooled = g_z3 @ w.w3.T  # (B, 128)
    # The gradients wrt a2 and a1 are gated in place into those wrt z2 and
    # z1: a > 0 exactly where z > 0.
    g_z2 = np.zeros_like(fwd["a2"])  # (B, n, 128)
    bi = np.arange(B)[:, None]
    ci = np.arange(g_pooled.shape[1])[None, :]
    g_z2[bi, fwd["winners"], ci] = g_pooled
    g_z2 *= fwd["a2"] > 0.0
    flat_a1 = fwd["a1"].reshape(B * n, -1)
    flat_gz2 = g_z2.reshape(B * n, -1)
    g_w2 = flat_a1.T @ flat_gz2
    g_b2 = flat_gz2.sum(axis=0)
    g_z1 = g_z2 @ w.w2.T
    g_z1 *= fwd["a1"] > 0.0
    flat_pts = fwd["pts"].reshape(B * n, -1)
    flat_gz1 = g_z1.reshape(B * n, -1)
    g_w1 = flat_pts.T @ flat_gz1
    g_b1 = flat_gz1.sum(axis=0)
    return [g_w1, g_b1, g_w2, g_b2, g_w3, g_b3, g_w4, g_b4]


def predict(w, X) -> int:
    """argmax_k h(k|X) of one cloud from its own forward pass, ties to the
    lowest class index: accuracy and attack_success_rate classify a split
    with one head call, and must count the hits this per-cloud call does."""
    return int(np.argmax(forward_logits(w, X)))


def point_by_point_save_dataset(ds, path) -> None:
    """geometry.save_dataset writing one f-string per point line: the writer
    must produce the same bytes."""
    with open(path, "w", encoding="ascii") as fh:
        for X, lab in zip(ds.clouds, ds.labels):
            fh.write(f"{int(lab)} {len(X)}\n")
            for x, y, z in X.tolist():
                fh.write(f"{x:.9g} {y:.9g} {z:.9g}\n")


def text_mode_read(data: bytes, encoding: str) -> str:
    """geometry.read_text of a file holding data: the whole file decoded at
    once, then CRLF and a lone CR turned into LF."""
    return data.decode(encoding).replace("\r\n", "\n").replace("\r", "\n")


def line_by_line_load_dataset(path, num_classes: int) -> Dataset:
    """geometry.load_dataset parsing every point line by str.split and
    float(): the loader must give the same arrays bit for bit, and the same
    error message for a file it rejects. The file is decoded as latin-1 and
    split at its line ends, and the first line holding a byte above 0x7F
    names the ASCII error before any record is parsed."""
    clouds: list = []
    labels: list = []
    with open(path, "rb") as fh:
        lines = text_mode_read(fh.read(), "latin-1").split("\n")
    for k, ln in enumerate(lines):
        if not ln.isascii():
            raise ValueError(f"{path}: line {k + 1}: not ascii text")
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


def point_to_cloud(c, X):
    """Distance from c to its nearest point of X (the first one on ties) and
    the unit direction away from that point, zero within COINCIDENT_EPS."""
    best, nearest = math.inf, None
    for x in X:
        d = math.dist(c, x)
        if d < best:
            best, nearest = d, x
    if best <= COINCIDENT_EPS:
        return best, [0.0, 0.0, 0.0]
    return best, [(ci - xi) / best for ci, xi in zip(c, nearest)]


def distance_to_cloud(c, X):
    """(distance, unit direction) from the one point c to the cloud X.

    Not a reference: a one-point query of geometry.DistanceState, the code
    under test, for tests that check its one-point results.
    """
    return tuple(a[0, 0] for a in DistanceState([as_cloud(X)]).query(as_point(c)[None]))


def group_loss(w, clouds, source: int, c, lam: float) -> float:
    """Untargeted margin loss plus distance penalty, summed over the clouds."""
    c = as_point(c)
    if len(clouds) < 1:
        raise ValueError("need at least one cloud")
    total = 0.0
    for X in clouds:
        logits = forward_logits(w, np.vstack([as_cloud(X), c[None, :]]))
        others = np.delete(logits, source)
        total += float(logits[source] - others.max())
        total += lam * distance_to_cloud(c, X)[0]
    return total


def samplewise_loss(w, X, source: int, target: int, c, lam: float) -> float:
    """Targeted margin loss plus distance penalty for a single cloud."""
    c = as_point(c)
    logits = forward_logits(w, np.vstack([as_cloud(X), c[None, :]]))
    return float(logits[source] - logits[target]) + lam * distance_to_cloud(c, X)[0]


def mean_cross_entropy(w, data) -> float:
    """Mean softmax cross-entropy of the classifier over a dataset."""
    total = 0.0
    for X, lab in zip(data.clouds, data.labels):
        logits = forward_logits(w, X)
        shifted = logits - logits.max()
        total += float(np.log(np.exp(shifted).sum()) - shifted[lab])
    return total / len(data)


def gamma_cdf(fit, x: float) -> float:
    """Null cdf G(x) of a fitted Gamma."""
    if x <= 0:
        return 0.0
    return float(special.gammainc(fit.shape, x / fit.scale))
