"""Straight-line reference quantities the tests check the program against.

Each one re-encodes whole clouds with plain forward passes, so it shares no
cache or shortcut with the code under test.
"""

import math

import numpy as np
from scipy import special

from pcbdet.classifier import forward_logits
from pcbdet.geometry import COINCIDENT_EPS, as_cloud, as_point, cloud_distances


def full_scan_distances(points, clouds):
    """geometry.cloud_distances by a full scan: every squared distance by
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

    Not a reference: a one-point call of geometry.cloud_distances, the code
    under test, for tests that check its one-point results.
    """
    return tuple(a[0, 0] for a in cloud_distances(as_point(c)[None], [as_cloud(X)]))


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
