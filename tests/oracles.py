"""Straight-line reference quantities the tests check the program against.

Each one re-encodes whole clouds with plain forward passes, so it shares no
cache or shortcut with the code under test.
"""

import math

import numpy as np
from scipy import special

from pcbdet.classifier import forward_logits
from pcbdet.geometry import COINCIDENT_EPS, as_cloud, as_point, point_to_cloud_distance


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
        total += lam * point_to_cloud_distance(c, X)
    return total


def samplewise_loss(w, X, source: int, target: int, c, lam: float) -> float:
    """Targeted margin loss plus distance penalty for a single cloud."""
    c = as_point(c)
    logits = forward_logits(w, np.vstack([as_cloud(X), c[None, :]]))
    return float(logits[source] - logits[target]) + lam * point_to_cloud_distance(c, X)


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
