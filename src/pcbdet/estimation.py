"""Backdoor trigger reverse-engineering.

For each putative source class, gradient descent searches for the insertion
location of a single point that flips most of that class's clean clouds,
while an adaptively scaled penalty keeps the location close to the clouds.
Feasible iterates (group misclassification fraction >= pi) are recorded and
the closest one across all random restarts wins. A per-sample variant reuses
the same loop with a targeted margin loss to expose "intrinsic backdoors",
whose per-sample locations scatter instead of agreeing on one spot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pcbdet.classifier import (
    ClassifierWeights,
    insertion_gradient,
    insertion_logits,
    insertion_predictions,
    margin_cotangent,
    pool_vector,
)
from pcbdet.geometry import as_cloud, cloud_distances

__all__ = [
    "EstimationParams",
    "GroupEstimate",
    "estimate_group_location",
    "vote_target_class",
    "estimate_samplewise_location",
]

TRACE_HEADER = "restart,iter,loss,rho,lambda,cx,cy,cz"

# Numerical guard only: a restart stuck in an always-feasible region would
# otherwise grow lambda past float range. Any lambda this large has long left
# the regime where the candidate can be competitive.
LAMBDA_CAP = 1e30


@dataclass
class EstimationParams:
    pi: float = 0.9
    delta: float = 0.1
    tau_max: int = 3000
    alpha: float = 1.5
    lambda0: float = 1e-5
    n_restarts: int = 10

    def __post_init__(self):
        if not 0.0 < self.pi <= 1.0:
            raise ValueError("pi must be in (0, 1]")
        if self.delta <= 0:
            raise ValueError("step size must be positive")
        if self.alpha <= 1.0:
            raise ValueError("scaling factor must exceed 1")
        if self.tau_max < 1:
            raise ValueError("need at least one iteration")
        if self.lambda0 <= 0:
            raise ValueError("initial penalty must be positive")
        if self.n_restarts < 1:
            raise ValueError("need at least one restart")


@dataclass
class GroupEstimate:
    """Result of the group search for one putative source class."""

    source: int
    center: np.ndarray | None  # None means the search never became feasible
    target: int | None  # voted target class; None when failed
    rho: float  # misclassification fraction re-checked at center

    @property
    def failed(self) -> bool:
        return self.center is None


# ---------------------------------------------------------------------------
# Shared descent loop
# ---------------------------------------------------------------------------


def _descent(w, clouds, source, target, params, seed, trace_path):
    """Run the adaptive-penalty descent from n_restarts seeded inits.

    target None selects the group (untargeted) variant: feasibility means at
    least a pi fraction of clouds misclassified away from source. With a
    target, feasibility means the (single) cloud is classified as target.

    Returns (best_center, preds), preds being the exact prediction on each
    cloud with best_center inserted, or (None, None) when no recorded
    candidate passes the re-check.
    """
    clouds = [as_cloud(X) for X in clouds]
    R = params.n_restarts
    pooled = np.stack([pool_vector(w, X) for X in clouds])  # (M, 128)

    rng = np.random.default_rng([int(seed), 0xA16])
    c = rng.normal(size=(R, 3))
    lam = np.full(R, params.lambda0)
    best_sum = np.full(R, np.inf)
    best_c = np.zeros((R, 3))

    logits, cache = insertion_logits(w, pooled, c)  # (R, M, K)
    _, units = cloud_distances(c, clouds)

    trace = open(trace_path, "w", encoding="ascii") if trace_path else None
    if trace:
        trace.write(TRACE_HEADER + "\n")
    try:
        for tau in range(params.tau_max):
            g_net = insertion_gradient(w, cache, margin_cotangent(logits, source, target))  # (R, 3)
            grad = g_net + lam[:, None] * units.sum(axis=1)
            # The step is delta * grad, its length capped at delta: near a
            # learned trigger the margin gradient is steep enough that a
            # plain step leaves the trigger's basin at once.
            norm = np.sqrt(np.einsum("rd,rd->r", grad, grad))
            c = c - params.delta * grad / np.maximum(norm, 1.0)[:, None]

            logits, cache = insertion_logits(w, pooled, c)
            dists, units = cloud_distances(c, clouds)
            rho = _flip_rate(np.argmax(logits, axis=-1), source, target)  # (R,)
            feasible = rho >= params.pi
            lam = np.where(feasible, np.minimum(lam * params.alpha, LAMBDA_CAP), lam / params.alpha)
            total = dists.sum(axis=1)
            improved = feasible & (total < best_sum) & np.all(np.isfinite(c), axis=1)
            best_sum = np.where(improved, total, best_sum)
            best_c[improved] = c[improved]

            if trace:
                margins = (margin_cotangent(logits, source, target) * logits).sum(axis=-1)  # (R, M)
                loss = margins.sum(axis=1) + lam * total
                for r in range(R):
                    trace.write(
                        f"{r},{tau + 1},{float(loss[r])!r},{float(rho[r])!r},{float(lam[r])!r},"
                        f"{float(c[r, 0])!r},{float(c[r, 1])!r},{float(c[r, 2])!r}\n"
                    )
    finally:
        if trace:
            trace.close()

    order = np.argsort(best_sum, kind="stable")
    for r in order:
        if not np.isfinite(best_sum[r]):
            break
        # Recorded candidates are re-validated with exact predictions, not
        # trusted from the loop's last-ulp insertion logits.
        preds, _ = insertion_predictions(w, pooled, best_c[r])
        if _flip_rate(preds, source, target) >= params.pi:
            return best_c[r].copy(), preds
    return None, None


def _flip_rate(preds: np.ndarray, source: int, target: int | None):
    """Share of the clouds (last axis of preds) that the insertion flips.

    Group search (target None): predicted away from source. Sample-wise:
    predicted as target.
    """
    if target is None:
        return np.mean(preds != source, axis=-1)
    return np.mean(preds == target, axis=-1)


def _vote(preds: np.ndarray, source: int, num_classes: int) -> int:
    """Most common class in preds other than source, ties to the lowest index."""
    counts = np.bincount(preds, minlength=num_classes)
    counts[source] = -1
    return int(np.argmax(counts))


def estimate_group_location(
    w: ClassifierWeights,
    clouds,
    source: int,
    params: EstimationParams,
    seed: int,
    trace_path=None,
) -> GroupEstimate:
    """Estimate the common insertion location for one putative source class.

    Runs n_restarts descent trajectories from c ~ N(0, I), each step of
    length at most delta; each iterate that flips at least a pi fraction of
    the clouds away from the source class is a candidate, and the candidate
    with the smallest total distance to the clouds wins. Returns a failed
    estimate when no iterate of any restart is ever feasible. On success,
    rho and the voted target (vote_target_class) come from the same exact
    predictions that re-checked the winner.
    """
    if len(clouds) < 1:
        raise ValueError("need at least one cloud")
    if not 0 <= source < w.num_classes:
        raise ValueError("source class out of range")
    center, preds = _descent(w, clouds, source, None, params, seed, trace_path)
    if center is None:
        return GroupEstimate(source=source, center=None, target=None, rho=0.0)
    return GroupEstimate(
        source=source,
        center=center,
        target=_vote(preds, source, w.num_classes),
        rho=float(_flip_rate(preds, source, None)),
    )


def vote_target_class(w: ClassifierWeights, clouds, c_hat, source: int) -> int:
    """Most common predicted class (excluding source) after inserting c_hat.

    Ties break toward the lowest class index.
    """
    if c_hat is None:
        raise ValueError("cannot vote with a failed estimate")
    preds, _ = insertion_predictions(w, np.stack([pool_vector(w, X) for X in clouds]), c_hat)
    return _vote(preds, source, w.num_classes)


def estimate_samplewise_location(
    w: ClassifierWeights,
    X,
    source: int,
    target: int,
    params: EstimationParams,
    seed: int,
    trace_path=None,
):
    """Per-sample insertion location driving this one cloud to the voted target.

    Same restart / step / penalty machinery as the group search, with the
    margin replaced by the targeted difference h(source) - h(target) and
    feasibility by prediction equal to target. Returns the location or None.
    """
    if target == source:
        raise ValueError("target must differ from source")
    if not 0 <= target < w.num_classes:
        raise ValueError("target class out of range")
    center, _ = _descent(w, [X], source, target, params, seed, trace_path)
    return center
