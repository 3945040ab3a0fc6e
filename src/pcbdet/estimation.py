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

from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from pcbdet.classifier import (
    POINT_DIMS,
    ClassifierWeights,
    insertion_gradient,
    insertion_logits,
    margin_cotangent,
    pool_vector,
)
from pcbdet.geometry import DistanceState, as_cloud, as_point

__all__ = [
    "EstimationParams",
    "GroupEstimate",
    "SearchProblem",
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

    center: np.ndarray | None  # None means the search never became feasible
    target: int | None  # voted target class; None when failed
    rho: float  # misclassification fraction at center

    @property
    def failed(self) -> bool:
        return self.center is None


@dataclass(frozen=True)
class SearchProblem:
    """One trigger search: clouds, their pools, the putative source class
    and a seed.

    pooled is pool_vector of each cloud, stacked (M, 128): the search
    evaluates the network from these rows and never pools a cloud itself.
    target None makes it a group search (flip the clouds away from source);
    a target makes it a sample-wise search (drive the cloud to target).
    trace_path, when set, receives the per-iteration trace CSV.
    """

    clouds: list
    pooled: np.ndarray
    source: int
    seed: int
    target: int | None = None
    trace_path: object = None


# ---------------------------------------------------------------------------
# Shared descent loop
# ---------------------------------------------------------------------------


def _descent(w, problems, params):
    """Run the adaptive-penalty descent of a stack of problems at once.

    The problems share their cloud shapes and kind (all group or all
    targeted); each keeps its own source, target, seed and trace, and its
    n_restarts seeded inits. The state carries a leading problem axis:
    problems x restarts x clouds. Every per-problem value is the one a stack
    of one computes, bit for bit: every product of the network and its
    gradient runs on row-stable blocks and every reduction runs along the
    same axis as alone.

    target None selects the group (untargeted) variant: feasibility means at
    least a pi fraction of clouds misclassified away from source. With a
    target, feasibility means the (single) cloud is classified as target.

    The loop's logits are exact (see insertion_logits), so a feasible
    iterate needs no re-check.

    Per descent, not per iteration: the clouds' pools come from the
    problems, the clouds' distance constants are built once (DistanceState),
    and a sample-wise stack's margin cotangent, which depends on the logits'
    shape alone, is computed once. Per iteration: the network's logits and
    gradient at the new points, a group stack's cotangent, and one query of
    the distance state.

    Returns one (best_center, preds) per problem, preds being the
    prediction on each cloud with best_center inserted, or (None, None)
    when no iterate was feasible.
    """
    P, R, M = len(problems), params.n_restarts, len(problems[0].clouds)
    distances = DistanceState(np.stack([as_cloud(pr.clouds[m]) for pr in problems]) for m in range(M))
    pooled = np.stack([pr.pooled for pr in problems])[:, None]  # (P, 1, M, 128)
    # Class indices shaped to broadcast against the (P, R, M) prediction axes.
    sources = np.array([pr.source for pr in problems])[:, None, None]
    targets = None if problems[0].target is None else np.array([pr.target for pr in problems])[:, None, None]

    c = np.stack([np.random.default_rng([int(pr.seed), 0xA16]).normal(size=(R, 3)) for pr in problems])
    lam = np.full((P, R), params.lambda0)
    best_sum = np.full((P, R), np.inf)
    best_c = np.zeros((P, R, 3))
    best_preds = np.zeros((P, R, M), dtype=np.intp)

    logits, cache = insertion_logits(w, pooled, c)  # (P, R, M, K)
    cotangent = margin_cotangent(logits, sources, targets)
    _, units = distances.query(c)

    with ExitStack() as files:
        traces = [
            (p, files.enter_context(open(pr.trace_path, "w", encoding="ascii")))
            for p, pr in enumerate(problems)
            if pr.trace_path
        ]
        for _, fh in traces:
            fh.write(TRACE_HEADER + "\n")
        for tau in range(params.tau_max):
            g_net = insertion_gradient(w, cache, cotangent)  # (P, R, 3)
            grad = g_net + lam[..., None] * units.sum(axis=-2)
            # The step is delta * grad, its length capped at delta: near a
            # learned trigger the margin gradient is steep enough that a
            # plain step leaves the trigger's basin at once.
            norm = np.sqrt(np.einsum("...d,...d->...", grad, grad))
            c = c - params.delta * grad / np.maximum(norm, 1.0)[..., None]

            logits, cache = insertion_logits(w, pooled, c)
            if targets is None:
                cotangent = margin_cotangent(logits, sources, None)
            dists, units = distances.query(c)
            preds = np.argmax(logits, axis=-1)  # (P, R, M)
            rho = _flip_rate(preds, sources, targets)  # (P, R)
            feasible = rho >= params.pi
            lam = np.where(feasible, np.minimum(lam * params.alpha, LAMBDA_CAP), lam / params.alpha)
            total = dists.sum(axis=-1)
            improved = feasible & (total < best_sum)
            best_sum = np.where(improved, total, best_sum)
            best_c[improved] = c[improved]
            best_preds[improved] = preds[improved]

            if traces:
                margins = (cotangent * logits).sum(axis=-1)  # (P, R, M)
                loss = margins.sum(axis=-1) + lam * total
                for p, fh in traces:
                    for r in range(R):
                        fh.write(
                            f"{r},{tau + 1},{float(loss[p, r])!r},{float(rho[p, r])!r},{float(lam[p, r])!r},"
                            f"{float(c[p, r, 0])!r},{float(c[p, r, 1])!r},{float(c[p, r, 2])!r}\n"
                        )

    best = np.argmin(best_sum, axis=1)  # the first restart on ties
    return [
        (best_c[p, r].copy(), best_preds[p, r]) if np.isfinite(best_sum[p, r]) else (None, None)
        for p, r in enumerate(best)
    ]


def _flip_rate(preds: np.ndarray, source, target):
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


def _solve(w, problems, params):
    """(center, preds) of every problem; problems whose clouds have the same
    shapes form one stack and run in one descent."""
    stacks: dict = {}
    for i, pr in enumerate(problems):
        stacks.setdefault(tuple(np.shape(X) for X in pr.clouds), []).append(i)
    out = [None] * len(problems)
    for stack in stacks.values():
        for i, result in zip(stack, _descent(w, [problems[i] for i in stack], params)):
            out[i] = result
    return out


def _check_problem(w: ClassifierWeights, pr: SearchProblem) -> None:
    if len(pr.clouds) < 1:
        raise ValueError("need at least one cloud")
    if np.shape(pr.pooled) != (len(pr.clouds), POINT_DIMS[-1]):
        raise ValueError(f"pooled must hold one {POINT_DIMS[-1]}-channel pool per cloud")
    if not 0 <= pr.source < w.num_classes:
        raise ValueError("source class out of range")


def estimate_group_location(w: ClassifierWeights, problems, params: EstimationParams) -> list:
    """Estimate the common insertion location of each group problem.

    problems is a list of SearchProblem without target, one per putative
    source class; the result is one GroupEstimate per problem, in order.
    Runs n_restarts descent trajectories per problem from c ~ N(0, I), each
    step of length at most delta; each iterate that flips at least a pi
    fraction of the clouds away from the source class is a candidate, and
    the candidate with the smallest total distance to the clouds wins. A
    problem none of whose iterates is ever feasible gets a failed estimate.
    On success, rho and the voted target come from the descent's own
    predictions at the winner, which are exact. Problems whose clouds
    have the same shapes run as one stacked descent; the result of each is
    the same as when it runs alone.
    """
    for pr in problems:
        _check_problem(w, pr)
        if pr.target is not None:
            raise ValueError("a group problem has no target")
    estimates = []
    for pr, (center, preds) in zip(problems, _solve(w, problems, params)):
        if center is None:
            estimates.append(GroupEstimate(center=None, target=None, rho=0.0))
        else:
            estimates.append(
                GroupEstimate(
                    center=center,
                    target=_vote(preds, pr.source, w.num_classes),
                    rho=float(_flip_rate(preds, pr.source, None)),
                )
            )
    return estimates


def vote_target_class(w: ClassifierWeights, clouds, c_hat, source: int) -> int:
    """Most common predicted class (excluding source) after inserting c_hat.

    Ties break toward the lowest class index.
    """
    if c_hat is None:
        raise ValueError("cannot vote with a failed estimate")
    logits, _ = insertion_logits(w, np.stack([pool_vector(w, X) for X in clouds]), as_point(c_hat))
    return _vote(np.argmax(logits, axis=-1), source, w.num_classes)


def estimate_samplewise_location(w: ClassifierWeights, problems, params: EstimationParams) -> list:
    """Per-sample insertion location driving each problem's cloud to its target.

    problems is a list of SearchProblem with a target, usually one cloud
    each. Same restart / step / penalty machinery as the group search, with
    the margin replaced by the targeted difference h(source) - h(target) and
    feasibility by prediction equal to target. Returns the location or None
    per problem, in order; problems of equal cloud shapes share one stacked
    descent without changing any result.
    """
    for pr in problems:
        _check_problem(w, pr)
        if pr.target is None:
            raise ValueError("a sample-wise problem needs a target")
        if pr.target == pr.source:
            raise ValueError("target must differ from source")
        if not 0 <= pr.target < w.num_classes:
            raise ValueError("target class out of range")
    return [center for center, _ in _solve(w, problems, params)]
