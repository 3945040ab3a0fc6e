"""Point-insertion backdoor attacks: pattern construction, poisoning, metrics.

The trigger is a small set of points placed at a common spatial location just
outside the source-class clouds. Poisoning appends trigger-embedded copies of
source-class training clouds relabeled to the target class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pcbdet.classifier import ClassifierWeights, accuracy, insertion_logits, pool_vector
from pcbdet.geometry import Dataset, DistanceState, as_cloud, as_point, ball_points

__all__ = [
    "BackdoorPattern",
    "AttackConfig",
    "make_pattern",
    "embed_pattern",
    "choose_center",
    "poison_dataset",
    "attack_success_rate",
    "save_pattern",
]

# Radius of the ball the local offsets are drawn from, in unit-ball scale.
GEOMETRY_RADIUS = 0.05

# Random directions choose_center places its center candidates along.
CENTER_CANDIDATES = 64

# Share of the center candidates, nearest to the source clouds first, that
# choose_center picks from.
NEAR_FRACTION = 0.25


@dataclass
class BackdoorPattern:
    """Insertion trigger: a center plus a small local offset geometry."""

    center: np.ndarray  # (3,)
    offsets: np.ndarray  # (n', 3)
    radius: float = GEOMETRY_RADIUS  # geometry radius bound for the offsets

    def __post_init__(self):
        self.center = as_point(self.center)
        self.offsets = np.asarray(self.offsets, dtype=np.float64)
        if self.offsets.ndim != 2 or self.offsets.shape[1] != 3 or len(self.offsets) < 1:
            raise ValueError("offsets must be a nonempty (n', 3) array")
        norms = np.linalg.norm(self.offsets, axis=1)
        if norms.max() > self.radius + 1e-12:
            raise ValueError(f"offset norm {norms.max():.4f} exceeds geometry radius {self.radius}")

    @property
    def points(self) -> np.ndarray:
        """The inserted points: offsets translated to the center."""
        return self.offsets + self.center


@dataclass
class AttackConfig:
    """Attack settings; also the run config's attack section."""

    source: int = 2
    target: int = 4
    poison_count: int = 15
    pattern_points: int = 3
    pattern_radius: float = GEOMETRY_RADIUS
    seed: int = 3
    standoff: float = 0.2

    def __post_init__(self):
        if self.source == self.target:
            raise ValueError("source and target classes must differ")
        if self.poison_count < 1:
            raise ValueError("poison count must be >= 1")
        if self.pattern_points < 1:
            raise ValueError("need at least one pattern point")
        if self.pattern_radius <= 0:
            raise ValueError("pattern radius must be positive")
        if self.standoff <= 0:
            raise ValueError("standoff must be positive")
        if self.seed < 0:
            raise ValueError(f"attack_seed = {self.seed} must be >= 0")


def make_pattern(center, n_points: int, seed: int, radius: float = GEOMETRY_RADIUS) -> BackdoorPattern:
    """Random local geometry: n_points offsets drawn uniformly in a ball."""
    offsets = radius * ball_points(np.random.default_rng([int(seed), 0x0FF5E7]), n_points)
    return BackdoorPattern(center=as_point(center), offsets=offsets, radius=radius)


def embed_pattern(X, pattern: BackdoorPattern) -> np.ndarray:
    """X followed by the pattern points; the input rows are copied bit-exact."""
    X = as_cloud(X)
    return np.vstack([X, pattern.points])


def choose_center(source_clouds, standoff: float, seed: int, weights: ClassifierWeights) -> np.ndarray:
    """Pick an insertion center close to the source clouds, guided by a
    reference classifier (the attacker's clean model).

    Draws CENTER_CANDIDATES random directions and places each candidate at
    (1 + standoff) * direction, just outside the unit ball the normalized
    clouds live in. Among the nearest NEAR_FRACTION of the candidates (at
    least one), ranked by average distance to the source clouds, it returns
    the one whose features win the most max-pool channels, averaged over the
    source clouds; ties go to the nearer candidate, so a network that wins
    no channel (all-zero weights) gets the nearest candidate. A point that
    wins no channel leaves the logits unchanged, and the nearest candidate
    can sit where the clouds' own points already dominate its channels (past
    the end of a rod, along its axis), so a trigger there may never be
    learned. Stands in for the attacker-side location optimization,
    preserving the property the detector relies on: a common location close
    to source-class clouds.
    """
    if len(source_clouds) < 1:
        raise ValueError("need at least one source cloud")
    if standoff <= 0:
        raise ValueError("standoff must be positive")
    rng = np.random.default_rng([int(seed), 0xCE17E5])
    dirs = rng.normal(size=(CENTER_CANDIDATES, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    points = (1.0 + standoff) * dirs
    dists, _ = DistanceState(as_cloud(X) for X in source_clouds).query(points)
    order = np.argsort(dists.mean(axis=1), kind="stable")
    near = order[: max(1, int(len(order) * NEAR_FRACTION))]
    pooled = np.stack([pool_vector(weights, X) for X in source_clouds])
    _, cache = insertion_logits(weights, pooled, points[near])
    wins = cache["win"].sum(axis=-1).mean(axis=-1)  # (len(near),)
    return points[near[int(np.argmax(wins))]]


def poison_dataset(train: Dataset, cfg: AttackConfig, pattern: BackdoorPattern) -> Dataset:
    """Append poison_count trigger-embedded source clouds relabeled to target.

    The poisoned copies come from distinct source-class training samples
    (chosen by a seeded draw without replacement); original samples are
    untouched.
    """
    source_idx = [i for i, lab in enumerate(train.labels) if lab == cfg.source]
    if len(source_idx) < cfg.poison_count:
        raise ValueError(
            f"class {cfg.source} has {len(source_idx)} samples, need {cfg.poison_count} to poison"
        )
    rng = np.random.default_rng([int(cfg.seed), 0x9015])
    chosen = rng.choice(len(source_idx), size=cfg.poison_count, replace=False)
    clouds = list(train.clouds)
    labels = list(train.labels)
    for j in sorted(int(k) for k in chosen):
        clouds.append(embed_pattern(train.clouds[source_idx[j]], pattern))
        labels.append(cfg.target)
    return Dataset(clouds=clouds, labels=np.asarray(labels), num_classes=train.num_classes)


def attack_success_rate(w: ClassifierWeights, held_out_source, pattern: BackdoorPattern, target: int) -> float:
    """Fraction of held-out source clouds predicted as target after embedding."""
    if len(held_out_source) < 1:
        raise ValueError("need at least one held-out source cloud")
    embedded = [embed_pattern(X, pattern) for X in held_out_source]
    return accuracy(w, Dataset(clouds=embedded, labels=[target] * len(embedded), num_classes=w.num_classes))


# ---------------------------------------------------------------------------
# Pattern file: "n' radius", center line, then n' offset lines
# ---------------------------------------------------------------------------


def save_pattern(pattern: BackdoorPattern, path) -> None:
    """Write the trigger as a record of the attack; no stage reads it back."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{len(pattern.offsets)} {repr(float(pattern.radius))}\n")
        fh.write(" ".join(repr(float(v)) for v in pattern.center) + "\n")
        for row in pattern.offsets:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
