"""A minimal PointNet-style classifier with hand-written backpropagation.

Architecture: per-point features 3 -> 64 -> 128 (affine + ReLU each), a global
per-channel max over points, then a head 128 -> 64 -> K (affine + ReLU, then
affine). Logits depend on the cloud only through the per-channel max, so they
are exactly invariant to point order and to duplicated points.

Everything runs in float64 numpy. Training is plain SGD with momentum 0.9 and
is bit-deterministic under a fixed seed, whatever the BLAS thread count.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from pcbdet.geometry import Dataset, as_cloud, ball_points

__all__ = [
    "ClassifierWeights",
    "TrainConfig",
    "init_weights",
    "forward_logits",
    "head_logits",
    "pool_vector",
    "insertion_logits",
    "insertion_gradient",
    "margin_cotangent",
    "train",
    "accuracy",
    "save_weights",
    "load_weights",
]

POINT_DIMS = (3, 64, 128)
HEAD_HIDDEN = 64

# SGD momentum of train.
MOMENTUM = 0.9

# Stray points appended to every training cloud, uniform in a ball of this
# radius and fresh each epoch: without them a network this small flips class
# for almost any single far-out insertion.
OUTLIER_POINTS = 2
OUTLIER_RADIUS = 0.9

# Softmax temperature folded into the output layer after training; it leaves
# every prediction unchanged.
LOGIT_SCALE = 0.05

WEIGHTS_MAGIC = "PCBDET-WEIGHTS"
WEIGHTS_VERSION = 1


class WeightsFormatError(ValueError):
    """Weight file is truncated, corrupt, or has an unsupported version."""


@dataclass
class ClassifierWeights:
    """Parameter arrays; shapes are (in, out) for matrices, (out,) for biases."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    w4: np.ndarray
    b4: np.ndarray

    @property
    def num_classes(self) -> int:
        return self.w4.shape[1]

    def arrays(self):
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3, self.w4, self.b4]

    def validate(self) -> None:
        for arr, want in zip(self.arrays(), _weight_shapes(self.num_classes)):
            if arr.shape != want:
                raise ValueError(f"weight shape mismatch: {arr.shape} != {want}")
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite parameter")


def _weight_shapes(num_classes: int) -> list:
    """Shapes of the parameter arrays of a num_classes network, in ClassifierWeights order."""
    return [
        (POINT_DIMS[0], POINT_DIMS[1]),
        (POINT_DIMS[1],),
        (POINT_DIMS[1], POINT_DIMS[2]),
        (POINT_DIMS[2],),
        (POINT_DIMS[2], HEAD_HIDDEN),
        (HEAD_HIDDEN,),
        (HEAD_HIDDEN, num_classes),
        (num_classes,),
    ]


@dataclass
class TrainConfig:
    """SGD-with-momentum training settings."""

    epochs: int = 12
    batch_size: int = 16
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.seed < 0:
            raise ValueError(f"train_seed = {self.seed} must be >= 0")


def init_weights(num_classes: int, seed: int) -> ClassifierWeights:
    if num_classes < 2:
        raise ValueError("need at least two classes")
    rng = np.random.default_rng([int(seed), 0xC1A55])
    d0, d1, d2 = POINT_DIMS

    def he(fan_in, fan_out):
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))

    w = ClassifierWeights(
        w1=he(d0, d1),
        b1=np.zeros(d1),
        w2=he(d1, d2),
        b2=np.zeros(d2),
        w3=he(d2, HEAD_HIDDEN),
        b3=np.zeros(HEAD_HIDDEN),
        w4=he(HEAD_HIDDEN, num_classes),
        b4=np.zeros(num_classes),
    )
    w.validate()
    return w


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


# Rows are multiplied in fixed-shape zero-padded blocks so that a row's
# result is bit-identical no matter how many other rows the input holds or
# where it sits. (BLAS picks kernels by matrix shape; without blocking,
# appending a point can perturb every feature by an ulp and break the exact
# permutation/duplicate invariance of the logits, and a cloud's logits or a
# problem's search gradient in a stack could differ from its own alone.)
_ROW_BLOCK = 256


def _block_product(x: np.ndarray, W: np.ndarray) -> np.ndarray:
    """x @ W over the last axis of x, in _ROW_BLOCK-row blocks: the full
    blocks as one stacked matmul (one product per block) written into the
    result, the tail block zero-padded."""
    rows = x.reshape(-1, x.shape[-1])
    full = len(rows) - len(rows) % _ROW_BLOCK
    out = np.empty((len(rows), W.shape[1]))
    np.matmul(rows[:full].reshape(-1, _ROW_BLOCK, x.shape[-1]), W, out=out[:full].reshape(-1, _ROW_BLOCK, W.shape[1]))
    if full < len(rows):
        padded = np.zeros((_ROW_BLOCK, x.shape[-1]))
        padded[: len(rows) - full] = rows[full:]
        out[full:] = (padded @ W)[: len(rows) - full]
    return out.reshape(*x.shape[:-1], W.shape[1])


def _point_layers(w: ClassifierWeights, pts: np.ndarray):
    """Layer-1 activations a1 (ReLU in place) and layer-2 pre-activations z2
    of pts (..., 3), with row-stable arithmetic.

    Every cloud is pooled before the layer-2 bias and ReLU (an inserted
    point is its own pool). Both are monotone, and so is the rounding of the
    bias-add, so relu(max(z2) + b2) is max(relu(z2 + b2)) bit for bit, and
    only the pooled rows take them. No pre-activation of layer 1 is kept:
    a > 0 exactly where z > 0, which is all the backward pass needs.
    """
    a1 = _block_product(pts, w.w1)
    a1 += w.b1
    np.maximum(a1, 0.0, out=a1)
    return a1, _block_product(a1, w.w2)


def _head(w: ClassifierWeights, pooled: np.ndarray):
    """Hidden activation a3 and logits of the head, with row-stable
    arithmetic; pooled is (..., 128)."""
    a3 = _block_product(pooled, w.w3)
    a3 += w.b3
    np.maximum(a3, 0.0, out=a3)
    logits = _block_product(a3, w.w4)
    logits += w.b4
    return a3, logits


def forward_logits(w: ClassifierWeights, X) -> np.ndarray:
    """Pre-softmax logits h(k|X) for a single cloud."""
    return head_logits(w, pool_vector(w, X))


def head_logits(w: ClassifierWeights, pooled: np.ndarray) -> np.ndarray:
    """Logits from pooled features (..., 128), with row-stable arithmetic:
    a cloud's pool_vector gives its forward_logits bit for bit."""
    return _head(w, pooled)[1]


def pool_vector(w: ClassifierWeights, X) -> np.ndarray:
    """Per-channel max of the per-point features of X (shape (128,)).

    Inserting a point c into X changes the logits only through
    max(pool_vector(X), features(c)), which is what the estimation loop
    exploits to avoid re-encoding X at every iterate.
    """
    return np.maximum(_point_layers(w, as_cloud(X))[1].max(axis=0) + w.b2, 0.0)


def insertion_logits(w: ClassifierWeights, pooled_base: np.ndarray, c: np.ndarray):
    """Logits of clouds with one point appended, from cached pools.

    pooled_base: (..., M, 128) per-cloud pooled features, its leading axes
    broadcasting against those of c; c: (..., 3) insertion locations.
    Returns (logits, cache) where logits has shape (..., M, K). Every row is
    forward_logits(w, X_m + {c}) bit for bit, whatever the stack's shape:
    the point's features and the head run on row-stable blocks and the
    max-pool is exact. Ties between the inserted point and an existing point
    go to the existing point (the insertion is appended after all cloud
    points).
    """
    a1, a2 = _point_layers(w, c)
    a2 += w.b2
    np.maximum(a2, 0.0, out=a2)
    a2e = a2[..., None, :]  # (..., 1, 128)
    win = a2e > pooled_base  # strict: existing points keep ties
    a3, logits = _head(w, np.maximum(pooled_base, a2e))
    return logits, {"a1": a1, "a2": a2, "win": win, "a3": a3}


def insertion_gradient(w: ClassifierWeights, cache, g_logits: np.ndarray) -> np.ndarray:
    """Reverse-mode gradient wrt the inserted point(s).

    g_logits: (..., M, K) cotangent of the logits returned by
    insertion_logits. Returns gradient of shape (..., 3): per-channel max-pool
    gates the flow to channels the inserted point strictly wins; contributions
    are summed over the M clouds. Each ReLU gates on a > 0, which holds
    exactly where z > 0.
    """
    g_a3 = _block_product(g_logits, w.w4.T)
    g_z3 = g_a3 * (cache["a3"] > 0.0)
    g_pooled = _block_product(g_z3, w.w3.T)  # (..., M, 128)
    g_a2 = (g_pooled * cache["win"]).sum(axis=-2)  # (..., 128)
    g_z2 = g_a2 * (cache["a2"] > 0.0)
    g_a1 = _block_product(g_z2, w.w2.T)
    g_z1 = g_a1 * (cache["a1"] > 0.0)
    return _block_product(g_z1, w.w1.T)


def margin_cotangent(logits: np.ndarray, source, target) -> np.ndarray:
    """d(margin)/d(logits) of the margin h(source) - h(rival), per logit row.

    The rival is target, or with target None the best class other than
    source (ties to the lowest index). logits has shape (..., K); source and
    target are class indices, or integer arrays broadcasting against
    logits.shape[:-1] that give each problem of a stack its own classes.
    """
    classes = np.arange(logits.shape[-1])
    is_source = classes == np.asarray(source)[..., None]
    g = np.broadcast_to(is_source, logits.shape).astype(logits.dtype)
    if target is None:
        rival = np.argmax(np.where(is_source, -np.inf, logits), axis=-1)
        np.put_along_axis(g, rival[..., None], -1.0, axis=-1)
    else:
        g -= classes == np.asarray(target)[..., None]
    return g


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _batch_forward(w: ClassifierWeights, pts: np.ndarray):
    """pts: (B, n, 3). Returns logits plus everything backward needs."""
    a1, z2 = _point_layers(w, pts)
    top = z2.max(axis=1)  # (B, 128)
    pooled = np.maximum(top + w.b2, 0.0)
    # Each channel's winner is the first point attaining the max of z2,
    # found by comparing with it (a float argmax would copy z2). Where the
    # pooled value is 0, every a2 is 0 and the first point, 0, wins.
    winners = (z2 == top[:, None, :]).argmax(axis=1)  # (B, 128)
    winners[pooled == 0.0] = 0
    # The head is a plain matmul, not _head: training compares no logits
    # across evaluations, and padded blocks would change the arithmetic of
    # a batch of a few clouds and so the trained weights.
    a3 = np.maximum(pooled @ w.w3 + w.b3, 0.0)
    logits = a3 @ w.w4 + w.b4
    return {
        "pts": pts,
        "a1": a1,
        "pooled": pooled,
        "winners": winners,
        "a3": a3,
        "logits": logits,
    }


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _batch_backward(w: ClassifierWeights, fwd, g_logits: np.ndarray):
    """Gradients of sum(g_logits * logits) wrt every parameter array.

    A cloud's gradient reaches its points only through each channel's
    max-pool winner, so the point layers run on the winning rows alone (at
    the default config about 50 of a cloud's 258). Every sum over clouds or
    rows is an einsum or a .sum, whose order is fixed (einsum calls no BLAS
    unless asked to optimize); the matrix products contract over a layer
    width only, never over rows. The test suite finds the trained weights
    byte-identical at 1, 2, 3 and 4 BLAS threads.
    """
    a1, pooled, a3 = fwd["a1"], fwd["pooled"], fwd["a3"]
    B, n, d1 = a1.shape
    g_z3 = g_logits @ w.w4.T
    g_z3 *= a3 > 0.0
    g_w4 = np.einsum("bj,bk->jk", a3, g_logits)
    g_b4 = g_logits.sum(axis=0)
    g_w3 = np.einsum("bi,bj->ij", pooled, g_z3)
    g_b3 = g_z3.sum(axis=0)
    # Gradient wrt z2 at each channel's winner, gated by the winner's ReLU:
    # its a2 is the pooled value, and a > 0 exactly where z > 0.
    g_win = g_z3 @ w.w3.T  # (B, 128)
    g_win *= pooled > 0.0
    flat = (np.arange(B)[:, None] * n + fwd["winners"]).ravel()  # winner rows of (B * n, .)
    a1_rows = a1.reshape(B * n, d1)
    g_w2 = np.einsum("bci,bc->ic", a1_rows[flat].reshape(B, -1, d1), g_win)
    g_b2 = g_win.sum(axis=0)
    # A row may win several channels, but each (row, channel) pair once.
    rows, inv = np.unique(flat, return_inverse=True)
    channels = g_win.shape[1]
    g_z2 = np.zeros((len(rows), channels))
    g_z2[inv, np.tile(np.arange(channels), B)] = g_win.ravel()
    g_z1 = g_z2 @ w.w2.T
    g_z1 *= a1_rows[rows] > 0.0
    g_w1 = np.einsum("ui,uj->ij", fwd["pts"].reshape(B * n, -1)[rows], g_z1)
    g_b1 = g_z1.sum(axis=0)
    return [g_w1, g_b1, g_w2, g_b2, g_w3, g_b3, g_w4, g_b4]


def train(data: Dataset, cfg: TrainConfig) -> ClassifierWeights:
    """SGD-with-momentum training on the softmax cross-entropy.

    Deterministic given cfg.seed: initialization and every epoch's shuffle
    come from seed-derived generator streams.
    """
    if data.num_classes < 2:
        raise ValueError("need at least two classes")
    counts = np.bincount(data.labels, minlength=data.num_classes)
    if np.any(counts == 0):
        raise ValueError(f"class {int(np.argmin(counts))} has no training samples")
    w = init_weights(data.num_classes, cfg.seed)
    velocity = [np.zeros_like(a) for a in w.arrays()]
    n_samples = len(data)
    for epoch in range(cfg.epochs):
        epoch_rng = np.random.default_rng([int(cfg.seed), 0x5417, epoch])
        order = epoch_rng.permutation(n_samples)
        noise = OUTLIER_RADIUS * ball_points(epoch_rng, n_samples * OUTLIER_POINTS)
        noise = noise.reshape(n_samples, OUTLIER_POINTS, 3)
        for start in range(0, n_samples, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            # Clouds shorter than the batch's longest are padded with copies
            # of their own first point. A copy never wins a channel (the
            # winner is the first point reaching the max), so each cloud's
            # pooled features and winners are its own and padding gets no
            # gradient.
            clouds = [data.clouds[i] for i in batch]
            longest = max(len(X) for X in clouds)
            pts = np.stack(
                [np.vstack([X, noise[i], np.repeat(X[:1], longest - len(X), axis=0)]) for i, X in zip(batch, clouds)]
            )
            fwd = _batch_forward(w, pts)
            g_logits = _softmax(fwd["logits"])
            g_logits[np.arange(len(batch)), data.labels[batch]] -= 1.0
            g_logits /= len(batch)
            for v, a, g in zip(velocity, w.arrays(), _batch_backward(w, fwd, g_logits)):
                v *= MOMENTUM
                v -= cfg.learning_rate * g
                a += v
    w.w4 *= LOGIT_SCALE
    w.b4 *= LOGIT_SCALE
    w.validate()
    return w


def accuracy(w: ClassifierWeights, data: Dataset) -> float:
    """Fraction of clouds whose logits' argmax (ties to the lowest class) is
    their label; one head call on the stacked pools gives each its own logits."""
    if len(data) < 1:
        raise ValueError("accuracy of an empty dataset")
    logits = head_logits(w, np.stack([pool_vector(w, X) for X in data.clouds]))
    return int(np.count_nonzero(logits.argmax(axis=-1) == data.labels)) / len(data)


# ---------------------------------------------------------------------------
# Weight file IO (versioned container, bit-exact round trip)
# ---------------------------------------------------------------------------
#
# Layout: one ASCII header line "PCBDET-WEIGHTS <version>\n", one JSON line
# with {"num_classes": K, "shapes": [[...], ...]}, then the parameter arrays
# concatenated as little-endian float64 in declaration order.


def save_weights(w: ClassifierWeights, path) -> None:
    w.validate()
    meta = {
        "num_classes": w.num_classes,
        "shapes": [list(a.shape) for a in w.arrays()],
    }
    with open(path, "wb") as fh:
        fh.write(f"{WEIGHTS_MAGIC} {WEIGHTS_VERSION}\n".encode("ascii"))
        fh.write((json.dumps(meta, sort_keys=True) + "\n").encode("ascii"))
        for a in w.arrays():
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_weights(path) -> ClassifierWeights:
    """Read a weights file; a malformed one raises WeightsFormatError whose
    message starts with the file path."""
    with open(path, "rb") as fh:
        buf = io.BytesIO(fh.read())
    header = buf.readline().decode("ascii", errors="replace").strip()
    parts = header.split()
    if len(parts) != 2 or parts[0] != WEIGHTS_MAGIC:
        raise WeightsFormatError(f"{path}: not a weights file: header {header!r}")
    if parts[1] != str(WEIGHTS_VERSION):
        raise WeightsFormatError(f"{path}: unsupported weights version {parts[1]}")
    try:
        meta = json.loads(buf.readline().decode("ascii"))
    except ValueError as exc:
        raise WeightsFormatError(f"{path}: bad weights metadata: {exc}") from None
    k = meta.get("num_classes") if isinstance(meta, dict) else None
    if type(k) is not int or k < 1:
        raise WeightsFormatError(f"{path}: weights metadata needs an integer num_classes >= 1")
    shapes = _weight_shapes(k)
    if meta.get("shapes") != [list(shape) for shape in shapes]:
        raise WeightsFormatError(f"{path}: weights metadata shapes are not those of a {k}-class network")
    counts = [math.prod(shape) for shape in shapes]
    body = buf.read()
    if len(body) < 8 * sum(counts):
        raise WeightsFormatError(f"{path}: truncated weights file")
    if len(body) > 8 * sum(counts):
        raise WeightsFormatError(f"{path}: trailing bytes in weights file")
    arrays = np.split(np.frombuffer(body, dtype="<f8"), np.cumsum(counts)[:-1])
    w = ClassifierWeights(*(a.reshape(shape).copy() for a, shape in zip(arrays, shapes)))
    try:
        w.validate()
    except ValueError as exc:
        raise WeightsFormatError(f"{path}: {exc}") from None
    return w
