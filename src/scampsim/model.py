"""Binary CNN definition, weights serialization and the dense reference
inference used as the oracle for lowered programs.

Pipeline: one conv layer of block_grid^2 kernels with {-1,+1} weights over a
binary block_size x block_size input, valid-interior zeroing at the block
border, ReLU, 2x2 non-overlapping max-pool, then a {-1,+1} fully connected
layer reduced by summation. Prediction is the smallest index attaining the
maximum class sum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import PlaneGeometry, is_binary

WEIGHTS_VERSION = 1

DEFAULT_CLASS_NAMES = ("rock", "paper", "scissors")


class ModelError(ValueError):
    pass


def argmax(scores) -> int:
    """Smallest index of the maximum value; rejects empty input."""
    scores = list(scores)
    if not scores:
        raise ModelError("argmax of empty score list")
    best = max(scores)
    return scores.index(best)


def _rectangular(values, name: str) -> np.ndarray:
    try:
        return np.asarray(values)
    except ValueError:  # ragged nesting
        raise ModelError(f"{name}: weights must be a rectangular array") from None


def _check_pm1(arr: np.ndarray, name: str):
    # a non-numeric dtype (strings, None) fails before any comparison
    if arr.dtype.kind not in "biuf" or not (np.abs(arr) == 1).all():
        raise ModelError(f"{name}: weights must be exactly -1 or +1")


@dataclass
class BnnModel:
    """Immutable after construction; inference is pure."""

    kernels: np.ndarray            # (num_blocks, k, k) of {-1,+1}
    fc_weights: np.ndarray         # (num_classes, num_blocks, ps, ps) of {-1,+1}
    class_names: tuple[str, ...] = DEFAULT_CLASS_NAMES
    geometry: PlaneGeometry = field(default_factory=PlaneGeometry)

    def __post_init__(self):
        # check the raw values: the int64 cast would turn 1.5 into 1
        kernels = _rectangular(self.kernels, "kernels")
        fc = _rectangular(self.fc_weights, "fc")
        _check_pm1(kernels, "kernels")
        _check_pm1(fc, "fc")
        self.kernels = kernels.astype(np.int64, copy=False)
        self.fc_weights = fc.astype(np.int64, copy=False)
        nb = self.geometry.num_blocks
        ps = self.pooled_size
        if self.kernels.ndim != 3 or self.kernels.shape[0] != nb \
                or self.kernels.shape[1] != self.kernels.shape[2]:
            raise ModelError(
                f"kernels must have shape ({nb}, k, k), got {self.kernels.shape}"
            )
        if self.k < 1 or self.k > self.geometry.block_size:
            raise ModelError(f"kernel size {self.k} out of range")
        if self.fc_weights.ndim != 4 or self.fc_weights.shape[1:] != (nb, ps, ps):
            raise ModelError(
                f"fc_weights must have shape (classes, {nb}, {ps}, {ps}), "
                f"got {self.fc_weights.shape}"
            )
        if len(self.class_names) != self.num_classes:
            raise ModelError("class_names length != number of FC weight planes")

    @property
    def k(self) -> int:
        return self.kernels.shape[1]

    @property
    def num_classes(self) -> int:
        return self.fc_weights.shape[0]

    @property
    def pooled_size(self) -> int:
        return self.geometry.block_size // 2

    def __eq__(self, other):
        if not isinstance(other, BnnModel):
            return NotImplemented
        return (self.geometry == other.geometry
                and self.class_names == tuple(other.class_names)
                and np.array_equal(self.kernels, other.kernels)
                and np.array_equal(self.fc_weights, other.fc_weights))


def random_model(seed: int = 0, num_classes: int = 3, k: int = 4,
                 geometry: PlaneGeometry | None = None) -> BnnModel:
    geometry = geometry or PlaneGeometry()
    rng = np.random.default_rng(seed)
    nb, ps = geometry.num_blocks, geometry.block_size // 2
    kernels = rng.choice((-1, 1), size=(nb, k, k))
    fc = rng.choice((-1, 1), size=(num_classes, nb, ps, ps))
    return BnnModel(kernels, fc, fallback_class_names(num_classes), geometry)


def fallback_class_names(num_classes: int) -> tuple[str, ...]:
    """The default names for three classes, else class0, class1, ..."""
    if num_classes == len(DEFAULT_CLASS_NAMES):
        return DEFAULT_CLASS_NAMES
    return tuple(f"class{i}" for i in range(num_classes))


def default_model() -> BnnModel:
    """The model cmd_bench falls back to; fixed so timing is reproducible."""
    return random_model(seed=0)


# -- inference -----------------------------------------------------------


def dense_forward(kernels: np.ndarray, fc: np.ndarray, xs: np.ndarray):
    """The one dense forward pass, over a batch of binary blocks.

    kernels (nb, k, k) and fc (classes, nb, bs/2, bs/2) hold {-1,+1} in any
    numeric dtype; xs is (n, bs, bs) of {0,1}. conv[i, b, r, c] sums kernel b
    times the k x k window of xs[i] anchored top-left at (r, c); outputs whose
    window would cross the block edge are zero. Then ReLU, a 2x2
    non-overlapping max-pool and the FC sum per class.

    Returns int64 scores (n, classes) and a dict of the float32 "conv",
    "relu" (n, nb, bs, bs) and "pooled" (n, nb, bs/2, bs/2) tensors. The
    conv runs in float32, exact for any k < 4096 since every partial sum is
    an integer of magnitude <= k^2 < 2^24; the FC sum runs in int64.
    """
    n, bs = xs.shape[0], xs.shape[1]
    nb, k = kernels.shape[0], kernels.shape[1]
    v = bs - k + 1
    rows = kernels.astype(np.float32).transpose(1, 2, 0)  # (k, k, nb)
    # windows along the columns only, (n, bs, v, k): one matmul per kernel row
    cols = np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(
        xs.astype(np.float32), k, axis=2))
    valid = cols[:, :v] @ rows[0]
    for dy in range(1, k):
        valid += cols[:, dy:dy + v] @ rows[dy]
    conv = np.zeros((n, nb, bs, bs), dtype=np.float32)
    conv[:, :, :v, :v] = valid.transpose(0, 3, 1, 2)
    relu = np.maximum(conv, 0)
    pooled = np.maximum(np.maximum(relu[..., 0::2, 0::2], relu[..., 0::2, 1::2]),
                        np.maximum(relu[..., 1::2, 0::2], relu[..., 1::2, 1::2]))
    scores = np.einsum("bm,cm->bc", pooled.reshape(n, -1).astype(np.int64),
                       fc.reshape(fc.shape[0], -1).astype(np.int64))
    return scores, {"conv": conv, "relu": relu, "pooled": pooled}


@dataclass
class ClassScores:
    sums: list[int]
    predicted: int
    class_names: tuple[str, ...]

    @property
    def predicted_name(self) -> str:
        return self.class_names[self.predicted]


def reference_infer(model: BnnModel, x: np.ndarray,
                    return_intermediates: bool = False):
    """Dense oracle inference over one binary input image.

    Returns ClassScores; with return_intermediates, also a dict of the int64
    post-conv, post-ReLU and post-pool tensors, each (num_blocks, ...).
    """
    x, bs = np.asarray(x), model.geometry.block_size
    if x.shape != (bs, bs):
        raise ModelError(f"input must be {bs}x{bs}, got {x.shape}")
    if not is_binary(x):
        raise ModelError("input image must be strictly binary")
    sums, inter = dense_forward(model.kernels, model.fc_weights, x[None])
    sums = sums[0].tolist()
    scores = ClassScores(sums, argmax(sums), tuple(model.class_names))
    if return_intermediates:
        return scores, {name: t[0].astype(np.int64) for name, t in inter.items()}
    return scores


def batch_predict(model: BnnModel, xs: np.ndarray,
                  chunk: int = 128) -> np.ndarray:
    # chunked to bound the transient conv tensor's memory
    scores = [dense_forward(model.kernels, model.fc_weights, xs[i:i + chunk])[0]
              for i in range(0, len(xs), chunk)]
    return np.concatenate(scores).argmax(axis=1)  # ties -> lowest index


# -- serialization -------------------------------------------------------


def save_weights(model: BnnModel) -> str:
    doc = {
        "version": WEIGHTS_VERSION,
        "k": model.k,
        "block_size": model.geometry.block_size,
        "block_grid": model.geometry.block_grid,
        "classes": list(model.class_names),
        "kernels": model.kernels.tolist(),
        "fc": model.fc_weights.tolist(),
    }
    return json.dumps(doc) + "\n"


def load_weights(text: str) -> BnnModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelError(f"weights document is not valid JSON: {e}") from None
    for fld in ("version", "k", "block_size", "block_grid", "classes",
                "kernels", "fc"):
        if fld not in doc:
            raise ModelError(f"weights document missing field {fld!r}")
    if doc["version"] != WEIGHTS_VERSION:
        raise ModelError(
            f"weights version {doc['version']} unsupported (expected {WEIGHTS_VERSION})"
        )
    grid, bsize = int(doc["block_grid"]), int(doc["block_size"])
    geometry = PlaneGeometry(grid * bsize, grid * bsize, grid, bsize)
    kernels = _rectangular(doc["kernels"], "kernels")
    fc = _rectangular(doc["fc"], "fc")
    k = int(doc["k"])
    if kernels.shape != (geometry.num_blocks, k, k):
        raise ModelError(
            f"field 'kernels': expected shape ({geometry.num_blocks}, {k}, {k}), "
            f"got {kernels.shape}"
        )
    ps = bsize // 2
    if fc.ndim != 4 or fc.shape[1:] != (geometry.num_blocks, ps, ps):
        raise ModelError(
            f"field 'fc': expected shape (classes, {geometry.num_blocks}, {ps}, {ps}), "
            f"got {fc.shape}"
        )
    return BnnModel(kernels, fc, tuple(doc["classes"]), geometry)


def load_weights_file(path) -> BnnModel:
    with open(path) as f:
        return load_weights(f.read())
