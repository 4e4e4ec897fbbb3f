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


def _check_pm1(arr: np.ndarray, name: str):
    if not np.all(np.isin(arr, (-1, 1))):
        raise ModelError(f"{name} weights must be exactly -1 or +1")


@dataclass
class BnnModel:
    """Immutable after construction; inference is pure."""

    kernels: np.ndarray            # (num_blocks, k, k) of {-1,+1}
    fc_weights: np.ndarray         # (num_classes, num_blocks, ps, ps) of {-1,+1}
    class_names: tuple[str, ...] = DEFAULT_CLASS_NAMES
    geometry: PlaneGeometry = field(default_factory=PlaneGeometry)

    def __post_init__(self):
        self.kernels = np.asarray(self.kernels, dtype=np.int64)
        self.fc_weights = np.asarray(self.fc_weights, dtype=np.int64)
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
        _check_pm1(self.kernels, "kernel")
        _check_pm1(self.fc_weights, "fc")

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
                 geometry: PlaneGeometry | None = None,
                 class_names: tuple[str, ...] | None = None) -> BnnModel:
    geometry = geometry or PlaneGeometry()
    rng = np.random.default_rng(seed)
    nb, ps = geometry.num_blocks, geometry.block_size // 2
    kernels = rng.choice((-1, 1), size=(nb, k, k))
    fc = rng.choice((-1, 1), size=(num_classes, nb, ps, ps))
    if class_names is None:
        class_names = fallback_class_names(num_classes)
    return BnnModel(kernels, fc, class_names, geometry)


def fallback_class_names(num_classes: int) -> tuple[str, ...]:
    """The default names for three classes, else class0, class1, ..."""
    if num_classes == len(DEFAULT_CLASS_NAMES):
        return DEFAULT_CLASS_NAMES
    return tuple(f"class{i}" for i in range(num_classes))


def default_model() -> BnnModel:
    """The model cmd_bench falls back to; fixed so timing is reproducible."""
    return random_model(seed=0)


# -- inference -----------------------------------------------------------


def _check_binary_input(x: np.ndarray, block_size: int) -> np.ndarray:
    x = np.asarray(x)
    if x.shape != (block_size, block_size):
        raise ModelError(f"input must be {block_size}x{block_size}, got {x.shape}")
    if not is_binary(x):
        raise ModelError("input image must be strictly binary")
    return x.astype(np.int64)


def conv_block_features(model: BnnModel, x: np.ndarray) -> np.ndarray:
    """Per-block conv with top-left anchoring and border zeroing.

    Output (num_blocks, bs, bs): out[b, r, c] = sum over the k x k window of
    kernel_b * x[r+dy, c+dx] where the window fits inside the block; output
    pixels whose window would cross the block edge are zero.
    """
    bs, k = model.geometry.block_size, model.k
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k))
    valid = np.einsum("rcij,nij->nrc", windows, model.kernels)
    out = np.zeros((model.geometry.num_blocks, bs, bs), dtype=np.int64)
    out[:, : bs - k + 1, : bs - k + 1] = valid
    return out


def maxpool2x2(feat: np.ndarray) -> np.ndarray:
    """(n, h, w) -> (n, h/2, w/2) non-overlapping max over aligned 2x2 cells."""
    n, h, w = feat.shape
    return feat.reshape(n, h // 2, 2, w // 2, 2).max(axis=(2, 4))


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

    Returns ClassScores; with return_intermediates, also a dict of the
    post-conv, post-ReLU and post-pool tensors.
    """
    x = _check_binary_input(x, model.geometry.block_size)
    conv = conv_block_features(model, x)
    relu = np.maximum(conv, 0)
    pooled = maxpool2x2(relu)
    sums = np.einsum("cnij,nij->c", model.fc_weights, pooled)
    scores = ClassScores([int(s) for s in sums], argmax(sums.tolist()),
                         tuple(model.class_names))
    if return_intermediates:
        return scores, {"conv": conv, "relu": relu, "pooled": pooled}
    return scores


def batch_scores(model: BnnModel, xs: np.ndarray) -> np.ndarray:
    """Class sums for a batch of binary inputs (n, bs, bs) -> (n, classes).

    Same arithmetic as reference_infer, vectorized for evaluation speed.
    """
    bs, k = model.geometry.block_size, model.k
    xs = np.asarray(xs, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(xs, (k, k), axis=(1, 2))
    valid = np.einsum("brcij,nij->bnrc", windows, model.kernels)
    conv = np.zeros((xs.shape[0], model.geometry.num_blocks, bs, bs), dtype=np.int64)
    conv[:, :, : bs - k + 1, : bs - k + 1] = valid
    relu = np.maximum(conv, 0)
    b, n, h, w = relu.shape
    pooled = relu.reshape(b, n, h // 2, 2, w // 2, 2).max(axis=(3, 5))
    return np.einsum("cnij,bnij->bc", model.fc_weights, pooled)


def batch_predict(model: BnnModel, xs: np.ndarray,
                  chunk: int = 128) -> np.ndarray:
    # chunked to bound the transient conv tensor's memory
    preds = [batch_scores(model, xs[i:i + chunk]).argmax(axis=1)
             for i in range(0, len(xs), chunk)]  # argmax ties -> lowest index
    return np.concatenate(preds)


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
    kernels = np.asarray(doc["kernels"])
    fc = np.asarray(doc["fc"])
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
    _check_pm1(kernels, "field 'kernels'")
    _check_pm1(fc, "field 'fc'")
    return BnnModel(kernels, fc, tuple(doc["classes"]), geometry)


def load_weights_file(path) -> BnnModel:
    with open(path) as f:
        return load_weights(f.read())
