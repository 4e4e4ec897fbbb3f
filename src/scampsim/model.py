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
        # a name picks a class's dump plane and its prediction
        for i, name in enumerate(self.class_names):
            if name in self.class_names[:i]:
                raise ModelError(f"class names must be distinct, got {name!r} twice")

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


def dense_forward(kernels: np.ndarray, fc: np.ndarray, xs: np.ndarray, *,
                  keep_conv: bool = True):
    """The one dense forward pass, over a batch of binary blocks.

    kernels (nb, k, k) and fc (classes, nb, bs/2, bs/2) hold {-1,+1} in any
    numeric dtype; xs is (n, bs, bs) of {0,1}. The conv at (r, c) sums kernel
    b times the k x k window of xs[i] anchored top-left at (r, c). Only the
    v x v valid region (v = bs - k + 1), where the window stays inside the
    block, is computed; the block's other conv outputs are zero. Then ReLU,
    a 2x2 non-overlapping max-pool and the FC sum per class.

    The conv is kept by 2x2 cell offset, as (n, nb, 2, 2, pv, pv) with
    pv = ceil(v/2) the cells that hold a valid position: conv[i, b, dy, dx,
    I, J] is the conv at (2I + dy, 2J + dx). Where v is odd, offset 1 of the
    last cell row and of the last cell column lies past the valid region;
    those pad slots, and only those, hold 0. The pool is three contiguous
    maxima over each image's four offset planes, then one ReLU over the
    batch: a pad's 0 leaves the ReLU of a cell's maximum unchanged, so this
    equals pooling the ReLU of the zero-bordered conv, and the cells past
    pv, which hold no valid position, are 0.

    Returns int64 scores (n, classes) and a dict of the float32 "pooled"
    (n, nb, bs/2, bs/2) and, with keep_conv, "conv" in the offset layout;
    without it every image reuses one conv buffer and the dict holds no
    "conv".

    Every step is exact integer arithmetic. Where k*k < 3*nb the conv is one
    float32 matmul per image, (nb, k*k) x (k*k, 4*pv*pv), whose operand
    holds the image's k*k shifted windows in the offset layout, copied from
    the image split by column parity so that every copy reads a contiguous
    inner axis. Elsewhere that operand costs more to fill than the k
    products it replaces, and the conv is k matmuls, (nb, k) x (k, v*v), one
    per kernel row, scattered by offset. Either way every partial sum is an
    integer of magnitude <= k^2, exact below 2^24 in any summation order, so
    for any k < 4096, and the pads are set to 0 after it. The FC sums are
    one matrix product for the whole batch, whose partial sums are integers
    of magnitude <= nb * (bs/2)^2 * k^2: in float32 while that is below
    2^24 (every 256x256 geometry up to k 31), else in float64, exact below
    2^53, so for any plane up to 8192 pixels wide.
    """
    n, bs = xs.shape[0], xs.shape[1]
    nb, k = kernels.shape[0], kernels.shape[1]
    v, ps = bs - k + 1, bs // 2
    pv = (v + 1) // 2
    cut = (pv, v // 2)  # cell rows (or columns) with a valid position, by offset
    rows = kernels.astype(np.float32)
    conv = np.empty((n if keep_conv else 1, nb, 2, 2, pv, pv), dtype=np.float32)
    pooled = np.empty((n, nb, ps, ps), dtype=np.float32)
    pooled[:, :, pv:] = 0
    pooled[:, :, :pv, pv:] = 0
    cell = np.empty((nb, pv, pv), dtype=np.float32)
    exact = np.float32 if nb * ps * ps * k * k < 1 << 24 else np.float64
    weights = fc.reshape(fc.shape[0], -1).astype(exact, copy=False)
    single = k * k < 3 * nb
    if single:
        # cols[p, r, C] = x[r, 2C + p] of one image, 0 past the block. Tap
        # (ty, tx) at offset (dy, dx), cell (I, J) reads x[ty + dy + 2I,
        # tx + dx + 2J]; for the taps tx = 2b + f of one column parity f that
        # is cols[(f + dx) % 2, ty + dy + 2I, b + (f + dx) // 2 + J]. Each
        # index moves by a fixed stride of cols along each axis, so one
        # strided view per f, with J contiguous, reads all its taps; its
        # reads stay inside cols, and those at the pad slots land only in
        # the conv's pads
        cols = np.zeros((2, bs + 1, ps + 1), dtype=np.float32)
        sp, sr, sc = cols.strides
        taps = np.empty((k, k, 2, 2, pv, pv), dtype=np.float32)
        copies = [(taps[:, f::2], np.lib.stride_tricks.as_strided(
                       cols[f], (k, (k - f + 1) // 2, 2, 2, pv, pv),
                       (sr, sc, sr, sc - sp if f else sp, 2 * sr, sc),
                       writeable=False))
                  for f in range(min(k, 2))]
        flat = rows.reshape(nb, k * k)
    else:
        # shifted[dx] is the image moved dx columns left, so
        # shifted[:, dy:dy + v] is kernel row dy's (k, v*v) operand without a
        # copy; the products add up in whole, which is then scattered by offset
        shifted = np.empty((k, bs, v), dtype=np.float32)
        whole = np.empty((nb, v * v), dtype=np.float32)
    for i in range(n):
        c = conv[i if keep_conv else 0]
        if single:
            cols[:, :bs, :ps] = xs[i].reshape(bs, ps, 2).transpose(2, 0, 1)
            for dst, src in copies:
                dst[...] = src
            np.matmul(flat, taps.reshape(k * k, 4 * pv * pv),
                      out=c.reshape(nb, 4 * pv * pv))
        else:
            term = c.reshape(-1)[:nb * v * v].reshape(nb, v * v)  # c holds each product
            for dx in range(k):
                shifted[dx] = xs[i, :, dx:dx + v]
            np.matmul(rows[:, 0], shifted[:, :v].reshape(k, v * v), out=whole)
            for dy in range(1, k):
                np.matmul(rows[:, dy], shifted[:, dy:dy + v].reshape(k, v * v),
                          out=term)
                whole += term
            grid = whole.reshape(nb, v, v)
            for dy in (0, 1):
                for dx in (0, 1):
                    c[:, dy, dx, :cut[dy], :cut[dx]] = grid[:, dy::2, dx::2]
        # the pad slots: an odd v's last cell row and column at offset 1
        c[:, 1, :, cut[1]:] = 0
        c[:, :, 1, :, cut[1]:] = 0
        np.maximum(c[:, 0, 0], c[:, 0, 1], out=cell)
        np.maximum(cell, c[:, 1, 0], out=cell)
        np.maximum(cell, c[:, 1, 1], out=cell)
        pooled[i, :, :pv, :pv] = cell
    np.maximum(pooled, 0, out=pooled)  # the ReLU of each cell's maximum
    scores = pooled.reshape(n, nb * ps * ps).astype(exact, copy=False) @ weights.T
    inter = {"conv": conv, "pooled": pooled} if keep_conv else {"pooled": pooled}
    return scores.astype(np.int64), inter


@dataclass
class ClassScores:
    sums: list[int]
    predicted: int
    class_names: tuple[str, ...]

    @property
    def predicted_name(self) -> str:
        return self.class_names[self.predicted]


def reference_infer(model: BnnModel, x: np.ndarray) -> ClassScores:
    """Dense oracle inference over one binary input image."""
    x, bs = np.asarray(x), model.geometry.block_size
    if x.shape != (bs, bs):
        raise ModelError(f"input must be {bs}x{bs}, got {x.shape}")
    if not is_binary(x):
        raise ModelError("input image must be strictly binary")
    scores, _ = dense_forward(model.kernels, model.fc_weights, x[None],
                              keep_conv=False)
    sums = scores[0].tolist()
    return ClassScores(sums, argmax(sums), tuple(model.class_names))


def batch_predict(model: BnnModel, xs: np.ndarray,
                  chunk: int = 128) -> np.ndarray:
    # chunked to bound the transient pooled tensor's memory; the conv is
    # one image's buffer, reused
    scores = [dense_forward(model.kernels, model.fc_weights, xs[i:i + chunk],
                            keep_conv=False)[0]
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
    if not isinstance(doc, dict):
        raise ModelError(f"weights document must be a JSON object, got {doc!r:.40}")
    for fld in ("version", "k", "block_size", "block_grid", "classes",
                "kernels", "fc"):
        if fld not in doc:
            raise ModelError(f"weights document missing field {fld!r}")
    for fld in ("version", "k", "block_size", "block_grid"):
        # bool is an int subclass, and int() would truncate 64.9 or parse "4"
        if not isinstance(doc[fld], int) or isinstance(doc[fld], bool):
            raise ModelError(f"field {fld!r} must be an integer, got {doc[fld]!r}")
    classes = doc["classes"]
    if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
        raise ModelError(f"field 'classes' must be a list of strings, got {classes!r}")
    if doc["version"] != WEIGHTS_VERSION:
        raise ModelError(
            f"weights version {doc['version']} unsupported (expected {WEIGHTS_VERSION})"
        )
    grid, bsize = doc["block_grid"], doc["block_size"]
    geometry = PlaneGeometry(grid * bsize, grid * bsize, grid, bsize)
    kernels = _rectangular(doc["kernels"], "kernels")
    fc = _rectangular(doc["fc"], "fc")
    k = doc["k"]
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
    return BnnModel(kernels, fc, tuple(classes), geometry)


def load_weights_file(path) -> BnnModel:
    with open(path) as f:
        return load_weights(f.read())
