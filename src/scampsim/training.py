"""Straight-through-estimator trainer for the binary CNN.

Latent real-valued kernels and FC weights are binarized by sign (with
sign(0) = +1) on every minibatch, and the forward pass is model.dense_forward,
the same call that reference_infer and batch_predict make, on that binarized
snapshot. Softmax cross-entropy over scores scaled by
1/(blocks * pooled_size^2) drives plain SGD; gradients pass straight through
the sign to the latents, which are clipped to [-1, 1].

The max-pool's gradient goes to the first position of each 2x2 cell, in
row-major order, whose ReLU equals the pooled value, and only where that
value is > 0. The conv gradient gvalid is kept as dense_forward keeps the
conv, by 2x2 cell offset, (n, nb, 2, 2, pv, pv); four masks, one per
offset, each a contiguous plane per image and block, write the routed
gradient straight into it, and its pad slots past the valid region stay 0.
The forward is exact integer arithmetic, so the gradients are bit for bit
those of a backward that takes a 4-wide argmax over the zero-bordered ReLU
tensor (but for the sign of a zero), and a trained weights file is
byte-identical to that backward's.

The kernel gradient sums gvalid * window over only the (image, position)
pairs that receive a routed gradient (7-14% of them in a minibatch of the
synthetic gestures), in the row-major order of the (image, row, col)
valid region, into which their mask is moved back from the offset layout
before they are listed. numpy's einsum loop adds each
output's terms one by one in float32, in that order, whenever k^2 >= 2,
so the sum equals the dense sum over all pairs: every pair it skips adds
+-0, which changes at most the sign of a zero sum, and the update
x - lr * g cannot see that sign. At k = 1 numpy runs a vectorised loop
that is sequential in neither form; every trained model has k = K = 4.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .dataset import CLASS_NAMES, DatasetSplit, images_labels
from .geometry import PlaneGeometry
from .model import BnnModel, batch_predict, dense_forward, fallback_class_names


K = 4  # kernel side of every trained model


class TrainingError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    learning_rate: float = 1000.0   # scores are pre-scaled by 1/16384
    epochs: int = 12
    batch_size: int = 32

    def __post_init__(self):
        for name in ("seed", "epochs", "batch_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TrainingError(f"{name} must be an integer, got {value!r}")
        lr = self.learning_rate
        if isinstance(lr, bool) or not isinstance(lr, numbers.Real):
            raise TrainingError(f"learning_rate must be a number, got {lr!r}")
        if self.seed < 0:
            raise TrainingError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 1:
            raise TrainingError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise TrainingError(f"batch size must be >= 1, got {self.batch_size}")
        if not math.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise TrainingError(f"learning rate must be a finite number >= 0, "
                                f"got {self.learning_rate}")


@dataclass
class EpochRecord:
    epoch: int
    train_acc: float
    test_acc: float
    loss: float


@dataclass
class TrainingLog:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["epoch", "train_acc", "test_acc", "loss"])
        for r in self.records:
            w.writerow([r.epoch, f"{r.train_acc:.6f}", f"{r.test_acc:.6f}",
                        f"{r.loss:.6f}"])
        return buf.getvalue()


def _sign(latent: np.ndarray, dtype=np.int64) -> np.ndarray:
    """+1 where latent >= 0, else -1, in dtype."""
    signs = np.multiply(latent >= 0, 2, dtype=dtype)
    signs -= 1
    return signs


@dataclass
class LatentModel:
    """Real-valued shadow of a BnnModel; binarizes to a valid BnnModel."""

    kernels: np.ndarray           # (nb, k, k) float
    fc_weights: np.ndarray        # (C, nb, ps, ps) float
    geometry: PlaneGeometry
    class_names: tuple[str, ...]

    @classmethod
    def init(cls, config: TrainConfig, num_classes: int) -> "LatentModel":
        geometry = PlaneGeometry()
        rng = np.random.default_rng(config.seed)
        nb, ps = geometry.num_blocks, geometry.block_size // 2
        kernels = rng.uniform(-1, 1, size=(nb, K, K))
        fc = rng.uniform(-1, 1, size=(num_classes, nb, ps, ps))
        return cls(kernels, fc, geometry, fallback_class_names(num_classes))

    def binarize(self) -> BnnModel:
        return BnnModel(_sign(self.kernels), _sign(self.fc_weights),
                        self.class_names, self.geometry)


def _route(conv: np.ndarray, pooled: np.ndarray, gpooled: np.ndarray) -> np.ndarray:
    """The gradient of the conv, in its cell-offset layout, written over conv.

    conv (n, nb, 2, 2, pv, pv) and pooled (n, nb, bs/2, bs/2) are
    dense_forward's; gpooled (n, nb, pv, pv) is the loss gradient of the
    pooled cells that hold a valid position. Four masks, one per 2x2 cell
    offset in row-major order, route each cell's gradient: a position
    receives it when it is the first in its cell to equal the pooled value
    and that value is > 0, which already implies conv > 0, so ReLU passes
    it. Every other position is set to 0, and so is every pad slot, whose
    conv 0 equals no pooled value > 0. The conv values are exact integers
    in float32, so each comparison is exact, and a routed gradient is
    copied unchanged. Each offset is one contiguous plane per (image,
    block); it reads its own positions before it writes them, and no other
    offset reads them.
    """
    pv = conv.shape[-1]
    cells = np.ascontiguousarray(pooled[..., :pv, :pv])
    unrouted = cells > 0
    first = np.empty_like(unrouted)
    for dy in (0, 1):
        for dx in (0, 1):
            at = conv[:, :, dy, dx]
            np.equal(at, cells, out=first)
            first &= unrouted
            at[...] = 0
            np.copyto(at, gpooled, where=first)
            unrouted ^= first  # first lies inside unrouted
    return conv


def _forward_backward(latent: LatentModel, xs: np.ndarray, ys: np.ndarray):
    """One minibatch: loss plus straight-through gradients on the latents.

    The forward pass is model.dense_forward on the binarized weights, so the
    trainer scores exactly what reference_infer scores. _route sends each
    pooled gradient to the first maximum of its 2x2 cell (row-major), only
    where that maximum is > 0, straight into the conv gradient gvalid, kept
    by cell offset as dense_forward keeps the conv, 0 at every pad slot.

    Every forward value is an exact integer, so the two einsums through the
    FC layer see the same values as those of a dense backward that takes a
    4-wide argmax over the zero-bordered ReLU and multiplies by conv > 0,
    and give bit-equal results; the pooled gradient is computed only for
    the pv x pv cells that hold a valid position, each a sum over the
    classes as before.

    That backward's kernel gradient is einsum("bnp,bpq->nq") over every
    (image, position) pair p of the valid region, with windows[b, p] the
    k x k input window there. Here the einsum "nm,mq->nq" takes only the M
    pairs at which some kernel's gvalid is nonzero, still in row-major
    (image, row, col) order: the live mask is moved back from the offset
    layout to (n, v, v) before np.nonzero lists them, and each pair reads
    gvalid at offset (row & 1, col & 1), cell (row >> 1, col >> 1). For
    k^2 >= 2 numpy's sum-of-products loop adds each (n, q) output's terms
    one at a time in float32, in that order, in both forms; a pair left out
    adds +-0 to every output, and x + 0 == x. So gkernel is bit-equal but
    for the sign of a zero sum, which the update x - lr * g cannot see. At
    k = 1 numpy coalesces the loop into a vectorised one that is sequential
    in neither form, and the two may differ in the last bits; train()
    always uses k = K = 4.
    """
    geometry = latent.geometry
    bs = geometry.block_size
    k = latent.kernels.shape[1]
    nb = geometry.num_blocks
    ps = bs // 2
    v = bs - k + 1
    pv = (v + 1) // 2
    scale = 1.0 / (nb * ps ** 2)

    bf = _sign(latent.fc_weights, np.float32)
    sums, inter = dense_forward(_sign(latent.kernels, np.float32), bf, xs)
    pooled = inter["pooled"]
    batch = xs.shape[0]

    z = sums.astype(np.float32) * scale
    z -= z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    probs = ez / ez.sum(axis=1, keepdims=True)
    loss = float(-np.log(np.clip(probs[np.arange(batch), ys], 1e-12, None)).mean())

    gscore = probs.copy()
    gscore[np.arange(batch), ys] -= 1.0
    gscore *= scale / batch

    gfc = np.einsum("bc,bnij->cnij", gscore, pooled)
    gpooled = np.einsum("bc,cnij->bnij", gscore, bf[..., :pv, :pv])
    gvalid = _route(inter["conv"], pooled, gpooled)
    # the (image, row, col) positions where some kernel's gradient is nonzero,
    # in row-major order; every other position adds only +-0 to gkernel
    live = gvalid.any(axis=1).transpose(0, 3, 1, 4, 2)
    img, row, col = np.nonzero(live.reshape(batch, 2 * pv, 2 * pv)[:, :v, :v])
    windows = np.lib.stride_tricks.sliding_window_view(xs, (k, k), axis=(1, 2))
    routed = windows[img, row, col].reshape(-1, k * k).astype(np.float32)
    grouted = np.ascontiguousarray(
        gvalid[img, :, row & 1, col & 1, row >> 1, col >> 1].T)
    gkernel = np.einsum("nm,mq->nq", grouted, routed).reshape(nb, k, k)
    return loss, gkernel.astype(np.float64), gfc


def train(data: DatasetSplit,
          config: TrainConfig | None = None) -> tuple[BnnModel, TrainingLog]:
    """SGD with STE; returns the epoch snapshot with the best test accuracy
    (train accuracy breaks ties when there is no test split)."""
    config = config or TrainConfig()
    if not data.train:
        raise TrainingError("empty training dataset")
    # both splits as one stack, scored by one batch_predict per epoch
    x_all, y_all = images_labels([*data.train, *data.test])
    split = len(data.train)
    xs, ys = x_all[:split], y_all[:split]

    latent = LatentModel.init(config, len(CLASS_NAMES))
    rng = np.random.default_rng(config.seed + 1)
    log = TrainingLog()
    best_metric = -1.0
    best_model = None  # epoch 0 always replaces it: every metric is >= 0

    for epoch in range(config.epochs):
        order = rng.permutation(len(xs))
        losses = []
        for start in range(0, len(xs), config.batch_size):
            idx = order[start:start + config.batch_size]
            loss, gk, gf = _forward_backward(latent, xs[idx], ys[idx])
            losses.append(loss)
            latent.kernels = np.clip(
                latent.kernels - config.learning_rate * gk, -1.0, 1.0)
            latent.fc_weights = np.clip(
                latent.fc_weights - config.learning_rate * gf, -1.0, 1.0)
        snapshot = latent.binarize()
        hits = batch_predict(snapshot, x_all) == y_all
        train_acc = float(hits[:split].mean())
        test_acc = float(hits[split:].mean()) if data.test else 0.0
        log.records.append(EpochRecord(epoch, train_acc, test_acc,
                                       float(np.mean(losses))))
        metric = test_acc if data.test else train_acc
        if metric > best_metric:
            best_metric = metric
            best_model = snapshot
            log.best_epoch = epoch
    return best_model, log


def evaluate(model: BnnModel, samples) -> tuple[float, np.ndarray]:
    """Accuracy and confusion matrix (rows = true class) via the dense
    reference semantics."""
    if not samples:
        return 0.0, np.zeros((model.num_classes, model.num_classes), dtype=np.int64)
    xs, ys = images_labels(list(samples))
    preds = batch_predict(model, xs)
    n = model.num_classes
    confusion = np.zeros((n, n), dtype=np.int64)
    np.add.at(confusion, (ys, preds), 1)
    return float((preds == ys).mean()), confusion
