"""Straight-through-estimator trainer for the binary CNN.

Latent real-valued kernels and FC weights are binarized by sign (with
sign(0) = +1) on every minibatch, and the forward pass is model.dense_forward,
the same call that reference_infer and batch_predict make, on that binarized
snapshot. Softmax cross-entropy over scores scaled by
1/(blocks * pooled_size^2) drives plain SGD; gradients pass straight through
the sign to the latents, which are clipped to [-1, 1].
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .dataset import CLASS_NAMES, DatasetSplit, images_labels
from .geometry import PlaneGeometry
from .model import BnnModel, batch_predict, dense_forward, fallback_class_names


class TrainingError(ValueError):
    pass


@dataclass
class TrainConfig:
    seed: int = 0
    learning_rate: float = 1000.0   # scores are pre-scaled by 1/16384
    epochs: int = 12
    batch_size: int = 32
    k: int = 4


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


def _sign(latent: np.ndarray) -> np.ndarray:
    return np.where(latent >= 0, 1, -1).astype(np.int64)


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
        kernels = rng.uniform(-1, 1, size=(nb, config.k, config.k))
        fc = rng.uniform(-1, 1, size=(num_classes, nb, ps, ps))
        return cls(kernels, fc, geometry, fallback_class_names(num_classes))

    def binarize(self) -> BnnModel:
        return BnnModel(_sign(self.kernels), _sign(self.fc_weights),
                        self.class_names, self.geometry)


def _forward_backward(latent: LatentModel, xs: np.ndarray, ys: np.ndarray):
    """One minibatch: loss plus straight-through gradients on the latents.

    The forward pass is model.dense_forward on the binarized weights, so the
    trainer scores exactly what reference_infer scores; the backward reuses
    its conv, ReLU and pooled tensors and routes each pooled gradient to the
    first maximum of its 2x2 cell.
    """
    geometry = latent.geometry
    bs = geometry.block_size
    k = latent.kernels.shape[1]
    nb = geometry.num_blocks
    ps = bs // 2
    scale = 1.0 / (nb * ps ** 2)

    bf = _sign(latent.fc_weights).astype(np.float32)
    sums, inter = dense_forward(_sign(latent.kernels).astype(np.float32), bf, xs)
    conv, pooled = inter["conv"], inter["pooled"]
    batch = xs.shape[0]
    flat = inter["relu"].reshape(batch, nb, ps, 2, ps, 2) \
        .transpose(0, 1, 2, 4, 3, 5).reshape(batch, nb, ps, ps, 4)
    arg = flat.argmax(axis=-1)

    z = sums.astype(np.float32) * scale
    z -= z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    probs = ez / ez.sum(axis=1, keepdims=True)
    loss = float(-np.log(np.clip(probs[np.arange(batch), ys], 1e-12, None)).mean())

    gscore = probs.copy()
    gscore[np.arange(batch), ys] -= 1.0
    gscore *= scale / batch

    gfc = np.einsum("bc,bnij->cnij", gscore, pooled)
    gpooled = np.einsum("bc,cnij->bnij", gscore, bf)

    gflat = np.zeros_like(flat)
    np.put_along_axis(gflat, arg[..., None], gpooled[..., None].astype(np.float32),
                      axis=-1)
    grelu = gflat.reshape(batch, nb, ps, ps, 2, 2) \
        .transpose(0, 1, 2, 4, 3, 5).reshape(batch, nb, bs, bs)
    gconv = grelu * (conv > 0)
    v = bs - k + 1
    gvalid = gconv[:, :, :v, :v].reshape(batch, nb, v * v)
    windows = np.lib.stride_tricks.sliding_window_view(
        xs.astype(np.float32), (k, k), axis=(1, 2))
    windows = np.ascontiguousarray(windows).reshape(batch, v * v, k * k)
    # (nb, v*v) x (v*v, k*k) accumulated over the batch
    gkernel = np.einsum("bnp,bpq->nq", gvalid, windows).reshape(nb, k, k)
    return loss, gkernel.astype(np.float64), gfc


def _accuracy(model: BnnModel, xs: np.ndarray, ys: np.ndarray) -> float:
    if len(xs) == 0:
        return 0.0
    return float((batch_predict(model, xs) == ys).mean())


def train(data: DatasetSplit,
          config: TrainConfig | None = None) -> tuple[BnnModel, TrainingLog]:
    """SGD with STE; returns the epoch snapshot with the best test accuracy
    (train accuracy breaks ties when there is no test split)."""
    config = config or TrainConfig()
    if not data.train:
        raise TrainingError("empty training dataset")
    xs, ys = images_labels(data.train)
    if data.test:
        xt, yt = images_labels(data.test)
    else:
        xt, yt = xs[:0], ys[:0]

    latent = LatentModel.init(config, len(CLASS_NAMES))
    rng = np.random.default_rng(config.seed + 1)
    log = TrainingLog()
    best_metric = -1.0
    best_model = latent.binarize()

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
        train_acc = _accuracy(snapshot, xs, ys)
        test_acc = _accuracy(snapshot, xt, yt)
        log.records.append(EpochRecord(epoch, train_acc, test_acc,
                                       float(np.mean(losses))))
        metric = test_acc if len(xt) else train_acc
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
