import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import valid_conv
from scampsim import training
from scampsim.dataset import DatasetSplit, GestureSample, generate, images_labels
from scampsim.geometry import PlaneGeometry
from scampsim.model import (batch_predict, dense_forward, load_weights, random_model,
                            save_weights)
from scampsim.training import (LatentModel, TrainConfig, TrainingError, _route,
                               _forward_backward, _sign, evaluate, train)


def pixel_dataset(n_per_class=8):
    """Each class is a single distinct pixel location: separable by one FC
    weight."""
    samples = []
    for label, (r, c) in enumerate([(10, 10), (30, 30), (50, 50)]):
        for _ in range(n_per_class):
            img = np.zeros((64, 64), dtype=np.uint8)
            img[r, c] = 1
            samples.append(GestureSample(img, label))
    return DatasetSplit(samples, [], seed=0)


@pytest.fixture(scope="module")
def small_split():
    return generate(7, 20, 8)


class TestTrain:
    def test_pixel_classes_reach_full_train_accuracy(self):
        data = pixel_dataset()
        model, log = train(data, TrainConfig(seed=0, epochs=10,
                                             learning_rate=1000.0))
        assert log.records[log.best_epoch].train_acc == 1.0

    def test_deterministic_under_seed(self, small_split):
        cfg = TrainConfig(seed=3, epochs=2, learning_rate=1000.0)
        m1, _ = train(small_split, cfg)
        m2, _ = train(small_split, cfg)
        assert m1 == m2

    def test_zero_learning_rate_keeps_initial_signs(self, small_split):
        cfg = TrainConfig(seed=5, epochs=2, learning_rate=0.0)
        model, _ = train(small_split, cfg)
        init = LatentModel.init(cfg, 3).binarize()
        assert model == init

    def test_empty_dataset_rejected(self):
        with pytest.raises(TrainingError):
            train(DatasetSplit([], []), TrainConfig(epochs=1))

    def test_loss_decreases_over_first_epoch_small_lr(self):
        # monotone-start property on a frozen minibatch, averaged over seeds
        data = generate(11, 10)
        xs, ys = images_labels(data.train)
        deltas = []
        for seed in range(5):
            latent = LatentModel.init(TrainConfig(seed=seed), 3)
            loss0, gk, gf = _forward_backward(latent, xs, ys)
            lr = 200.0
            latent.kernels = np.clip(latent.kernels - lr * gk, -1, 1)
            latent.fc_weights = np.clip(latent.fc_weights - lr * gf, -1, 1)
            loss1, _, _ = _forward_backward(latent, xs, ys)
            deltas.append(loss1 - loss0)
        assert np.mean(deltas) <= 0

    def test_trained_model_round_trips(self, small_split):
        model, _ = train(small_split, TrainConfig(seed=1, epochs=1,
                                                  learning_rate=1000.0))
        assert load_weights(save_weights(model)) == model

    # sha256 prefixes of save_weights(train(...)[0]) as a backward taking a
    # 4-wide argmax over the zero-bordered ReLU gives them: one changed
    # gradient bit changes them
    @pytest.mark.parametrize("split, config, prefix", [
        pytest.param((9, 12, 4), TrainConfig(seed=1, epochs=2), "cd8edc2b92c4cf2b",
                     id="gen9-seed1"),
        pytest.param((7, 20, 8), TrainConfig(seed=3, epochs=2), "8aa9e7180d4f0520",
                     id="gen7-seed3"),
    ])
    def test_trained_weights_keep_their_bytes(self, split, config, prefix):
        weights = save_weights(train(generate(*split), config)[0])
        assert hashlib.sha256(weights.encode()).hexdigest()[:16] == prefix

    def test_log_csv_shape(self, small_split):
        _, log = train(small_split, TrainConfig(seed=0, epochs=2,
                                                learning_rate=1000.0))
        lines = log.to_csv().strip().splitlines()
        assert lines[0] == "epoch,train_acc,test_acc,loss"
        assert len(lines) == 3

    def test_each_epoch_scores_both_splits_with_one_call(self, small_split):
        calls = []

        def predict(model, xs):
            calls.append(len(xs))
            return batch_predict(model, xs)

        with mock.patch.object(training, "batch_predict", predict):
            model, log = train(small_split, TrainConfig(seed=0, epochs=2))
        assert calls == [len(small_split.train) + len(small_split.test)] * 2
        best = log.records[log.best_epoch]
        assert best.train_acc == evaluate(model, small_split.train)[0]
        assert best.test_acc == evaluate(model, small_split.test)[0]


class TestTrainConfig:
    @pytest.mark.parametrize("name, value", [
        ("epochs", 1.5), ("epochs", "3"), ("epochs", True),
        ("seed", 1.5), ("seed", True), ("seed", None),
        ("batch_size", 8.0), ("batch_size", False),
    ])
    def test_non_integer_count_rejected(self, name, value):
        with pytest.raises(TrainingError) as err:
            TrainConfig(**{name: value})
        assert str(err.value) == f"{name} must be an integer, got {value!r}"

    @pytest.mark.parametrize("value", [True, False, "1000", None])
    def test_non_number_learning_rate_rejected(self, value):
        with pytest.raises(TrainingError) as err:
            TrainConfig(learning_rate=value)
        assert str(err.value) == f"learning_rate must be a number, got {value!r}"

    @pytest.mark.parametrize("name, value", [
        ("learning_rate", float("nan")), ("epochs", 1.5), ("seed", 3),
    ])
    def test_fields_cannot_be_assigned(self, name, value):
        # the checks run once, at construction
        config = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, value)
        assert config == TrainConfig()

    def test_numpy_numbers_train_as_python_numbers(self):
        data = pixel_dataset(2)
        plain = TrainConfig(seed=2, learning_rate=500.0, epochs=2, batch_size=4)
        numbers = TrainConfig(seed=np.int64(2), learning_rate=np.float32(500.0),
                              epochs=np.int32(2), batch_size=np.uint8(4))
        assert train(data, numbers)[0] == train(data, plain)[0]


class TestEvaluate:
    def test_relabeled_data_scores_perfectly(self, small_split):
        from scampsim.model import batch_predict, random_model
        m = random_model(seed=9)
        xs, _ = images_labels(small_split.train)
        preds = batch_predict(m, xs)
        relabeled = [GestureSample(x, int(p))
                     for x, p in zip(xs, preds)]
        acc, confusion = evaluate(m, relabeled)
        assert acc == 1.0
        assert np.all(confusion == np.diag(np.diag(confusion)))

    def test_random_model_near_chance(self):
        from scampsim.model import random_model
        data = generate(13, 100)
        accs = [evaluate(random_model(seed=s), data.train)[0]
                for s in range(8)]
        # mean accuracy of random +-1 models on balanced 3-class data ~ 1/3;
        # binomial 99% CI for 8*300 trials gives about +-0.025
        assert abs(np.mean(accs) - 1 / 3) < 0.1

    def test_confusion_rows_sum_to_class_counts(self, small_split):
        from scampsim.model import random_model
        acc, confusion = evaluate(random_model(seed=1), small_split.test)
        _, ys = images_labels(small_split.test)
        assert confusion.sum(axis=1).tolist() == np.bincount(ys).tolist()


def oracle_forward_backward(latent, xs, ys):
    """Per-cell loops in float64: the loss, gk, gf and the conv positions
    that receive a pooled gradient. Each cell's gradient goes to the first
    maximum of its 2x2 cell (row-major, invalid positions reading 0), only
    where that maximum is > 0."""
    kern = np.where(latent.kernels >= 0, 1.0, -1.0)
    fc = np.where(latent.fc_weights >= 0, 1.0, -1.0)
    n, bs = xs.shape[0], xs.shape[1]
    nb, k = kern.shape[0], kern.shape[1]
    ps, v = bs // 2, bs - k + 1
    conv = np.zeros((n, nb, bs, bs))
    for i in range(n):
        for b in range(nb):
            for r in range(v):
                for c in range(v):
                    conv[i, b, r, c] = (kern[b] * xs[i, r:r + k, c:c + k]).sum()
    pooled = np.zeros((n, nb, ps, ps))
    winner = {}  # (i, b, cell row, cell col) -> (row, col) of the first maximum
    for i in range(n):
        for b in range(nb):
            for ci in range(ps):
                for cj in range(ps):
                    cell = [(2 * ci + a, 2 * cj + d) for a in (0, 1) for d in (0, 1)]
                    relu = [max(conv[i, b, r, c], 0.0) for r, c in cell]
                    pooled[i, b, ci, cj] = max(relu)
                    if max(relu) > 0:
                        winner[i, b, ci, cj] = cell[relu.index(max(relu))]
    scale = 1.0 / (nb * ps ** 2)
    z = np.einsum("bnij,cnij->bc", pooled, fc) * scale
    probs = np.exp(z - z.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    loss = -np.log(probs[np.arange(n), ys]).mean()
    gscore = probs.copy()
    gscore[np.arange(n), ys] -= 1.0
    gscore *= scale / n
    gf = np.einsum("bc,bnij->cnij", gscore, pooled)
    gk = np.zeros((nb, k, k))
    for (i, b, ci, cj), (r, c) in winner.items():
        g = (gscore[i] * fc[:, b, ci, cj]).sum()
        gk[b] += g * xs[i, r:r + k, c:c + k]
    routed = {(i, b, r, c) for (i, b, _, _), (r, c) in winner.items()}
    return loss, gk, gf, routed, pooled, conv


class TestBackward:
    """_forward_backward against a per-cell loop on a small plane."""

    @pytest.mark.parametrize("k, seed", [
        pytest.param(3, 0, id="k3-even-v"),
        pytest.param(2, 1, id="k2-odd-v"),
        pytest.param(3, 2, id="k3-seed2"),
    ])
    def test_matches_per_cell_loop(self, k, seed):
        geometry = PlaneGeometry(16, 16, 2, 8)
        rng = np.random.default_rng(seed)
        latent = LatentModel(rng.uniform(-1, 1, (4, k, k)),
                             rng.uniform(-1, 1, (3, 4, 4, 4)), geometry,
                             ("a", "b", "c"))
        xs = rng.integers(0, 2, (5, 8, 8)).astype(np.uint8)
        ys = rng.integers(0, 3, 5)
        loss, gk, gf, routed, pooled, conv = oracle_forward_backward(latent, xs, ys)
        # ties are the case a mask rewrite gets wrong: there must be cells
        # whose maximum is > 0 and held by more than one position
        cells = np.maximum(conv, 0).reshape(5, 4, 4, 2, 4, 2)
        tied = (cells == pooled[:, :, :, None, :, None]).sum(axis=(3, 5))
        assert ((tied > 1) & (pooled > 0)).sum() >= 5

        got_loss, got_gk, got_gf = _forward_backward(latent, xs, ys)
        assert got_loss == pytest.approx(loss, rel=1e-5)
        for got, want in ((got_gk, gk), (got_gf, gf)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-4,
                                       atol=1e-6 * np.abs(want).max())

        # the routed set, with a pooled gradient that is nowhere zero
        _, inter = dense_forward(_sign(latent.kernels), _sign(latent.fc_weights), xs)
        gpooled = rng.uniform(0.5, 1.5, inter["pooled"].shape).astype(np.float32)
        pv = inter["conv"].shape[-1]
        gvalid = valid_conv(_route(inter["conv"], inter["pooled"],
                                   gpooled[..., :pv, :pv]), 8 - k + 1)
        assert {tuple(p) for p in np.argwhere(gvalid != 0)} == routed
        for i, b, r, c in routed:
            assert gvalid[i, b, r, c] == gpooled[i, b, r // 2, c // 2]


# (geometry, k): even and odd v on both conv paths, one product per image
# where k*k < 3 * blocks (grid 4, the 32x32 plane at k 1) and k row products
# elsewhere (grids 1 and 2, the 32x32 plane at k 8)
@pytest.mark.parametrize("geometry, k", [
    pytest.param(PlaneGeometry(256, 256, 4, 64), 3, id="grid4-k3"),
    pytest.param(PlaneGeometry(256, 256, 4, 64), 4, id="grid4-k4"),
    pytest.param(PlaneGeometry(256, 256, 1, 256), 5, id="grid1-k5"),
    pytest.param(PlaneGeometry(256, 256, 2, 128), 5, id="grid2-k5"),
    pytest.param(PlaneGeometry(256, 256, 2, 128), 6, id="grid2-k6"),
    pytest.param(PlaneGeometry(32, 32, 4, 8), 1, id="bs8-k1"),
    pytest.param(PlaneGeometry(32, 32, 4, 8), 8, id="bs8-k8"),
])
def test_pad_slots_of_the_kept_conv_and_its_gradient_hold_zero(geometry, k):
    """Slots of the cell-offset layout past the v x v valid region are 0 in
    dense_forward's conv, and _route leaves them 0."""
    m = random_model(seed=k, k=k, geometry=geometry)
    bs, nb = geometry.block_size, geometry.num_blocks
    v = bs - k + 1
    rng = np.random.default_rng(k)
    xs = rng.integers(0, 2, (2, bs, bs)).astype(np.uint8)
    _, inter = dense_forward(m.kernels, m.fc_weights, xs)
    conv = inter["conv"]
    pv = (v + 1) // 2
    assert conv.shape == (2, nb, 2, 2, pv, pv)

    def pads(c):
        whole = c.transpose(0, 1, 4, 2, 5, 3).reshape(2, nb, 2 * pv, 2 * pv)
        return np.concatenate([whole[..., v:, :].ravel(), whole[..., :v, v:].ravel()])

    assert pads(conv).size == 4 * pv * pv * 2 * nb - 2 * nb * v * v
    assert not pads(conv).any()
    assert valid_conv(conv, v).any()
    gpooled = rng.uniform(0.5, 1.5, (2, nb, pv, pv)).astype(np.float32)
    gvalid = _route(conv, inter["pooled"], gpooled)
    assert not pads(gvalid).any()
    assert valid_conv(gvalid, v).any()


def routed_gradient(latent, xs, ys):
    """_forward_backward's kernel gradient and the gvalid it summed, as the
    (n, nb, v, v) valid region."""
    seen = []

    def route(conv, pooled, gpooled):
        gvalid = _route(conv, pooled, gpooled)
        seen.append(gvalid.copy())
        return gvalid

    with mock.patch.object(training, "_route", route):
        _, gk, _ = _forward_backward(latent, xs, ys)
    return gk, valid_conv(seen[0], xs.shape[1] - latent.kernels.shape[1] + 1)


def sequential_kernel_gradient(gvalid, xs, k):
    """gk summed one (image, position) pair at a time, in row-major order,
    in float32, by np.add.accumulate: the order of a dense einsum
    "bnp,bpq->nq" over every position, without einsum."""
    n, nb, v = gvalid.shape[:3]
    windows = np.lib.stride_tricks.sliding_window_view(
        xs.astype(np.float32), (k, k), axis=(1, 2)).reshape(n * v * v, 1, k * k)
    g = gvalid.reshape(n, nb, v * v).transpose(0, 2, 1).reshape(n * v * v, nb, 1)
    terms = g * windows    # (pairs, nb, k*k) float32
    return np.add.accumulate(terms, axis=0, dtype=np.float32)[-1].reshape(nb, k, k)


class TestKernelGradientOrder:
    """gk, summed over routed positions only, against a float32 sum over all
    of them in row-major (image, position) order. Compared with ==, so +0
    and -0 count as equal. k = 1 is left out: there numpy's einsum runs a
    vectorised loop that is sequential in neither form (the trainer's k is
    4)."""

    @given(k=st.integers(2, 6), batch=st.integers(1, 32),
           seed=st.integers(0, 2**32 - 1), dead=st.booleans())
    @example(k=2, batch=32, seed=0, dead=False)
    @example(k=4, batch=1, seed=1, dead=True)
    @settings(max_examples=60, deadline=None)
    def test_equals_sequential_float32_sum(self, k, batch, seed, dead):
        rng = np.random.default_rng(seed)
        kernels = rng.uniform(-1, 1, (4, k, k))
        if dead:
            # every kernel all -1: conv <= 0, so no pooled value is > 0
            kernels = -np.abs(kernels) - 0.5
        latent = LatentModel(kernels, rng.uniform(-1, 1, (3, 4, 4, 4)),
                             PlaneGeometry(16, 16, 2, 8), ("a", "b", "c"))
        xs = (rng.random((batch, 8, 8)) < rng.uniform(0.1, 0.9)).astype(np.uint8)
        ys = rng.integers(0, 3, batch)
        gk, gvalid = routed_gradient(latent, xs, ys)
        if dead:
            assert not gvalid.any()
            assert not gk.any()
        assert np.all(gk == sequential_kernel_gradient(gvalid, xs, k))
