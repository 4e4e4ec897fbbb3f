import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import valid_conv
from scampsim.geometry import PlaneGeometry
from scampsim.model import (BnnModel, ModelError, argmax, batch_predict,
                            dense_forward, load_weights, random_model,
                            reference_infer, save_weights)


def brute_force_infer(model, x):
    """Independent loop-nest oracle: plain Python, no shared code with the
    vectorized implementation."""
    bs, k = model.geometry.block_size, model.k
    nb = model.geometry.num_blocks
    conv = [[[0] * bs for _ in range(bs)] for _ in range(nb)]
    for b in range(nb):
        for r in range(bs):
            for c in range(bs):
                if r + k > bs or c + k > bs:
                    continue  # window leaves the block: output stays zero
                acc = 0
                for dy in range(k):
                    for dx in range(k):
                        acc += int(model.kernels[b, dy, dx]) * int(x[r + dy, c + dx])
                conv[b][r][c] = acc
    pooled = [[[0] * (bs // 2) for _ in range(bs // 2)] for _ in range(nb)]
    for b in range(nb):
        for r in range(0, bs, 2):
            for c in range(0, bs, 2):
                vals = [max(0, conv[b][r + i][c + j])
                        for i in range(2) for j in range(2)]
                pooled[b][r // 2][c // 2] = max(vals)
    scores = []
    for cl in range(model.num_classes):
        s = 0
        for b in range(nb):
            for i in range(bs // 2):
                for j in range(bs // 2):
                    s += int(model.fc_weights[cl, b, i, j]) * pooled[b][i][j]
        scores.append(s)
    return scores


def tap_loop_forward(kernels, fc, xs):
    """Scores, zero-bordered conv and pooled in int64, one shifted add per
    kernel tap: no BLAS call and no code shared with dense_forward."""
    n, bs = xs.shape[0], xs.shape[1]
    nb, k = kernels.shape[0], kernels.shape[1]
    v, ps = bs - k + 1, bs // 2
    conv = np.zeros((n, nb, bs, bs), dtype=np.int64)
    for dy in range(k):
        for dx in range(k):
            conv[:, :, :v, :v] += (kernels[None, :, dy, dx, None, None]
                                   * xs[:, None, dy:dy + v, dx:dx + v])
    pooled = np.maximum(conv, 0).reshape(n, nb, ps, 2, ps, 2).max(axis=(3, 5))
    scores = (pooled[:, None] * fc[None]).sum(axis=(2, 3, 4))
    return scores, conv, pooled


class TestArgmax:
    def test_tie_breaks_to_lowest_index(self):
        assert argmax([5, 5, 3]) == 0

    def test_plain_max(self):
        assert argmax([1, 9, 2]) == 1

    def test_negatives(self):
        assert argmax([-4, -2, -7]) == 1

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            argmax([])


class TestReferenceInfer:
    def test_all_zero_input(self):
        m = random_model(seed=1)
        scores = reference_infer(m, np.zeros((64, 64), dtype=np.uint8))
        assert scores.sums == [0, 0, 0]
        assert scores.predicted == 0  # tie-break to index 0

    def test_all_ones_input_unit_kernels(self):
        m = random_model(seed=1)
        m = BnnModel(np.ones_like(m.kernels), m.fc_weights, m.class_names,
                     m.geometry)
        _, inter = dense_forward(m.kernels, m.fc_weights,
                                 np.ones((1, 64, 64), dtype=np.uint8))
        k2 = m.k * m.k
        interior = valid_conv(inter["conv"], 64 - m.k + 1)[0]
        assert np.all(interior == k2)
        assert np.all(inter["pooled"][0, :, : 30, : 30] == k2)

    def test_non_binary_input_rejected(self):
        m = random_model(seed=1)
        with pytest.raises(ModelError):
            reference_infer(m, np.full((64, 64), 2))

    @pytest.mark.parametrize("seed, grid, block_size, k", [
        pytest.param(0, 4, 64, 4, id="0"),
        pytest.param(7, 4, 64, 4, id="7"),
        pytest.param(99, 4, 64, 4, id="99"),
        # small planes; k = block size puts k^2 = 256 in a single window
        pytest.param(1, 1, 16, 16, id="grid1-bs16-k16"),
        pytest.param(2, 1, 18, 17, id="grid1-bs18-k17"),
        pytest.param(3, 2, 16, 16, id="grid2-bs16-k16"),
        pytest.param(4, 2, 16, 7, id="grid2-bs16-k7"),
        pytest.param(5, 4, 16, 16, id="grid4-bs16-k16"),
        pytest.param(6, 4, 8, 1, id="grid4-bs8-k1"),
    ])
    def test_matches_brute_force_loop_nest(self, seed, grid, block_size, k):
        rng = np.random.default_rng(seed)
        side = grid * block_size
        m = random_model(seed=seed, k=k,
                         geometry=PlaneGeometry(side, side, grid, block_size))
        x = rng.integers(0, 2, size=(block_size, block_size))
        scores = reference_infer(m, x)
        assert scores.sums == brute_force_infer(m, x)

    # every (grid, k) of perfbench's config-sweep design on the 256x256
    # plane; an even k gives an odd valid side v = bs - k + 1, and the conv
    # is one product per image where k*k < 3 * blocks, k row products elsewhere
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("grid", [1, 2, 4, 8])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_sweep_design_matches_tap_loop(self, grid, k, n):
        geometry = PlaneGeometry(256, 256, grid, 256 // grid)
        m = random_model(seed=10 * grid + k, num_classes=2 + (grid + k) % 7, k=k,
                         geometry=geometry)
        rng = np.random.default_rng(grid * k * n)
        xs = rng.integers(0, 2, (n, geometry.block_size, geometry.block_size))
        want_scores, want_conv, want_pooled = tap_loop_forward(
            m.kernels, m.fc_weights, xs)
        v = geometry.block_size - k + 1
        for keep_conv in (True, False):
            scores, inter = dense_forward(m.kernels, m.fc_weights,
                                          xs.astype(np.uint8), keep_conv=keep_conv)
            assert scores.dtype == np.int64
            assert np.array_equal(scores, want_scores)
            assert np.array_equal(inter["pooled"], want_pooled)
            if keep_conv:
                assert np.array_equal(valid_conv(inter["conv"], v),
                                      want_conv[..., :v, :v])
            else:
                assert "conv" not in inter  # its buffer holds the last image only

    # the FC product runs in float32 while blocks * (bs/2)^2 * k^2 < 2^24,
    # else in float64: k 31 and k 32 on the 256x256 plane sit on either side,
    # and the 512x512 plane's all-+1 weights over a dense input reach sums
    # past 2^24 that float32 cannot hold
    @pytest.mark.parametrize("side, k", [(256, 31), (256, 32), (512, 32)])
    def test_fc_sums_are_exact_on_both_sides_of_float32(self, side, k):
        geometry = PlaneGeometry(side, side, 1, side)
        m = random_model(seed=k, num_classes=2, k=k, geometry=geometry)
        if side == 512:
            m.kernels[:] = 1
            m.fc_weights[0] = 1
        xs = np.random.default_rng(k).random((2, side, side)) < 0.9
        scores, _ = dense_forward(m.kernels, m.fc_weights, xs.astype(np.uint8))
        want, _, _ = tap_loop_forward(m.kernels, m.fc_weights, xs.astype(np.int64))
        assert np.array_equal(scores, want)

    def test_batch_predict_matches_reference_across_chunks(self, rng):
        m = random_model(seed=8)
        xs = rng.integers(0, 2, size=(7, 64, 64)).astype(np.uint8)
        expected = [reference_infer(m, x).predicted for x in xs]
        assert len(set(expected)) > 1  # the chunks must not all agree trivially
        assert batch_predict(m, xs, chunk=3).tolist() == expected

    def test_is_pure(self, rng):
        m = random_model(seed=4)
        x = rng.integers(0, 2, size=(64, 64))
        assert reference_infer(m, x).sums == reference_infer(m, x).sums

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_conv_range_bound(self, seed):
        rng = np.random.default_rng(seed)
        m = random_model(seed=seed)
        x = rng.integers(0, 2, size=(64, 64))
        _, inter = dense_forward(m.kernels, m.fc_weights, x[None])
        k2 = m.k * m.k
        conv = valid_conv(inter["conv"], 64 - m.k + 1)
        assert conv.min() >= -k2 and conv.max() <= k2
        # ReLU is applied in the pool; no ReLU tensor is kept
        assert inter["pooled"].min() >= 0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_fc_sign_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        m = random_model(seed=seed)
        x = rng.integers(0, 2, size=(64, 64))
        flipped = BnnModel(m.kernels, -m.fc_weights, m.class_names, m.geometry)
        assert reference_infer(flipped, x).sums == \
            [-s for s in reference_infer(m, x).sums]

    def test_argmax_invariant_under_positive_scaling(self, rng):
        m = random_model(seed=5)
        x = rng.integers(0, 2, size=(64, 64))
        scores = reference_infer(m, x)
        assert argmax([4 * s for s in scores.sums]) == scores.predicted


class TestWeightsDocument:
    def test_round_trip_is_exact(self):
        m = random_model(seed=11)
        assert load_weights(save_weights(m)) == m

    @pytest.mark.parametrize("value, accepted", [
        pytest.param(0, False, id="0"),
        pytest.param(2, False, id="2"),
        pytest.param(0.5, False, id="0.5"),
        pytest.param(1.5, False, id="1.5"),
        pytest.param(float("nan"), False, id="nan"),
        pytest.param("1", False, id="string"),
        pytest.param(None, False, id="None"),
        pytest.param([1, 1], False, id="ragged"),
        pytest.param(False, False, id="false"),
        pytest.param(True, True, id="true"),  # JSON true joins an int array as 1
        pytest.param(1, True, id="1"),
        pytest.param(-1, True, id="-1"),
        pytest.param(1.0, True, id="1.0"),
        pytest.param(-1.0, True, id="-1.0"),
    ])
    def test_zero_weight_rejected(self, value, accepted):
        parsed = json.loads(save_weights(random_model(seed=2)))
        parsed["kernels"][0][0][0] = value

        def direct():
            return BnnModel(parsed["kernels"], parsed["fc"], tuple(parsed["classes"]))

        if accepted:
            assert load_weights(json.dumps(parsed)).kernels[0, 0, 0] == value
            assert direct().kernels[0, 0, 0] == value
        else:
            with pytest.raises(ModelError, match="kernels"):
                load_weights(json.dumps(parsed))
            with pytest.raises(ModelError, match="kernels"):
                direct()

    def test_wrong_kernel_count_rejected(self):
        parsed = json.loads(save_weights(random_model(seed=2)))
        parsed["kernels"] = parsed["kernels"][:15]
        with pytest.raises(ModelError, match="kernels"):
            load_weights(json.dumps(parsed))

    def test_version_mismatch_rejected(self):
        parsed = json.loads(save_weights(random_model(seed=2)))
        parsed["version"] = 99
        with pytest.raises(ModelError, match="version"):
            load_weights(json.dumps(parsed))

    # bools, floats and strings passed through int() or tuple() before
    @pytest.mark.parametrize("field, value, error", [
        pytest.param("version", True, "'version' must be an integer", id="version-true"),
        pytest.param("k", 4.0, "'k' must be an integer", id="k-float"),
        pytest.param("block_size", 64.9, "'block_size' must be an integer",
                     id="block_size-float"),
        pytest.param("block_grid", "4", "'block_grid' must be an integer",
                     id="block_grid-string"),
        pytest.param("classes", "abc", "'classes' must be a list of strings",
                     id="classes-string"),
        pytest.param("classes", ["rock", 1, "scissors"],
                     "'classes' must be a list of strings", id="classes-int-item"),
    ])
    def test_field_types_enforced(self, field, value, error):
        parsed = json.loads(save_weights(random_model(seed=2)))
        parsed[field] = value
        with pytest.raises(ModelError, match=error):
            load_weights(json.dumps(parsed))

    def test_missing_field_named(self):
        parsed = json.loads(save_weights(random_model(seed=2)))
        del parsed["fc"]
        with pytest.raises(ModelError, match="fc"):
            load_weights(json.dumps(parsed))

    def test_fc_weight_count_enforced(self):
        m = random_model(seed=3)
        per_class = m.fc_weights.shape[1] * m.fc_weights.shape[2] * m.fc_weights.shape[3]
        assert per_class == 16 * 32 * 32
