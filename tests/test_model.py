import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scampsim.geometry import PlaneGeometry
from scampsim.model import (BnnModel, ModelError, argmax, batch_predict,
                            load_weights, random_model, reference_infer,
                            save_weights)


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
        _, inter = reference_infer(m, np.ones((64, 64), dtype=np.uint8),
                                   return_intermediates=True)
        k2 = m.k * m.k
        interior = inter["conv"][:, : 64 - m.k + 1, : 64 - m.k + 1]
        assert np.all(interior == k2)
        assert np.all(inter["pooled"][:, : 30, : 30] == k2)

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
        _, inter = reference_infer(m, x, return_intermediates=True)
        k2 = m.k * m.k
        assert inter["conv"].min() >= -k2 and inter["conv"].max() <= k2
        assert inter["relu"].min() >= 0

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
            # numpy itself refuses ragged nesting, with a bare ValueError
            with pytest.raises(ValueError, match="kernels|inhomogeneous"):
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

    def test_missing_field_named(self):
        parsed = json.loads(save_weights(random_model(seed=2)))
        del parsed["fc"]
        with pytest.raises(ModelError, match="fc"):
            load_weights(json.dumps(parsed))

    def test_fc_weight_count_enforced(self):
        m = random_model(seed=3)
        per_class = m.fc_weights.shape[1] * m.fc_weights.shape[2] * m.fc_weights.shape[3]
        assert per_class == 16 * 32 * 32
