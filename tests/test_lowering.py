import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import same_planes, snapshot, valid_conv

from scampsim.geometry import PlaneGeometry
from scampsim.lowering import (LoweringError, block_select_pattern,
                               border_pattern, fc_negative_pattern, lower_conv,
                               lower_fc, lower_maxpool, lower_model, lower_relu,
                               lower_replicate, make_input_state,
                               parity_pattern, prepare_input)
from scampsim.model import (BnnModel, default_model, dense_forward, random_model,
                            reference_infer)
from scampsim.planes import SATURATING, ArrayState
from scampsim.program import (Instruction, PpaProgram, ProgramError, disassemble,
                              execute, parse_listing, validate)


def block_of(plane, geometry, b):
    """Block b of a plane; blocks are numbered row-major."""
    r, c = divmod(b, geometry.block_grid)
    bs = geometry.block_size
    return plane[r * bs:(r + 1) * bs, c * bs:(c + 1) * bs]


def run_instructions(instructions, state):
    return execute(PpaProgram(instructions), state)


def replicated_state(x, geometry=None):
    state = make_input_state(x, geometry)
    run_instructions(lower_replicate(state.geometry), state)
    return state


def majority_oracle(img, block_size):
    """prepare_input's contract, one cell at a time."""
    s = img.shape[0] // block_size
    out = np.zeros((block_size, block_size), dtype=np.uint8)
    for r in range(block_size):
        for c in range(block_size):
            cell = img[r * s:(r + 1) * s, c * s:(c + 1) * s] > 127
            out[r, c] = 2 * int(cell.sum()) > s * s
    return out


def near_half_image(rng, block_size, s):
    """Cells with one fewer than, exactly, or one more than half their
    pixels above the threshold, at random places, with gray levels on
    either side of it."""
    half = s * s // 2
    counts = np.clip(rng.integers(half - 1, half + 2, (block_size, block_size)), 0, s * s)
    ranks = rng.random((block_size, block_size, s * s)).argsort(-1).argsort(-1)
    above = (ranks < counts[..., None]).reshape(block_size, block_size, s, s)
    above = above.transpose(0, 2, 1, 3).reshape(block_size * s, -1)
    return np.where(above, rng.integers(128, 256, above.shape),
                    rng.integers(0, 128, above.shape)).astype(np.uint8)


class TestPrepareInput:
    @pytest.mark.parametrize("s", [1, 2, 4, 16, 32])
    def test_matches_a_per_cell_majority_oracle(self, s):
        block_size = 64 if s <= 4 else 256 // s
        rng = np.random.default_rng(s)
        side = block_size * s
        for img in (rng.integers(0, 256, (side, side), dtype=np.uint8),
                    near_half_image(rng, block_size, s)):
            out = prepare_input(img, block_size)
            assert out.dtype == np.uint8
            assert np.array_equal(out, majority_oracle(img, block_size))

    def test_majority_downsample_256(self, rng):
        img = (rng.integers(0, 2, size=(256, 256)) * 255).astype(np.uint8)
        out = prepare_input(img)
        assert out.shape == (64, 64)
        # independent per-cell majority check on a sample of cells
        bits = img > 127
        for r in range(0, 64, 7):
            for c in range(0, 64, 9):
                cell = bits[4 * r:4 * r + 4, 4 * c:4 * c + 4]
                assert out[r, c] == (1 if cell.sum() > 8 else 0)

    def test_identity_on_block_sized_binary(self, rng):
        x = rng.integers(0, 2, size=(64, 64)).astype(np.uint8)
        assert np.array_equal(prepare_input(x * 255), x)

    def test_non_multiple_rejected(self):
        with pytest.raises(LoweringError):
            prepare_input(np.zeros((100, 100)))

    def test_cell_counts_past_255_do_not_wrap(self):
        # s = 32: a full cell counts 1024 (wraps in uint8); 511, one short
        # of half, gives 0
        img = np.zeros((64, 64), dtype=np.uint8)
        img[:32, :32] = 255
        img[32:, :32] = 255
        img[32:48, 32:] = 255
        img[32, 32] = 0
        assert prepare_input(img, block_size=2).tolist() == [[1, 0], [1, 0]]

    @pytest.mark.parametrize("s", [2, 4, 16, 32])
    def test_cell_exactly_half_set_gives_zero(self, s):
        img = np.zeros((2 * s, 2 * s), dtype=np.uint8)
        img[:s // 2, :s] = 255          # top-left cell: exactly half set
        img[s:s + s // 2 + 1, :s] = 255  # bottom-left: one row over half
        assert prepare_input(img, block_size=2).tolist() == [[0, 0], [1, 0]]


class TestReplicate:
    def test_zero_input(self):
        state = replicated_state(np.zeros((64, 64), dtype=np.uint8))
        assert np.all(state.analog["B"] == 0)

    def test_single_pixel_tiles_sixteen_times(self):
        x = np.zeros((64, 64), dtype=np.uint8)
        x[3, 5] = 1
        state = replicated_state(x)
        vals = state.analog["B"]
        assert vals.sum() == 16
        for r in range(4):
            for c in range(4):
                assert vals[64 * r + 3, 64 * c + 5] == 1

    def test_every_block_equals_input(self, rng):
        x = rng.integers(0, 2, size=(64, 64))
        state = replicated_state(x)
        vals = state.analog["B"]
        g = state.geometry
        for b in range(g.num_blocks):
            assert np.array_equal(block_of(vals, g, b), x)


class TestConv:
    def test_all_plus_kernels_all_ones_input(self):
        m = random_model(seed=0)
        m = BnnModel(np.ones_like(m.kernels), m.fc_weights, m.class_names,
                     m.geometry)
        state = replicated_state(np.ones((64, 64), dtype=np.uint8))
        run_instructions(lower_conv(m), state)
        acc = state.analog["C"]
        g = m.geometry
        for b in range(g.num_blocks):
            block = block_of(acc, g, b)
            assert np.all(block[: 61, : 61] == 16)
            assert np.all(block[61:, :] == 0) and np.all(block[:, 61:] == 0)

    def test_negated_kernel_negates_block(self, rng):
        m = random_model(seed=1)
        kernels = m.kernels.copy()
        kernels[1] = -kernels[0]
        m = BnnModel(kernels, m.fc_weights, m.class_names, m.geometry)
        x = rng.integers(0, 2, size=(64, 64))
        state = replicated_state(x)
        run_instructions(lower_conv(m), state)
        acc = state.analog["C"]
        g = m.geometry
        b0 = block_of(acc, g, 0)
        b1 = block_of(acc, g, 1)
        assert np.array_equal(b1, -b0)

    @pytest.mark.parametrize("seed", [2, 17])
    def test_matches_oracle_conv_per_block(self, seed, rng):
        m = random_model(seed=seed)
        x = rng.integers(0, 2, size=(64, 64))
        state = replicated_state(x)
        run_instructions(lower_conv(m), state)
        acc = state.analog["C"]
        _, inter = dense_forward(m.kernels, m.fc_weights, x[None])
        g = m.geometry
        v = g.block_size - m.k + 1  # the oracle keeps the valid region only
        conv = valid_conv(inter["conv"], v)
        for b in range(g.num_blocks):
            block = block_of(acc, g, b)
            assert np.array_equal(block[:v, :v], conv[0, b])
            assert not block[v:].any() and not block[:, v:].any()

    def test_instruction_count_formula(self):
        m = random_model(seed=3)
        _, plan = lower_model(m)
        k2 = m.k * m.k
        budget = plan.conv_budget
        assert budget["shifts"] == k2
        assert budget["accumulates"] == (budget["taps_with_positive"]
                                         + budget["taps_with_negative"])
        assert budget["border_zeroing"] == 1

    def test_mask_completeness_per_tap(self):
        # +1 mask OR -1 mask covers all blocks for every tap (weights never 0)
        m = random_model(seed=4)
        for dy in range(m.k):
            for dx in range(m.k):
                w = m.kernels[:, dy, dx]
                assert np.all((w == 1) | (w == -1))


class TestRelu:
    def _run(self, values):
        state = ArrayState(PlaneGeometry())
        state.analog["C"][:] = values
        # REG_ZERO must hold zeros, as the program prelude guarantees
        run_instructions(lower_relu(), state)
        return state.analog["C"]

    def test_all_negative_becomes_zero(self):
        assert np.all(self._run(np.full((256, 256), -3)) == 0)

    def test_positive_unchanged(self):
        assert np.all(self._run(np.full((256, 256), 7)) == 7)

    def test_mixed_matches_scalar_oracle(self, rng):
        vals = rng.integers(-20, 20, size=(256, 256))
        assert np.array_equal(self._run(vals), np.maximum(vals, 0))


class TestMaxpool:
    def _run(self, values):
        state = ArrayState(PlaneGeometry())
        state.analog["C"][:] = values
        run_instructions(lower_maxpool(state.geometry), state)
        return state.analog["C"]

    def test_constant_plane_unchanged(self):
        assert np.all(self._run(np.full((256, 256), 5)) == 5)

    def test_single_cell_max_replicates(self):
        vals = np.zeros((256, 256), dtype=np.int64)
        vals[11, 11] = 9  # cell (10..11, 10..11)
        out = self._run(vals)
        assert np.all(out[10:12, 10:12] == 9)

    def test_every_cell_uniform_and_correct(self, rng):
        vals = rng.integers(0, 30, size=(256, 256))
        out = self._run(vals)
        cells = vals.reshape(128, 2, 128, 2)
        maxes = cells.max(axis=(1, 3))
        expect = np.kron(maxes, np.ones((2, 2), dtype=np.int64))
        assert np.array_equal(out, expect)


class TestFc:
    def test_all_plus_weights_count_pixels(self):
        m = random_model(seed=5)
        m = BnnModel(m.kernels, np.ones_like(m.fc_weights), m.class_names,
                     m.geometry)
        state = ArrayState(m.geometry)
        state.analog["C"][:] = 1
        _, sums = run_instructions(lower_fc(m), state)
        assert sums == [256 * 256] * 3

    def test_sign_symmetry(self, rng):
        m = random_model(seed=6)
        flipped = BnnModel(m.kernels, -m.fc_weights, m.class_names, m.geometry)
        plane = rng.integers(0, 16, size=(256, 256))
        s1 = ArrayState(m.geometry)
        s1.analog["C"][:] = plane
        s2 = ArrayState(m.geometry)
        s2.analog["C"][:] = plane
        _, sums = run_instructions(lower_fc(m), s1)
        _, neg_sums = run_instructions(lower_fc(flipped), s2)
        assert neg_sums == [-s for s in sums]

    def test_fc_pattern_expands_2x2(self):
        m = random_model(seed=7)
        pat = fc_negative_pattern(m, 0)
        neg = (m.fc_weights[0] == -1)
        g = m.geometry
        for b in range(0, g.num_blocks, 5):
            block = block_of(pat, g, b)
            for i in range(0, 32, 7):
                for j in range(0, 32, 9):
                    assert np.all(block[2 * i:2 * i + 2, 2 * j:2 * j + 2]
                                  == neg[b, i, j])


def sha256_prefix(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# sha256 prefixes of the listing of random_model(10 * grid + k, k classes, k)
# on a 256x256 plane: the pattern builders may change no byte of them
LISTING_DIGESTS = {
    (1, 2): "a6ef8b97c9d0916d",
    (1, 3): "fe31e7cccf7bb849",
    (1, 4): "0599237425acbe3c",
    (1, 5): "acb4f0aa0b4e7a0e",
    (1, 6): "723bdbbdc382e2b4",
    (2, 2): "73935cac332c1b08",
    (2, 3): "5bc0b2f0f56df826",
    (2, 4): "938e5929627a732b",
    (2, 5): "8bd2f6e1974fe11e",
    (2, 6): "813740dd04e908d4",
    (4, 2): "96cb720e88cd69c4",
    (4, 3): "4545abfbcc65fca7",
    (4, 4): "3e6f4dfbf0e036a0",
    (4, 5): "6db8dbc8f57dfae7",
    (4, 6): "dff4c5e82db922c1",
    (8, 2): "04f57d04e69b8c17",
    (8, 3): "81ebc58feb2d42ae",
    (8, 4): "3fcc8d8dfd6f0754",
    (8, 5): "b0af39c9f87a63a4",
    (8, 6): "15baf5931c268d40",
}


class TestLowerModel:
    def test_execution_matches_oracle_times_four(self, rng):
        m = random_model(seed=8)
        prog, _ = lower_model(m)
        for _ in range(5):
            x = rng.integers(0, 2, size=(64, 64))
            _, sums = execute(prog, make_input_state(x))
            ref = reference_infer(m, x)
            assert sums == [4 * s for s in ref.sums]

    def test_lowering_twice_gives_identical_listings(self):
        m = random_model(seed=9)
        p1, _ = lower_model(m)
        p2, _ = lower_model(m)
        assert disassemble(p1) == disassemble(p2)

    def test_single_class_model_has_one_gsum(self):
        m = random_model(seed=10, num_classes=1)
        prog, _ = lower_model(m)
        assert sum(1 for i in prog.instructions if i.opcode == "gsum") == 1
        assert prog.sum_labels == ["class0"]

    def test_patterns_are_read_only_and_kept_without_a_copy(self):
        m = random_model(seed=7)
        g = m.geometry
        for plane in (block_select_pattern(g, np.arange(16) % 3 == 0),
                      border_pattern(g, 4), parity_pattern(g, "col", 1),
                      fc_negative_pattern(m, 0)):
            assert not plane.flags.writeable
            assert Instruction("pattern", dst="R1", pattern=plane).pattern is plane

    def test_border_pattern_width(self):
        g = PlaneGeometry()
        pat = border_pattern(g, 4)
        block = pat[:64, :64]
        assert np.all(block[61:, :] == 1)
        assert np.all(block[:, 61:] == 1)
        assert np.all(block[:61, :61] == 0)

    def test_plan_serializes(self):
        import json
        _, plan = lower_model(random_model(seed=12))
        doc = json.loads(plan.to_json())
        assert "registers" in doc and "instruction_counts" in doc

    @pytest.mark.parametrize("grid,k", LISTING_DIGESTS)
    def test_listing_keeps_its_bytes(self, grid, k):
        g = PlaneGeometry(256, 256, grid, 256 // grid)
        prog, _ = lower_model(random_model(10 * grid + k, k, k, g))
        assert sha256_prefix(disassemble(prog)) == LISTING_DIGESTS[grid, k]

    def test_default_program_and_plan_keep_their_bytes(self):
        prog, plan = lower_model(default_model())
        assert sha256_prefix(disassemble(prog)) == "b52aabd1413ae619"
        assert sha256_prefix(plan.to_json()) == "116834838704df99"


class TestValueRange:
    """The widest lowered models stay far inside int32, and the lowering
    matches the dense oracle over the whole configuration space."""

    # the proof reads k^2: (8, 32) is proven to stay within 1024 and (1, 64)
    # within 4096, so both run at int16
    @pytest.mark.parametrize("grid,k,dtype", [(8, 32, np.int16), (1, 64, np.int16)],
                             ids=["8-32", "1-64"])
    def test_widest_kernels_pass_the_bound_pass(self, grid, k, dtype, rng):
        g = PlaneGeometry(256, 256, grid, 256 // grid)
        m = random_model(seed=grid * 100 + k, k=k, geometry=g)
        prog, _ = lower_model(m)
        x = rng.integers(0, 2, size=(g.block_size,) * 2)
        state = make_input_state(x, g)
        _, sums = execute(prog, state)
        assert sums == [4 * s for s in reference_infer(m, x).sums]
        assert state.dtype == dtype

    @pytest.mark.parametrize("mode", ["ideal", SATURATING])
    def test_default_frame_runs_at_int8(self, mode, rng):
        m = default_model()
        prog, _ = lower_model(m)
        x = rng.integers(0, 2, size=(64, 64))
        state = make_input_state(x, mode=mode)
        # k^2 for k = 4: the replicate stage's adds sum blocks that do not
        # overlap, so they prove 1, and each conv tap adds 1 per block under
        # its add or its sub mask
        assert validate(prog, state) == 16
        _, sums = execute(prog, state)
        assert sums == [4 * s for s in reference_infer(m, x).sums]
        assert state.dtype == np.int8

    @pytest.mark.parametrize("k", [11, 12])
    def test_all_plus_one_kernels_prove_k_squared(self, k):
        """All-+1 kernels on an all-ones input reach exactly k*k, so
        saturating mode runs k = 11 and refuses k = 12 before anything runs."""
        m = random_model(0, k=k)
        m.kernels[:] = 1
        prog, _ = lower_model(m)
        x = np.ones((64, 64), dtype=np.uint8)
        expected = [4 * s for s in reference_infer(m, x).sums]
        ideal = make_input_state(x)
        assert validate(prog, ideal) == k * k
        assert execute(prog, ideal)[1] == expected
        sat = make_input_state(x, mode=SATURATING)
        if k == 11:
            assert execute(prog, sat)[1] == expected
            return
        assert expected == [29952, -72576, -3456]
        before = snapshot(sat)
        with pytest.raises(ProgramError, match=r"^instruction \d+ \(add\): passes the "
                           r"saturating range of 127; .* magnitude 144$"):
            execute(prog, sat)
        assert same_planes(snapshot(sat), before)

    @given(grid=st.sampled_from([1, 2, 4, 8]), half=st.integers(1, 8),
           k_frac=st.floats(0, 1), classes=st.integers(2, 8),
           saturating=st.booleans(), seed=st.integers(0, 2**31 - 1))
    # the widest kernels saturating mode runs (k = 11) and refuses (k = 12)
    @example(grid=1, half=6, k_frac=10 / 11, classes=3, saturating=True, seed=0)
    @example(grid=2, half=6, k_frac=1.0, classes=3, saturating=True, seed=0)
    @settings(max_examples=25, deadline=None)
    def test_differential_fuzz(self, grid, half, k_frac, classes, saturating, seed):
        """Lowered sums equal 4x the dense reference on three fresh frames,
        the third run by the geometry's step list, and listings round-trip.
        Saturating mode refuses, before anything runs, exactly the models
        whose conv can pass 127 (k*k > 127). The slices `dump` runs, the
        plan's stages cut after each gsum too, run in turn on one state give
        the same sums, by instructions and by their step lists."""
        bs = 2 * half
        k = 1 + round(k_frac * (bs - 1))
        g = PlaneGeometry(grid * bs, grid * bs, grid, bs)
        m = random_model(seed=seed, num_classes=classes, k=k, geometry=g)
        prog, plan = lower_model(m)
        assert parse_listing(disassemble(prog)) == prog
        x = np.random.default_rng(seed).integers(0, 2, size=(bs, bs))
        mode = SATURATING if saturating else "ideal"
        if saturating and k * k > 127:
            state = make_input_state(x, g, mode)
            before = snapshot(state)
            with pytest.raises(ProgramError, match=f"can reach magnitude {k * k}$"):
                execute(prog, state)
            assert same_planes(snapshot(state), before)
            return
        _, sums = execute(prog, make_input_state(x, g, mode))
        assert sums == [4 * s for s in reference_infer(m, x).sums]
        # a second frame of the same program reuses its bound proof and binds
        # the same pattern arrays
        assert execute(prog, make_input_state(x, g, mode))[1] == sums
        assert prog._compiled[g].steps is None
        assert execute(prog, make_input_state(x, g, mode))[1] == sums
        assert prog._compiled[g].steps is not None
        cuts = sorted({end for _, end in plan.stage_ranges.values()}
                      | {i + 1 for i, ins in enumerate(prog.instructions)
                         if ins.opcode == "gsum"})
        slices = [PpaProgram(prog.instructions[a:b]) for a, b in zip([0] + cuts, cuts)]
        for _ in range(3):
            state = make_input_state(x, g, mode)
            assert [s for sl in slices for s in execute(sl, state)[1]] == sums
        assert all(sl._compiled[g].steps is not None for sl in slices)
