import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scampsim.dataset import DatasetError, GestureSample
from scampsim.geometry import GeometryError, PlaneGeometry
from scampsim.lowering import (LoweringError, block_select_pattern,
                               make_input_state)
from scampsim.model import ModelError, default_model, reference_infer
from scampsim.planes import (ANALOG_MAX, ANALOG_MIN, SATURATING, ArrayState,
                             NoiseModel, PlaneError, RegisterError, global_sum)
from scampsim.program import Instruction, PpaProgram, ProgramError, execute


def small_geometry():
    return PlaneGeometry(16, 16, 4, 4)


def make_state(mode="ideal"):
    return ArrayState(small_geometry(), mode=mode)


class TestGeometry:
    def test_defaults_tile_exactly(self, geometry):
        assert geometry.height == geometry.width == 256
        assert geometry.block_grid * geometry.block_size == geometry.height
        assert geometry.num_blocks == 16

    def test_rejects_mismatched_tiling(self):
        with pytest.raises(GeometryError):
            PlaneGeometry(256, 256, 4, 32)

    def test_block_indexing_round_trips(self, geometry):
        # blocks are numbered row-major and tile the plane exactly once
        covered = np.zeros(geometry.shape, dtype=int)
        for b in range(geometry.num_blocks):
            r0, c0 = geometry.block_origin(b)
            assert (r0 // 64, c0 // 64) == divmod(b, geometry.block_grid)
            rs, cs = geometry.block_slices(b)
            assert (rs.start, rs.stop, cs.start, cs.stop) == (r0, r0 + 64,
                                                              c0, c0 + 64)
            covered[rs, cs] += 1
        assert np.all(covered == 1)
        with pytest.raises(GeometryError):
            geometry.block_origin(geometry.num_blocks)


class TestThreshold:
    @pytest.mark.parametrize("t, expect", [(40000, False), (-40000, True),
                                           (ANALOG_MAX, False), (ANALOG_MIN, True)])
    def test_immediates_beyond_int16_on_an_int16_state(self, t, expect):
        state = make_state()
        state.areg("A")[:] = np.arange(-2**15, 2**15, 256).reshape(16, 16)
        state.areg("A")[0, 0] = 2**15 - 1
        execute(PpaProgram([Instruction("thresh", dst="R1", a="A", value=t)]),
                state)
        assert state.dtype == np.int16
        assert np.all(state.dreg("R1") == expect)

    def test_zero_plane_strict_inequality(self, geometry):
        state = ArrayState(geometry)
        state.threshold_into("R1", "A", 0)
        assert not state.dreg("R1").any()

    def test_ones_plane(self, geometry):
        state = ArrayState(geometry)
        state.areg("A")[:] = 1
        state.threshold_into("R1", "A", 0)
        assert state.dreg("R1").all()

    def test_matches_per_pixel_comparison(self, geometry, rng):
        vals = rng.integers(0, 256, size=geometry.shape)
        state = ArrayState(geometry)
        state.areg("A")[:] = vals
        state.threshold_into("R1", "A", 64)
        got = state.dreg("R1")
        for r in range(0, 256, 37):
            for c in range(0, 256, 41):
                assert got[r, c] == (vals[r, c] > 64)
        assert np.array_equal(got, vals > 64)


class TestArithmetic:
    def test_add_identity(self, rng):
        state = make_state()
        state.areg("A")[:] = rng.integers(-50, 50, size=(16, 16))
        state.add("C", "A", "B")  # B is all zero
        assert np.array_equal(state.areg("C"), state.areg("A"))

    def test_sub_self_is_zero(self, rng):
        state = make_state()
        state.areg("A")[:] = rng.integers(-50, 50, size=(16, 16))
        state.sub("B", "A", "A")
        assert np.all(state.areg("B") == 0)

    def test_checkerboard_mask_frames_untouched_pixels(self, rng):
        state = make_state()
        a = rng.integers(-50, 50, size=(16, 16))
        b = rng.integers(-50, 50, size=(16, 16))
        prior = rng.integers(-50, 50, size=(16, 16))
        state.areg("A")[:] = a
        state.areg("B")[:] = b
        state.areg("C")[:] = prior
        mask = np.indices((16, 16)).sum(axis=0) % 2
        state.write_pattern("R1", mask)
        state.add("C", "A", "B", mask="R1")
        got = state.areg("C")
        for r in range(16):
            for c in range(16):
                expect = a[r, c] + b[r, c] if mask[r, c] else prior[r, c]
                assert got[r, c] == expect

    def test_unknown_register_rejected(self):
        state = make_state()
        with pytest.raises(RegisterError):
            state.add("A", "B", "NOPE")

    def test_saturating_masked_accumulate_keeps_unmasked_pixels(self):
        # 300 is beyond the saturating range; a masked write must not clamp
        # the pixels it leaves alone
        state = make_state(mode=SATURATING)
        state.areg("C")[:] = 300
        state.areg("A")[:] = 5
        mask = np.indices((16, 16))[1] % 2 == 0
        state.write_pattern("R1", mask)
        state.add("C", "C", "A", mask="R1")
        assert np.array_equal(state.areg("C"), np.where(mask, 127, 300))

    def test_saturating_clamps(self):
        state = make_state(mode=SATURATING)
        state.areg("A")[:] = 100
        state.areg("B")[:] = 100
        state.add("C", "A", "B")
        assert np.all(state.areg("C") == 127)
        state.sub("C", "B", "A")
        state.areg("B")[:] = -100
        state.add("C", "A", "B")
        assert np.all(state.areg("C") == 0)


# the masked ops, each with its numpy oracle over int64 operands
MASKED_OPS = {
    "add": (lambda s, d, a, b, m: s.add(d, a, b, m), lambda a, b: a + b),
    "sub": (lambda s, d, a, b, m: s.sub(d, a, b, m), lambda a, b: a - b),
    "neg": (lambda s, d, a, b, m: s.neg(d, a, m), lambda a, b: -a),
    "copy": (lambda s, d, a, b, m: s.copy(d, a, m), lambda a, b: a),
    "max": (lambda s, d, a, b, m: s.max_combine(d, a, b, m), np.maximum),
}


def mask_shapes():
    g, r = small_geometry(), np.random.default_rng(3)
    return {
        "block_select": block_select_pattern(g, np.arange(16) % 3 == 0),
        "col_parity": np.indices((16, 16))[1] % 2 == 1,
        "row_parity": np.indices((16, 16))[0] % 2 == 0,
        "random": r.integers(0, 2, (16, 16)).astype(bool),
    }


class TestMaskedWrite:
    """Every masked op against np.where(m, clip(op(a, b)), old) in int64, for
    every mask shape, both modes, both plane dtypes and every way dst can
    alias the inputs."""

    @pytest.mark.parametrize("mode", ["ideal", SATURATING])
    @pytest.mark.parametrize("shape", mask_shapes())
    @pytest.mark.parametrize("op", MASKED_OPS)
    @pytest.mark.parametrize("dst,a,b", [("C", "A", "B"), ("A", "A", "B"),
                                         ("B", "A", "B"), ("A", "A", "A")])
    def test_matches_numpy_oracle(self, op, shape, mode, dst, a, b):
        for dtype in (np.int16, np.int32):
            self._check_against_oracle(op, shape, mode, dtype, dst, a, b)

    @staticmethod
    def _check_against_oracle(op, shape, mode, dtype, dst, a, b):
        run, oracle = MASKED_OPS[op]
        r = np.random.default_rng(7)
        state = make_state(mode)
        if dtype == np.int32:
            state.widen()
        # ideal: inputs whose result fits the dtype but whose difference to
        # the old value (the dtype's minimum at C[0, 0]) does not, so the
        # blend's own arithmetic wraps
        if mode == SATURATING:
            lo, hi, c00 = -128, 127, -128
        elif dtype == np.int16:
            lo, hi, c00 = -2**14 + 1, 2**14 - 1, -2**15
        else:
            lo, hi, c00 = -2**30 + 1, 2**30 - 1, ANALOG_MIN
        for reg in "ABC":
            state.areg(reg)[:] = r.integers(lo, hi + 1, (16, 16))
        state.areg("C")[0, 0] = c00
        mask = mask_shapes()[shape]
        state.write_pattern("R1", mask)
        before = {n: p.astype(np.int64) for n, p in state.analog.items()}
        new = oracle(before[a], before[b])
        if mode == SATURATING:
            new = np.clip(new, -128, 127)
        run(state, dst, a, b, "R1")
        assert np.array_equal(state.areg(dst), np.where(mask, new, before[dst]))
        assert state.dtype == dtype and state.areg(dst).dtype == dtype
        for n, old in before.items():
            if n != dst:
                assert np.array_equal(state.areg(n), old)

    @pytest.mark.parametrize("mode", ["ideal", SATURATING])
    @pytest.mark.parametrize("direction", ["N", "S", "E", "W"])
    @pytest.mark.parametrize("steps", [0, 1, 3, 16, 40])
    def test_shift_in_place_matches_shift_elsewhere(self, mode, direction, steps):
        state = make_state(mode)
        state.areg("A")[:] = np.random.default_rng(5).integers(-128, 128,
                                                                       (16, 16))
        state.shift("B", "A", direction, steps)
        state.shift("A", "A", direction, steps)
        assert np.array_equal(state.areg("A"), state.areg("B"))


class TestShift:
    def test_zero_steps_is_identity(self, rng):
        state = make_state()
        state.areg("A")[:] = rng.integers(-9, 9, size=(16, 16))
        state.shift("B", "A", "N", 0)
        assert np.array_equal(state.areg("B"), state.areg("A"))

    def test_single_pixel_moves_north(self):
        state = make_state()
        state.areg("A")[10, 10] = 7
        state.shift("B", "A", "N", 1)
        assert state.areg("B")[9, 10] == 7
        assert state.areg("B").sum() == 7

    def test_full_width_shift_evacuates(self, rng):
        state = make_state()
        state.areg("A")[:] = rng.integers(1, 9, size=(16, 16))
        state.shift("B", "A", "E", 16)
        assert np.all(state.areg("B") == 0)

    @given(a=st.integers(0, 5), b=st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_shift_composition(self, a, b):
        state = make_state()
        r = np.random.default_rng(a * 7 + b)
        state.areg("A")[:] = r.integers(-9, 9, size=(16, 16))
        state.shift("B", "A", "N", a)
        state.shift("B", "B", "N", b)
        state.shift("C", "A", "N", a + b)
        assert np.array_equal(state.areg("B"), state.areg("C"))

    def test_crosses_block_boundaries(self):
        state = make_state()
        state.areg("A")[4, 0] = 5  # first row of block row 1
        state.shift("B", "A", "N", 1)
        assert state.areg("B")[3, 0] == 5  # landed in block row 0


class TestMaxCombine:
    def test_idempotent(self, rng):
        state = make_state()
        state.areg("A")[:] = rng.integers(-9, 9, size=(16, 16))
        state.max_combine("B", "A", "A")
        assert np.array_equal(state.areg("B"), state.areg("A"))

    def test_max_with_zero_keeps_nonnegative(self, rng):
        state = make_state()
        state.areg("A")[:] = rng.integers(0, 9, size=(16, 16))
        state.max_combine("C", "A", "B")
        assert np.array_equal(state.areg("C"), state.areg("A"))

    def test_matches_scalar_oracle(self, rng):
        state = make_state()
        a = rng.integers(-50, 50, size=(16, 16))
        b = rng.integers(-50, 50, size=(16, 16))
        state.areg("A")[:] = a
        state.areg("B")[:] = b
        state.max_combine("C", "A", "B")
        got = state.areg("C")
        for r in range(16):
            for c in range(16):
                assert got[r, c] == max(a[r, c], b[r, c])


class TestGlobalSum:
    def test_zero_plane(self, geometry):
        assert global_sum(np.zeros(geometry.shape, dtype=np.int32)) == 0

    def test_single_pixel(self, geometry):
        p = np.zeros(geometry.shape, dtype=np.int32)
        p[3, 4] = 5
        assert global_sum(p) == 5

    def test_matches_scalar_accumulation_oracle(self, geometry, rng):
        vals = rng.integers(-100, 100, size=geometry.shape, dtype=np.int32)
        acc = 0
        for v in vals.flat:
            acc += int(v)
        assert global_sum(vals) == acc

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_random_planes_property(self, seed):
        vals = np.random.default_rng(seed).integers(-100, 100, size=(16, 16),
                                                    dtype=np.int32)
        assert global_sum(vals) == int(vals.sum())

    def test_gaussian_noise_reproducible_under_seed(self, geometry, rng):
        p = rng.integers(-100, 100, size=geometry.shape, dtype=np.int32)
        noise = NoiseModel("gaussian", sigma=8.0, seed=7)
        assert global_sum(p, noise) == global_sum(p, noise)

    def test_state_builds_its_rng_on_the_first_noisy_draw(self, geometry):
        quiet = ArrayState(geometry)
        quiet.global_sum_of("A")
        assert quiet.rng is None
        noisy = ArrayState(geometry, noise=NoiseModel("gaussian", 8.0, seed=7))
        assert noisy.rng is None
        draws = np.random.default_rng(7).normal(0.0, 8.0, size=3)
        assert [noisy.global_sum_of("A") for _ in range(3)] == \
            [int(round(d)) for d in draws]

    def test_gaussian_noise_perturbs(self, geometry):
        p = np.zeros(geometry.shape, dtype=np.int32)
        draws = {global_sum(p, NoiseModel("gaussian", 100.0, s)) for s in range(20)}
        assert len(draws) > 1


class TestDregOps:
    def test_and_with_ones(self, rng):
        state = make_state()
        bits = rng.integers(0, 2, size=(16, 16))
        state.write_pattern("R1", bits)
        state.write_pattern("R2", np.ones((16, 16), dtype=np.uint8))
        state.dreg_logic("R3", "and", "R1", "R2")
        assert np.array_equal(state.dreg("R3"), bits.astype(np.uint8))

    def test_xor_self_is_zero(self, rng):
        state = make_state()
        state.write_pattern("R1", rng.integers(0, 2, size=(16, 16)))
        state.dreg_logic("R2", "xor", "R1", "R1")
        assert np.all(state.dreg("R2") == 0)

    def test_not_is_involution(self, rng):
        state = make_state()
        bits = rng.integers(0, 2, size=(16, 16)).astype(np.uint8)
        state.write_pattern("R1", bits)
        state.dreg_logic("R2", "not", "R1")
        state.dreg_logic("R3", "not", "R2")
        assert np.array_equal(state.dreg("R3"), bits)


class TestReadOnlyDRegisters:
    """D-registers are read-only arrays that ops rebind: a pattern op binds
    the instruction's own bits, and thresh/logic never write through them."""

    def test_pattern_binds_the_instruction_bits(self):
        bits = np.indices((16, 16)).sum(axis=0) % 3 == 0
        prog = PpaProgram([Instruction("pattern", dst="R1", pattern=bits),
                           Instruction("pattern", dst="R2", pattern=bits)])
        state = make_state()
        execute(prog, state)
        pattern = prog.instructions[0].pattern
        assert np.shares_memory(state.dreg("R1"), pattern)
        assert np.shares_memory(state.dreg("R2"), pattern)
        state.write_pattern("R3", np.ones((16, 16), dtype=np.uint8))
        for name in state.digital:
            with pytest.raises(ValueError):
                state.dreg(name)[0, 0] = True

    def test_thresh_and_logic_leave_the_pattern_alone(self, rng):
        bits = rng.integers(0, 2, (16, 16)).astype(bool)
        expect = bits.copy()  # the instruction's pattern is a view of bits
        prog = PpaProgram([
            Instruction("pattern", dst="R1", pattern=bits),
            Instruction("copy", dst="B", a="A", mask="R1"),
            Instruction("thresh", dst="R1", a="A", value=0),
            Instruction("logic", dst="R2", logic="and", a="R1", b="R1"),
            Instruction("logic", dst="R1", logic="not", a="R2"),
            Instruction("copy", dst="C", a="A", mask="R1"),
            Instruction("gsum", a="B", label="b"),
            Instruction("gsum", a="C", label="c"),
        ])
        image = rng.integers(-9, 9, (16, 16))
        results = []
        for _ in range(2):
            state = make_state()
            state.areg("A")[:] = image
            results.append(execute(prog, state)[1])
            assert np.array_equal(prog.instructions[0].pattern, expect)
        assert results[0] == results[1] == [
            int(image[expect].sum()), int(image[image <= 0].sum())]


class TestWritePattern:
    def test_all_ones(self):
        state = make_state()
        state.write_pattern("R1", np.ones((16, 16), dtype=np.uint8))
        assert np.all(state.dreg("R1") == 1)

    def test_block_mask_covers_exactly_one_block(self, geometry):
        sel = np.zeros(16, dtype=np.uint8)
        sel[0] = 1
        pat = block_select_pattern(geometry, sel)
        assert np.all(pat[:64, :64] == 1)
        assert pat.sum() == 64 * 64

    def test_2x2_replication_index_arithmetic(self, rng):
        base = rng.integers(0, 2, size=(128, 128)).astype(np.uint8)
        expanded = np.kron(base, np.ones((2, 2), dtype=np.uint8))
        for r in range(0, 256, 31):
            for c in range(0, 256, 29):
                assert expanded[r, c] == base[r // 2, c // 2]

    def test_geometry_mismatch_rejected(self):
        # write_pattern trusts its bits; a program's are checked against the
        # state before anything runs
        state = make_state()
        before = state.snapshot()
        prog = PpaProgram([Instruction("pattern", dst="R1",
                                       pattern=np.ones((8, 8), dtype=bool))])
        with pytest.raises(ProgramError, match=r"\(8, 8\).*\(16, 16\)"):
            execute(prog, state)
        assert state.equals_snapshot(before)


class TestStateInvariants:
    @pytest.mark.parametrize("mode, limit", [("ideal", None), (SATURATING, 128)])
    def test_one_fixed_register_file_of_plain_arrays(self, mode, limit):
        state = make_state(mode)
        assert state.mode == mode and state.limit == limit
        assert list(state.analog) == ["A", "B", "C", "D", "E", "F", "PIX"]
        assert list(state.digital) == [f"R{i}" for i in range(1, 13)] + ["FLAG"]
        assert state.dtype == np.int16
        for name in state.analog:
            plane = state.areg(name)
            assert plane.dtype == np.int16 and plane.shape == (16, 16)
            assert not plane.any()
        for name in state.digital:
            plane = state.dreg(name)
            assert plane.dtype == bool and plane.shape == (16, 16)
            assert not plane.any()
        with pytest.raises(PlaneError, match="unknown analog mode"):
            make_state("clamped")

    def test_widen_keeps_values_and_goes_one_way(self, rng):
        state = make_state()
        vals = rng.integers(-2**15, 2**15, size=(7, 16, 16))
        for plane, v in zip(state.analog.values(), vals):
            plane[:] = v
        before = state.snapshot()
        state.widen()
        assert state.dtype == np.int32
        assert state.equals_snapshot(before)
        assert all(p.dtype == np.int32 for p in state.analog.values())
        # the masked blend computes into the scratch plane: it widened too
        state.write_pattern("R1", np.ones((16, 16), dtype=bool))
        state.areg("A")[:] = 2**20
        state.add("B", "A", "A", mask="R1")
        assert np.all(state.areg("B") == 2**21)
        state.widen()
        assert state.dtype == np.int32 and np.all(state.areg("B") == 2**21)

    def test_determinism_without_noise(self, rng):
        def run(state):
            state.areg("A")[:] = np.arange(256).reshape(16, 16)
            state.shift("B", "A", "E", 2)
            state.add("C", "A", "B")
            state.write_pattern("R1", np.eye(16, dtype=np.uint8))
            state.sub("C", "C", "A", mask="R1")
            state.threshold_into("R2", "C", 10)
            return state.snapshot()

        assert _snap_equal(run(make_state()), run(make_state()))

    def test_saturation_is_clamp_of_ideal(self, rng):
        vals_a = rng.integers(-128, 128, size=(16, 16))
        vals_b = rng.integers(-128, 128, size=(16, 16))
        ideal, sat = make_state(), make_state(mode=SATURATING)
        for s in (ideal, sat):
            s.areg("A")[:] = vals_a
            s.areg("B")[:] = vals_b
            s.add("C", "A", "B")
        assert np.array_equal(np.clip(ideal.areg("C"), -128, 127),
                              sat.areg("C"))


# every caller of the one 0/1 check, with the error type it raises
BINARY_CHECKS = {
    "pattern_instruction": (ProgramError,
                            lambda a: Instruction("pattern", dst="R1", pattern=a)),
    "reference_infer": (ModelError, lambda a: reference_infer(default_model(), a)),
    "make_input_state": (LoweringError, lambda a: make_input_state(a)),
    "gesture_sample": (DatasetError, lambda a: GestureSample(a, 0, "test")),
}


@pytest.mark.parametrize("caller", BINARY_CHECKS)
@pytest.mark.parametrize("bad", [2, 0.5, np.nan])
def test_binary_checks_keep_their_errors(caller, bad):
    error, call = BINARY_CHECKS[caller]
    img = np.zeros((64, 64))
    call(img)
    call(img.astype(bool))
    img[3, 5] = bad
    with pytest.raises(error):
        call(img)


def _snap_equal(s1, s2):
    return (all(np.array_equal(s1["analog"][k], s2["analog"][k]) for k in s1["analog"])
            and all(np.array_equal(s1["digital"][k], s2["digital"][k])
                    for k in s1["digital"]))
