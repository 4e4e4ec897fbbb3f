import dataclasses
import json
import math
import re
import sys
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import same_planes, snapshot

from scampsim import program as program_module
from scampsim.geometry import PlaneGeometry
from scampsim.lowering import lower_model, make_input_state
from scampsim.model import default_model
from scampsim.planes import (ANALOG_MAX, ANALOG_MIN, ANALOG_REGS, SATURATING, ArrayState,
                             NoiseModel)
from scampsim.program import (OPCODES, CostError, CostModel, Instruction,
                              PpaProgram, ProgramError, disassemble,
                              disassemble_instruction, estimate, execute,
                              parse_listing)


def small_state():
    return ArrayState(PlaneGeometry(16, 16, 4, 4))


# one bad operand per opcode: every one but the pattern is rejected when its
# Instruction is built, the pattern (8x8 bits, valid on an 8x8 array) when
# the program meets a 16x16 state
BAD_OPERANDS = {
    "add": dict(dst="A", a="A", b="NOPE"),
    "sub": dict(dst="R1", a="A", b="A"),
    "neg": dict(dst="A", a="A", mask="NOPE"),
    "copy": dict(dst="A", a=None),
    "max": dict(dst="A", a="A", b="A", mask="B"),
    "shift": dict(dst="A", a="A", direction="N", steps=-1),
    "thresh": dict(dst="R1", a="A"),
    "logic": dict(dst="R1", a="R2", b="R3", logic="nand"),
    "pattern": dict(dst="R1", pattern=np.ones((8, 8), dtype=bool)),
    "gsum": dict(a="A"),
}


class TestExecute:
    def test_empty_program_is_noop(self):
        state = small_state()
        before = snapshot(state)
        _, sums = execute(PpaProgram([]), state)
        assert sums == []
        assert same_planes(snapshot(state), before)

    def test_single_gsum_on_zero_plane(self):
        _, sums = execute(PpaProgram([Instruction("gsum", a="A", label="x")]),
                          small_state())
        assert sums == [0]

    @pytest.mark.parametrize("op", BAD_OPERANDS)
    def test_rejection_leaves_state_bit_identical(self, op):
        # each after an instruction that would change the state if it ran
        state = small_state()
        state.analog["A"][:] = 3
        before = snapshot(state)
        where = r"instruction 1 \(pattern\): " if op == "pattern" else f"{op}\\b"
        with pytest.raises(ProgramError, match="^" + where):
            prog = PpaProgram([Instruction("add", dst="A", a="A", b="A"),
                               Instruction(op, **BAD_OPERANDS[op])])
            execute(prog, state)
        assert same_planes(snapshot(state), before)
        assert state.dtype == np.int8

    def test_pattern_shape_is_checked_against_each_state(self):
        bits = np.eye(16, dtype=bool)
        prog = PpaProgram([Instruction("pattern", dst="R1", pattern=bits),
                           Instruction("gsum", a="A", label="x")])
        for _ in range(2):
            assert execute(prog, small_state())[1] == [0]
            with pytest.raises(ProgramError,
                               match=r"instruction 0 \(pattern\).*\(256, 256\)"):
                execute(prog, ArrayState())

    def test_failing_program_raises_the_same_error_on_every_call(self):
        with pytest.raises(ProgramError,
                           match="^line 2: add: unknown analog register 'NOPE'$"):
            parse_listing("add A A A\nadd B A NOPE\n")
        prog = PpaProgram([Instruction("add", dst="A", a="A", b="A"),
                           Instruction("pattern", dst="R1",
                                       pattern=np.eye(8, dtype=bool))])
        messages = set()
        for _ in range(3):
            with pytest.raises(ProgramError) as err:
                execute(prog, small_state())
            messages.add(str(err.value))
        assert messages == {"instruction 1 (pattern): bits of shape (8, 8), "
                            "not the geometry's (16, 16)"}

    def test_program_is_frozen_after_execute(self):
        prog = parse_listing("add A A A\nadd B A A\ngsum B b\n")
        state = small_state()
        state.analog["A"][:] = 1
        assert execute(prog, state)[1] == [4 * 256]
        with pytest.raises(dataclasses.FrozenInstanceError):
            prog.instructions[1].b = "NOPE"
        with pytest.raises(dataclasses.FrozenInstanceError):
            prog.instructions = ()
        with pytest.raises(TypeError):
            prog.instructions[1] = Instruction("add", dst="B", a="A", b="C")
        state = small_state()
        state.analog["A"][:] = 1
        assert execute(prog, state)[1] == [4 * 256]

    def test_rejection_names_instruction(self):
        with pytest.raises(ProgramError, match="^shift: bad shift direction 'Q'$"):
            Instruction("shift", dst="A", a="A", direction="Q", steps=1)
        prog = PpaProgram([Instruction("gsum", a="A", label="x"),
                           Instruction("pattern", dst="R1",
                                       pattern=np.eye(8, dtype=bool))])
        with pytest.raises(ProgramError, match=r"^instruction 1 \(pattern\)"):
            execute(prog, small_state())

    def test_sums_recorded_in_order(self):
        state = small_state()
        state.analog["A"][0, 0] = 2
        prog = PpaProgram([
            Instruction("gsum", a="A", label="first"),
            Instruction("add", dst="A", a="A", b="A"),
            Instruction("gsum", a="A", label="second"),
        ])
        assert prog.sum_labels == ["first", "second"]
        _, sums = execute(prog, state)
        assert sums == [2, 4]


class TestConstruction:
    """An Instruction checks its operands when it is built: integers where
    it takes integers, and no field its opcode does not take."""

    def test_fractional_shift_steps_rejected_before_anything_runs(self):
        with pytest.raises(ProgramError, match="^shift: steps must be an integer"):
            PpaProgram([Instruction("add", dst="A", a="A", b="A"),
                        Instruction("shift", dst="A", a="A", direction="N",
                                    steps=1.5)])

    def test_fractional_threshold_rejected(self):
        with pytest.raises(ProgramError, match="^thresh: needs an int32"):
            Instruction("thresh", dst="R1", a="A", value=1.5)
        with pytest.raises(ProgramError, match="^line 1: "):
            parse_listing("thresh R1 A 1.5\n")

    @pytest.mark.parametrize("field, op, fields", [
        ("steps", "shift", dict(dst="A", a="A", direction="N")),
        ("value", "thresh", dict(dst="R1", a="A")),
    ])
    @pytest.mark.parametrize("number", ["3", True, np.float64(2.0)])
    def test_immediates_must_be_integers(self, field, op, fields, number):
        with pytest.raises(ProgramError, match=f"^{op}: "):
            Instruction(op, **fields, **{field: number})

    @pytest.mark.parametrize("op, fields, extra", [
        ("shift", dict(dst="A", a="A", direction="N", steps=1, mask="R1"), "mask"),
        ("logic", dict(dst="R1", logic="not", a="R2", b="R3"), "b"),
        ("gsum", dict(dst="B", a="A", label="x"), "dst"),
    ])
    def test_fields_the_opcode_does_not_take_are_rejected(self, op, fields,
                                                           extra):
        with pytest.raises(ProgramError, match=f"^{op} takes no {extra}, "):
            Instruction(op, **fields)


# the values a property test draws for each operand: valid ones by the
# operand's role, and invalid ones any operand may get
VALID_BITS = np.indices((16, 16)).sum(axis=0) % 3 == 0
VALID = {
    "areg": ["A", "B", "C"],
    "dreg": ["R1", "R2", "FLAG"],
    "direction": ["N", "S", "E", "W"],
    "steps": [0, 1, 3, 16, 40, np.int64(2)],
    "value": [-5, 0, 2, ANALOG_MAX, ANALOG_MIN, np.int16(1)],
    "logic": ["and", "or", "xor", "not"],
    "label": ["x", "rock", "3"],
    "pattern": [VALID_BITS, VALID_BITS.astype(np.uint8)],
}
INVALID = ["NOPE", None, 1.5, "3", True, -1, 2**40, "R12 R1",
           np.eye(8, dtype=bool), np.eye(16) * 2]
# each opcode's operands by role; `logic not` has no b
ROLES = {
    "add": dict(dst="areg", a="areg", b="areg"),
    "sub": dict(dst="areg", a="areg", b="areg"),
    "max": dict(dst="areg", a="areg", b="areg"),
    "neg": dict(dst="areg", a="areg"),
    "copy": dict(dst="areg", a="areg"),
    "shift": dict(dst="areg", a="areg", direction="direction", steps="steps"),
    "thresh": dict(dst="dreg", a="areg", value="value"),
    "logic": dict(dst="dreg", logic="logic", a="dreg", b="dreg"),
    "pattern": dict(dst="dreg", pattern="pattern"),
    "gsum": dict(a="areg", label="label"),
}
MASKED = ("add", "sub", "max", "neg", "copy")
FIELDS = ("dst", "a", "b", "mask", "direction", "steps", "value", "logic",
          "label", "pattern")


@st.composite
def instruction_fields(draw):
    """An opcode and its fields, at most one of them invalid or extra."""
    op = draw(st.sampled_from(sorted(ROLES)))
    roles = dict(ROLES[op])
    if op in MASKED:
        roles["mask"] = "dreg"
    fields = {f: draw(st.sampled_from(VALID[r])) for f, r in roles.items()}
    if op in MASKED and draw(st.booleans()):
        del fields["mask"]
    if fields.get("logic") == "not":
        del fields["b"]
    # leave the fields valid, spoil one of them, or set one the opcode
    # does not take
    spoil = draw(st.sampled_from([None, *FIELDS]))
    if spoil is not None:
        pool = INVALID + [v for r in VALID.values() for v in r]
        fields[spoil] = draw(st.sampled_from(pool))
    return op, fields


SHIFT_N = dict(dst="A", a="A", direction="N")


class TestValidByConstruction:
    """An Instruction that exists runs and lists back to itself."""

    @given(case=instruction_fields(), seed=st.integers(0, 2**16))
    # operands that once ran, or listed, wrongly
    @example(case=("shift", dict(SHIFT_N, steps=1.5)), seed=0)
    @example(case=("shift", dict(SHIFT_N, steps="3")), seed=0)
    @example(case=("thresh", dict(dst="R1", a="A", value=1.5)), seed=0)
    @example(case=("thresh", dict(dst="R1", a="A", value="5")), seed=0)
    @example(case=("shift", dict(SHIFT_N, steps=1, mask="R1")), seed=0)
    @example(case=("logic", dict(dst="R1", logic="not", a="R2", b="R3")), seed=0)
    @example(case=("gsum", dict(dst="B", a="A", label="x")), seed=0)
    @settings(max_examples=400, deadline=None)
    def test_built_means_runs_and_lists_back(self, case, seed):
        op, fields = case
        try:
            ins = Instruction(op, **fields)
        except ProgramError as e:
            assert str(e).startswith(op)
            return
        prog = PpaProgram([ins])
        assert parse_listing(disassemble(prog)) == prog
        rng = np.random.default_rng(seed)
        for mode in ("ideal", SATURATING):
            state = ArrayState(PlaneGeometry(16, 16, 4, 4), mode=mode)
            for name in ("A", "B", "C"):
                state.analog[name][:] = rng.integers(-100, 100, (16, 16))
            state.write_pattern("R1", rng.integers(0, 2, (16, 16)))
            before = snapshot(state)
            try:
                execute(prog, state)
            except ProgramError as e:
                # only the state-dependent checks may refuse a built program:
                # the pattern's shape, or a saturating value past 127 (the
                # sum or difference of two magnitudes up to 100)
                assert (str(e).startswith("instruction 0 (pattern): bits of shape")
                        or mode == SATURATING and op in ("add", "sub")
                        and str(e).startswith(f"instruction 0 ({op}): passes the "
                                              f"saturating range of 127"))
                assert same_planes(snapshot(state), before)
                assert state.dtype == np.int8


def doubling_listing(times):
    return "".join("add A A A\n" for _ in range(times)) + "gsum A total\n"


class TestBoundPass:
    """execute proves every analog intermediate fits int32 before it runs,
    and first widens the state to the narrowest type that holds the proof's
    peak."""

    def test_doubling_past_int32_rejected_before_anything_runs(self):
        state = small_state()
        state.analog["A"][:] = 1
        state.analog["B"][:] = 2
        before = snapshot(state)
        # 2**30 fits, the 31st doubling reaches 2**31
        with pytest.raises(ProgramError,
                           match=r"instruction 30 \(add\).*2147483648.*int32"):
            execute(parse_listing(doubling_listing(32)), state)
        assert same_planes(snapshot(state), before)
        assert state.dtype == np.int8
        _, sums = execute(parse_listing(doubling_listing(30)), state)
        assert sums == [2**30 * 256]
        assert state.dtype == np.int32

    @pytest.mark.parametrize("times, dtype", [(14, np.int16), (15, np.int32)])
    def test_widens_only_past_int16(self, times, dtype):
        state = small_state()
        state.analog["A"][:] = 1
        _, sums = execute(parse_listing(doubling_listing(times)), state)
        assert sums == [2**times * 256]
        assert state.dtype == dtype

    @pytest.mark.parametrize("mode", ["ideal", SATURATING])
    @pytest.mark.parametrize("times, dtype", [(6, np.int8), (7, np.int16)])
    def test_runs_at_int8_up_to_127(self, times, dtype, mode):
        # saturating mode holds 64 and refuses 128 before anything runs
        state = ArrayState(PlaneGeometry(16, 16, 4, 4), mode=mode)
        state.analog["A"][:] = 1
        prog = parse_listing(doubling_listing(times))
        if mode == SATURATING and dtype != np.int8:
            before = snapshot(state)
            with pytest.raises(ProgramError, match=r"^instruction 6 \(add\): passes "
                               r"the saturating range of 127; the program can "
                               r"reach magnitude 128$"):
                execute(prog, state)
            assert same_planes(snapshot(state), before)
            assert state.dtype == np.int8
            return
        _, sums = execute(prog, state)
        assert sums == [2**times * 256]
        assert state.dtype == dtype

    def test_bound_starts_from_the_state_values(self):
        prog = parse_listing("neg B A\n")
        state = small_state()
        state.widen()
        state.analog["A"][3, 3] = -ANALOG_MAX
        execute(prog, state)
        assert state.analog["B"][3, 3] == ANALOG_MAX
        state.analog["A"][3, 3] = -ANALOG_MAX - 1
        before = snapshot(state)
        with pytest.raises(ProgramError, match="instruction 0 \\(neg\\)"):
            execute(prog, state)
        assert same_planes(snapshot(state), before)

    def test_masked_write_keeps_the_old_bound(self):
        # B holds 2**30; a masked copy of the small A cannot shrink B's bound,
        # so doubling B still overflows
        state = small_state()
        state.widen()
        state.analog["B"][:] = 2**30
        state.write_pattern("R1", np.ones((16, 16), dtype=bool))
        prog = parse_listing("copy B A mask=R1\nadd B B B\n")
        with pytest.raises(ProgramError, match="instruction 1"):
            execute(prog, state)
        execute(parse_listing("copy B A\nadd B B B\n"), state)
        assert np.all(state.analog["B"] == 0)

    def test_saturating_mode_names_the_first_instruction_past_127(self):
        # 8 + 60 + 60 passes 127 at instruction 1, and the peak comes later
        prog = parse_listing("add C A B\nadd C C B\nadd C C C\ngsum C c\n")
        state = ArrayState(PlaneGeometry(16, 16, 4, 4), mode=SATURATING)
        state.analog["A"][:] = 8
        state.analog["B"][:] = 60
        before = snapshot(state)
        with pytest.raises(ProgramError, match=r"^instruction 1 \(add\): passes "
                           r"the saturating range of 127; the program can reach "
                           r"magnitude 256$"):
            execute(prog, state)
        assert same_planes(snapshot(state), before)
        state.analog["B"][:] = 20
        assert execute(prog, state)[1] == [96 * 256]
        assert state.dtype == np.int8

    def test_memoised_proof_follows_the_starting_bounds(self):
        prog = parse_listing(doubling_listing(14))
        state = small_state()
        state.analog["A"][:] = 1
        assert execute(prog, state)[1] == [2**14 * 256]
        assert state.dtype == np.int16
        state = small_state()
        state.analog["A"][:] = 4
        assert execute(prog, state)[1] == [2**16 * 256]
        assert state.dtype == np.int32

    def test_one_proof_serves_both_modes(self, monkeypatch):
        calls = []
        prove = program_module._prove
        monkeypatch.setattr(program_module, "_prove",
                            lambda *args: calls.append(args) or prove(*args))
        prog = parse_listing(doubling_listing(7))
        for mode in ("ideal", SATURATING, SATURATING):
            state = ArrayState(PlaneGeometry(16, 16, 4, 4), mode=mode)
            state.analog["A"][:] = 1
            if mode == SATURATING:
                # a memo hit still names the first instruction past 127
                with pytest.raises(ProgramError, match=r"^instruction 6 \(add\)"):
                    execute(prog, state)
            else:
                assert execute(prog, state)[1] == [128 * 256]
        assert len(calls) == 1
        # a proof past int32 is not recorded: it raises the same way every time
        prog = parse_listing(doubling_listing(64))
        for mode in ("ideal", SATURATING):
            state = ArrayState(PlaneGeometry(16, 16, 4, 4), mode=mode)
            state.analog["A"][:] = 1
            with pytest.raises(ProgramError, match=r"instruction 30 \(add\).*int32"):
                execute(prog, state)
        assert len(calls) == 3

    def test_equal_starting_bounds_skip_the_bound_pass(self, monkeypatch):
        calls = []
        prove = program_module._prove
        monkeypatch.setattr(program_module, "_prove",
                            lambda *args: calls.append(args) or prove(*args))
        prog = parse_listing("add C A A\nadd C C A\ngsum C c\n")
        walked, sums = [], []
        for value in (1, 2, 1, 2):
            state = small_state()
            state.analog["A"][:] = value
            before = len(calls)
            sums += execute(prog, state)[1]
            walked.append(len(calls) - before)
        assert sums == [3 * 256, 6 * 256, 3 * 256, 6 * 256]
        assert walked == [1, 1, 0, 0]

    # block sizes that are not a multiple of 8
    @pytest.mark.parametrize("geometry", [PlaneGeometry(4, 4, 2, 2),
                                          PlaneGeometry(12, 12, 3, 4),
                                          PlaneGeometry(24, 24, 2, 12)],
                             ids=["4-2-2", "12-3-4", "24-2-12"])
    @given(seed=st.integers(0, 2**16), density=st.sampled_from([0, 0.005, 0.05, 0.5, 1]))
    @settings(max_examples=60, deadline=None)
    def test_block_coverage_matches_a_loop(self, geometry, seed, density):
        """A masked write bounds exactly the blocks its mask's pattern
        touches, the blocks with any bit set: 1 on one block of A proves
        1 after `copy C A mask=R1` if the bits touch that block, else 0."""
        bs = geometry.block_size
        bits = np.random.default_rng(seed).random(geometry.shape) < density
        prog = PpaProgram([Instruction("pattern", dst="R1", pattern=bits),
                           Instruction("copy", dst="C", a="A", mask="R1")])
        for r, c in np.ndindex(geometry.block_grid, geometry.block_grid):
            block = np.s_[r * bs:(r + 1) * bs, c * bs:(c + 1) * bs]
            state = ArrayState(geometry)
            state.analog["A"][block] = 1
            assert program_module.validate(prog, state) == bits[block].any()

    def test_threshold_immediate_must_fit_int32(self):
        for value in (ANALOG_MAX + 1, ANALOG_MIN - 1):
            with pytest.raises(ProgramError,
                               match="^thresh: needs an int32 immediate"):
                Instruction("thresh", dst="R1", a="A", value=value)
            with pytest.raises(ProgramError, match="^line 1: thresh: .*int32"):
                parse_listing(f"thresh R1 A {value}\n")


# registers the property below reads and writes, and the shift steps it
# draws: within a 4-pixel block, a whole block, across blocks, off the plane
NARROW_AREGS = ["A", "B", "C"]
NARROW_STEPS = [0, 1, 2, 3, 4, 5, 8, 11, 16]
# start magnitudes per block: +-64 on a few blocks and small or no values
# elsewhere, so the blocks' bounds differ, and a bound too small by one
# block of 64 hides a sum past int8
BLOCK_MAGS = [0, 0, 0, 0, 0, 0, 1, 64]


@st.composite
def narrow_programs(draw):
    """A random program over A-C with masks, thresholds and sums."""
    areg = st.sampled_from(NARROW_AREGS)
    mask = st.sampled_from([None, "R1", "R2"])
    instructions = []
    for _ in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(["add", "add", "sub", "max", "neg", "copy",
                                   "shift", "shift", "shift", "pattern", "thresh",
                                   "gsum"]))
        if op in ("add", "sub", "max"):
            ins = Instruction(op, dst=draw(areg), a=draw(areg), b=draw(areg),
                              mask=draw(mask))
        elif op in ("neg", "copy"):
            ins = Instruction(op, dst=draw(areg), a=draw(areg), mask=draw(mask))
        elif op == "shift":
            ins = Instruction(op, dst=draw(areg), a=draw(areg),
                              direction=draw(st.sampled_from("NSEW")),
                              steps=draw(st.sampled_from(NARROW_STEPS)))
        elif op == "pattern":
            seed = draw(st.integers(0, 2**16))
            bits = np.random.default_rng(seed).integers(0, 2, (16, 16))
            ins = Instruction(op, dst=draw(st.sampled_from(["R1", "R2"])),
                              pattern=bits)
        elif op == "thresh":
            ins = Instruction(op, dst="R1", a=draw(areg),
                              value=draw(st.integers(-3, 3)))
        else:
            ins = Instruction(op, a=draw(areg), label="s")
        instructions.append(ins)
    return PpaProgram(instructions)


def block_layout(**blocks):
    """Start magnitudes of A, B and C, 16 blocks each (row-major): 64 on
    the blocks named per register, 0 elsewhere."""
    return [64 if i in blocks.get(reg, ()) else 0
            for reg in NARROW_AREGS for i in range(16)]


def narrow_example(listing, **blocks):
    return example(prog=parse_listing(listing), layout=block_layout(**blocks),
                   seed=0, saturating=False)


def pattern_line(dst, *pixels):
    """A `pattern` instruction that sets exactly the given (row, col) pixels."""
    bits = np.zeros((16, 16), dtype=bool)
    for pixel in pixels:
        bits[pixel] = True
    return f"pattern {dst} 16x16:{np.packbits(bits).tobytes().hex()}\n"


class TestNarrowPlanes:
    """A program runs at the type its proof picks exactly as it runs on
    int32 planes: the int32 run is the oracle, and it does not depend on
    the proof."""

    @given(prog=narrow_programs(),
           layout=st.lists(st.sampled_from(BLOCK_MAGS), min_size=48, max_size=48),
           seed=st.integers(0, 2**16), saturating=st.booleans())
    # a block the proof loses would wrap the sum at int8: a block moved by a
    # shift, the second block a part-block shift reads, the larger operand of
    # max, the old value a masked write keeps, that value on a hot block a
    # block-select mask leaves out, a mask that touches one pixel of a block
    # (A and B are both +64 at (5, 4) for seed 0), and a mask `thresh` sets
    @narrow_example("shift C A S 4\nadd C C B\n", A=[0], B=[4])
    @narrow_example("shift C A N 2\nadd C C B\n", A=[4], B=[0])
    @narrow_example("shift C A S 2\nadd C C B\n", A=[0], B=[4])
    @narrow_example("max C A B\nadd C C B\n", B=[0])
    @narrow_example("pattern R1 16x16:" + "0000" * 16 + "\ncopy C A mask=R1\n"
                    "add C C B\n", B=[0], C=[0])
    @narrow_example(pattern_line("R1", *[(r, c) for r in range(4) for c in range(4)])
                    + "copy C A mask=R1\nadd C C B\n", B=[5], C=[5])
    @narrow_example(pattern_line("R1", (5, 4)) + "add C A B mask=R1\n", A=[5], B=[5])
    @narrow_example("thresh R1 C -1\nadd C A B mask=R1\n", A=[0], B=[0])
    @settings(max_examples=1000, deadline=None)
    def test_proof_chosen_type_matches_int32(self, prog, layout, seed, saturating):
        signs = np.random.default_rng(seed).choice([-1, 1], size=(3, 16, 16))
        mags = np.reshape(layout, (3, 4, 4)).repeat(4, 1).repeat(4, 2)
        mode = SATURATING if saturating else "ideal"
        narrow = ArrayState(PlaneGeometry(16, 16, 4, 4), mode=mode)
        wide = ArrayState(PlaneGeometry(16, 16, 4, 4), mode=mode)
        wide.widen(np.int32)
        for reg, values in zip(NARROW_AREGS, mags * signs):
            narrow.analog[reg][:] = values
            wide.analog[reg][:] = values
        try:
            _, wide_sums = execute(prog, wide)
        except ProgramError:
            with pytest.raises(ProgramError):
                execute(prog, narrow)
            return
        _, narrow_sums = execute(prog, narrow)
        assert narrow_sums == wide_sums
        assert same_planes(snapshot(narrow), snapshot(wide))
        if saturating:
            # an accepted saturating program stores nothing past 127
            assert narrow.dtype == np.int8


# start values of the step-list property, per plane type: int8's wrap
# values, and each wider type's extremes
START_VALUES = {np.dtype(np.int8): [0, 1, -1, 3, -5, 127, -128],
                np.dtype(np.int16): [0, 2, -9, 300, -32768, 32767],
                np.dtype(np.int32): [0, -4, 70000, -2**31, 2**31 - 1]}


# shift steps of the alias chains below: within a block, a whole block,
# across blocks, one short of the 16-pixel plane's edge and past it
ALIAS_STEPS = [0, 1, 2, 3, 4, 5, 8, 15, 16, 17]


@st.composite
def stepped_programs(draw):
    """Random programs of the shapes the step list rewrites, near misses of
    them and other instructions between: conv tap pairs over one or two
    D-registers with equal, disjoint or overlapping masks; a pair with a
    write to its source or accumulator inside it; pattern-then-neg, in place
    or not; masks that thresh and logic set; and global sums. The step list
    keeps unmasked shifts and copies as offset aliases, so the programs also
    hold shift chains in all four directions, unmasked copies and register
    swaps, writes to a register that others read through an alias, and
    masked ops, thresholds and sums that read aliased registers. They hold
    `sub x y y` (a zero alias) followed by writes, reads, shifts, masked
    copies and tap pairs into x; masked `max` and `copy` from a zero register under masks
    a pattern sets (bits the step list knows) or thresh and logic set, over
    plain and aliased operands; in-place adds and subs that read their own
    plane or another register's through an alias; and aliases overwritten,
    or left dead by a write to their base, before anything reads them. The
    step list runs a masked add or sub from a pattern's mask as a linear
    step and merges the next one from the same source alias into it, and
    binds patterns only before a replay that reads them and at the end, so
    the programs also hold single-sign taps, two masked accumulates from
    one source into one register with no tap pair around them (the second
    maybe through an alias of the register's own plane, made again in
    between), replayed masked ops and logic ops that read a pattern's
    register, and patterns that a thresh or logic op overwrites unread."""
    areg = st.sampled_from(NARROW_AREGS)
    dreg = st.sampled_from(["R1", "R2"])
    maybe_mask = st.sampled_from([None, "R1", "R2"])

    def bits():
        seed, density = draw(st.integers(0, 2**16)), draw(st.sampled_from([0, 0.3, 1]))
        return np.random.default_rng(seed).random((16, 16)) < density

    def shift(dst, src):
        return Instruction("shift", dst=dst, a=src, direction=draw(st.sampled_from("NSEW")),
                           steps=draw(st.sampled_from(ALIAS_STEPS)))

    def alias(dst, src):
        """An unmasked copy or shift of src into dst, then shifts of dst."""
        moves = [draw(st.sampled_from([Instruction("copy", dst=dst, a=src),
                                       shift(dst, src)]))]
        return moves + [shift(dst, dst) for _ in range(draw(st.integers(0, 3)))]

    def read(reg):
        """An instruction that reads reg other than as a tap's source."""
        other = draw(areg)
        return draw(st.sampled_from([
            Instruction("gsum", a=reg, label="s"),
            Instruction("thresh", dst="R1", a=reg, value=draw(st.integers(-2, 2))),
            Instruction("add", dst=other, a=reg, b=draw(areg), mask=draw(maybe_mask)),
            Instruction("max", dst=other, a=draw(areg), b=reg, mask=draw(maybe_mask)),
            Instruction("copy", dst=other, a=reg, mask=draw(dreg)),
            Instruction("neg", dst=reg, a=other, mask=draw(dreg))]))

    def set_mask(reg):
        """A pattern into reg, or a thresh, maybe inverted by a logic op."""
        if draw(st.booleans()):
            return [Instruction("pattern", dst=reg, pattern=bits())]
        setters = [Instruction("thresh", dst=reg, a=draw(areg),
                               value=draw(st.integers(-2, 2)))]
        if draw(st.booleans()):
            setters.append(Instruction("logic", dst=reg, logic="not", a=reg))
        return setters

    def write(reg):
        """An instruction that writes reg, some reading it too."""
        other = draw(areg)
        return draw(st.sampled_from([
            Instruction("add", dst=reg, a=reg, b=other, mask=draw(maybe_mask)),
            Instruction("neg", dst=reg, a=other),
            Instruction("copy", dst=reg, a=other, mask=draw(dreg)),
            Instruction("max", dst=reg, a=reg, b=other, mask=draw(dreg)),
            shift(reg, other)]))

    instructions = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["tap", "tap", "split-tap", "flip", "logic",
                                     "other", "other", "chain", "chain", "swap",
                                     "write-base", "read", "zero", "masked",
                                     "masked", "in-place", "overwrite", "single-tap",
                                     "same-source", "replay-pending",
                                     "pending-overwritten"]))
        if kind in ("tap", "split-tap"):
            acc, src = draw(st.permutations(NARROW_AREGS))[:2]
            plus_reg, minus_reg, plus = draw(dreg), draw(dreg), bits()
            masks = draw(st.sampled_from(["equal", "disjoint", "any"]))
            minus = (plus if masks == "equal" else ~plus & bits() if masks == "disjoint"
                     else bits())
            instructions += [Instruction("pattern", dst=plus_reg, pattern=plus),
                             Instruction("add", dst=acc, a=acc, b=src, mask=plus_reg)]
            if kind == "split-tap":
                target = draw(st.sampled_from([acc, src]))
                instructions.append(draw(st.sampled_from([
                    Instruction("neg", dst=target, a=target),
                    Instruction("shift", dst=target, a=target, direction="E", steps=1),
                    Instruction("add", dst=target, a=target, b=target)])))
            instructions += [Instruction("pattern", dst=minus_reg, pattern=minus),
                             Instruction("sub", dst=acc, a=acc, b=src, mask=minus_reg)]
        elif kind == "flip":
            dst = draw(areg)
            instructions += [Instruction("pattern", dst=(mask := draw(dreg)),
                                         pattern=bits()),
                             Instruction("neg", dst=dst, mask=mask,
                                         a=dst if draw(st.booleans()) else draw(areg))]
        elif kind == "logic":
            op = draw(st.sampled_from(program_module.LOGIC_OPS))
            instructions.append(Instruction("logic", dst=draw(dreg), logic=op,
                                            a=draw(dreg),
                                            b=None if op == "not" else draw(dreg)))
        elif kind == "chain":
            instructions += alias(draw(areg), draw(areg))
        elif kind == "swap":
            x, y, t = draw(st.permutations(NARROW_AREGS))
            instructions += draw(st.sampled_from([
                [Instruction("copy", dst=x, a=y), Instruction("copy", dst=y, a=x)],
                [Instruction("copy", dst=t, a=x), Instruction("copy", dst=x, a=y),
                 Instruction("copy", dst=y, a=t)]]))
        elif kind == "write-base":
            reader, base, other = draw(st.permutations(NARROW_AREGS))
            if draw(st.booleans()):  # the base reads its own plane shifted
                instructions.append(shift(base, base))
            instructions += alias(reader, base)
            instructions += draw(st.sampled_from([
                [Instruction("add", dst=base, a=base, b=other, mask=draw(maybe_mask))],
                [Instruction("neg", dst=base, a=other)],
                [Instruction("sub", dst=base, a=base, b=base)],
                [Instruction("pattern", dst="R1", pattern=bits()),
                 Instruction("neg", dst=base, a=base, mask="R1")],
                [read(base)],
                alias(base, other)[:1]]))
            instructions.append(read(reader))
        elif kind == "read":
            instructions.append(read(draw(areg)))
        elif kind == "zero":
            x = draw(areg)
            instructions.append(Instruction("sub", dst=x, a=(y := draw(areg)), b=y))
            if draw(st.booleans()):
                instructions.append(write(x))
            for _ in range(draw(st.integers(1, 3))):
                other, mask = draw(areg), draw(dreg)
                src = draw(st.sampled_from([r for r in NARROW_AREGS if r != x]))
                instructions += draw(st.sampled_from([
                    [read(x)], [shift(other, x)],
                    set_mask(mask) + [Instruction("copy", dst=other, a=x, mask=mask)],
                    [Instruction(draw(st.sampled_from(["add", "sub"])), dst=other,
                                 a=other, b=x)],
                    [Instruction("pattern", dst="R1", pattern=bits()),
                     Instruction("add", dst=x, a=x, b=src, mask="R1"),
                     Instruction("pattern", dst="R2", pattern=bits()),
                     Instruction("sub", dst=x, a=x, b=src, mask="R2")]]))
        elif kind == "masked":
            # max x x y, max x y x or copy x z, y read through an alias of x's
            # plane or another's, or as it is, x maybe an alias itself
            x, y, t = draw(st.permutations(NARROW_AREGS))
            mask = draw(dreg)
            setters, moves, src = set_mask(mask), [], draw(st.sampled_from([x, y]))
            if draw(st.booleans()):
                moves, src = alias(t, src), t
            if draw(st.booleans()):
                moves.append(shift(x, x))
            instructions += draw(st.sampled_from([setters + moves, moves + setters]))
            instructions.append(draw(st.sampled_from([
                Instruction("max", dst=x, a=x, b=src, mask=mask),
                Instruction("max", dst=x, a=src, b=x, mask=mask),
                Instruction("copy", dst=x, a=src, mask=mask)])))
        elif kind == "in-place":
            # x +-= y, y an alias of x's plane or another's, or x itself an alias
            x, y, t = draw(st.permutations(NARROW_AREGS))
            src = draw(st.sampled_from([x, y]))
            moves, b = draw(st.sampled_from([(alias(t, src), t), (alias(x, src), x)]))
            instructions += moves + [Instruction(draw(st.sampled_from(["add", "sub"])),
                                                 dst=x, a=x, b=b)]
        elif kind == "overwrite":
            # t aliases base's plane, then base is written and t overwritten
            # before anything reads t
            t, base, other = draw(st.permutations(NARROW_AREGS))
            instructions += alias(t, base)
            if draw(st.booleans()):
                instructions.append(write(base))
            instructions.append(draw(st.sampled_from([
                shift(t, other), Instruction("neg", dst=t, a=other),
                Instruction("sub", dst=t, a=t, b=t)])))
        elif kind == "single-tap":
            # acc +-= src under a pattern's mask, src maybe an alias
            acc, src, t = draw(st.permutations(NARROW_AREGS))
            if draw(st.booleans()):
                instructions += alias(t, src)
                src = t
            instructions += [Instruction("pattern", dst=(mask := draw(dreg)),
                                         pattern=bits()),
                             Instruction(draw(st.sampled_from(["add", "sub"])), dst=acc,
                                         a=acc, b=src, mask=mask)]
        elif kind == "same-source":
            # acc +-= src twice under two patterns' masks, set before both,
            # or src an alias of acc's own plane that is made again between
            # the two and then overwritten
            acc, src, t = draw(st.permutations(NARROW_AREGS))
            own = draw(st.booleans())
            move = shift(t, acc) if own else None
            ops = [Instruction(draw(st.sampled_from(["add", "sub"])), dst=acc, a=acc,
                               b=t if own else src, mask=reg) for reg in ("R1", "R2")]
            instructions += [Instruction("pattern", dst="R1", pattern=bits()),
                             Instruction("pattern", dst="R2", pattern=bits())]
            instructions += ([move, ops[0], move, ops[1], Instruction("sub", dst=t, a=t, b=t)]
                             if own else ops)
        elif kind == "replay-pending":
            # an op that reads a pattern's register and replays: a masked op
            # whose destination is none of its operands, or a logic op
            x, y, z = draw(st.permutations(NARROW_AREGS))
            mask = draw(dreg)
            instructions += [Instruction("pattern", dst=mask, pattern=bits()),
                             draw(st.sampled_from([
                                 Instruction("add", dst=x, a=y, b=z, mask=mask),
                                 Instruction("max", dst=x, a=y, b=z, mask=mask),
                                 Instruction("copy", dst=x, a=y, mask=mask),
                                 Instruction("neg", dst=x, a=y, mask=mask),
                                 Instruction("logic", dst="R3", logic="xor", a="R1",
                                             b=mask)]))]
        elif kind == "pending-overwritten":
            mask = draw(dreg)
            instructions += [Instruction("pattern", dst=mask, pattern=bits()),
                             draw(st.sampled_from([
                                 Instruction("thresh", dst=mask, a=draw(areg),
                                             value=draw(st.integers(-2, 2))),
                                 Instruction("logic", dst=mask, logic="not", a="R3")]))]
        else:
            instructions += draw(narrow_programs()).instructions[:2]
    return PpaProgram(instructions + [Instruction("gsum", a=draw(areg), label="s")])


class TestStepList:
    """From its third run at a geometry a program runs its step list, which
    must leave every plane, the plane type and every sum as running each
    instruction does."""

    @given(prog=stepped_programs(), dtype=st.sampled_from(list(START_VALUES)),
           data=st.data(), seed=st.integers(0, 2**16), saturating=st.booleans(),
           sigma=st.sampled_from([0.0, 3.0]))
    @settings(max_examples=400, deadline=None)
    def test_steps_match_the_instructions(self, prog, dtype, data, seed, saturating,
                                          sigma):
        menu = data.draw(st.lists(st.sampled_from(START_VALUES[dtype]),
                                  min_size=1, max_size=3))
        values = np.random.default_rng(seed).choice(menu, size=(3, 16, 16))
        geometry = PlaneGeometry(16, 16, 4, 4)

        def state():
            s = ArrayState(geometry, mode=SATURATING if saturating else "ideal",
                           noise=NoiseModel(sigma, seed))
            s.widen(dtype)
            for reg, plane in zip(NARROW_AREGS, values):
                s.analog[reg][:] = plane
            return s

        def hook(*_):
            pass

        plain = state()
        try:
            _, plain_sums = execute(prog, plain, on_instruction=hook)
        except ProgramError:
            with pytest.raises(ProgramError):
                execute(prog, state())
            return
        execute(prog, state(), on_instruction=hook)
        stepped = state()
        _, stepped_sums = execute(prog, stepped)
        assert prog._compiled[geometry].steps is not None
        assert stepped_sums == plain_sums
        assert stepped.dtype == plain.dtype
        assert same_planes(snapshot(stepped), snapshot(plain))

    # each needs a rule of the step list's offset aliases: a register that
    # reads another's plane through an alias is written before that plane
    # (by an op, a tap pair, a sign flip, or its own alias), and before the
    # plane's register becomes an alias itself; and every alias is written
    # out by the end of the program
    TAP = (pattern_line("R1", (0, 0), (3, 5), (9, 9)) + "add A A B mask=R1\n"
           + pattern_line("R2", (3, 5), (15, 15)) + "sub A A B mask=R2\n")
    ALIAS_CASES = {
        "op writes the base": "copy D A\nadd A A B\ngsum D s\n",
        "tap pair writes the base": "shift D A E 1\n" + TAP + "gsum D s\n",
        "sign flip writes the base": ("copy D A\n" + pattern_line("R1", (2, 2))
                                      + "neg A A mask=R1\ngsum D s\n"),
        "the base's own alias is written": "shift A A W 1\ncopy D A\ngsum A s\ngsum D s\n",
        "the base becomes an alias": "copy B C\ncopy C A\ncopy A B\ngsum A s\n",
        "swap": "copy A B\ncopy B A\n",
        "left as aliases": "shift A A N 3\nshift D A W 2\nshift C B S 20\n",
    }
    # and each a rewrite: an in-place add or sub through an alias of its own
    # plane (dead after it, so read through the alias) or another's, over
    # whole rows or part of them (after a masked add leaves values in the
    # scratch plane), or of all-zero fill; a tap pair into an all-zero
    # register; and a masked max or copy of zero under a mask a pattern set
    # and a thresh or logic op then changed
    MASK = pattern_line("R1", *[(r, c) for r in range(16) for c in range(0, 16, 3)])
    ALIAS_CASES |= {
        "in-place add of its own rows": "shift D B S 5\nadd B B D\nsub D D D\n",
        "in-place add of part rows": (MASK + "add C C A mask=R1\nshift D B E 3\n"
                                      "add B B D\nsub D D D\n"),
        "in-place sub of another plane": (MASK + "add C C A mask=R1\nshift D A W 2\n"
                                          "sub B B D\n"),
        "in-place add of zero fill": "shift D A N 16\nadd B B D\n",
        "in-place add of itself": "shift A A E 1\nadd A A A\n",
        "tap pair into zero": "sub A A A\n" + TAP,
        "thresh after a pattern": (MASK + "sub E E E\nthresh R1 A 0\nmax B B C mask=R1\n"
                                   "copy C E mask=R1\n"),
        "logic after a pattern": (MASK + "sub E E E\nlogic R1 not R1\nmax B C B mask=R1\n"
                                  "copy C E mask=R1\n"),
    }
    # and the linear steps' rules: a pattern bound before a replay that
    # reads it, and not when thresh overwrites it first; 130 masked adds of
    # one source, one step until the summed weights pass int8; no merge of
    # two accumulates that read the destination's own plane; and a single
    # tap through an alias of part rows
    ALIAS_CASES |= {
        "pattern bound before a replay": MASK + "add D A B mask=R1\n",
        "pattern overwritten unread": MASK + "thresh R1 A 0\nadd A A B mask=R1\n",
        "merges up to int8": MASK + "add A A B mask=R1\n" * 130,
        "no merge through its own plane": (
            MASK + "shift D A E 1\nadd A A D mask=R1\nshift D A E 1\n"
            + pattern_line("R2", (0, 3), (4, 4)) + "sub A A D mask=R2\nsub D D D\n"),
        "single tap of part rows": MASK + "shift D B W 3\nadd A A D mask=R1\n",
    }

    @pytest.mark.parametrize("listing", ALIAS_CASES.values(), ids=ALIAS_CASES)
    def test_aliases_are_written_before_their_planes_change(self, listing):
        prog = parse_listing(listing)
        values = np.random.default_rng(7).integers(-9, 10, (3, 16, 16))
        runs = []
        for hook in (lambda *_: None, None, None):
            state = small_state()
            for reg, plane in zip(NARROW_AREGS, values):
                state.analog[reg][:] = plane
            runs.append((execute(prog, state, on_instruction=hook)[1], snapshot(state)))
        assert prog._compiled[PlaneGeometry(16, 16, 4, 4)].steps is not None
        (plain_sums, plain), _, (stepped_sums, stepped) = runs
        assert stepped_sums == plain_sums
        assert same_planes(stepped, plain)

    def test_masked_rewrites_match_at_every_plane_type(self):
        """Masked maxes over plain, shifted and all-zero sources and masked
        copies of zero, under masks a pattern sets (bits the step list
        knows) and a thresh sets (bits it does not), run stepped on int8,
        then int16, then int32 planes of each type's extremes: one step
        list, whose max planes are built per type."""
        rng = np.random.default_rng(3)

        def pattern(dst):
            return Instruction("pattern", dst=dst, pattern=rng.random((16, 16)) < 0.5)

        prog = PpaProgram([
            pattern("R1"), Instruction("shift", dst="D", a="A", direction="W", steps=1),
            Instruction("max", dst="A", a="A", b="D", mask="R1"),
            pattern("R2"), Instruction("shift", dst="D", a="B", direction="N", steps=5),
            Instruction("max", dst="B", a="D", b="B", mask="R2"),
            Instruction("shift", dst="D", a="C", direction="S", steps=16),
            Instruction("max", dst="C", a="C", b="D", mask="R1"),
            Instruction("max", dst="D", a="D", b="A", mask="R2"),
            Instruction("sub", dst="E", a="E", b="E"),
            Instruction("copy", dst="F", a="E", mask="R2"),
            Instruction("thresh", dst="R3", a="A", value=0),
            Instruction("copy", dst="B", a="E", mask="R3"),
            Instruction("max", dst="C", a="C", b="B", mask="R3"),
            Instruction("gsum", a="A", label="s"),
        ])
        # each type's extremes that the bound proof keeps on that type
        for dtype in START_VALUES:
            top = np.iinfo(dtype).max
            values = rng.choice([0, 1, -1, top, -top, top // 3, -top // 3],
                                size=(len(ANALOG_REGS), 16, 16))
            runs = []
            for hook in (lambda *_: None, None, None):
                state = small_state()
                state.widen(dtype)
                for reg, plane in zip(ANALOG_REGS, values):
                    state.analog[reg][:] = plane
                runs.append((execute(prog, state, on_instruction=hook)[1], snapshot(state)))
            (plain_sums, plain), _, (stepped_sums, stepped) = runs
            assert stepped_sums == plain_sums
            assert same_planes(stepped, plain)
            assert plain["A"].dtype == dtype
        steps = prog._compiled[PlaneGeometry(16, 16, 4, 4)].steps
        ceilings = [op[-1] for run, op in steps if run.__name__ == "_run_masked_max"]
        assert len(ceilings) == 4 and all(len(c) == 3 for c in ceilings)

    @pytest.mark.parametrize("mode", ["ideal", SATURATING])
    def test_default_program_steps_match_a_hooked_run(self, mode):
        prog, _ = lower_model(default_model())
        images = [np.random.default_rng(seed).integers(0, 2, (64, 64)) for seed in range(4)]
        for image in images[:2]:  # the runs before the step list is built
            execute(prog, make_input_state(image, mode=mode))
        for image in images:
            hooked = make_input_state(image, mode=mode)
            _, hooked_sums = execute(prog, hooked, on_instruction=lambda *_: None)
            for _ in range(2):  # a stepped run leaves nothing for the next
                stepped = make_input_state(image, mode=mode)
                _, stepped_sums = execute(prog, stepped)
                assert prog._compiled[PlaneGeometry()].steps is not None
                assert stepped_sums == hooked_sums
                assert same_planes(snapshot(stepped), snapshot(hooked))

    def test_stage_slices_run_stepped_as_the_whole_program(self):
        """The default program as its five stage slices, run in turn on one
        state, each past its third run: the planes and sums equal a hooked
        run of the whole program, which needs each slice's step list to
        bind its patterns at its end."""
        prog, plan = lower_model(default_model())
        slices = [PpaProgram(prog.instructions[a:b]) for a, b in plan.stage_ranges.values()]
        assert len(slices) == 5
        image = np.random.default_rng(5).integers(0, 2, (64, 64))
        whole = make_input_state(image)
        _, whole_sums = execute(prog, whole, on_instruction=lambda *_: None)
        for _ in range(3):
            state, sums = make_input_state(image), []
            for sl in slices:
                sums += execute(sl, state)[1]
        assert all(sl._compiled[PlaneGeometry()].steps is not None for sl in slices)
        assert sums == whole_sums
        assert same_planes(snapshot(state), snapshot(whole))

    def test_default_program_is_built_on_its_third_run(self):
        prog, _ = lower_model(default_model())
        image = np.random.default_rng(2).integers(0, 2, (64, 64))
        compiled = []
        for _ in range(3):
            execute(prog, make_input_state(image))
            compiled.append(prog._compiled[PlaneGeometry()].steps)
        assert compiled[:2] == [None, None]
        # the 40 patterns run no step; the 32 unmasked shifts and copies are
        # offset aliases and the 2 `sub X X X` zero ones; each of the 16 tap
        # pairs' masked add and sub merge into one step (the first writes C,
        # all zero, without adding). Written out: B before the first add
        # reads it as its accumulator, D before the last max writes C, whose
        # alias it is, as D is live at the end (the other three are
        # overwritten first), and A and E at the end; and one step binds
        # the patterns at the end
        assert len(compiled[2]) == 124 - 40 - 32 - 2 - 16 + 4 + 1 == 39
        # a hook still sees every instruction
        seen = []
        execute(prog, make_input_state(image), on_instruction=lambda i, *_: seen.append(i))
        assert seen == list(range(124))


def _sample_instructions():
    pat = np.zeros((16, 16), dtype=np.uint8)
    pat[::3, 1::2] = 1
    return [
        Instruction("add", dst="A", a="B", b="C"),
        Instruction("sub", dst="A", a="B", b="C", mask="R1"),
        Instruction("max", dst="B", a="A", b="C", mask="R2"),
        Instruction("neg", dst="A", a="B"),
        Instruction("copy", dst="C", a="A", mask="R3"),
        Instruction("shift", dst="A", a="B", direction="N", steps=1),
        Instruction("thresh", dst="R1", a="A", value=-5),
        Instruction("logic", dst="R1", a="R2", b="R3", logic="xor"),
        Instruction("logic", dst="R1", a="R2", logic="not"),
        Instruction("pattern", dst="R4", pattern=pat),
        Instruction("gsum", a="A", label="rock"),
    ]


def reference_parse(text: str) -> PpaProgram:
    """A reader that strips each line's comment and splits every field of
    it, then reads the fields with the same kinds: the oracle of
    test_parser_matches_the_reference_reader."""
    instructions = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        op, *rest = line.split()
        try:
            spec = program_module.SPECS.get(op)
            if spec is None:
                raise ProgramError(f"unknown opcode {op!r}")
            kw = {}
            if spec.masked and rest and rest[-1].startswith("mask="):
                kw["mask"] = rest.pop()[len("mask="):]
            logic = dict(zip((f for f, _ in spec.operands), rest)).get("logic")
            listed = [(f, k) for f, k in spec.operands
                      if k is not program_module.DREG2 or logic != "not"]
            if len(rest) != len(listed):
                raise ProgramError(f"{op} takes {len(listed)} operands, got {len(rest)}")
            kw.update((f, k.parse(t)) for (f, k), t in zip(listed, rest))
            instructions.append(Instruction(op, **kw))
        except ValueError as e:
            raise ProgramError(f"line {lineno}: {e}") from None
    return PpaProgram(instructions)


def random_listing_program(seed: int) -> PpaProgram:
    """Instructions of every opcode, with patterns whose sizes leave pad
    bits or none."""
    rng = np.random.default_rng(seed)
    pool = _sample_instructions()
    picks = [pool[i] for i in rng.integers(0, len(pool), size=6)]
    for _ in range(rng.integers(1, 3)):
        shape = rng.integers(1, 20, size=2)
        picks.insert(rng.integers(0, len(picks) + 1),
                     Instruction("pattern", dst="R2", pattern=rng.integers(0, 2, shape)))
    return PpaProgram(picks)


def _edit_separator(sep):
    def edit(line, at):
        spaces = [i for i, c in enumerate(line[0]) if c == " "]
        if spaces:
            i = spaces[at % len(spaces)]
            line[0] = line[0][:i] + sep + line[0][i + 1:]
    return edit


def _edit_field(word):
    def edit(line, at):
        fields = line[0].split(" ")
        fields[at % len(fields)] = word
        line[0] = " ".join(fields)
    return edit


def _edit_end(end):
    def edit(line, at):
        line[1] = end
    return edit


def _edit_hex(edit):
    """Edit a pattern literal's hex digits at one place, if the line has
    one: edit(digits, i) gives the new digits."""
    def edit_line(line, at):
        head, colon, digits = line[0].partition(":")
        if digits:
            line[0] = head + colon + edit(digits, at % len(digits))
    return edit_line


def _append(tail):
    def edit(line, at):
        line[0] += tail
    return edit


# edits of one line of a listing, each [body, line end], at a drawn place:
# other field separators, line breaks splitlines knows, a `not` field,
# comments, an extra field, whitespace inside a pattern literal, and an
# upper-case or non-hex digit
LISTING_EDITS = {
    "tab": _edit_separator("\t"),
    "spaces": _edit_separator("   "),
    "mixed-blanks": _edit_separator(" \t\x1f\xa0\u3000"),
    "crlf": _edit_end("\r\n"),
    "cr": _edit_end("\r"),
    "formfeed": _edit_end("\x0c"),
    "vertical-tab": _edit_end("\x0b"),
    "file-separator": _edit_end("\x1c"),
    "next-line": _edit_end("\x85"),
    "line-separator": _edit_end("\u2028"),
    # `not` where `logic` lists its logic op, or anywhere else
    "not-field": _edit_field("not"),
    "comment": _append(" # a note"),
    "bare-comment": _append("#note mask=R1"),
    "trailing-spaces": _append(" \t "),
    "extra-field": _append(" 00"),
    "space-in-hex": _edit_hex(lambda d, i: d[:i] + " " + d[i:]),
    "tab-in-hex": _edit_hex(lambda d, i: d[:i] + "\t" + d[i:]),
    # as many characters as before, one byte fewer
    "blanks-for-a-byte": _edit_hex(lambda d, i: d[:i] + "  " + d[i + 2:]),
    "upper-hex": _edit_hex(lambda d, i: d[:i] + d[i].upper() + d[i + 1:]),
    "non-hex": _edit_hex(lambda d, i: d[:i] + "g" + d[i + 1:]),
}


class TestListing:
    def test_empty_listing(self):
        assert disassemble(PpaProgram([])) == ""
        assert parse_listing("") == PpaProgram([])

    def test_single_shift_line(self):
        prog = PpaProgram([Instruction("shift", dst="A", a="B",
                                       direction="N", steps=1)])
        assert disassemble(prog) == "shift A B N 1\n"

    def test_round_trip_all_opcodes(self):
        prog = PpaProgram(_sample_instructions())
        text = disassemble(prog)
        parsed = parse_listing(text)
        assert parsed == prog
        assert disassemble(parsed) == text

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\nadd A B C  # trailing\n"
        prog = parse_listing(text)
        assert prog.instructions == (Instruction("add", dst="A", a="B", b="C"),)

    def test_bad_line_reports_number(self):
        with pytest.raises(ProgramError, match="line 2"):
            parse_listing("add A B C\nfrobnicate X\n")

    @pytest.mark.parametrize("bad", ["add A B", "add A B C D", "shift A B N x",
                                     "shift A B N 1 mask=R1", "logic R1 not R2 R3",
                                     "logic R1 and R2", "pattern R1 2x2:zz",
                                     "logic", "gsum"])
    def test_operand_count_and_literals_checked(self, bad):
        with pytest.raises(ProgramError, match="line 1"):
            parse_listing(bad)

    @pytest.mark.parametrize("literal, error", [
        ("2x2:ffff", "2x2 bits need exactly 2 hex digits, got 4"),
        ("2x2:ff", "pad bits after the last pixel are set"),
        ("+2x2:f0", "dims '\\+2x2' are not HxW in plain decimal"),
        ("2x2:F0", "hex digits must be lower case"),
    ], ids=["extra-bytes", "pad-bits", "signed-dims", "upper-case"])
    def test_pattern_literal_must_be_canonical(self, literal, error):
        # each once read as 2x2:f0
        assert disassemble(parse_listing("pattern R1 2x2:f0\n")) == \
            "pattern R1 2x2:f0\n"
        with pytest.raises(ProgramError,
                           match=f"^line 3: bad pattern literal: {error}$"):
            parse_listing(f"gsum A a\n\npattern R1 {literal}\n")

    @pytest.mark.parametrize("line, field", [
        ("shift A B N 1_0", "1_0"), ("shift A B N +1", "+1"), ("shift A B N 01", "01"),
        ("thresh R1 A -0", "-0"), ("shift A B N \u0663", "\u0663"),
    ], ids=["underscore", "plus", "leading-zero", "minus-zero", "arabic-indic"])
    def test_integer_operands_must_be_canonical(self, line, field):
        # int() reads each, and each once listed back as another text
        error = f"line 2: integer '{field}' is not in plain decimal"
        with pytest.raises(ProgramError, match=f"^{re.escape(error)}$"):
            parse_listing(f"gsum A a\n{line}\n")

    @given(seed=st.integers(0, 2**16),
           edits=st.lists(st.tuples(st.sampled_from(sorted(LISTING_EDITS)),
                                    st.integers(0, 2**16)), max_size=5))
    # `not` as the first input of `logic R1 xor R2 R3`
    @example(seed=0, edits=[("not-field", 8)])
    # an extra field after the 16x16 literal, a space inside it (also with
    # blanks after it), and `F0` for the 1x4 literal
    @example(seed=0, edits=[("extra-field", 7)])
    @example(seed=0, edits=[("space-in-hex", 7)])
    @example(seed=0, edits=[("space-in-hex", 7), ("trailing-spaces", 7)])
    @example(seed=0, edits=[("upper-hex", 12)])
    @settings(max_examples=300, deadline=None)
    def test_parser_matches_the_reference_reader(self, seed, edits):
        """Whatever the spacing, line breaks and comments of a listing, the
        parser returns what the reference reader returns, or raises its
        error."""
        lines = [[body, "\n"] for body in
                 disassemble(random_listing_program(seed)).splitlines()]
        for name, at in edits:
            LISTING_EDITS[name](lines[at % len(lines)], at)
        text = "".join(body + end for body, end in lines)
        try:
            expected = reference_parse(text)
        except ProgramError as e:
            with pytest.raises(ProgramError) as got:
                parse_listing(text)
            assert str(got.value) == str(e)
            return
        assert parse_listing(text) == expected

    def test_equal_lines_are_one_instruction(self):
        prog = parse_listing("shift A B N 1\nadd A A B\nshift A B N 1  # again\n")
        first, _, again = prog.instructions
        assert again is first

    def test_parsed_pattern_is_read_only_bool(self):
        bits = parse_listing("pattern R1 3x3:ff80\n").instructions[0].pattern
        assert bits.dtype == bool and not bits.flags.writeable
        assert np.array_equal(bits, np.ones((3, 3), dtype=bool))

    def test_parsed_pattern_is_kept_without_a_copy(self):
        bits = program_module._pattern_from_hex("3x3:ff80")
        assert not bits.base.flags.writeable
        assert Instruction("pattern", dst="R1", pattern=bits).pattern is bits

    @pytest.mark.parametrize("source_of", [
        lambda a: a, lambda a: a.view(np.uint8), lambda a: a.reshape(16, 16)],
        ids=["writable", "uint8-view", "writable-base"])
    def test_writing_the_source_changes_no_instruction(self, source_of):
        source = np.ones((16, 16), dtype=bool)
        bits = source_of(source)
        if bits.base is source:  # a read-only view of a writable array
            bits.flags.writeable = False
        prog = PpaProgram([Instruction("pattern", dst="R1", pattern=bits),
                           Instruction("copy", dst="A", a="B", mask="R1"),
                           Instruction("gsum", a="A", label="s")])
        listing = disassemble(prog)

        def run(hook=None):
            state = small_state()
            state.analog["B"][:] = 1
            return execute(prog, state, on_instruction=hook)[1]

        assert [run() for _ in range(3)] == [[256]] * 3
        source[:] = False
        assert prog.instructions[0].pattern.all()
        assert disassemble(prog) == listing
        assert run() == run(lambda *_: None) == [256]

    def test_bool_and_uint8_patterns_are_one_instruction(self):
        bits = np.eye(16, dtype=np.uint8)
        as_bool = Instruction("pattern", dst="R1", pattern=bits.astype(bool))
        as_uint8 = Instruction("pattern", dst="R1", pattern=bits)
        assert as_bool == as_uint8
        assert disassemble_instruction(as_bool) == disassemble_instruction(as_uint8)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random_programs(self, seed):
        rng = np.random.default_rng(seed)
        pool = _sample_instructions()
        picks = [pool[i] for i in rng.integers(0, len(pool), size=8)]
        prog = PpaProgram(picks)
        assert parse_listing(disassemble(prog)) == prog


class TestCostModel:
    def test_empty_program_zero_overhead_unbounded(self):
        report = estimate(PpaProgram([]), CostModel({}, 0.0))
        assert report.latency_us == 0
        assert math.isinf(report.throughput_fps)

    def test_paper_headline_arithmetic(self):
        # 121 us -> 1e6/121 = 8264.46..., printed as 8264
        prog = PpaProgram([Instruction("add", dst="A", a="A", b="A")])
        report = estimate(prog, CostModel({"add": 121.0}))
        assert report.latency_us == pytest.approx(121.0)
        assert report.throughput_fps_floor == 8264

    def test_simple_arithmetic(self):
        prog = PpaProgram([Instruction("copy", dst="A", a="B")] * 10)
        report = estimate(prog, CostModel({"copy": 1.0}, overhead_us=2.0))
        assert report.latency_us == 12.0
        assert report.throughput_fps_floor == 83333

    def test_default_cost_covers_every_opcode(self):
        costs = json.loads(resources.files("scampsim.data")
                           .joinpath("default_cost.json").read_text())
        assert set(OPCODES) <= set(costs)

    def test_missing_opcode_named(self):
        prog = PpaProgram([Instruction("shift", dst="A", a="B",
                                       direction="N", steps=1)])
        with pytest.raises(CostError, match="shift"):
            estimate(prog, CostModel({"add": 1.0}))

    def test_negative_cost_rejected(self):
        with pytest.raises(CostError):
            CostModel({"add": -1.0})

    def test_from_json_reads_table_and_skips_comments(self):
        text = '{"_note": "us per op", "add": 1.5, "shift": 0.25, "overhead_us": 3}'
        assert CostModel.from_json(text) == CostModel({"add": 1.5, "shift": 0.25},
                                                      overhead_us=3.0)

    @pytest.mark.parametrize("text, error", [
        ('{"add": Infinity}', "field 'add' must be a finite number >= 0, got inf"),
        ('{"add": NaN}', "field 'add' must be a finite number >= 0, got nan"),
        ('{"add": true}', "field 'add' must be a finite number >= 0, got True"),
        ('{"add": "x"}', "field 'add' must be a finite number >= 0, got 'x'"),
        ('{"add": null}', "field 'add' must be a finite number >= 0, got None"),
        ('{"overhead_us": -0.5}',
         "field 'overhead_us' must be a finite number >= 0, got -0.5"),
        ('{"add": 1' + "0" * 400 + "}",
         "field 'add' must be a finite number >= 0, got 1" + "0" * 39),
        ("5", "must be a JSON object, got 5"),
        ("[1]", "must be a JSON object, got [1]"),
        ("{", "is not valid JSON: Expecting property name"),
    ])
    def test_from_json_names_the_bad_field(self, text, error):
        with pytest.raises(CostError, match="^cost table " + re.escape(error)):
            CostModel.from_json(text)

    def test_latency_past_the_largest_float_rejected(self):
        prog = PpaProgram([Instruction("add", dst="A", a="A", b="A")] * 2)
        with pytest.raises(CostError, match="^latency overflows"):
            estimate(prog, CostModel({"add": sys.float_info.max}))

    @given(costs=st.lists(st.floats(0.001, 10.0), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_fps_times_latency_is_1e6(self, costs):
        prog = PpaProgram([Instruction("add", dst="A", a="A", b="A")] * len(costs))
        report = estimate(prog, CostModel({"add": sum(costs) / len(costs)}))
        assert report.throughput_fps * report.latency_us == pytest.approx(
            1e6, rel=1e-12)

    def test_cost_monotone_in_program_length(self):
        cm = CostModel({"add": 0.5, "gsum": 2.0})
        prog = []
        prev = 0.0
        for i in range(10):
            prog.append(Instruction("add", dst="A", a="A", b="A"))
            lat = estimate(PpaProgram(list(prog)), cm).latency_us
            assert lat >= prev
            prev = lat
