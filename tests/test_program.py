import dataclasses
import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scampsim import program as program_module
from scampsim.geometry import PlaneGeometry
from scampsim.planes import ANALOG_MAX, ANALOG_MIN, SATURATING, ArrayState
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
        before = state.snapshot()
        _, sums = execute(PpaProgram([]), state)
        assert sums == []
        assert state.equals_snapshot(before)

    def test_single_gsum_on_zero_plane(self):
        _, sums = execute(PpaProgram([Instruction("gsum", a="A", label="x")]),
                          small_state())
        assert sums == [0]

    @pytest.mark.parametrize("op", BAD_OPERANDS)
    def test_rejection_leaves_state_bit_identical(self, op):
        # each after an instruction that would change the state if it ran
        state = small_state()
        state.areg("A")[:] = 3
        before = state.snapshot()
        where = r"instruction 1 \(pattern\): " if op == "pattern" else f"{op}\\b"
        with pytest.raises(ProgramError, match="^" + where):
            prog = PpaProgram([Instruction("add", dst="A", a="A", b="A"),
                               Instruction(op, **BAD_OPERANDS[op])])
            execute(prog, state)
        assert state.equals_snapshot(before)
        assert state.dtype == np.int16

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
        state.areg("A")[:] = 1
        assert execute(prog, state)[1] == [4 * 256]
        with pytest.raises(dataclasses.FrozenInstanceError):
            prog.instructions[1].b = "NOPE"
        with pytest.raises(dataclasses.FrozenInstanceError):
            prog.instructions = ()
        with pytest.raises(TypeError):
            prog.instructions[1] = Instruction("add", dst="B", a="A", b="C")
        state = small_state()
        state.areg("A")[:] = 1
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
        state.areg("A")[0, 0] = 2
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
                state.areg(name)[:] = rng.integers(-100, 100, (16, 16))
            state.write_pattern("R1", rng.integers(0, 2, (16, 16)))
            before = state.snapshot()
            try:
                execute(prog, state)
            except ProgramError as e:
                # only the state-dependent check may refuse a built program
                assert str(e).startswith("instruction 0 (pattern): bits of shape")
                assert state.equals_snapshot(before)
                assert state.dtype == np.int16


def doubling_listing(times):
    return "".join("add A A A\n" for _ in range(times)) + "gsum A total\n"


class TestBoundPass:
    """execute proves every analog intermediate fits int32 before it runs,
    and widens an int16 state first when the proof leaves int16."""

    def test_doubling_past_int32_rejected_before_anything_runs(self):
        state = small_state()
        state.areg("A")[:] = 1
        state.areg("B")[:] = 2
        before = state.snapshot()
        # 2**30 fits, the 31st doubling reaches 2**31
        with pytest.raises(ProgramError,
                           match=r"instruction 30 \(add\).*2147483648.*int32"):
            execute(parse_listing(doubling_listing(32)), state)
        assert state.equals_snapshot(before)
        assert state.dtype == np.int16
        _, sums = execute(parse_listing(doubling_listing(30)), state)
        assert sums == [2**30 * 256]
        assert state.dtype == np.int32

    @pytest.mark.parametrize("times, dtype", [(14, np.int16), (15, np.int32)])
    def test_widens_only_past_int16(self, times, dtype):
        state = small_state()
        state.areg("A")[:] = 1
        _, sums = execute(parse_listing(doubling_listing(times)), state)
        assert sums == [2**times * 256]
        assert state.dtype == dtype

    def test_bound_starts_from_the_state_values(self):
        prog = parse_listing("neg B A\n")
        state = small_state()
        state.widen()
        state.areg("A")[3, 3] = -ANALOG_MAX
        execute(prog, state)
        assert state.areg("B")[3, 3] == ANALOG_MAX
        state.areg("A")[3, 3] = -ANALOG_MAX - 1
        before = state.snapshot()
        with pytest.raises(ProgramError, match="instruction 0 \\(neg\\)"):
            execute(prog, state)
        assert state.equals_snapshot(before)

    def test_masked_write_keeps_the_old_bound(self):
        # B holds 2**30; a masked copy of the small A cannot shrink B's bound,
        # so doubling B still overflows
        state = small_state()
        state.widen()
        state.areg("B")[:] = 2**30
        state.write_pattern("R1", np.ones((16, 16), dtype=bool))
        prog = parse_listing("copy B A mask=R1\nadd B B B\n")
        with pytest.raises(ProgramError, match="instruction 1"):
            execute(prog, state)
        execute(parse_listing("copy B A\nadd B B B\n"), state)
        assert np.all(state.areg("B") == 0)

    def test_saturating_mode_caps_the_bound(self):
        state = ArrayState(PlaneGeometry(16, 16, 4, 4), mode=SATURATING)
        state.areg("A")[:] = 1
        _, sums = execute(parse_listing(doubling_listing(64)), state)
        assert sums == [127 * 256]

    def test_memoised_proof_follows_the_starting_bounds(self):
        prog = parse_listing(doubling_listing(14))
        state = small_state()
        state.areg("A")[:] = 1
        assert execute(prog, state)[1] == [2**14 * 256]
        assert state.dtype == np.int16
        state = small_state()
        state.areg("A")[:] = 4
        assert execute(prog, state)[1] == [2**16 * 256]
        assert state.dtype == np.int32

    def test_memoised_proof_follows_the_limit(self):
        prog = parse_listing(doubling_listing(64))
        state = ArrayState(PlaneGeometry(16, 16, 4, 4), mode=SATURATING)
        state.areg("A")[:] = 1
        assert execute(prog, state)[1] == [127 * 256]
        # a failing proof is not recorded: it raises the same way every time
        for _ in range(2):
            state = small_state()
            state.areg("A")[:] = 1
            with pytest.raises(ProgramError, match=r"instruction 30 \(add\)"):
                execute(prog, state)

    def test_equal_starting_bounds_skip_the_bound_pass(self, monkeypatch):
        calls = []
        check = program_module._check_bound
        monkeypatch.setattr(program_module, "_check_bound",
                            lambda *args: calls.append(args) or check(*args))
        prog = parse_listing("add C A A\nadd C C A\ngsum C c\n")
        walked, sums = [], []
        for value in (1, 2, 1, 2):
            state = small_state()
            state.areg("A")[:] = value
            before = len(calls)
            sums += execute(prog, state)[1]
            walked.append(len(calls) - before)
        assert sums == [3 * 256, 6 * 256, 3 * 256, 6 * 256]
        assert walked == [2, 2, 0, 0]

    def test_threshold_immediate_must_fit_int32(self):
        for value in (ANALOG_MAX + 1, ANALOG_MIN - 1):
            with pytest.raises(ProgramError,
                               match="^thresh: needs an int32 immediate"):
                Instruction("thresh", dst="R1", a="A", value=value)
            with pytest.raises(ProgramError, match="^line 1: thresh: .*int32"):
                parse_listing(f"thresh R1 A {value}\n")


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
