import dataclasses
import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scampsim import program as program_module
from scampsim.geometry import PlaneGeometry
from scampsim.planes import ANALOG_MAX, SATURATING, ArrayState
from scampsim.program import (OPCODES, CostError, CostModel, Instruction,
                              PpaProgram, ProgramError, disassemble,
                              disassemble_instruction, estimate, execute,
                              parse_listing)


def small_state():
    return ArrayState(PlaneGeometry(16, 16, 4, 4))


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

    # one bad operand per opcode, each after an instruction that would
    # change the state if it ran
    @pytest.mark.parametrize("bad", [
        Instruction("add", dst="A", a="A", b="NOPE"),
        Instruction("sub", dst="R1", a="A", b="A"),
        Instruction("neg", dst="A", a="A", mask="NOPE"),
        Instruction("copy", dst="A", a=None),
        Instruction("max", dst="A", a="A", b="A", mask="B"),
        Instruction("shift", dst="A", a="A", direction="N", steps=-1),
        Instruction("thresh", dst="R1", a="A"),
        Instruction("logic", dst="R1", a="R2", b="R3", logic="nand"),
        Instruction("pattern", dst="R1", pattern=np.ones((8, 8), dtype=bool)),
        Instruction("gsum", a="A"),
    ], ids=lambda ins: ins.opcode)
    def test_rejection_leaves_state_bit_identical(self, bad):
        state = small_state()
        state.areg("A")[:] = 3
        before = state.snapshot()
        prog = PpaProgram([Instruction("add", dst="A", a="A", b="A"), bad])
        with pytest.raises(ProgramError):
            execute(prog, state)
        assert state.equals_snapshot(before)

    def test_operand_checks_run_once_per_geometry(self, monkeypatch):
        calls = []
        check = program_module._validate_instruction
        monkeypatch.setattr(program_module, "_validate_instruction",
                            lambda ins, g: calls.append(g) or check(ins, g))
        bits = np.eye(16, dtype=bool)
        prog = PpaProgram([Instruction("pattern", dst="R1", pattern=bits),
                           Instruction("gsum", a="A", label="x")])
        for _ in range(3):
            execute(prog, small_state())
        assert len(calls) == 2
        # the pattern is checked again, and fails, against another geometry
        for _ in range(2):
            with pytest.raises(ProgramError,
                               match=r"instruction 0 \(pattern\).*\(256, 256\)"):
                execute(prog, ArrayState())
        assert len(calls) == 4

    def test_failing_program_raises_the_same_error_on_every_call(self):
        prog = parse_listing("add A A A\nadd B A NOPE\n")
        messages = set()
        for _ in range(3):
            with pytest.raises(ProgramError) as err:
                execute(prog, small_state())
            messages.add(str(err.value))
        assert messages == {"instruction 1 (add): unknown analog register 'NOPE'"}

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
            prog.instructions[1] = Instruction("add", dst="B", a="A", b="NOPE")
        state = small_state()
        state.areg("A")[:] = 1
        assert execute(prog, state)[1] == [4 * 256]

    def test_rejection_names_instruction(self):
        prog = PpaProgram([Instruction("shift", dst="A", a="A",
                                       direction="Q", steps=1)])
        with pytest.raises(ProgramError, match="instruction 0"):
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
        with pytest.raises(ProgramError, match="int32 immediate"):
            execute(parse_listing(f"thresh R1 A {ANALOG_MAX + 1}\n"),
                    small_state())


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

    def test_json_round_trip(self):
        cm = CostModel({"add": 1.5, "shift": 0.25}, overhead_us=3.0)
        back = CostModel.from_json(cm.to_json())
        assert back == cm

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
