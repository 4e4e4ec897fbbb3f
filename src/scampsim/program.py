"""Plane-instruction programs: representation, executor, listing and timing.

A PpaProgram is an ordered tuple of instructions over an ArrayState; both
are frozen. One table, SPECS, describes every opcode: its operands in
listing order with their kinds, whether it takes a trailing `mask=`, and
the ArrayState call that runs it. Construction, execution, disassembly and
listing parsing all read that table. An Instruction checks its operands
when it is built: each field its opcode takes must pass its kind's test,
and each other field must be unset. So an Instruction that exists is
valid, and the ArrayState ops trust their operands. Execution is
validate-then-execute, and nothing runs until the whole program is
accepted, so a rejected program leaves the state's values and dtype
bit-identical. `validate` checks what depends on the state:
- every pattern's shape against the state's geometry;
- a bound pass, starting from the state's current values, proves the
  largest magnitude any analog result can reach. Beyond int32 the program
  is rejected; beyond int16 the state is widened to int32 before it runs.
  The pass reads the state only for the starting bound (max |value|) of
  the registers the program reads before writing them, which the program
  alone decides. So an accepted proof is recorded on the program per
  saturation limit and tuple of those starting bounds, and a later state
  that matches both takes one reduction per such register instead of the
  pass; a failing proof is never recorded, so it raises on every call.
A pattern is kept as a read-only bool view that a `pattern` instruction
binds without copying. A program's sum_labels, which name its class sums,
are derived from its gsum instructions in order. Timing is a pure
function of per-opcode costs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from .geometry import is_binary
from .planes import (ANALOG_MAX, ANALOG_MIN, ANALOG_REGS, DIGITAL_REGS,
                     SHIFT_OFFSETS, ArrayState)

LOGIC_OPS = ("and", "or", "xor", "not")


class ProgramError(ValueError):
    """Malformed instruction, listing, or program/state mismatch."""


class CostError(ValueError):
    """Cost table does not cover an opcode used by the program."""


@dataclass(frozen=True, eq=False)
class Instruction:
    """One instruction, checked when it is built (see the module docstring)."""

    opcode: str
    dst: str | None = None
    a: str | None = None
    b: str | None = None
    mask: str | None = None
    direction: str | None = None
    steps: int | None = None
    value: int | None = None          # threshold immediate
    logic: str | None = None          # and / or / xor / not
    label: str | None = None          # gsum result label
    pattern: np.ndarray | None = None  # H x W bits for `pattern`, kept as bool

    def __post_init__(self):
        logic_not = isinstance(self.logic, str) and self.logic == "not"
        try:
            checked, unset = _GATES[self.opcode, logic_not]
        except (KeyError, TypeError):
            raise ProgramError(f"unknown opcode {self.opcode!r}") from None
        values = vars(self)
        for name, kind in checked:
            if not kind.ok(values[name]):
                raise ProgramError(f"{self.opcode}: "
                                   + kind.error.format(name=name, v=values[name]))
        for name in unset:
            if values[name] is not None:
                raise ProgramError(
                    f"{self.opcode} takes no {name}, got {values[name]!r}")
        if self.pattern is not None:
            # a read-only view: the register a `pattern` op binds it to
            # shares its memory, and no copy is made of bool bits
            bits = self.pattern.astype(bool, copy=False).view()
            bits.flags.writeable = False
            object.__setattr__(self, "pattern", bits)

    def __eq__(self, other):
        if not isinstance(other, Instruction):
            return NotImplemented
        if self.pattern is None or other.pattern is None:
            pat_eq = self.pattern is other.pattern
        else:
            pat_eq = np.array_equal(self.pattern, other.pattern)
        return pat_eq and all(getattr(self, f) == getattr(other, f)
                              for f in _FIELDS[:-1])


_FIELDS = tuple(f.name for f in fields(Instruction))  # opcode first, pattern last


@dataclass(frozen=True, eq=False)
class PpaProgram:
    """Immutable after construction; safely shareable across threads."""

    instructions: tuple[Instruction, ...]
    sum_labels: list[str] = field(init=False)  # the gsum labels, in order
    # per saturation limit: (the registers the bound pass reads, {their
    # starting bounds: the peak proved from them})
    _proofs: dict[int | None, tuple] = field(default_factory=dict, init=False,
                                             repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))
        object.__setattr__(self, "sum_labels", [i.label for i in self.instructions
                                                if i.opcode == "gsum"])

    def __len__(self):
        return len(self.instructions)

    def __eq__(self, other):
        if not isinstance(other, PpaProgram):
            return NotImplemented
        return self.instructions == other.instructions


def _pattern_to_hex(pattern: np.ndarray) -> str:
    h, w = pattern.shape
    return f"{h}x{w}:" + np.packbits(pattern).tobytes().hex()


def _pattern_from_hex(text: str) -> np.ndarray:
    try:
        dims, hexbits = text.split(":", 1)
        hs, ws = dims.split("x")
        h, w = int(hs), int(ws)
        raw = np.frombuffer(bytes.fromhex(hexbits), dtype=np.uint8)
        return np.unpackbits(raw)[: h * w].reshape(h, w).view(bool)
    except Exception as e:
        raise ProgramError(f"bad pattern literal: {e}") from None


class Kind(NamedTuple):
    """One operand kind: the test a value must pass, the message when it
    fails (formatted with the field's name and value v), and the
    conversions from and to one listing field."""

    ok: Callable
    error: str
    parse: Callable = str
    fmt: Callable = str


def _one_of(names) -> Callable:
    names = frozenset(names)
    return lambda v: isinstance(v, str) and v in names


def _is_int(v) -> bool:
    # bool is an int subclass, but True is not a step count or a threshold
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


AREG = Kind(_one_of(ANALOG_REGS), "unknown analog register {v!r}")
DREG = Kind(_one_of(DIGITAL_REGS), "unknown digital register {v!r}")
DREG2 = Kind(*DREG)  # second input of a binary logic op; `not` has none
MASK = Kind(lambda v: v is None or DREG.ok(v), DREG.error)  # trailing mask=
DIRECTION = Kind(_one_of(SHIFT_OFFSETS), "bad shift direction {v!r}")
NONNEG = Kind(lambda v: _is_int(v) and v >= 0,
              "{name} must be an integer >= 0, got {v!r}", int)
INT32 = Kind(lambda v: _is_int(v) and ANALOG_MIN <= v <= ANALOG_MAX,
             "needs an int32 immediate value, got {v!r}", int)
LOGIC = Kind(_one_of(LOGIC_OPS), "bad logic op {v!r}")
# one listing field: no whitespace, and no `#`, which starts a comment
LABEL = Kind(lambda v: isinstance(v, str) and v.split() == [v] and "#" not in v,
             "needs a label of one word without '#', got {v!r}")
PATTERN = Kind(lambda v: isinstance(v, np.ndarray) and v.ndim == 2 and is_binary(v),
               "needs a 2-D array of bits 0 or 1", _pattern_from_hex, _pattern_to_hex)


class OpSpec(NamedTuple):
    operands: tuple[tuple[str, Kind], ...]  # (Instruction field, kind), listing order
    masked: bool                            # takes a trailing mask=<dreg>
    run: Callable                           # (state, ins) -> global sum or None
    # bound on |value written to dst| from the list of bounds of the analog
    # inputs `a` (and `b`): sum or max; None if no analog plane is written
    bound: Callable | None = None


_ARITH3 = (("dst", AREG), ("a", AREG), ("b", AREG))
_ARITH2 = (("dst", AREG), ("a", AREG))

SPECS: dict[str, OpSpec] = {
    "add": OpSpec(_ARITH3, True, lambda s, i: s.add(i.dst, i.a, i.b, i.mask), sum),
    "sub": OpSpec(_ARITH3, True, lambda s, i: s.sub(i.dst, i.a, i.b, i.mask), sum),
    "neg": OpSpec(_ARITH2, True, lambda s, i: s.neg(i.dst, i.a, i.mask), max),
    "copy": OpSpec(_ARITH2, True, lambda s, i: s.copy(i.dst, i.a, i.mask), max),
    "max": OpSpec(_ARITH3, True,
                  lambda s, i: s.max_combine(i.dst, i.a, i.b, i.mask), max),
    "shift": OpSpec(_ARITH2 + (("direction", DIRECTION), ("steps", NONNEG)), False,
                    lambda s, i: s.shift(i.dst, i.a, i.direction, i.steps), max),
    "thresh": OpSpec((("dst", DREG), ("a", AREG), ("value", INT32)), False,
                     lambda s, i: s.threshold_into(i.dst, i.a, i.value)),
    "logic": OpSpec((("dst", DREG), ("logic", LOGIC), ("a", DREG), ("b", DREG2)),
                    False, lambda s, i: s.dreg_logic(i.dst, i.logic, i.a, i.b)),
    "pattern": OpSpec((("dst", DREG), ("pattern", PATTERN)), False,
                      lambda s, i: s.write_pattern(i.dst, i.pattern)),
    "gsum": OpSpec((("a", AREG), ("label", LABEL)), False,
                   lambda s, i: s.global_sum_of(i.a)),
}

OPCODES = tuple(SPECS)


def _listed(spec: OpSpec, logic: str | None) -> list[tuple[str, Kind]]:
    """The operands that appear in the listing for this logic op."""
    return [(f, k) for f, k in spec.operands if k is not DREG2 or logic != "not"]


def _gate(spec: OpSpec, logic: str | None):
    """The fields an instruction takes, with their kinds, and the ones it
    must leave unset."""
    checked = _listed(spec, logic) + ([("mask", MASK)] if spec.masked else [])
    taken = {f for f, _ in checked}
    return tuple(checked), tuple(f for f in _FIELDS[1:] if f not in taken)


# per opcode, and for `logic` whether the op is `not`: what __post_init__ checks
_GATES = {(op, logic_not): _gate(spec, "not" if logic_not else None)
          for op, spec in SPECS.items() for logic_not in (False, True)}


# -- validation and execution -------------------------------------------


def _max_abs(values: np.ndarray) -> int:
    # Python ints: abs() of the dtype's minimum would wrap
    return max(-int(values.min()), int(values.max()))


class _Bounds(dict):
    """Proven magnitude bound per analog register. A register's first read
    takes one max-abs reduction over its plane in the state, recorded in
    `starts`; it is the pass's only read of the state."""

    def __init__(self, state: ArrayState):
        super().__init__()
        self.state = state
        self.starts: dict[str, int] = {}
        self.peak = 0  # largest bound of any result before it is clamped

    def __missing__(self, reg: str) -> int:
        self[reg] = self.starts[reg] = bound = _max_abs(self.state.analog[reg])
        return bound


def _check_bound(ins: Instruction, spec: OpSpec, bounds: _Bounds):
    """Record the bound of the value `ins` writes; raise if it can leave int32."""
    inputs = [bounds[getattr(ins, f)] for f, kind in spec.operands
              if kind is AREG and f != "dst"]
    new = spec.bound(inputs)
    if new > ANALOG_MAX:
        raise ProgramError(f"{ins.opcode} can reach magnitude {new}, outside int32")
    bounds.peak = max(bounds.peak, new)
    # a saturating state clamps what it stores
    limit = bounds.state.limit
    if limit is not None:
        new = min(new, limit)
    if spec.masked and ins.mask is not None:
        # unmasked pixels keep their old values
        new = max(new, bounds[ins.dst])
    bounds[ins.dst] = new


# proofs kept per program and saturation limit before the memo starts over
MAX_PROOFS = 64


def validate(program: PpaProgram, state: ArrayState) -> int:
    """Reject the whole program before any instruction runs: every pattern's
    shape against the state's geometry, and every analog result's magnitude
    against int32, starting from the state's current plane values. Returns
    the largest magnitude any analog result can reach before it is clamped."""
    shape = state.geometry.shape
    for idx, ins in enumerate(program.instructions):
        if ins.pattern is not None and ins.pattern.shape != shape:
            raise ProgramError(f"instruction {idx} (pattern): bits of shape "
                               f"{ins.pattern.shape}, not the geometry's {shape}")
    proof = program._proofs.get(state.limit)
    if proof is not None:
        reads, peaks = proof
        peak = peaks.get(tuple(_max_abs(state.analog[r]) for r in reads))
        if peak is not None:
            return peak
    bounds = _Bounds(state)
    for idx, ins in enumerate(program.instructions):
        spec = SPECS[ins.opcode]
        if spec.bound is not None:
            try:
                _check_bound(ins, spec, bounds)
            except ProgramError as e:
                raise ProgramError(f"instruction {idx} ({ins.opcode}): {e}") from None
    if proof is None:
        proof = program._proofs[state.limit] = (tuple(bounds.starts), {})
    peaks = proof[1]
    if len(peaks) >= MAX_PROOFS:
        peaks.clear()
    peaks[tuple(bounds.starts.values())] = bounds.peak
    return bounds.peak


def execute(program: PpaProgram, state: ArrayState,
            on_instruction=None) -> tuple[ArrayState, list[int]]:
    """Run the program; return the mutated state and recorded global sums.

    `on_instruction(index, instruction, state)` is called after each
    instruction, for tracing/dumping. The state is widened to int32 first
    when the program's results can leave its analog dtype.
    """
    if validate(program, state) > np.iinfo(state.dtype).max:
        state.widen()
    sums: list[int] = []
    for idx, ins in enumerate(program.instructions):
        result = SPECS[ins.opcode].run(state, ins)
        if result is not None:
            sums.append(result)
        if on_instruction is not None:
            on_instruction(idx, ins, state)
    return state, sums


# -- listing format ------------------------------------------------------


def disassemble_instruction(ins: Instruction) -> str:
    spec = SPECS[ins.opcode]
    fields = [ins.opcode] + [kind.fmt(getattr(ins, name))
                             for name, kind in _listed(spec, ins.logic)]
    if spec.masked and ins.mask is not None:
        fields.append(f"mask={ins.mask}")
    return " ".join(fields)


def disassemble(program: PpaProgram) -> str:
    """One instruction per line; empty program yields an empty listing."""
    return "".join(disassemble_instruction(i) + "\n" for i in program.instructions)


def _parse_line(fields: list[str]) -> Instruction:
    op, rest = fields[0], fields[1:]
    spec = SPECS.get(op)
    if spec is None:
        raise ProgramError(f"unknown opcode {op!r}")
    kw = {}
    if spec.masked and rest and rest[-1].startswith("mask="):
        kw["mask"] = rest.pop()[len("mask="):]
    # the logic op precedes the operand it decides on, so zipping the full
    # operand list against the fields reads it at its listing position
    logic = dict(zip((f for f, _ in spec.operands), rest)).get("logic")
    listed = _listed(spec, logic)
    if len(rest) != len(listed):
        raise ProgramError(f"{op} takes {len(listed)} operands, got {len(rest)}")
    for (name, kind), text in zip(listed, rest):
        kw[name] = kind.parse(text)
    return Instruction(op, **kw)


def parse_listing(text: str) -> PpaProgram:
    """Inverse of disassemble. `#` starts a comment; blank lines ignored."""
    instructions: list[Instruction] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            instructions.append(_parse_line(line.split()))
        except (ValueError, ProgramError) as e:
            raise ProgramError(f"line {lineno}: {e}") from None
    return PpaProgram(instructions)


# -- cost model ----------------------------------------------------------


@dataclass
class CostModel:
    """Per-opcode execution time in microseconds plus a fixed overhead."""

    costs: dict[str, float]
    overhead_us: float = 0.0

    def __post_init__(self):
        if self.overhead_us < 0 or any(c < 0 for c in self.costs.values()):
            raise CostError("all costs must be >= 0")

    @classmethod
    def from_json(cls, text: str) -> "CostModel":
        doc = json.loads(text)
        overhead = float(doc.pop("overhead_us", 0.0))
        costs = {k: float(v) for k, v in doc.items() if not k.startswith("_")}
        return cls(costs, overhead)


@dataclass
class TimingReport:
    instruction_counts: dict[str, int]
    latency_us: float
    throughput_fps: float

    @property
    def throughput_fps_floor(self) -> int:
        if math.isinf(self.throughput_fps):
            raise CostError("unbounded throughput has no integer floor")
        return math.floor(self.throughput_fps)


def estimate(program: PpaProgram, cost: CostModel) -> TimingReport:
    """Latency = overhead + sum of per-instruction costs; fps = 1e6/latency.

    Zero latency reports infinite throughput as a sentinel.
    """
    counts: dict[str, int] = {}
    for ins in program.instructions:
        counts[ins.opcode] = counts.get(ins.opcode, 0) + 1
    missing = sorted(set(counts) - set(cost.costs))
    if missing:
        raise CostError(f"cost table missing opcode(s): {', '.join(missing)}")
    latency = cost.overhead_us + sum(cost.costs[op] * n for op, n in counts.items())
    fps = math.inf if latency == 0 else 1e6 / latency
    return TimingReport(counts, latency, fps)
