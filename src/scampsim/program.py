"""Plane-instruction programs: representation, executor, listing and timing.

A PpaProgram is an ordered tuple of instructions over an ArrayState; both
are frozen. One table, SPECS, describes every opcode: its operands in
listing order with their kinds, whether it takes a trailing `mask=`, the
ArrayState call that runs it and, if it writes an analog plane, its bound
rule. Construction, execution, disassembly and listing parsing all read
that table. An Instruction checks its operands when it is built: each
field its opcode takes must pass its kind's test, and each other field
must be unset. So an Instruction that exists is valid, and the
ArrayState ops trust their operands. Execution is validate-then-execute,
and nothing runs until the whole program is accepted, so a rejected
program leaves the state's values and dtype bit-identical. `validate`
checks what depends on the state in one bound pass:
- starting from the state's current values, the pass checks each
  pattern's shape against the state's geometry before it takes the blocks
  the bits touch, and proves the largest magnitude any stored analog value
  can reach. Past int32 the
  program is rejected, and in saturating mode past SAT_MAX, since nothing
  clamps; otherwise execute first widens the state to the narrowest of
  int8, int16 and int32 that holds it. The pass keeps one bound per block
  of the geometry for each analog register, as grid x grid int64 arrays,
  with one rule per opcode (its `bound` in SPECS): add and sub sum their
  inputs' bounds, and `sub x a a` is 0 without reading a; neg and copy
  keep their input's, max takes the larger; a shift takes, per block, the
  larger bound of the one or two source blocks it reads along its axis,
  and 0 off the plane. A masked write bounds the blocks its mask touches
  by the larger of the new and the old bound, and keeps the old elsewhere:
  a `pattern` touches the blocks its bits set; `thresh`, `logic` and a
  mask read before the program sets it may touch any block. So the
  replicate stage's adds of blocks that do not overlap prove 1, each conv
  tap adds 1 per block, and the default program proves 16 (k^2): int8 in
  both modes.
  The pass reads the state only for the starting block bounds (max
  |value| per block) of the registers the program reads before writing
  them, which the program alone decides. So a proof, which serves both
  modes, is recorded on the program per geometry and those starting block
  bounds, and a later state that matches them takes one block reduction
  per such register instead of the pass; a proof past int32 is never
  recorded, so it raises on every call.
Every run is one loop over (runner, operands) steps, each runner called
as run(state, operands). On a program's first two runs at a geometry the
steps are its instructions, each with its own SPECS run. From the third
run on (STEPS_FROM_RUN, a fixed rule) they are its step list (see
scampsim.steps), built on that run and kept with its proofs in one cache
per geometry: fewer passes over the planes, linear ones for most
arithmetic and none for a `pattern`, whose bits are bound when a replayed
instruction reads them or at the end, so that every plane, sum and the
plane type end as the instructions leave them.
(The global sum's saving, int16 partial sums and int32 where that is
exact, is planes.global_sum's and serves every run.) A program run once or
twice, such as one lowered to be checked in each mode and dropped, never
pays for the build or its planes.
A pattern is kept as read-only bool bits that a `pattern` instruction
binds without copying: the caller's array itself when nothing can write
to it, which holds for the planes lowering builds and the literals
parse_listing reads, else a copy. A program's sum_labels, which name its
class sums, are derived from its gsum instructions in order. Timing is a
pure function of per-opcode costs.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .geometry import PlaneGeometry, is_binary
from .planes import (ANALOG_MAX, ANALOG_MIN, ANALOG_REGS, DIGITAL_REGS, SAT_MAX,
                     SATURATING, SHIFT_OFFSETS, ArrayState, read_only)

LOGIC_OPS = ("and", "or", "xor", "not")


class ProgramError(ValueError):
    """Malformed instruction, listing, or program/state mismatch."""


class CostError(ValueError):
    """Cost table does not cover an opcode used by the program."""


@dataclass(frozen=True, eq=False, init=False)
class Instruction:
    """One instruction, checked when it is built (see the module docstring).

    Built by keyword: Instruction("add", dst="C", a="C", b="A", mask="R1").
    """

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

    def __init__(self, opcode: str, **operands):
        values = dict(_UNSET, opcode=opcode)
        values.update(operands)
        if len(values) != len(_FIELDS):
            extra = next(f for f in operands if f not in _UNSET)
            raise TypeError(f"Instruction got an unexpected keyword argument {extra!r}")
        logic = values["logic"]
        logic_not = isinstance(logic, str) and logic == "not"
        try:
            checked, unset = _GATES[opcode, logic_not]
        except (KeyError, TypeError):
            raise ProgramError(f"unknown opcode {opcode!r}") from None
        for name, kind in checked:
            if not kind.ok(values[name]):
                raise ProgramError(f"{opcode}: "
                                   + kind.error.format(name=name, v=values[name]))
        for name in unset:
            if values[name] is not None:
                raise ProgramError(
                    f"{opcode} takes no {name}, got {values[name]!r}")
        if values["pattern"] is not None:
            values["pattern"] = _frozen_bits(values["pattern"])
        # one update sets every frozen field, which assignment cannot
        self.__dict__.update(values)

    def __eq__(self, other):
        if not isinstance(other, Instruction):
            return NotImplemented
        a, b = self.pattern, other.pattern
        # both bool: equal bytes of equal shapes are equal bits
        return _SCALARS(self) == _SCALARS(other) and (
            a is b if a is None or b is None
            else a.shape == b.shape and a.tobytes() == b.tobytes())


def _frozen_bits(pattern: np.ndarray) -> np.ndarray:
    """The bits as read-only bool: the array itself when it is bool and
    read-only all the way down its chain of bases, so that nothing can
    write to it (the register a `pattern` op binds it to shares it); else a
    read-only bool copy."""
    base = pattern
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if pattern.dtype != bool or base is not None:
        pattern = read_only(pattern.astype(bool))
    return pattern


_FIELDS = tuple(f.name for f in fields(Instruction))  # opcode first, pattern last
_UNSET = dict.fromkeys(_FIELDS[1:])  # every operand field, as an unset one
_SCALARS = attrgetter(*_FIELDS[:-1])  # every field but the pattern, as one tuple


@dataclass
class _Compiled:
    """What a program keeps per geometry: the registers its bound pass reads
    before writing them, what _prove returned for each tuple of their
    starting block bounds, how often it has run, and its step list once
    built."""

    reads: tuple[str, ...] = ()
    proofs: dict[tuple[bytes, ...], tuple[int, int | None]] = field(default_factory=dict)
    runs: int = 0
    steps: list[tuple[Callable, object]] | None = None


@dataclass(frozen=True, eq=False)
class PpaProgram:
    """Immutable after construction; safely shareable across threads."""

    instructions: tuple[Instruction, ...]
    sum_labels: list[str] = field(init=False)  # the gsum labels, in order
    _compiled: dict[PlaneGeometry, _Compiled] = field(
        default_factory=dict, init=False, repr=False, compare=False)

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
    """Read-only bool bits from a literal as `_pattern_to_hex` writes it:
    plain decimal dims, exactly the bytes the bits fill, lower-case hex,
    pad bits 0."""
    dims, _, hexbits = text.partition(":")
    hs, _, ws = dims.partition("x")
    if not all(d.isascii() and d.isdigit() and str(int(d)) == d for d in (hs, ws)):
        raise ProgramError(f"bad pattern literal: dims {dims!r} are not HxW "
                           f"in plain decimal")
    h, w = int(hs), int(ws)
    nbytes = -(-h * w // 8)
    if len(hexbits) != 2 * nbytes:
        raise ProgramError(f"bad pattern literal: {h}x{w} bits need exactly "
                           f"{2 * nbytes} hex digits, got {len(hexbits)}")
    if any(c in hexbits for c in "ABCDEF"):
        raise ProgramError("bad pattern literal: hex digits must be lower case")
    try:
        raw = np.frombuffer(bytes.fromhex(hexbits), dtype=np.uint8)
    except ValueError as e:
        raise ProgramError(f"bad pattern literal: {e}") from None
    if len(raw) != nbytes:  # bytes.fromhex skips whitespace
        raise ProgramError("bad pattern literal: whitespace inside the hex digits")
    if nbytes and raw[-1] & (0xFF >> (h * w - 8 * (nbytes - 1))):
        raise ProgramError("bad pattern literal: pad bits after the last "
                           "pixel are set")
    # read-only before the views, which inherit it
    return read_only(np.unpackbits(raw, count=h * w)).reshape(h, w).view(bool)


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


def _decimal(text: str) -> int:
    """An integer as `str` writes it: int() also reads '+1', '01', '1_0',
    '-0' and non-ASCII digits."""
    if str(v := int(text)) != text:
        raise ProgramError(f"integer {text!r} is not in plain decimal")
    return v


AREG = Kind(_one_of(ANALOG_REGS), "unknown analog register {v!r}")
DREG = Kind(_one_of(DIGITAL_REGS), "unknown digital register {v!r}")
DREG2 = Kind(*DREG)  # second input of a binary logic op; `not` has none
MASK = Kind(lambda v: v is None or DREG.ok(v), DREG.error)  # trailing mask=
DIRECTION = Kind(_one_of(SHIFT_OFFSETS), "bad shift direction {v!r}")
NONNEG = Kind(lambda v: _is_int(v) and v >= 0,
              "{name} must be an integer >= 0, got {v!r}", _decimal)
INT32 = Kind(lambda v: _is_int(v) and ANALOG_MIN <= v <= ANALOG_MAX,
             "needs an int32 immediate value, got {v!r}", _decimal)
LOGIC = Kind(_one_of(LOGIC_OPS), "bad logic op {v!r}")
# one listing field: no whitespace, and no `#`, which starts a comment
LABEL = Kind(lambda v: isinstance(v, str) and v.split() == [v] and "#" not in v,
             "needs a label of one word without '#', got {v!r}")
PATTERN = Kind(lambda v: isinstance(v, np.ndarray) and v.ndim == 2 and is_binary(v),
               "needs a 2-D array of bits 0 or 1", _pattern_from_hex, _pattern_to_hex)


# -- value-range proof -------------------------------------------------


def _block_max_abs(plane: np.ndarray, geometry) -> np.ndarray:
    """max |value| over each block of the plane, as a grid x grid int64 array."""
    g, bs = geometry.block_grid, geometry.block_size
    # abs wraps the type's minimum onto itself, which reads right unsigned
    mags = np.abs(plane).view(f"u{plane.itemsize}")
    rows = mags.reshape(g, bs, g * bs).max(axis=1)
    return rows.reshape(g, g, bs).max(axis=2).astype(np.int64)


class _Bounds(dict):
    """Proven magnitude bound per block of each analog register, as grid x
    grid int64 arrays that are never written in place. A register's first
    read takes its block max-abs from the state, recorded in `starts`; it is
    the pass's only read of the state. `covers` maps each D-register a
    `pattern` set to the blocks its bits touch, as a grid x grid bool array."""

    def __init__(self, state: ArrayState):
        super().__init__()
        self.state = state
        self.block_size = state.geometry.block_size
        grid = state.geometry.block_grid
        self.zero = np.zeros((grid, grid), dtype=np.int64)
        self.starts: dict[str, np.ndarray] = {}
        self.covers: dict[str, np.ndarray] = {}

    def __missing__(self, reg: str) -> np.ndarray:
        bound = _block_max_abs(self.state.analog[reg], self.state.geometry)
        self[reg] = self.starts[reg] = bound
        return bound


# per-block bound rules (see the module docstring): (instruction, _Bounds)
# -> bound on |value written to dst| per block, before any mask


def _sum_bound(ins, bounds):
    return bounds[ins.a] + bounds[ins.b]


def _sub_bound(ins, bounds):
    # a - a is 0 whatever a holds, so a is not read
    return bounds.zero if ins.a == ins.b else bounds[ins.a] + bounds[ins.b]


def _max_bound(ins, bounds):
    return np.maximum(bounds[ins.a], bounds[ins.b])


def _moved_bound(ins, bounds):
    return bounds[ins.a]


def _blocks_moved(bound: np.ndarray, q: int, axis: int) -> np.ndarray:
    """out[i] = bound[i + q] along the axis, 0 where i + q is off the grid."""
    out = np.zeros(bound.shape, dtype=np.int64)
    g = len(bound)
    if abs(q) < g:
        # rows of the transposes are the columns
        o, b = (out.T, bound.T) if axis else (out, bound)
        if q >= 0:
            o[:g - q] = b[q:]
        else:
            o[-q:] = b[:g + q]
    return out


def _shift_bound(ins, bounds):
    """Each destination block reads one source block along the shift's axis
    when the shift is a whole number of blocks, else two; blocks off the
    plane read 0."""
    dr, dc = SHIFT_OFFSETS[ins.direction]
    axis, d = (0, dr * ins.steps) if dr else (1, dc * ins.steps)
    q, rem = divmod(d, bounds.block_size)
    bound = bounds[ins.a]
    out = _blocks_moved(bound, q, axis)
    return np.maximum(out, _blocks_moved(bound, q + 1, axis)) if rem else out


class OpSpec(NamedTuple):
    operands: tuple[tuple[str, Kind], ...]  # (Instruction field, kind), listing order
    masked: bool                            # takes a trailing mask=<dreg>
    run: Callable                           # (state, ins) -> global sum or None
    # per-block bound rule for the value written to dst (see the rules
    # above); None if no analog plane is written
    bound: Callable | None = None


_ARITH3 = (("dst", AREG), ("a", AREG), ("b", AREG))
_ARITH2 = (("dst", AREG), ("a", AREG))

SPECS: dict[str, OpSpec] = {
    "add": OpSpec(_ARITH3, True, lambda s, i: s.add(i.dst, i.a, i.b, i.mask),
                  _sum_bound),
    "sub": OpSpec(_ARITH3, True, lambda s, i: s.sub(i.dst, i.a, i.b, i.mask),
                  _sub_bound),
    "neg": OpSpec(_ARITH2, True, lambda s, i: s.neg(i.dst, i.a, i.mask),
                  _moved_bound),
    "copy": OpSpec(_ARITH2, True, lambda s, i: s.copy(i.dst, i.a, i.mask),
                   _moved_bound),
    "max": OpSpec(_ARITH3, True,
                  lambda s, i: s.max_combine(i.dst, i.a, i.b, i.mask), _max_bound),
    "shift": OpSpec(_ARITH2 + (("direction", DIRECTION), ("steps", NONNEG)), False,
                    lambda s, i: s.shift(i.dst, i.a, i.direction, i.steps),
                    _shift_bound),
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


# per opcode, and for `logic` whether the op is `not`: the operands its
# listing line holds, in order, with their kinds, and (_GATES) what
# __init__ checks
_LISTED = {(op, logic_not): tuple((f, k) for f, k in spec.operands
                                  if k is not DREG2 or not logic_not)
           for op, spec in SPECS.items() for logic_not in (False, True)}


def _gate(spec: OpSpec, listed):
    """The fields an instruction takes, with their kinds, and the ones it
    must leave unset."""
    checked = listed + ((("mask", MASK),) if spec.masked else ())
    taken = {f for f, _ in checked}
    return checked, tuple(f for f in _FIELDS[1:] if f not in taken)


_GATES = {key: _gate(SPECS[key[0]], listed) for key, listed in _LISTED.items()}


# -- validation and execution -------------------------------------------


# proofs kept per program and geometry before the memo starts over
MAX_PROOFS = 64


def _prove(program: PpaProgram, state: ArrayState) -> tuple[int, int | None]:
    """Run the bound pass and record it on the program: the largest
    magnitude any stored analog value can reach, and the index of the first
    instruction that can pass SAT_MAX, or None. A pattern's shape is
    checked against the geometry before its block coverage is taken."""
    bounds = _Bounds(state)
    g, bs = state.geometry.block_grid, state.geometry.block_size
    shape = state.geometry.shape
    peak, past_sat = 0, None
    for idx, ins in enumerate(program.instructions):
        spec = SPECS[ins.opcode]
        if ins.pattern is not None:
            if ins.pattern.shape != shape:
                raise ProgramError(f"instruction {idx} (pattern): bits of shape "
                                   f"{ins.pattern.shape}, not the geometry's {shape}")
            # the blocks its bits touch: any bit over a block's rows, then columns
            rows = np.logical_or.reduce(ins.pattern.reshape(g, bs, g * bs), axis=1)
            bounds.covers[ins.dst] = rows.reshape(g, g, bs).any(axis=2)
        elif spec.bound is None:
            # thresh and logic may set any pixel; gsum sets no register
            bounds.covers.pop(ins.dst, None)
        else:
            new = spec.bound(ins, bounds)
            if ins.mask in bounds.covers:
                # blocks the mask does not touch store nothing new
                new = new * bounds.covers[ins.mask]
            top = int(new.max())
            if top > ANALOG_MAX:
                raise ProgramError(f"instruction {idx} ({ins.opcode}): {ins.opcode} "
                                   f"can reach magnitude {top}, outside int32")
            if top > SAT_MAX and past_sat is None:
                past_sat = idx
            peak = max(peak, top)
            if ins.mask is not None:
                # unmasked pixels keep their old values
                new = np.maximum(new, bounds[ins.dst])
            bounds[ins.dst] = new
    compiled = program._compiled.setdefault(state.geometry, _Compiled())
    compiled.reads = tuple(bounds.starts)
    if len(compiled.proofs) >= MAX_PROOFS:
        compiled.proofs.clear()
    compiled.proofs[tuple(b.tobytes() for b in bounds.starts.values())] = peak, past_sat
    return peak, past_sat


def validate(program: PpaProgram, state: ArrayState) -> int:
    """Reject the whole program before any instruction runs: every pattern's
    shape against the state's geometry, and every stored analog value's
    magnitude, from the state's current values, against int32 and, in
    saturating mode, SAT_MAX. Returns the largest such magnitude."""
    geometry = state.geometry
    compiled = program._compiled.get(geometry)
    proof = None if compiled is None else compiled.proofs.get(tuple(
        _block_max_abs(state.analog[r], geometry).tobytes() for r in compiled.reads))
    peak, past_sat = proof or _prove(program, state)
    if past_sat is not None and state.mode == SATURATING:
        op = program.instructions[past_sat].opcode
        raise ProgramError(f"instruction {past_sat} ({op}): passes the saturating "
                           f"range of {SAT_MAX}; the program can reach "
                           f"magnitude {peak}")
    return peak


# the run of a program, at one geometry, from which it runs its step list
STEPS_FROM_RUN = 3


def execute(program: PpaProgram, state: ArrayState) -> tuple[ArrayState, list[int]]:
    """Run the program; return the mutated state and recorded global sums.

    The state is first widened to the narrowest type that holds every value
    the program can produce.
    """
    state.widen(validate(program, state))
    compiled = program._compiled[state.geometry]
    compiled.runs += 1
    steps = compiled.steps
    if steps is None and compiled.runs < STEPS_FROM_RUN:
        steps = ((SPECS[ins.opcode].run, ins) for ins in program.instructions)
    elif steps is None:
        from .steps import build_steps  # steps imports this module
        steps = compiled.steps = build_steps(program.instructions, state.geometry.shape)
    sums: list[int] = []
    for run, operands in steps:
        result = run(state, operands)
        if result is not None:
            sums.append(result)
    return state, sums


# -- listing format ------------------------------------------------------


def disassemble_instruction(ins: Instruction) -> str:
    fields = [ins.opcode] + [kind.fmt(getattr(ins, name))
                             for name, kind in _LISTED[ins.opcode, ins.logic == "not"]]
    if ins.mask is not None:  # only a masked op takes one
        fields.append(f"mask={ins.mask}")
    return " ".join(fields)


def disassemble(program: PpaProgram) -> str:
    """One instruction per line; empty program yields an empty listing."""
    return "".join(disassemble_instruction(i) + "\n" for i in program.instructions)


def _instruction(op: str, spec: OpSpec, rest: list[str]) -> Instruction:
    """The instruction of an opcode and its operand fields."""
    kw = {}
    if spec.masked and rest and rest[-1].startswith("mask="):
        kw["mask"] = rest.pop()[len("mask="):]
    # only `logic` lists a logic op, second and before the operand it
    # decides on; a `not` second in any other line selects the same fields
    listed = _LISTED[op, rest[1:2] == ["not"]]
    if len(rest) != len(listed):
        raise ProgramError(f"{op} takes {len(listed)} operands, got {len(rest)}")
    kw.update((name, kind.parse(text)) for (name, kind), text in zip(listed, rest))
    return Instruction(op, **kw)


def _parse_line(line: str, op: str, tail: str = "") -> Instruction:
    """The instruction on one comment-free line, split into its opcode and
    the rest. The rest is split only as far as the opcode's fields go, so
    the last field, such as a pattern's 16 KB literal, is not scanned for
    whitespace; whitespace inside it fails that field's check, and the full
    split then raises what it finds first, such as a wrong operand count."""
    spec = SPECS.get(op)
    if spec is None:
        raise ProgramError(f"unknown opcode {op!r}")
    try:
        return _instruction(op, spec, tail.split(None, len(spec.operands) + spec.masked - 1))
    except ValueError:
        _instruction(op, spec, line.split()[1:])
        raise


def parse_listing(text: str) -> PpaProgram:
    """Inverse of disassemble. `#` starts a comment; blank lines ignored.
    Equal lines are parsed once, into one (immutable) instruction."""
    instructions: list[Instruction] = []
    parsed: dict[str, Instruction] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.partition("#")[0].rstrip()
        if line in parsed:
            instructions.append(parsed[line])
        elif head := line.split(None, 1):
            try:
                instructions.append(parsed.setdefault(line, _parse_line(line, *head)))
            except ValueError as e:  # ProgramError among them
                raise ProgramError(f"line {lineno}: {e}") from None
    return PpaProgram(instructions)


# -- cost model ----------------------------------------------------------


@dataclass(frozen=True)
class CostModel:
    """Per-opcode execution time in microseconds plus a fixed overhead,
    checked once and read-only after that: costs is held as a read-only
    copy of the mapping passed in."""

    costs: Mapping[str, float]
    overhead_us: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "costs", MappingProxyType(dict(self.costs)))
        # `not c >= 0` also refuses NaN, which fails every comparison
        if not self.overhead_us >= 0 or any(not c >= 0 for c in self.costs.values()):
            raise CostError("all costs must be >= 0")

    @classmethod
    def from_json(cls, text: str) -> "CostModel":
        """A JSON object of per-opcode costs and an optional `overhead_us`,
        each a finite number >= 0 (not a bool); keys that start with `_`
        are comments."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise CostError(f"cost table is not valid JSON: {e}") from None
        if not isinstance(doc, dict):
            raise CostError(f"cost table must be a JSON object, got {doc!r:.40}")
        costs = {}
        for key, value in doc.items():
            if key.startswith("_"):
                continue
            # NaN fails both bounds; an integer past the largest float is out
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not 0 <= value <= sys.float_info.max):
                raise CostError(f"cost table field {key!r} must be a finite "
                                f"number >= 0, got {value!r:.40}")
            costs[key] = float(value)
        return cls(costs, costs.pop("overhead_us", 0.0))


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
    if math.isinf(latency):
        raise CostError("latency overflows a float: the costs are too large")
    fps = math.inf if latency == 0 else 1e6 / latency
    return TimingReport(counts, latency, fps)
