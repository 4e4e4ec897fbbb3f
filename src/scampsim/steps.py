"""The step list a program runs from its third execute at a geometry.

program.execute builds it once per program and geometry (build_steps) and
keeps it with its proofs. Each step replays one instruction, except where
the list takes fewer passes over the planes:
- an unmasked `shift` or `copy` moves no plane. It records its destination
  as an offset alias of a base register: the base, a row and column
  offset, and the valid rectangle, outside which the shifts filled in 0.
  Shifts of an alias compose into it. An unmasked `sub X Y Y` makes X an
  alias with an empty rectangle, all zero fill, so no pass runs for it;
- a conv tap pair `pattern Rx; add C C X mask=Rx; pattern Ry; sub C C X
  mask=Ry`, with X not C, is C += X * s for the int8 sign plane s = Rx - Ry,
  read through X's alias (offset 0 when X has none), with the rectangle
  folded into s as zeros; C = X * s when C is an all-zero alias;
- `pattern R; neg F F mask=R` is F = base * (1 - 2R) through F's alias, also
  with an int8 plane, so the FC stage's `copy F C` moves nothing;
- an unmasked `add X X Y` or `sub X X Y` with Y an alias adds or subtracts
  the base's pixels at the offset over the rectangle only, and nothing at
  all when the rectangle is empty;
- `copy X Z mask=M`, Z an empty alias, is X *= 1 - M, one pass. The int8
  plane 1 - M is built with the step when M's bits are known, meaning a
  `pattern` set them and no `thresh` or `logic` changed them since, else
  computed from M on each run;
- `max X X Y mask=M` (or `max X Y X`), M's bits known, is t = min(Y, hi),
  X = max(X, t), with Y read through its alias: hi holds the type's
  maximum where M is set inside Y's rectangle, 0 where M is set outside it
  and the type's minimum where M is clear, and t outside the rectangle is
  hi itself. hi is built per plane type on that type's first run.
The rewrites are exact in the planes' wrapping arithmetic for any masks
and plane type, and still bind the D-registers their patterns set.
A backward pass first finds, after each instruction, the analog registers
that a later instruction reads before writing all of their pixels; every
register counts as read at the end of the program. Every other reader of
an alias gets a step that writes the alias out (materializes it) just
before it, and three rules keep every plane ending as the instructions
leave it: the aliases that read a register's plane are materialized
before that plane is written, and before the register becomes an alias
itself (as in the swap `copy A B; copy B A`), but only while they are
live: a dead one is dropped, or left stale when the writing step reads it
through its alias before it writes, since nothing reads it again before
it is overwritten. Every alias left at the end of the program is
materialized, those that read another register's plane first. So the
default program's 124 instructions run as 43 steps.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .planes import ANALOG_REGS, SHIFT_OFFSETS, ArrayState
from .program import AREG, SPECS, Instruction


def _is_tap_pair(plus, add, minus, sub) -> bool:
    """pattern Rx; add C C X mask=Rx; pattern Ry; sub C C X mask=Ry; X not C."""
    return (plus.opcode == minus.opcode == "pattern" and add.opcode == "add"
            and sub.opcode == "sub" and add.mask == plus.dst and sub.mask == minus.dst
            and add.dst == add.a != add.b
            and (sub.dst, sub.a, sub.b) == (add.dst, add.a, add.b))


def _is_sign_flip(pattern, neg) -> bool:
    """pattern R; neg F F mask=R."""
    return (pattern.opcode == "pattern" and neg.opcode == "neg"
            and neg.mask == pattern.dst and neg.dst == neg.a)


class _Alias(NamedTuple):
    """A register whose value is another plane, its base, read at an offset:
    pixel (r, c) holds base(r + dr, c + dc) inside the valid rectangle rows
    r0:r1, columns c0:c1, and 0 outside it, as the zero fill of the shifts
    that made it. The rectangle only ever covers base pixels on the plane;
    an empty one has r0 == r1 and spans every column, so all of it is 0."""

    base: str
    dr: int
    dc: int
    r0: int
    r1: int
    c0: int
    c1: int

    @property
    def empty(self) -> bool:
        return self.r0 == self.r1

    def shifted(self, dr: int, dc: int, shape) -> "_Alias":
        """This alias shifted as `shift` does: (r, c) reads (r + dr, c + dc)."""
        h, w = shape
        r0, r1 = max(self.r0 - dr, 0), min(self.r1 - dr, h)
        c0, c1 = max(self.c0 - dc, 0), min(self.c1 - dc, w)
        if r0 >= r1 or c0 >= c1:  # all zero fill
            return _Alias(self.base, 0, 0, 0, 0, 0, w)
        return _Alias(self.base, self.dr + dr, self.dc + dc, r0, r1, c0, c1)

    def flat(self, w: int) -> tuple[str, slice, slice]:
        """(base, span, moved): the flat pixels `span` cover the rectangle
        and read the base's flat pixels `moved`, the same span at the
        offset; the pixels of the span outside the rectangle are the
        columns left and right of it."""
        if self.empty:
            return self.base, slice(0, 0), slice(0, 0)
        lo, hi = self.r0 * w + self.c0, (self.r1 - 1) * w + self.c1
        off = self.dr * w + self.dc
        return self.base, slice(lo, hi), slice(lo + off, hi + off)

    def rect(self) -> tuple[slice, slice]:
        """The rectangle as 2-D slices."""
        return slice(self.r0, self.r1), slice(self.c0, self.c1)

    def weights(self, plane: np.ndarray) -> np.ndarray:
        """An int8 plane of weights, zero outside the rectangle, as the
        contiguous span of flat pixels that `flat` names."""
        _, span, _ = self.flat(plane.shape[1])
        folded = np.zeros_like(plane)
        rect = self.rect()
        folded[rect] = plane[rect]
        return folded.reshape(-1)[span].copy()


class _Ceilings(dict):
    """The `hi` planes of a masked max, one per plane type, each built on
    that type's first run: the type's maximum where the mask is set inside
    the source's rectangle, 0 where it is set outside it, and the type's
    minimum where it is clear."""

    def __init__(self, bits: np.ndarray, alias: _Alias):
        super().__init__()
        self.bits, self.alias = bits, alias

    def __missing__(self, dtype: np.dtype) -> np.ndarray:
        info = np.iinfo(dtype)
        hi = np.full(self.bits.shape, info.min, dtype=dtype)
        hi[self.bits] = 0
        rect = self.alias.rect()
        hi[rect][self.bits[rect]] = info.max
        self[dtype] = hi
        return hi


# Step runners: run(state, flat, operands) -> global sum or None, where flat
# maps each analog register, and None the scratch plane, to a flat view of
# its plane, made once per run.


def _replay(state: ArrayState, flat, ins: Instruction):
    return SPECS[ins.opcode].run(state, ins)


def _zero_fill(out: np.ndarray, span: slice) -> None:
    """Zero a flat plane outside the span."""
    if span.start:
        out[:span.start] = 0
    if span.stop < len(out):
        out[span.stop:] = 0


def _run_move(state: ArrayState, flat, step) -> None:
    """Write a register from its alias: the base's pixels at the offset inside
    the rectangle, 0 outside it."""
    dst, base, span, moved, c0, c1 = step
    out = flat[dst]
    # numpy buffers an overlapping move, so base may be dst
    out[span] = flat[base][moved]
    _zero_fill(out, span)
    plane = state.analog[dst]
    if c0:
        plane[:, :c0] = 0
    if c1 < plane.shape[1]:
        plane[:, c1:] = 0


def _run_tap_pair(state: ArrayState, flat, step) -> None:
    """acc += source * signs over the span, the source read through its
    alias and signs 0 outside the alias's rectangle; then bind the
    patterns."""
    acc, base, span, moved, signs, binds = step
    t = flat[None][span]
    np.multiply(flat[base][moved], signs, out=t)
    out = flat[acc][span]
    np.add(out, t, out=out)
    for reg, bits in binds:
        state.write_pattern(reg, bits)


def _run_signed(state: ArrayState, flat, step) -> None:
    """dst = source * signs, the source read through its alias and signs 0
    outside its rectangle, and 0 outside the span; then bind the patterns."""
    dst, base, span, moved, signs, binds = step
    out = flat[dst]
    np.multiply(flat[base][moved], signs, out=out[span])
    _zero_fill(out, span)
    for reg, bits in binds:
        state.write_pattern(reg, bits)


def _run_add_moved(state: ArrayState, flat, step) -> None:
    """dst = ufunc(dst, source) over the span, the source read through its
    alias: as it is when the rectangle spans whole rows, else moved into
    the scratch plane with 0 in the columns left and right of it."""
    ufunc, dst, base, span, moved, c0, c1 = step
    source = flat[base][moved]
    plane = state._scratch
    if c0 or c1 < plane.shape[1]:
        t = flat[None]
        t[span] = source
        plane[:, :c0] = 0
        plane[:, c1:] = 0
        source = t[span]
    out = flat[dst][span]
    # numpy buffers an overlapping read, so base may be dst
    ufunc(out, source, out=out)


def _run_clear(state: ArrayState, flat, step) -> None:
    """dst *= 1 - M: 0 where the mask is set. `keep` is the int8 plane
    1 - M when the step was built with M's bits, else None, and 1 - M is
    computed into the scratch plane's first bytes."""
    dst, mask, keep = step
    out = flat[dst]
    if keep is None:
        keep = flat[None].view(np.int8)[:len(out)]
        np.subtract(1, state.digital[mask].reshape(-1).view(np.int8), out=keep)
    np.multiply(out, keep, out=out)


def _run_masked_max(state: ArrayState, flat, step) -> None:
    """dst = max(dst, t), t = min(source, hi) over the span with the source
    read through its alias, and t = hi outside the rectangle, where the
    source reads 0: 0 where the mask is set, the type's minimum, which max
    ignores, where it is clear."""
    dst, base, span, moved, c0, c1, ceilings = step
    hi = ceilings[state.dtype]
    t, flat_hi = flat[None], hi.reshape(-1)
    np.minimum(flat[base][moved], flat_hi[span], out=t[span])
    t[:span.start] = flat_hi[:span.start]
    t[span.stop:] = flat_hi[span.stop:]
    plane = state._scratch
    if c0:
        plane[:, :c0] = hi[:, :c0]
    if c1 < plane.shape[1]:
        plane[:, c1:] = hi[:, c1:]
    out = flat[dst]
    np.maximum(out, t, out=out)


def _analog_reads(ins: Instruction) -> list[str]:
    """The analog registers an instruction reads: its inputs, and its
    destination when a mask keeps some of its old pixels. `sub x a a` is 0
    whatever a holds, so it does not read a."""
    reads = [] if ins.opcode == "sub" and ins.a == ins.b else [
        getattr(ins, f) for f, kind in SPECS[ins.opcode].operands
        if kind is AREG and f != "dst"]
    return reads + [ins.dst] if ins.mask is not None else reads


def _live_after(instructions: tuple[Instruction, ...]) -> list[frozenset[str]]:
    """Per instruction, the analog registers whose value after it a later
    instruction reads before writing all of its pixels; every register
    counts as read at the end of the program."""
    live = set(ANALOG_REGS)
    after = []
    for ins in reversed(instructions):
        after.append(frozenset(live))
        if SPECS[ins.opcode].bound is not None and ins.mask is None:
            live.discard(ins.dst)
        live.update(_analog_reads(ins))
    return after[::-1]


def build_steps(instructions: tuple[Instruction, ...],
                shape) -> list[tuple[Callable, object]]:
    """The program as (run, operands) steps for the runners above, with the
    rewrites, offset aliases and liveness of the module docstring."""
    h, w = shape
    lives = _live_after(instructions)
    steps: list[tuple[Callable, object]] = []
    aliases: dict[str, _Alias] = {}
    known: dict[str, np.ndarray] = {}  # D-register -> the bits a pattern set
    # of the instructions a step covers: what is live after them, what they read
    live = reads = frozenset()

    def plain(reg: str) -> _Alias:
        return _Alias(reg, 0, 0, 0, h, 0, w)

    def source(reg: str) -> _Alias:
        return aliases.get(reg) or plain(reg)

    def zero(reg: str) -> _Alias:
        return _Alias(reg, 0, 0, 0, 0, 0, w)

    def is_zero(reg: str) -> bool:
        return reg in aliases and aliases[reg].empty

    def release(reg: str, keep=()) -> None:
        """Before reg's plane is written or reg becomes an alias: materialize
        the other registers that read it through an alias and are live or
        read here, and drop the rest. Those in `keep`, which the step reads
        through their aliases before it writes reg's plane, stay aliases
        unless they are live after it."""
        for other in [r for r, a in aliases.items() if a.base == reg and r != reg]:
            if other in live or (other in reads and other not in keep):
                materialize(other)
            elif other not in keep:
                del aliases[other]

    def materialize(reg: str) -> None:
        release(reg)
        alias = aliases.pop(reg)
        steps.append((_run_move, (reg, *alias.flat(w), alias.c0, alias.c1)))

    def read(reg: str) -> None:
        if reg in aliases:
            materialize(reg)

    def through(dst: str, src: str) -> _Alias:
        """The alias of src for a step that reads dst as it is and src
        through the alias, then writes dst. If the alias reads dst's plane
        and src is dead after the step, it is left as it is, stale: nothing
        reads src again before overwriting it."""
        read(dst)
        release(dst, keep=(src,))
        return source(src)

    i = 0
    while i < len(instructions):
        window = instructions[i:i + 4]
        ins = window[0]
        tap = len(window) == 4 and _is_tap_pair(*window)
        flip = not tap and len(window) >= 2 and _is_sign_flip(*window[:2])
        size = 4 if tap else 2 if flip else 1
        live = lives[i + size - 1]
        reads = frozenset(r for covered in window[:size] for r in _analog_reads(covered))
        i += size
        masked_with = known.get(ins.mask)
        if tap:
            plus, add, minus, _ = window
            binds = ((plus.dst, plus.pattern), (minus.dst, minus.pattern))
            signs = plus.pattern.view(np.int8) - minus.pattern.view(np.int8)
            if is_zero(add.dst):  # nothing to add to: write X * s
                release(add.dst)
                del aliases[add.dst]
                alias = source(add.b)
                run = _run_signed
            else:
                alias = through(add.dst, add.b)
                run = _run_tap_pair
            steps.append((run, (add.dst, *alias.flat(w), alias.weights(signs), binds)))
            known.update(binds)
        elif flip:
            pattern, neg = window[:2]
            release(neg.dst)
            alias = source(neg.dst)
            aliases.pop(neg.dst, None)
            signs = alias.weights(1 - 2 * pattern.pattern.view(np.int8))
            steps.append((_run_signed, (neg.dst, *alias.flat(w), signs,
                                        ((pattern.dst, pattern.pattern),))))
            known[pattern.dst] = pattern.pattern
        elif ins.opcode in ("shift", "copy") and ins.mask is None:
            release(ins.dst)
            alias = source(ins.a)
            if ins.opcode == "shift":
                dr, dc = SHIFT_OFFSETS[ins.direction]
                alias = alias.shifted(dr * ins.steps, dc * ins.steps, shape)
            if alias.empty:  # zero whatever its base holds
                aliases[ins.dst] = zero(ins.dst)
            elif alias == plain(ins.dst):  # its own plane, as it is
                aliases.pop(ins.dst, None)
            else:
                aliases[ins.dst] = alias
        elif ins.opcode == "sub" and ins.a == ins.b and ins.mask is None:
            release(ins.dst)
            aliases[ins.dst] = zero(ins.dst)
        elif (ins.opcode in ("add", "sub") and ins.mask is None and ins.a == ins.dst
              and ins.b in aliases):
            if not is_zero(ins.b):  # adding 0 leaves dst as it is, alias or not
                alias = through(ins.dst, ins.b)
                ufunc = np.add if ins.opcode == "add" else np.subtract
                steps.append((_run_add_moved, (ufunc, ins.dst, *alias.flat(w),
                                               alias.c0, alias.c1)))
        elif ins.opcode == "copy" and is_zero(ins.a) and ins.dst != ins.a:
            read(ins.dst)
            release(ins.dst)
            keep = (None if masked_with is None
                    else np.logical_not(masked_with).view(np.int8).reshape(-1))
            steps.append((_run_clear, (ins.dst, ins.mask, keep)))
        elif (ins.opcode == "max" and masked_with is not None
              and ins.dst in (ins.a, ins.b)):
            other = ins.b if ins.a == ins.dst else ins.a
            alias = through(ins.dst, other)
            steps.append((_run_masked_max, (ins.dst, *alias.flat(w), alias.c0, alias.c1,
                                            _Ceilings(masked_with, alias))))
        else:
            for reg in _analog_reads(ins):
                read(reg)
            if SPECS[ins.opcode].bound is not None:  # it writes an analog plane
                release(ins.dst)
                aliases.pop(ins.dst, None)
            elif ins.opcode == "pattern":
                known[ins.dst] = ins.pattern
            elif ins.opcode in ("thresh", "logic"):
                known.pop(ins.dst, None)
            steps.append((_replay, ins))
    # materialize writes the registers that read a plane before that plane
    live = reads = frozenset(ANALOG_REGS)
    for reg in list(aliases):
        if reg in aliases:
            materialize(reg)
    return steps
