"""The step list a program runs from its third execute at a geometry.

program.execute builds it once per program and geometry (build_steps) and
keeps it with its proofs. It reads the instructions one at a time, and
each either runs as one step, as it is (a replay: the instruction with its
own SPECS run, as the first two runs take every instruction), or as one of
these:
- an unmasked `shift` or `copy` moves no plane. It records its destination
  as an offset alias of a base register: the base, a row and column
  offset, and the valid rectangle, outside which the shifts filled in 0.
  Shifts of an alias compose into it. An unmasked `sub X Y Y` makes X an
  alias with an empty rectangle, all zero fill, so no pass runs for it;
- a `pattern` runs no step. Its bits are known until a `thresh` or `logic`
  writes its D-register, and they are bound to the register, with those
  of every pattern not yet bound, in one step before a replay that reads
  a D-register they set, and at the end of the program;
- `copy X Z mask=M`, Z an all-zero alias and X not Z, is read as the `sub
  X X X mask=M` it equals: both zero X where M is set and keep it
  elsewhere. With M's bits not known, that `sub` replays;
- a linear step, dst = (dst if it accumulates, else 0) + base * w over the
  span of flat pixels its source's alias covers, base read at the alias's
  offset and w an int8 plane that is 0 outside the rectangle, or None,
  meaning 1, when the rectangle spans whole rows; a write also zeroes dst
  outside the span. With M a mask whose bits are known and Y' a source
  read through its alias (offset 0 when it has none):
  `add X X Y mask=M` (Y not X) accumulates Y' * M, `sub X X Y mask=M`
  accumulates Y' * -M, `neg X X mask=M` writes X' * (1 - 2M), `sub X X X
  mask=M` writes X' * (1 - M), and an unmasked `add X X Y` or `sub X X Y`
  with Y an alias accumulates +-Y'. An accumulate into an all-zero alias
  is a write. A linear step that accumulates into the
  destination of the step just before it, from the same source alias on
  another register's plane, merges into that step by adding the weights,
  while their sum fits in int8: so a conv tap pair `add C C X mask=Rx;
  sub C C X mask=Ry` is one step, C += X' * (Rx - Ry);
- `max X X Y mask=M` (or `max X Y X`), M's bits known, is t = min(Y, hi),
  X = max(X, t), with Y read through its alias: hi holds the type's
  maximum where M is set inside Y's rectangle, 0 where M is set outside it
  and the type's minimum where M is clear, and t outside the rectangle is
  hi itself. hi is built per plane type on that type's first run.
The steps are exact in the planes' wrapping arithmetic for any masks and
plane type.
Every other reader of an alias gets a step that writes the alias out
(materializes it, a linear write) just before it, and three rules keep
every plane ending as the instructions leave it: the aliases that read a
register's plane are materialized before that plane is written, and
before the register becomes an alias itself (as in the swap `copy A B;
copy B A`). The one exception is the alias a step reads through before
it writes the plane: it is left stale if it is dead after the step, which
a backward pass finds (no later instruction reads it before writing all
of its pixels, and every register counts as read at the end), since
nothing reads it again before it is overwritten. Every alias left at the
end of the program is materialized, those that read another register's
plane first. So the default program's 124 instructions run as 39 steps.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .planes import ANALOG_REGS, SHIFT_OFFSETS, ArrayState
from .program import AREG, SPECS, Instruction


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

    def weights(self, plane: np.ndarray | None, shape) -> np.ndarray | None:
        """The int8 weights of a step that reads through this alias, as the
        contiguous span of flat pixels that `flat` names: the plane's inside
        the rectangle, 1 where plane is None, and 0 outside it. None,
        meaning 1, when plane is None and the rectangle spans whole rows."""
        if plane is None and self.c1 - self.c0 == shape[1]:
            return None
        folded = np.zeros(shape, dtype=np.int8)
        rect = self.rect()
        folded[rect] = 1 if plane is None else plane[rect]
        _, span, _ = self.flat(shape[1])
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


# The three step kinds besides a replay, which is an instruction's own SPECS
# run, as runners: run(state, operands) -> global sum or None. They read
# the planes through state.flat, which maps each analog register, and None
# the scratch plane, to a flat view of its plane.


def _run_bind(state: ArrayState, binds) -> None:
    """Bind the pattern bits, read-only bool as every instruction keeps
    them, to their D-registers."""
    state.digital.update(binds)


def _run_linear(state: ArrayState, step) -> None:
    """dst = (dst if accumulating else 0) + source * w over the span, the
    source read at the alias's offset and w 1 where None; a write zeroes
    dst outside the span."""
    dst, base, span, moved, w, accumulate = step
    flat = state.flat
    out, source = flat[dst], flat[base][moved]
    # numpy buffers an overlapping read, so base may be dst
    if accumulate:
        if w is not None:
            source = np.multiply(source, w, out=flat[None][span])
        target = out[span]
        np.add(target, source, out=target)
        return
    if w is None:
        out[span] = source
    else:
        np.multiply(source, w, out=out[span])
    out[:span.start] = 0
    out[span.stop:] = 0


def _run_masked_max(state: ArrayState, step) -> None:
    """dst = max(dst, t), t = min(source, hi) over the span with the source
    read through its alias, and t = hi outside the rectangle, where the
    source reads 0: 0 where the mask is set, the type's minimum, which max
    ignores, where it is clear."""
    dst, base, span, moved, c0, c1, ceilings = step
    hi, flat = ceilings[state.dtype], state.flat
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


def _summed(w1: np.ndarray | None, w2: np.ndarray | None, n: int) -> np.ndarray | None:
    """The int8 sum of two steps' weights over a span of n pixels, None
    meaning 1, or None when the sum does not fit in int8."""
    total = np.zeros(n, dtype=np.int16)
    for w in (w1, w2):
        total += 1 if w is None else w
    summed = total.astype(np.int8)
    return summed if np.array_equal(summed, total) else None


def build_steps(instructions: tuple[Instruction, ...],
                shape) -> list[tuple[Callable, object]]:
    """The program as (run, operands) steps for the runners above, with the
    rules, offset aliases and liveness of the module docstring."""
    h, w = shape
    lives = _live_after(instructions)
    steps: list[tuple[Callable, object]] = []
    aliases: dict[str, _Alias] = {}
    # D-register -> the bits a pattern set, unchanged since; and of those,
    # the ones no step has bound yet
    known: dict[str, np.ndarray] = {}
    pending: dict[str, np.ndarray] = {}

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
        the other registers that read it through an alias. One in `keep`,
        which the step reads through its alias before it writes reg's
        plane, stays an alias unless it is live after the step."""
        for other in [r for r, a in aliases.items() if a.base == reg and r != reg]:
            if other in live or other not in keep:
                materialize(other)

    def materialize(reg: str) -> None:
        release(reg)
        alias = aliases.pop(reg)
        steps.append((_run_linear, (reg, *alias.flat(w), alias.weights(None, shape),
                                    False)))

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

    def linear(dst: str, src: str, plane: np.ndarray | None, accumulate: bool) -> None:
        """dst = (dst if accumulate else 0) + src * plane, src read through
        its alias, plane None meaning 1."""
        if accumulate and not is_zero(dst):
            alias = through(dst, src)
        else:  # nothing to add to: a write
            release(dst)
            alias = source(src)
            aliases.pop(dst, None)
            accumulate = False
        step = (dst, *alias.flat(w))
        weights = alias.weights(plane, shape)
        run, prev = steps[-1] if steps else (None, None)
        if (accumulate and run is _run_linear and prev[:4] == step
                and alias.base != dst):
            span = step[2]
            summed = _summed(prev[4], weights, span.stop - span.start)
            if summed is not None:
                steps[-1] = (_run_linear, (*step, summed, prev[5]))
                return
        steps.append((_run_linear, (*step, weights, accumulate)))

    for i, ins in enumerate(instructions):
        if ins.opcode == "copy" and is_zero(ins.a) and ins.dst != ins.a:
            # X where M is clear and 0 where it is set, as `sub X X X mask=M`
            ins = Instruction("sub", dst=ins.dst, a=ins.dst, b=ins.dst, mask=ins.mask)
        live = lives[i]  # what is live after the instruction a step covers
        op, dst = ins.opcode, ins.dst
        bits = known.get(ins.mask)
        if op == "pattern":
            known[dst] = pending[dst] = ins.pattern
        elif op in ("shift", "copy") and ins.mask is None:
            release(dst)
            alias = source(ins.a)
            if op == "shift":
                dr, dc = SHIFT_OFFSETS[ins.direction]
                alias = alias.shifted(dr * ins.steps, dc * ins.steps, shape)
            aliases[dst] = alias
        elif op == "sub" and ins.a == ins.b and ins.mask is None:
            release(dst)
            aliases[dst] = zero(dst)
        elif op in ("add", "sub") and bits is not None and dst == ins.a != ins.b:
            signs = bits.view(np.int8)
            linear(dst, ins.b, signs if op == "add" else -signs, True)
        elif op in ("add", "sub") and ins.mask is None and dst == ins.a and ins.b in aliases:
            linear(dst, ins.b, None if op == "add" else np.full(shape, -1, np.int8), True)
        elif op == "neg" and bits is not None and dst == ins.a:
            linear(dst, dst, 1 - 2 * bits.view(np.int8), False)
        elif op == "sub" and dst == ins.a == ins.b and bits is not None:
            linear(dst, dst, np.logical_not(bits).view(np.int8), False)
        elif op == "max" and bits is not None and dst in (ins.a, ins.b):
            other = ins.b if ins.a == dst else ins.a
            alias = through(dst, other)
            steps.append((_run_masked_max, (dst, *alias.flat(w), alias.c0, alias.c1,
                                            _Ceilings(bits, alias))))
        else:
            # D-register and analog register names differ, so this finds
            # the pending patterns that the mask or a logic input reads
            if pending.keys() & {ins.mask, ins.a, ins.b}:
                steps.append((_run_bind, tuple(pending.items())))
                pending.clear()
            for reg in _analog_reads(ins):
                read(reg)
            if SPECS[op].bound is not None:  # it writes an analog plane
                release(dst)
                aliases.pop(dst, None)
            elif op in ("thresh", "logic"):
                known.pop(dst, None)
                pending.pop(dst, None)
            steps.append((SPECS[op].run, ins))
    if pending:
        steps.append((_run_bind, tuple(pending.items())))
    # materialize writes the registers that read a plane before that plane
    for reg in list(aliases):
        if reg in aliases:
            materialize(reg)
    return steps
