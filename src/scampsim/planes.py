"""The pixel array's register file and its plane-parallel operations.

ArrayState holds one fixed register file as plain arrays of one geometry:
the analog registers A-F and PIX as int16 planes, and the 1-bit registers
R1-R12 and the FLAG plane as bool planes. `widen()` turns the analog planes
into int32 once a program needs the room; they never narrow again. Ideal
mode never clamps; saturating mode clamps every analog write to the one
8-bit-like range [SAT_MIN, SAT_MAX].
The state exposes the primitive operations every higher layer composes:
elementwise arithmetic with optional digital masking, neighbour shifts,
thresholding, bit logic, pattern writes and the global summation.
The ops trust their operands, which a program.Instruction checked when it
was built (and program.validate checked each pattern's shape against the
state); only `areg` and `dreg` reject an unknown register name.

Every analog operation writes into its destination plane in place; a masked
write computes into one scratch plane owned by the state, so no analog
operation allocates a result plane. In ideal mode a masked add or sub that
accumulates into one of its own operands (dst = dst +/- other) takes two
passes, dst +/-= other * m; every other masked write blends its scratch
result in as dst += m * (t - dst). Integer arithmetic wraps on overflow,
and so does numpy's assignment of a wider value into a plane, so nothing
here checks magnitudes per operation: program.execute proves how large a
whole program's intermediates can get before it runs, and widens the state
first when int16 cannot hold them. A caller that writes values beyond int16
into a plane directly must call `widen()` first.

D-registers are read-only arrays that operations rebind rather than write
into: `pattern` binds the pattern bits themselves (a program's patterns are
read-only, so nothing is copied), `thresh` and `logic` bind the fresh result
of their ufunc. As with `widen()`, a reference taken to a D-register before
an operation does not see its result; read it through `dreg()` afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PlaneGeometry

IDEAL = "ideal"
SATURATING = "saturating"

SAT_MIN = -128
SAT_MAX = 127

# analog planes start narrow and widen once; a value beyond the wide type
# has no plane that can hold it
NARROW_DTYPE = np.int16
WIDE_DTYPE = np.int32
ANALOG_MIN = int(np.iinfo(WIDE_DTYPE).min)
ANALOG_MAX = int(np.iinfo(WIDE_DTYPE).max)

ANALOG_REGS = ("A", "B", "C", "D", "E", "F", "PIX")
# FLAG is the conditional-execution flag, addressable like any mask plane
DIGITAL_REGS = tuple(f"R{i}" for i in range(1, 13)) + ("FLAG",)

# Unit source offsets: shifting moves content toward `direction`, so the
# destination pixel reads from the opposite neighbour.
SHIFT_OFFSETS = {
    "N": (1, 0),
    "S": (-1, 0),
    "E": (0, -1),
    "W": (0, 1),
}

LOGIC_UFUNCS = {"and": np.logical_and, "or": np.logical_or, "xor": np.logical_xor}


class RegisterError(KeyError):
    """Unknown register name."""


class PlaneError(ValueError):
    """Unknown analog mode or noise model."""


@dataclass
class NoiseModel:
    """Additive noise applied at the global summation only.

    kind="none" keeps every operation bit-deterministic; kind="gaussian"
    adds an integer-rounded N(0, sigma^2) draw to each global sum. The RNG
    stream lives in the owning ArrayState so a fixed seed gives a fixed
    sequence of draws regardless of threading elsewhere.
    """

    kind: str = "none"
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "gaussian"):
            raise PlaneError(f"unknown noise kind {self.kind!r}")
        if self.sigma < 0:
            raise PlaneError("noise sigma must be >= 0")

    @property
    def draws(self) -> bool:
        """Whether a global sum draws from the RNG stream at all."""
        return self.kind != "none" and self.sigma != 0

    def make_rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


def global_sum(values: np.ndarray, noise: NoiseModel | None = None,
               rng: np.random.Generator | None = None) -> int:
    """Sum of all pixels, with optional integer-rounded gaussian error.

    When `rng` is omitted a fresh generator is seeded from the noise model,
    making a standalone call reproducible; callers holding state (the
    program executor) pass their own stream.
    """
    exact = int(values.sum(dtype=np.int64))
    if noise is None or not noise.draws:
        return exact
    if rng is None:
        rng = noise.make_rng()
    return exact + int(round(rng.normal(0.0, noise.sigma)))


def _read_only(bits: np.ndarray) -> np.ndarray:
    bits.flags.writeable = False
    return bits


class ArrayState:
    """The register file of one array: int16 analog and bool digital planes.

    `analog` and `digital` map each register name to its plane, a bare
    array of the geometry's shape. The analog planes are int16 until
    `widen()` makes them int32; a direct write of a value beyond int16 must
    come after `widen()`, since numpy wraps it silently. One state-wide
    `mode` decides the clamp:
    in saturating mode every analog write clamps to [SAT_MIN, SAT_MAX] and
    `limit` is the largest magnitude a plane can hold; in ideal mode `limit`
    is None. The digital planes are read-only: every op that sets a
    D-register binds a new array to it, so `dreg()` after the op reads the
    result and a plane taken before it keeps the old bits. Mutated by exactly
    one logical thread at a time; the noise RNG stream is owned by the state,
    built on the first global sum that draws noise, so concurrent states
    never perturb each other.
    """

    def __init__(self, geometry: PlaneGeometry | None = None,
                 mode: str = IDEAL,
                 noise: NoiseModel | None = None):
        if mode not in (IDEAL, SATURATING):
            raise PlaneError(f"unknown analog mode {mode!r}")
        self.geometry = geometry or PlaneGeometry()
        self.mode = mode
        self.limit = max(-SAT_MIN, SAT_MAX) if mode == SATURATING else None
        self.noise = noise or NoiseModel()
        shape = self.geometry.shape
        # one zeroed block backs every analog plane plus the scratch plane
        # that masked writes compute into; one allocation is cheaper than
        # clearing eight planes one by one
        self._bind(np.zeros((len(ANALOG_REGS) + 1, *shape), dtype=NARROW_DTYPE))
        # ops rebind D-registers instead of writing into them, so all of
        # them can start on one shared all-False plane
        clear = _read_only(np.zeros(shape, dtype=bool))
        self.digital: dict[str, np.ndarray] = dict.fromkeys(DIGITAL_REGS, clear)
        self.rng: np.random.Generator | None = None

    def _bind(self, block: np.ndarray):
        self._block = block
        self.analog: dict[str, np.ndarray] = dict(zip(ANALOG_REGS, block))
        self._scratch = block[-1]

    @property
    def dtype(self) -> np.dtype:
        """The analog planes' integer type: int16, or int32 once widened."""
        return self._block.dtype

    def widen(self):
        """Make every analog plane int32, keeping its values. The planes are
        new arrays, so views taken before do not see later writes."""
        if self.dtype != WIDE_DTYPE:
            self._bind(self._block.astype(WIDE_DTYPE))

    # -- register access -------------------------------------------------

    def areg(self, name: str) -> np.ndarray:
        try:
            return self.analog[name]
        except KeyError:
            raise RegisterError(f"unknown analog register {name!r}") from None

    def dreg(self, name: str) -> np.ndarray:
        try:
            return self.digital[name]
        except KeyError:
            raise RegisterError(f"unknown digital register {name!r}") from None

    def saturate(self, values: np.ndarray):
        """Clamp `values` in place to the saturating range; no-op in ideal mode."""
        if self.limit is not None:
            np.clip(values, SAT_MIN, SAT_MAX, out=values)

    def _write(self, ufunc, dst: str, srcs: tuple[str, ...], mask: str | None):
        """dst = clamp(ufunc(*srcs)) where the mask is set, in place.

        Unmasked, the ufunc writes straight into dst. Masked, it writes into
        the scratch plane t, which blends in as dst += m * (t - dst): exact
        in the planes' wrapping arithmetic even where t - dst itself wraps.
        """
        out = self.areg(dst)
        args = [self.areg(s) for s in srcs]
        if mask is None:
            ufunc(*args, out=out)
            self.saturate(out)
            return
        m = self.dreg(mask)
        t = self._scratch
        ufunc(*args, out=t)
        self.saturate(t)
        t -= out
        t *= m
        out += t

    def _accumulate(self, ufunc, dst: str, other: str, mask: str):
        """dst = ufunc(dst, other) where the mask is set, in two passes:
        t = other * m, then dst = ufunc(dst, t).

        Exact in the planes' wrapping arithmetic, like the blend, since the
        bound pass bounds the stored result. Ideal mode only: a clamp after
        accumulating would also clamp an unmasked pixel that holds a value
        out of range, which the blend keeps.
        """
        out = self.areg(dst)
        t = self._scratch
        np.multiply(self.areg(other), self.dreg(mask), out=t)
        ufunc(out, t, out=out)

    # -- analog ops ------------------------------------------------------

    def add(self, dst: str, a: str, b: str, mask: str | None = None):
        if mask is not None and self.limit is None and dst in (a, b):
            self._accumulate(np.add, dst, b if dst == a else a, mask)
        else:
            self._write(np.add, dst, (a, b), mask)

    def sub(self, dst: str, a: str, b: str, mask: str | None = None):
        if mask is not None and self.limit is None and dst == a:
            self._accumulate(np.subtract, dst, b, mask)
        else:
            self._write(np.subtract, dst, (a, b), mask)

    def neg(self, dst: str, a: str, mask: str | None = None):
        self._write(np.negative, dst, (a,), mask)

    def copy(self, dst: str, a: str, mask: str | None = None):
        self._write(np.positive, dst, (a,), mask)

    def max_combine(self, dst: str, a: str, b: str, mask: str | None = None):
        self._write(np.maximum, dst, (a, b), mask)

    def shift(self, dst: str, src: str, direction: str, steps: int):
        """dst(r,c) = src(r + steps*dr, c + steps*dc); zeros enter at edges.

        Shifts cross block boundaries: the neighbour network is a property of
        the physical array, not of the logical block tiling. dst may be src.
        """
        src_vals = self.areg(src)
        out = self.areg(dst)
        dr, dc = SHIFT_OFFSETS[direction]
        dr *= steps
        dc *= steps
        h, w = self.geometry.shape
        # rows r0:r1 and cols c0:c1 of dst have a source pixel; either range
        # is empty when the shift moves everything off the plane
        r0, r1 = min(h, max(0, -dr)), max(0, min(h, h - dr))
        c0, c1 = min(w, max(0, -dc)), max(0, min(w, w - dc))
        # numpy buffers an overlapping copy, so the move is right when dst is src
        out[r0:r1, c0:c1] = src_vals[r0 + dr:r1 + dr, c0 + dc:c1 + dc]
        out[:r0] = 0
        out[r1:] = 0
        out[:, :c0] = 0
        out[:, c1:] = 0
        self.saturate(out)

    def threshold_into(self, dst: str, src: str, t: int):
        self.digital[dst] = _read_only(np.greater(self.areg(src), t))

    def global_sum_of(self, src: str) -> int:
        if self.rng is None and self.noise.draws:
            self.rng = self.noise.make_rng()
        return global_sum(self.areg(src), self.noise, self.rng)

    # -- digital ops -----------------------------------------------------

    def dreg_logic(self, dst: str, op: str, a: str, b: str | None = None):
        av = self.dreg(a)
        bits = np.logical_not(av) if op == "not" else LOGIC_UFUNCS[op](av, self.dreg(b))
        self.digital[dst] = _read_only(bits)

    def write_pattern(self, dst: str, pattern: np.ndarray):
        """Bind `pattern`, 0/1 bits of the geometry's shape, to dst: itself
        if it is already read-only bool, else a read-only bool copy, so later
        writes to it cannot reach dst."""
        if pattern.dtype != bool or pattern.flags.writeable:
            pattern = _read_only(pattern.astype(bool))
        self.digital[dst] = pattern

    # -- snapshots -------------------------------------------------------

    def snapshot(self) -> dict:
        """Deep copy of all plane contents, for bit-identity checks."""
        return {
            "analog": {n: p.copy() for n, p in self.analog.items()},
            "digital": {n: p.copy() for n, p in self.digital.items()},
        }

    def equals_snapshot(self, snap: dict) -> bool:
        return (
            all(np.array_equal(self.analog[n], v)
                for n, v in snap["analog"].items())
            and all(np.array_equal(self.digital[n], v)
                    for n, v in snap["digital"].items())
        )
