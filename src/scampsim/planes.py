"""The pixel array's register file and its plane-parallel operations.

ArrayState holds one fixed register file as plain arrays of one geometry:
the analog registers A-F and PIX as integer planes of one type, and the
1-bit registers R1-R12 and the FLAG plane as bool planes. The analog planes
start as int8 and `widen()` moves them up the ladder int8 -> int16 -> int32
once a program needs the room; they never narrow again. Nothing clamps:
saturating mode models analog registers that hold magnitudes up to SAT_MAX,
and program.validate refuses it any program that could pass them.
The state exposes the primitive operations every higher layer composes:
elementwise arithmetic with optional digital masking, neighbour shifts,
thresholding, bit logic, pattern writes and the global summation.
The ops trust their operands, which a program.Instruction checked and, for
a pattern, froze as read-only bool bits when it was built (program.validate
checks each pattern's shape against the state), and read the `analog` and
`digital` dicts directly.

Every analog operation writes into its destination plane in place; a masked
write computes into one scratch plane owned by the state, so no analog
operation allocates a result plane. A masked add or sub that accumulates
into one of its own operands (dst = dst +/- other) takes two passes,
dst +/-= other * m; every other masked write blends its scratch result in
as dst += m * (t - dst). Both multiply by the mask viewed as int8, which
costs no copy and, on int8 planes, no cast. A program's step list
computes in the same scratch plane. The global sum is exact: it adds an
int8 plane as int16 partial sums first, then adds in int32 when the plane's
type and pixel count alone make that exact, else in int64; the state adds
its noise to it. Integer arithmetic wraps on overflow, and so does
numpy's assignment of a wider value into a plane, so nothing here checks
magnitudes per operation: program.execute proves how large a whole
program's stored values can get, and first widens the state to the
narrowest type that holds them. A caller that writes values beyond int8
into a plane directly must call `widen()` first.

D-registers are read-only arrays that operations rebind rather than write
into: `pattern` binds the pattern bits themselves, which nothing can write,
so nothing is copied; `thresh` and `logic` bind the fresh result of their
ufunc. As with `widen()`, a reference taken to a D-register before an
operation does not see its result; read `digital[name]` afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PlaneGeometry

IDEAL = "ideal"
SATURATING = "saturating"

# the largest magnitude a saturating state's analog registers hold
SAT_MAX = 127

# the analog planes' types, narrowest first: planes start on the first and
# only ever move up; a value beyond the last has no plane that can hold it
DTYPES = (np.dtype(np.int8), np.dtype(np.int16), np.dtype(np.int32))
ANALOG_MIN = int(np.iinfo(DTYPES[-1]).min)
ANALOG_MAX = int(np.iinfo(DTYPES[-1]).max)

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

# rows of the int16 partial sums of an int8 global sum: at most 256 keeps
# them exact, and 64 was fastest at 256x256
PARTIAL_ROWS = 64


class PlaneError(ValueError):
    """Unknown analog mode or a bad noise sigma or seed."""


@dataclass(frozen=True)
class NoiseModel:
    """Additive noise applied at the global summation only.

    sigma 0 keeps every operation bit-deterministic and draws nothing; any
    other sigma adds an integer-rounded N(0, sigma^2) draw to each global
    sum. The RNG stream, seeded with `seed`, lives in the owning ArrayState
    so a fixed seed gives a fixed sequence of draws regardless of
    threading elsewhere.
    """

    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.sigma) or self.sigma < 0:
            raise PlaneError(f"noise sigma must be a finite number >= 0, "
                             f"got {self.sigma!r}")
        # checked here, since a seed reaches numpy only at the first draw
        if type(self.seed) is not int or self.seed < 0:
            raise PlaneError(f"noise seed must be an integer >= 0, got {self.seed!r}")


def global_sum(values: np.ndarray) -> int:
    """The exact sum of all pixels of an integer plane."""
    # int32 is exact, and faster, when even a plane of the type's minimum
    # sums within int32; every partial sum is then in range too
    wide = np.int32 if values.size << (8 * values.itemsize - 1) <= 1 << 31 else np.int64
    if values.dtype == np.int8:
        # faster still: int16 column sums of the plane as PARTIAL_ROWS rows
        # (or fewer), exact since 256 int8 values lie in [-32768, 32512]
        values = values.reshape(math.gcd(values.size, PARTIAL_ROWS), -1).sum(
            axis=0, dtype=np.int16)
    return int(values.sum(dtype=wide))


def read_only(plane: np.ndarray) -> np.ndarray:
    """The plane itself, made read-only."""
    plane.flags.writeable = False
    return plane


def dtype_holding(peak: int) -> np.dtype:
    """The narrowest plane type that holds every value of magnitude <= peak."""
    for dtype in DTYPES:
        if peak <= np.iinfo(dtype).max:
            return dtype
    raise PlaneError(f"no plane type holds magnitude {peak}")


class ArrayState:
    """The register file of one array: integer analog and bool digital planes.

    `analog` and `digital` map each register name to its plane, a bare
    array of the geometry's shape. The analog planes are int8 until
    `widen()` moves them up to int16 or int32; a direct write of a value
    beyond the planes' type must come after `widen()`, since numpy wraps it
    silently. The state-wide `mode` changes no op (see the module
    docstring). The digital planes are read-only: every op that sets a
    D-register binds a new array to it, so `digital[name]` after the op
    reads the result and a plane taken before it keeps the old bits.
    Mutated by exactly one logical thread at a time; the noise RNG stream is
    owned by the state, built on the first global sum that draws noise, so
    concurrent states never perturb each other.
    """

    def __init__(self, geometry: PlaneGeometry | None = None,
                 mode: str = IDEAL,
                 noise: NoiseModel | None = None):
        if mode not in (IDEAL, SATURATING):
            raise PlaneError(f"unknown analog mode {mode!r}")
        self.geometry = geometry or PlaneGeometry()
        self.mode = mode
        self.noise = noise or NoiseModel()
        shape = self.geometry.shape
        # one zeroed block backs every analog plane plus the scratch plane
        # that masked writes compute into; one allocation is cheaper than
        # clearing eight planes one by one
        self._bind(np.zeros((len(ANALOG_REGS) + 1, *shape), dtype=DTYPES[0]))
        # ops rebind D-registers instead of writing into them, so all of
        # them can start on one shared all-False plane
        clear = read_only(np.zeros(shape, dtype=bool))
        self.digital: dict[str, np.ndarray] = dict.fromkeys(DIGITAL_REGS, clear)
        self.rng: np.random.Generator | None = None

    def _bind(self, block: np.ndarray):
        self._block = block
        self.analog: dict[str, np.ndarray] = dict(zip(ANALOG_REGS, block))
        self._scratch = block[-1]
        # the same planes as flat views, the scratch plane's under None
        self.flat = dict(zip(ANALOG_REGS + (None,), block.reshape(len(block), -1)))

    @property
    def dtype(self) -> np.dtype:
        """The analog planes' integer type, one of DTYPES."""
        return self._block.dtype

    def widen(self, to: np.dtype | int = DTYPES[-1]):
        """Make every analog plane at least as wide as `to`, a type of DTYPES
        or a magnitude its planes must hold, keeping their values. A wider
        state stays as it is; otherwise the planes are new arrays, so views
        taken before do not see later writes."""
        dtype = (dtype_holding(to) if isinstance(to, (int, np.integer))
                 else np.dtype(to))
        if dtype.itemsize > self.dtype.itemsize:
            self._bind(self._block.astype(dtype))

    def _write(self, ufunc, dst: str, srcs: tuple[str, ...], mask: str | None):
        """dst = ufunc(*srcs) where the mask is set, in place.

        Unmasked, the ufunc writes straight into dst. Masked, it writes into
        the scratch plane t, which blends in as dst += m * (t - dst): exact
        in the planes' wrapping arithmetic even where t - dst itself wraps.
        """
        out = self.analog[dst]
        args = [self.analog[s] for s in srcs]
        if mask is None:
            ufunc(*args, out=out)
            return
        m = self.digital[mask].view(np.int8)
        t = self._scratch
        ufunc(*args, out=t)
        t -= out
        t *= m
        out += t

    def accumulate(self, ufunc, dst: str, other: str, mask: str):
        """dst = ufunc(dst, other * m) in two passes, t = other * m, then
        dst = ufunc(dst, t), for m the mask viewed as int8.

        Exact in the planes' wrapping arithmetic, like the blend, since the
        bound pass bounds the stored result.
        """
        out = self.analog[dst]
        t = self._scratch
        np.multiply(self.analog[other], self.digital[mask].view(np.int8), out=t)
        ufunc(out, t, out=out)

    # -- analog ops ------------------------------------------------------

    def add(self, dst: str, a: str, b: str, mask: str | None = None):
        if mask is not None and dst in (a, b):
            self.accumulate(np.add, dst, b if dst == a else a, mask)
        else:
            self._write(np.add, dst, (a, b), mask)

    def sub(self, dst: str, a: str, b: str, mask: str | None = None):
        if mask is not None and dst == a:
            self.accumulate(np.subtract, dst, b, mask)
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
        out = self.analog[dst]
        dr, dc = SHIFT_OFFSETS[direction]
        dr *= steps
        dc *= steps
        h, w = self.geometry.shape
        if abs(dr) >= h or abs(dc) >= w:
            out[...] = 0
            return
        # planes are row-major, so the shift is one move of the flat plane
        # by `off` pixels; numpy buffers an overlapping move, so it is right
        # when dst is src
        off = dr * w + dc
        n = h * w
        flat = out.reshape(-1)
        moved = self.analog[src].reshape(-1)
        if off >= 0:
            flat[:n - off] = moved[off:]
            flat[n - off:] = 0
        else:
            flat[-off:] = moved[:n + off]
            flat[:-off] = 0
        # the pixels the move carried across a row edge read zero instead
        if dc > 0:
            out[:, w - dc:] = 0
        elif dc < 0:
            out[:, :-dc] = 0

    def threshold_into(self, dst: str, src: str, t: int):
        self.digital[dst] = read_only(np.greater(self.analog[src], t))

    def global_sum_of(self, src: str) -> int:
        """The global sum of src plus, when the noise sigma is not 0, an
        integer-rounded N(0, sigma^2) draw from the state's own stream."""
        total = global_sum(self.analog[src])
        if self.noise.sigma == 0:
            return total
        if self.rng is None:
            self.rng = np.random.default_rng(self.noise.seed)
        return total + int(round(self.rng.normal(0.0, self.noise.sigma)))

    # -- digital ops -----------------------------------------------------

    def dreg_logic(self, dst: str, op: str, a: str, b: str | None = None):
        av = self.digital[a]
        bits = np.logical_not(av) if op == "not" else LOGIC_UFUNCS[op](av, self.digital[b])
        self.digital[dst] = read_only(bits)

    def write_pattern(self, dst: str, pattern: np.ndarray):
        """Bind `pattern`, read-only bool bits of the geometry's shape as an
        Instruction keeps them, to dst."""
        self.digital[dst] = pattern

