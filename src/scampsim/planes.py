"""The pixel array's register file and its plane-parallel operations.

ArrayState holds one fixed register file as plain arrays of one geometry:
the analog registers A-F and PIX as int32 planes, and the 1-bit registers
R1-R12 and the FLAG plane as bool planes. Ideal mode never clamps; saturating
mode clamps every analog write to the one 8-bit-like range [SAT_MIN, SAT_MAX].
The state exposes the primitive operations every higher layer composes:
elementwise arithmetic with optional digital masking, neighbour shifts,
thresholding, bit logic, pattern writes and the global summation.

Every operation writes into its destination plane in place; a masked write
computes into one scratch plane owned by the state and blends it in, so no
operation allocates a result plane. int32 arithmetic wraps on overflow, so
nothing here checks magnitudes per operation: program.execute proves that a
whole program's intermediates stay inside int32 before it runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PlaneGeometry, is_binary

IDEAL = "ideal"
SATURATING = "saturating"

SAT_MIN = -128
SAT_MAX = 127

ANALOG_DTYPE = np.int32
ANALOG_MIN = int(np.iinfo(ANALOG_DTYPE).min)
ANALOG_MAX = int(np.iinfo(ANALOG_DTYPE).max)

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
    """Geometry or value-domain violation on a plane operation."""


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
    if noise is None or noise.kind == "none" or noise.sigma == 0:
        return exact
    if rng is None:
        rng = noise.make_rng()
    return exact + int(round(rng.normal(0.0, noise.sigma)))


class ArrayState:
    """The register file of one array: int32 analog and bool digital planes.

    `analog` and `digital` map each register name to its plane, a bare
    array of the geometry's shape. One state-wide `mode` decides the clamp:
    in saturating mode every analog write clamps to [SAT_MIN, SAT_MAX] and
    `limit` is the largest magnitude a plane can hold; in ideal mode `limit`
    is None. Mutated by exactly one logical thread at a time; the noise RNG
    stream is owned by the state so concurrent states never perturb each
    other.
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
        block = np.zeros((len(ANALOG_REGS) + 1, *shape), dtype=ANALOG_DTYPE)
        self.analog: dict[str, np.ndarray] = dict(zip(ANALOG_REGS, block))
        self._scratch = block[-1]
        bits = np.zeros((len(DIGITAL_REGS), *shape), dtype=bool)
        self.digital: dict[str, np.ndarray] = dict(zip(DIGITAL_REGS, bits))
        self.rng = self.noise.make_rng()

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
        in wrapping int32 arithmetic even where t - dst itself wraps.
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

    # -- analog ops ------------------------------------------------------

    def add(self, dst: str, a: str, b: str, mask: str | None = None):
        self._write(np.add, dst, (a, b), mask)

    def sub(self, dst: str, a: str, b: str, mask: str | None = None):
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
        if direction not in SHIFT_OFFSETS:
            raise PlaneError(f"unknown shift direction {direction!r}")
        if steps < 0:
            raise PlaneError("shift steps must be >= 0")
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
        if not ANALOG_MIN <= t <= ANALOG_MAX:
            # np.greater with out= misreads a Python int outside int32
            raise PlaneError(f"threshold {t} outside [{ANALOG_MIN}, {ANALOG_MAX}]")
        np.greater(self.areg(src), t, out=self.dreg(dst))

    def global_sum_of(self, src: str) -> int:
        return global_sum(self.areg(src), self.noise, self.rng)

    # -- digital ops -----------------------------------------------------

    def dreg_logic(self, dst: str, op: str, a: str, b: str | None = None):
        av = self.dreg(a)
        out = self.dreg(dst)
        if op == "not":
            np.logical_not(av, out=out)
            return
        if b is None:
            raise PlaneError(f"logic op {op!r} needs two operands")
        ufunc = LOGIC_UFUNCS.get(op)
        if ufunc is None:
            raise PlaneError(f"unknown logic op {op!r}")
        ufunc(av, self.dreg(b), out=out)

    def write_pattern(self, dst: str, pattern: np.ndarray):
        pattern = np.asarray(pattern)
        if pattern.shape != self.geometry.shape:
            raise PlaneError(
                f"pattern shape {pattern.shape} != geometry {self.geometry.shape}"
            )
        if not is_binary(pattern):
            raise PlaneError("pattern bits must be 0 or 1")
        self.dreg(dst)[:] = pattern

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
