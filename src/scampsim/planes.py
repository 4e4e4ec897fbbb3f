"""Register planes and the primitive plane-parallel operations.

AnalogPlane models the per-pixel analog registers (PIX/AREG) as int32,
optionally saturating to an 8-bit-like range. DigitalPlane models the 1-bit
DREG planes as bool. ArrayState bundles named banks of both plus the flag
plane, and exposes the primitive operations every higher layer composes:
elementwise arithmetic with optional digital masking, neighbour shifts,
thresholding, bit logic, pattern writes and the global summation.

Every operation writes into its destination plane in place; a masked write
computes into one scratch plane owned by the state and blends it in, so no
operation allocates a result plane. int32 arithmetic wraps on overflow, so
nothing here checks magnitudes per operation: values entering a plane are
checked against int32 (AnalogPlane, load_image), and program.execute proves
that a whole program's intermediates stay inside int32 before it runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PlaneGeometry, is_binary

IDEAL = "ideal"
SATURATING = "saturating"

DEFAULT_SAT_MIN = -128
DEFAULT_SAT_MAX = 127

ANALOG_DTYPE = np.int32
ANALOG_MIN = int(np.iinfo(ANALOG_DTYPE).min)
ANALOG_MAX = int(np.iinfo(ANALOG_DTYPE).max)

DEFAULT_ANALOG_REGS = ("A", "B", "C", "D", "E", "F", "PIX")
DEFAULT_DIGITAL_REGS = tuple(f"R{i}" for i in range(1, 13))

FLAG_REG = "FLAG"

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
    """Unknown or duplicate register name."""


class PlaneError(ValueError):
    """Geometry or value-domain violation on a plane operation."""


def fits_analog(values: np.ndarray) -> bool:
    """True iff every value is representable in an analog register."""
    return (np.can_cast(values.dtype, ANALOG_DTYPE) or values.size == 0
            or (values.min() >= ANALOG_MIN and values.max() <= ANALOG_MAX))


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


@dataclass
class AnalogPlane:
    geometry: PlaneGeometry
    values: np.ndarray
    mode: str = IDEAL
    sat_min: int = DEFAULT_SAT_MIN
    sat_max: int = DEFAULT_SAT_MAX

    @classmethod
    def zeros(cls, geometry: PlaneGeometry, mode: str = IDEAL, **kw) -> "AnalogPlane":
        return cls(geometry, np.zeros(geometry.shape, dtype=ANALOG_DTYPE), mode, **kw)

    def __post_init__(self):
        if self.mode not in (IDEAL, SATURATING):
            raise PlaneError(f"unknown analog mode {self.mode!r}")
        values = np.asarray(self.values)
        if values.shape != self.geometry.shape:
            raise PlaneError(
                f"values shape {values.shape} != geometry {self.geometry.shape}"
            )
        if not fits_analog(values):
            raise PlaneError(f"analog values must lie in [{ANALOG_MIN}, {ANALOG_MAX}]")
        if self.mode == SATURATING and 2 * self.limit > ANALOG_MAX:
            raise PlaneError("saturation limits must keep the sum or difference of "
                             "two clamped values inside int32")
        self.values = values.astype(ANALOG_DTYPE, copy=False)
        self.saturate(self.values)

    @property
    def limit(self) -> int | None:
        """Largest magnitude the plane can hold, or None in ideal mode."""
        if self.mode == SATURATING:
            return max(abs(self.sat_min), abs(self.sat_max))
        return None

    def saturate(self, values: np.ndarray):
        """Clamp `values` in place to this plane's range; no-op in ideal mode."""
        if self.mode == SATURATING:
            np.clip(values, self.sat_min, self.sat_max, out=values)

    def copy(self) -> "AnalogPlane":
        return AnalogPlane(self.geometry, self.values.copy(), self.mode,
                           self.sat_min, self.sat_max)


@dataclass
class DigitalPlane:
    geometry: PlaneGeometry
    bits: np.ndarray

    @classmethod
    def zeros(cls, geometry: PlaneGeometry) -> "DigitalPlane":
        # bool bits pass the 0/1 check without reading them
        return cls(geometry, np.zeros(geometry.shape, dtype=bool))

    def __post_init__(self):
        self.bits = np.asarray(self.bits)
        if self.bits.shape != self.geometry.shape:
            raise PlaneError(
                f"bits shape {self.bits.shape} != geometry {self.geometry.shape}"
            )
        if not is_binary(self.bits):
            raise PlaneError("digital plane bits must be exactly 0 or 1")
        self.bits = self.bits.astype(bool, copy=False)

    def copy(self) -> "DigitalPlane":
        return DigitalPlane(self.geometry, self.bits.copy())


def global_sum(plane: AnalogPlane, noise: NoiseModel | None = None,
               rng: np.random.Generator | None = None) -> int:
    """Sum of all pixels, with optional integer-rounded gaussian error.

    When `rng` is omitted a fresh generator is seeded from the noise model,
    making a standalone call reproducible; callers holding state (the
    program executor) pass their own stream.
    """
    exact = int(plane.values.sum(dtype=np.int64))
    if noise is None or noise.kind == "none" or noise.sigma == 0:
        return exact
    if rng is None:
        rng = noise.make_rng()
    return exact + int(round(rng.normal(0.0, noise.sigma)))


class ArrayState:
    """Named banks of analog and digital planes sharing one geometry.

    Mutated by exactly one logical thread at a time; the noise RNG stream is
    owned by the state so concurrent states never perturb each other.
    """

    def __init__(self, geometry: PlaneGeometry | None = None,
                 mode: str = IDEAL,
                 noise: NoiseModel | None = None,
                 analog_names: tuple[str, ...] = DEFAULT_ANALOG_REGS,
                 digital_names: tuple[str, ...] = DEFAULT_DIGITAL_REGS,
                 sat_min: int = DEFAULT_SAT_MIN,
                 sat_max: int = DEFAULT_SAT_MAX):
        self.geometry = geometry or PlaneGeometry()
        self.noise = noise or NoiseModel()
        if len(set(analog_names)) != len(analog_names):
            raise RegisterError("duplicate analog register name")
        if len(set(digital_names)) != len(digital_names) or FLAG_REG in digital_names:
            raise RegisterError("duplicate digital register name")
        # one zeroed block backs every analog plane plus the scratch plane
        # that masked writes compute into; one allocation is cheaper than
        # clearing eight planes one by one
        block = np.zeros((len(analog_names) + 1, *self.geometry.shape),
                         dtype=ANALOG_DTYPE)
        self.analog: dict[str, AnalogPlane] = {
            n: AnalogPlane(self.geometry, values, mode, sat_min, sat_max)
            for n, values in zip(analog_names, block)
        }
        self.digital: dict[str, DigitalPlane] = {
            n: DigitalPlane.zeros(self.geometry) for n in digital_names
        }
        # The conditional-execution flag is addressable like any mask plane.
        self.digital[FLAG_REG] = DigitalPlane.zeros(self.geometry)
        self.rng = self.noise.make_rng()
        self._scratch = block[-1]

    # -- register access -------------------------------------------------

    def areg(self, name: str) -> AnalogPlane:
        try:
            return self.analog[name]
        except KeyError:
            raise RegisterError(f"unknown analog register {name!r}") from None

    def dreg(self, name: str) -> DigitalPlane:
        try:
            return self.digital[name]
        except KeyError:
            raise RegisterError(f"unknown digital register {name!r}") from None

    def _write(self, ufunc, dst: str, srcs: tuple[str, ...], mask: str | None):
        """dst = clamp(ufunc(*srcs)) where the mask is set, in place.

        The clamp is dst's own range. Unmasked, the ufunc writes straight
        into dst. Masked, it writes into the scratch plane t, which blends in
        as dst += m * (t - dst): exact in wrapping int32 arithmetic even
        where t - dst itself wraps.
        """
        plane = self.areg(dst)
        out = plane.values
        args = [self.areg(s).values for s in srcs]
        if mask is None:
            ufunc(*args, out=out)
            plane.saturate(out)
            return
        m = self.dreg(mask).bits
        t = self._scratch
        ufunc(*args, out=t)
        plane.saturate(t)
        t -= out
        t *= m
        out += t

    # -- analog ops ------------------------------------------------------

    def load_image(self, img: np.ndarray, dest: str, scale: float = 1.0,
                   offset: float = 0.0):
        """Acquire a grayscale image into an analog register.

        Pixel values map through round(v * scale + offset), then clamp in
        saturating mode. Mapped values outside int32 are rejected.
        """
        img = np.asarray(img)
        if img.shape != self.geometry.shape:
            raise PlaneError(
                f"image shape {img.shape} != plane geometry {self.geometry.shape}"
            )
        if img.min() < 0 or img.max() > 255:
            raise PlaneError("image pixel values must lie in [0, 255]")
        mapped = np.rint(img.astype(np.float64) * scale + offset)
        if not fits_analog(mapped):
            raise PlaneError(f"mapped image values must lie in "
                             f"[{ANALOG_MIN}, {ANALOG_MAX}]")
        plane = self.areg(dest)
        plane.values[:] = mapped
        plane.saturate(plane.values)

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
        src_vals = self.areg(src).values
        plane = self.areg(dst)
        out = plane.values
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
        plane.saturate(out)

    def threshold_into(self, dst: str, src: str, t: int):
        if not ANALOG_MIN <= t <= ANALOG_MAX:
            # np.greater with out= misreads a Python int outside int32
            raise PlaneError(f"threshold {t} outside [{ANALOG_MIN}, {ANALOG_MAX}]")
        np.greater(self.areg(src).values, t, out=self.dreg(dst).bits)

    def global_sum_of(self, src: str) -> int:
        return global_sum(self.areg(src), self.noise, self.rng)

    # -- digital ops -----------------------------------------------------

    def dreg_logic(self, dst: str, op: str, a: str, b: str | None = None):
        av = self.dreg(a).bits
        out = self.dreg(dst).bits
        if op == "not":
            np.logical_not(av, out=out)
            return
        if b is None:
            raise PlaneError(f"logic op {op!r} needs two operands")
        ufunc = LOGIC_UFUNCS.get(op)
        if ufunc is None:
            raise PlaneError(f"unknown logic op {op!r}")
        ufunc(av, self.dreg(b).bits, out=out)

    def write_pattern(self, dst: str, pattern: np.ndarray):
        pattern = np.asarray(pattern)
        if pattern.shape != self.geometry.shape:
            raise PlaneError(
                f"pattern shape {pattern.shape} != geometry {self.geometry.shape}"
            )
        if not is_binary(pattern):
            raise PlaneError("pattern bits must be 0 or 1")
        self.dreg(dst).bits[:] = pattern

    # -- snapshots -------------------------------------------------------

    def snapshot(self) -> dict:
        """Deep copy of all plane contents, for bit-identity checks."""
        return {
            "analog": {n: p.values.copy() for n, p in self.analog.items()},
            "digital": {n: p.bits.copy() for n, p in self.digital.items()},
        }

    def equals_snapshot(self, snap: dict) -> bool:
        return (
            all(np.array_equal(self.analog[n].values, v)
                for n, v in snap["analog"].items())
            and all(np.array_equal(self.digital[n].bits, v)
                    for n, v in snap["digital"].items())
        )
