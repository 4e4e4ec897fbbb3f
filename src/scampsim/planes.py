"""Register planes and the primitive plane-parallel operations.

AnalogPlane models the per-pixel analog registers (PIX/AREG) as signed
integers, optionally saturating to an 8-bit-like range. DigitalPlane models
the 1-bit DREG planes. ArrayState bundles named banks of both plus the flag
plane, and exposes the primitive operations every higher layer composes:
elementwise arithmetic with optional digital masking, neighbour shifts,
thresholding, bit logic, pattern writes and the global summation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PlaneGeometry, is_binary

IDEAL = "ideal"
SATURATING = "saturating"

DEFAULT_SAT_MIN = -128
DEFAULT_SAT_MAX = 127

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


class RegisterError(KeyError):
    """Unknown or duplicate register name."""


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


@dataclass
class AnalogPlane:
    geometry: PlaneGeometry
    values: np.ndarray
    mode: str = IDEAL
    sat_min: int = DEFAULT_SAT_MIN
    sat_max: int = DEFAULT_SAT_MAX

    @classmethod
    def zeros(cls, geometry: PlaneGeometry, mode: str = IDEAL, **kw) -> "AnalogPlane":
        return cls(geometry, np.zeros(geometry.shape, dtype=np.int64), mode, **kw)

    def __post_init__(self):
        if self.mode not in (IDEAL, SATURATING):
            raise PlaneError(f"unknown analog mode {self.mode!r}")
        if self.values.shape != self.geometry.shape:
            raise PlaneError(
                f"values shape {self.values.shape} != geometry {self.geometry.shape}"
            )
        self.values = self.values.astype(np.int64, copy=False)
        if self.mode == SATURATING:
            np.clip(self.values, self.sat_min, self.sat_max, out=self.values)

    def clamp(self, arr: np.ndarray) -> np.ndarray:
        if self.mode == SATURATING:
            return np.clip(arr, self.sat_min, self.sat_max)
        return arr

    def copy(self) -> "AnalogPlane":
        return AnalogPlane(self.geometry, self.values.copy(), self.mode,
                           self.sat_min, self.sat_max)


@dataclass
class DigitalPlane:
    geometry: PlaneGeometry
    bits: np.ndarray

    @classmethod
    def zeros(cls, geometry: PlaneGeometry) -> "DigitalPlane":
        return cls(geometry, np.zeros(geometry.shape, dtype=np.uint8))

    @classmethod
    def from_array(cls, geometry: PlaneGeometry, arr: np.ndarray) -> "DigitalPlane":
        return cls(geometry, np.asarray(arr))

    def __post_init__(self):
        self.bits = np.asarray(self.bits)
        if self.bits.shape != self.geometry.shape:
            raise PlaneError(
                f"bits shape {self.bits.shape} != geometry {self.geometry.shape}"
            )
        if not is_binary(self.bits):
            raise PlaneError("digital plane bits must be exactly 0 or 1")
        self.bits = self.bits.astype(np.uint8, copy=False)

    def copy(self) -> "DigitalPlane":
        return DigitalPlane(self.geometry, self.bits.copy())


def threshold(plane: AnalogPlane, t: int) -> DigitalPlane:
    """Bit = 1 where the analog value is strictly greater than t."""
    return DigitalPlane(plane.geometry, plane.values > t)


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
        self.mode = mode
        self.noise = noise or NoiseModel()
        if len(set(analog_names)) != len(analog_names):
            raise RegisterError("duplicate analog register name")
        if len(set(digital_names)) != len(digital_names) or FLAG_REG in digital_names:
            raise RegisterError("duplicate digital register name")
        self.analog: dict[str, AnalogPlane] = {
            n: AnalogPlane.zeros(self.geometry, mode, sat_min=sat_min, sat_max=sat_max)
            for n in analog_names
        }
        self.digital: dict[str, DigitalPlane] = {
            n: DigitalPlane.zeros(self.geometry) for n in digital_names
        }
        # The conditional-execution flag is addressable like any mask plane.
        self.digital[FLAG_REG] = DigitalPlane.zeros(self.geometry)
        self.rng = self.noise.make_rng()

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

    def _mask_bits(self, mask: str | None) -> np.ndarray | None:
        if mask is None:
            return None
        return self.dreg(mask).bits

    def _store(self, dst: str, result: np.ndarray, mask: str | None):
        plane = self.areg(dst)
        result = plane.clamp(result.astype(np.int64, copy=False))
        bits = self._mask_bits(mask)
        if bits is None:
            plane.values[:] = result
        else:
            np.copyto(plane.values, result, where=bits.astype(bool))

    # -- analog ops ------------------------------------------------------

    def load_image(self, img: np.ndarray, dest: str, scale: float = 1.0,
                   offset: float = 0.0):
        """Acquire a grayscale image into an analog register.

        Pixel values map through round(v * scale + offset), then clamp in
        saturating mode.
        """
        img = np.asarray(img)
        if img.shape != self.geometry.shape:
            raise PlaneError(
                f"image shape {img.shape} != plane geometry {self.geometry.shape}"
            )
        if img.min() < 0 or img.max() > 255:
            raise PlaneError("image pixel values must lie in [0, 255]")
        mapped = np.rint(img.astype(np.float64) * scale + offset).astype(np.int64)
        self._store(dest, mapped, None)

    def add(self, dst: str, a: str, b: str, mask: str | None = None):
        self._store(dst, self.areg(a).values + self.areg(b).values, mask)

    def sub(self, dst: str, a: str, b: str, mask: str | None = None):
        self._store(dst, self.areg(a).values - self.areg(b).values, mask)

    def neg(self, dst: str, a: str, mask: str | None = None):
        self._store(dst, -self.areg(a).values, mask)

    def copy(self, dst: str, a: str, mask: str | None = None):
        self._store(dst, self.areg(a).values.copy(), mask)

    def max_combine(self, dst: str, a: str, b: str, mask: str | None = None):
        self._store(dst, np.maximum(self.areg(a).values, self.areg(b).values), mask)

    def shift(self, dst: str, src: str, direction: str, steps: int):
        """dst(r,c) = src(r + steps*dr, c + steps*dc); zeros enter at edges.

        Shifts cross block boundaries: the neighbour network is a property of
        the physical array, not of the logical block tiling.
        """
        if direction not in SHIFT_OFFSETS:
            raise PlaneError(f"unknown shift direction {direction!r}")
        if steps < 0:
            raise PlaneError("shift steps must be >= 0")
        src_vals = self.areg(src).values
        out = np.zeros_like(src_vals)
        dr, dc = SHIFT_OFFSETS[direction]
        dr *= steps
        dc *= steps
        h, w = self.geometry.shape
        r0, r1 = max(0, -dr), min(h, h - dr)
        c0, c1 = max(0, -dc), min(w, w - dc)
        if r0 < r1 and c0 < c1:
            out[r0:r1, c0:c1] = src_vals[r0 + dr:r1 + dr, c0 + dc:c1 + dc]
        self._store(dst, out, None)

    def threshold_into(self, dst: str, src: str, t: int):
        self.dreg(dst).bits[:] = threshold(self.areg(src), t).bits

    def global_sum_of(self, src: str) -> int:
        return global_sum(self.areg(src), self.noise, self.rng)

    # -- digital ops -----------------------------------------------------

    def dreg_logic(self, dst: str, op: str, a: str, b: str | None = None):
        av = self.dreg(a).bits
        if op == "not":
            res = 1 - av
        else:
            if b is None:
                raise PlaneError(f"logic op {op!r} needs two operands")
            bv = self.dreg(b).bits
            if op == "and":
                res = av & bv
            elif op == "or":
                res = av | bv
            elif op == "xor":
                res = av ^ bv
            else:
                raise PlaneError(f"unknown logic op {op!r}")
        self.dreg(dst).bits[:] = res

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
