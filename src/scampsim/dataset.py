"""Synthetic rock/paper/scissors samples, saved to and loaded from PGM files.

Samples are binary 64x64 silhouettes rendered from analytic shape
prototypes with seeded jitter (rotation, translation, scale, boundary
flips). Prototype areas are ordered rock < scissors < paper so the three
classes are separable by construction.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .geometry import is_binary
from .lowering import GRAY_THRESHOLD
from .model import DEFAULT_CLASS_NAMES as CLASS_NAMES
from .pnm import atomic_write, read_pgm, write_gray_pgm

IMAGE_SIDE = 64


class DatasetError(ValueError):
    pass


@dataclass
class JitterParams:
    rotation_deg: float = 25.0
    translation_px: float = 6.0
    scale: float = 0.15
    boundary_flip: float = 0.02

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if (isinstance(v, bool) or not isinstance(v, (int, float))
                    or not math.isfinite(v)):
                raise DatasetError(f"{f.name} must be a finite number, got {v!r}")
        # a jitter v is drawn from U(-v, v), whose range 2v must be finite
        top = sys.float_info.max / 2
        for name in ("rotation_deg", "translation_px"):
            v = getattr(self, name)
            if not 0 <= v <= top:
                raise DatasetError(f"{name} must be in [0, {top!r}], got {v!r}")
        # the drawn scale factor 1 + U(-scale, scale) must stay above 0
        if not 0 <= self.scale < 1:
            raise DatasetError(f"scale must be in [0, 1), got {self.scale!r}")
        if not 0 <= self.boundary_flip <= 1:
            raise DatasetError(f"boundary_flip must be in [0, 1], "
                               f"got {self.boundary_flip!r}")


@dataclass
class GestureSample:
    image: np.ndarray            # binary 64x64 uint8
    label: int

    def __post_init__(self):
        self.image = np.asarray(self.image)
        if self.image.shape != (IMAGE_SIDE, IMAGE_SIDE):
            raise DatasetError(f"sample must be {IMAGE_SIDE}x{IMAGE_SIDE}, "
                               f"got {self.image.shape}")
        if not is_binary(self.image):
            raise DatasetError("sample image must be strictly binary")
        if not 0 <= self.label < len(CLASS_NAMES):
            raise DatasetError(f"label {self.label} out of range")
        self.image = self.image.astype(np.uint8)


@dataclass
class DatasetSplit:
    train: list[GestureSample]
    test: list[GestureSample]
    seed: int | None = None
    params: JitterParams | None = None


# -- shape prototypes ----------------------------------------------------
# Canonical coordinates are centred at the image middle, x right, y down.


def _shape_membership(label: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if label == 0:  # rock: filled blob
        return x * x + y * y <= 10.0 ** 2
    if label == 1:  # paper: large filled quadrilateral
        return (np.abs(x) <= 20.0) & (np.abs(y) <= 20.0)
    # scissors: two elongated prongs in a V from a small hub
    base_y = 12.0
    hub = x * x + (y - base_y) ** 2 <= 6.0 ** 2
    out = hub
    for sign in (-1.0, 1.0):
        phi = sign * math.radians(15.0)
        qx = math.cos(phi) * x - math.sin(phi) * (y - base_y)
        qy = math.sin(phi) * x + math.cos(phi) * (y - base_y)
        out = out | ((np.abs(qx) <= 3.5) & (qy >= -34.0) & (qy <= 0.0))
    return out


def render_gesture(label: int, rotation_deg: float = 0.0,
                   translation: tuple[float, float] = (0.0, 0.0),
                   scale: float = 1.0) -> np.ndarray:
    """Rasterize a prototype under an affine jitter; binary 64x64."""
    c = (IMAGE_SIDE - 1) / 2.0
    ys, xs = np.mgrid[0:IMAGE_SIDE, 0:IMAGE_SIDE].astype(np.float64)
    x = xs - c - translation[0]
    y = ys - c - translation[1]
    th = math.radians(-rotation_deg)
    # far enough from the shape a coordinate overflows to inf, or to nan
    # where two infs meet: either lies outside it
    with np.errstate(over="ignore", invalid="ignore"):
        xr = (math.cos(th) * x - math.sin(th) * y) / scale
        yr = (math.sin(th) * x + math.cos(th) * y) / scale
        return _shape_membership(label, xr, yr).astype(np.uint8)


def _boundary_pixels(img: np.ndarray) -> np.ndarray:
    """Pixels whose 4-neighbourhood contains both values."""
    padded = np.pad(img, 1, mode="edge")
    neighbours = (padded[:-2, 1:-1], padded[2:, 1:-1],
                  padded[1:-1, :-2], padded[1:-1, 2:])
    return np.logical_or.reduce([n != img for n in neighbours])


def _jittered_sample(label: int, params: JitterParams,
                     rng: np.random.Generator) -> GestureSample:
    rot = rng.uniform(-params.rotation_deg, params.rotation_deg) \
        if params.rotation_deg else 0.0
    tx = rng.uniform(-params.translation_px, params.translation_px) \
        if params.translation_px else 0.0
    ty = rng.uniform(-params.translation_px, params.translation_px) \
        if params.translation_px else 0.0
    sc = 1.0 + (rng.uniform(-params.scale, params.scale) if params.scale else 0.0)
    img = render_gesture(label, rot, (tx, ty), sc)
    if params.boundary_flip > 0:
        boundary = _boundary_pixels(img)
        flips = (rng.random(img.shape) < params.boundary_flip) & boundary
        img = img ^ flips.astype(np.uint8)
    return GestureSample(img, label)


def generate(seed: int, n_train_per_class: int, n_test_per_class: int = 0,
             params: JitterParams | None = None) -> DatasetSplit:
    """Balanced synthetic dataset, bit-deterministic under seed."""
    if n_train_per_class < 1:
        raise DatasetError(f"n_train_per_class must be >= 1, got {n_train_per_class}")
    if n_test_per_class < 0:
        raise DatasetError(f"n_test_per_class must be >= 0, got {n_test_per_class}")
    if seed < 0:
        raise DatasetError(f"seed must be >= 0, got {seed}")
    params = params or JitterParams()
    rng = np.random.default_rng(seed)
    train: list[GestureSample] = []
    test: list[GestureSample] = []
    for label in range(len(CLASS_NAMES)):
        for _ in range(n_train_per_class):
            train.append(_jittered_sample(label, params, rng))
        for _ in range(n_test_per_class):
            test.append(_jittered_sample(label, params, rng))
    return DatasetSplit(train, test, seed, params)


def images_labels(samples: list[GestureSample]) -> tuple[np.ndarray, np.ndarray]:
    xs = np.stack([s.image for s in samples])
    ys = np.array([s.label for s in samples], dtype=np.int64)
    return xs, ys


# -- export / load -------------------------------------------------------


def export_dataset(split: DatasetSplit, directory):
    """Write every sample as a 0/255 PGM plus a JSON manifest."""
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "seed": split.seed,
        "params": asdict(split.params) if split.params else None,
        "classes": list(CLASS_NAMES),
        "train": [],
        "test": [],
    }
    for split_name, samples in (("train", split.train), ("test", split.test)):
        for i, s in enumerate(samples):
            name = f"{split_name}_{i:05d}_{CLASS_NAMES[s.label]}.pgm"
            write_gray_pgm(os.path.join(directory, name), s.image * 255)
            manifest[split_name].append({"file": name, "label": s.label})
    atomic_write(os.path.join(directory, "manifest.json"),
                 json.dumps(manifest, indent=2) + "\n")


def load_dataset(directory) -> DatasetSplit:
    """Read back a dataset exported by export_dataset."""
    path = os.path.join(directory, "manifest.json")
    try:
        with open(path) as f:
            manifest = json.load(f)
    except OSError as e:
        raise DatasetError(f"cannot read manifest: {e}") from None
    except ValueError as e:
        raise DatasetError(f"manifest is not valid JSON: {e}") from None
    if not isinstance(manifest, dict):
        raise DatasetError("manifest must be a JSON object")
    splits = {}
    for split_name in ("train", "test"):
        entries = manifest.get(split_name)
        if not isinstance(entries, list) or not all(
                isinstance(e, dict) and isinstance(e.get("file"), str)
                and isinstance(e.get("label"), int) and not isinstance(e["label"], bool)
                for e in entries):
            raise DatasetError(f"manifest field {split_name!r} must be a list of "
                               f"entries with a 'file' name and an integer 'label'")
        samples = []
        for entry in entries:
            img = read_pgm(os.path.join(directory, entry["file"]))
            samples.append(GestureSample((img > GRAY_THRESHOLD).astype(np.uint8),
                                         entry["label"]))
        splits[split_name] = samples
    params = JitterParams(**manifest["params"]) if manifest.get("params") else None
    return DatasetSplit(splits["train"], splits["test"], manifest.get("seed"), params)
