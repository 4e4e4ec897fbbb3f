"""Binary PGM (P5) serialization for plane dumps and datasets, and the one
atomic file writer every output goes through.

Byte layout is fixed so dumps are diffable:

  PGM: b"P5\\n<width> <height>\\n255\\n" + height*width raw bytes, row-major.
       Saturating analog planes are written offset by +128 (so the full
       [-128, 127] range maps to 0..255 losslessly); ideal planes are
       clamped to [0, 255] and written as-is.
"""

from __future__ import annotations

import os

import numpy as np

from .planes import SATURATING


class PnmError(ValueError):
    pass


def atomic_write(path, data: bytes | str):
    """Write through `<path>.tmp` and a rename: the destination ends up with
    all of `data` or stays as it was, and no temporary file is left behind."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb" if isinstance(data, bytes) else "w") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_tokens(data: bytes, n: int, start: int) -> tuple[list[bytes], int]:
    """Read n whitespace-separated header tokens, skipping # comments."""
    tokens: list[bytes] = []
    i = start
    while len(tokens) < n:
        while i < len(data) and data[i:i + 1].isspace():
            i += 1
        if i >= len(data):
            raise PnmError("truncated header")
        if data[i:i + 1] == b"#":
            while i < len(data) and data[i] != 0x0A:
                i += 1
            continue
        j = i
        while j < len(data) and not data[j:j + 1].isspace():
            j += 1
        tokens.append(data[i:j])
        i = j
    return tokens, i


def _header_number(field: str, token: bytes) -> int:
    """A header number: ASCII decimal digits, maybe after a minus sign, so
    that a negative dimension is refused by its range check."""
    if not token.removeprefix(b"-").isdigit():  # bytes: ASCII digits only
        raise PnmError(f"PGM {field} {repr(token)[1:]} is not a decimal integer")
    try:
        return int(token)
    except ValueError:  # past the interpreter's limit on digits
        raise PnmError(f"PGM {field} of {len(token)} digits is out of range") from None


def encode_pgm(values: np.ndarray, mode: str) -> bytes:
    """An analog plane of a state in `mode` as a PGM."""
    if mode == SATURATING:
        # widen first: 128 is out of range of an int8 plane
        values = values.astype(np.int64) + 128
    values = np.clip(values, 0, 255).astype(np.uint8)
    h, w = values.shape
    return b"P5\n%d %d\n255\n" % (w, h) + values.tobytes()


def decode_pgm(data: bytes) -> np.ndarray:
    """Raw 8-bit grayscale image from a binary PGM. Returns uint8 H x W."""
    (magic,), i = _read_tokens(data, 1, 0)
    if magic != b"P5":
        raise PnmError(f"not a binary PGM (magic {magic!r})")
    tokens, i = _read_tokens(data, 3, i)
    w, h, maxval = map(_header_number, ("width", "height", "maxval"), tokens)
    if maxval != 255:
        raise PnmError(f"unsupported maxval {maxval}, expected 255")
    if w < 1 or h < 1:
        raise PnmError(f"PGM dims {w}x{h} must be at least 1x1")
    i += 1  # single whitespace byte after maxval
    raster = data[i:i + w * h]
    if len(raster) != w * h:
        raise PnmError(f"truncated PGM raster: a {w}x{h} image needs {w * h} "
                       f"bytes, got {len(raster)}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w).copy()


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        return decode_pgm(f.read())


def write_gray_pgm(path, img: np.ndarray):
    """Write a plain uint8 image (e.g. a 64x64 binary sample scaled to 0/255)."""
    img = np.asarray(img, dtype=np.uint8)
    if img.ndim != 2:
        raise PnmError("expected a 2-D grayscale image")
    h, w = img.shape
    atomic_write(path, b"P5\n%d %d\n255\n" % (w, h) + img.tobytes())
