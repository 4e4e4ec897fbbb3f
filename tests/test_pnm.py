import os

import numpy as np
import pytest

from scampsim.planes import IDEAL, SATURATING
from scampsim.pnm import PnmError, atomic_write, decode_pgm, encode_pgm


class TestPgm:
    def test_header_layout_is_fixed(self):
        data = encode_pgm(np.zeros((16, 16), dtype=np.int32), IDEAL)
        assert data.startswith(b"P5\n16 16\n255\n")
        assert len(data) == len(b"P5\n16 16\n255\n") + 256

    def test_saturating_round_trip_is_lossless(self, rng):
        vals = rng.integers(-128, 128, size=(16, 16), dtype=np.int32)
        back = decode_pgm(encode_pgm(vals, SATURATING)).astype(np.int64) - 128
        assert np.array_equal(back, vals)

    def test_ideal_in_range_round_trips(self, rng):
        vals = rng.integers(0, 256, size=(16, 16), dtype=np.int32)
        assert np.array_equal(decode_pgm(encode_pgm(vals, IDEAL)), vals)

    def test_comment_lines_skipped(self):
        data = b"P5\n# a comment\n2 2\n255\n\x01\x02\x03\x04"
        img = decode_pgm(data)
        assert img.tolist() == [[1, 2], [3, 4]]

    def test_bad_magic_rejected(self):
        with pytest.raises(PnmError):
            decode_pgm(b"P6\n2 2\n255\n" + b"\0" * 12)

    def test_truncated_raster_rejected(self):
        with pytest.raises(PnmError):
            decode_pgm(b"P5\n4 4\n255\n\x00")


class TestAtomicWrite:
    def test_failed_replace_leaves_destination_and_no_tmp(self, tmp_path,
                                                          monkeypatch):
        dest = tmp_path / "out.pgm"
        dest.write_bytes(b"old")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            atomic_write(dest, b"new")
        assert dest.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out.pgm"]
