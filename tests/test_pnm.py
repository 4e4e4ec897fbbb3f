import os
import re

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
        with pytest.raises(PnmError, match="^truncated PGM raster: a 4x4 image "
                                           "needs 16 bytes, got 1$"):
            decode_pgm(b"P5\n4 4\n255\n\x00")

    @pytest.mark.parametrize("dims", ["0 0", "0 4", "4 0", "-64 -64", "-4 4"])
    def test_dims_below_one_rejected_by_name(self, dims):
        w, h = dims.split()
        with pytest.raises(PnmError, match=f"^PGM dims {w}x{h} must be at least 1x1$"):
            decode_pgm(f"P5\n{dims}\n255\n".encode() + b"\0" * 16)

    @pytest.mark.parametrize("header, field, text", [
        (b"P5\n1_0 4\n255\n", "width", "'1_0'"),
        (b"P5\n+5 4\n255\n", "width", "'+5'"),
        (b"P5\nab 4\n255\n", "width", "'ab'"),
        (b"P5\n4 0x4\n255\n", "height", "'0x4'"),
        (b"P5\n4 -\n255\n", "height", "'-'"),
        (b"P5\n4 4\n2.5e2\n", "maxval", "'2.5e2'"),
        (b"P5\n4 4\n\xd9\xa2\xd9\xa5\xd9\xa5\n", "maxval", "'\\xd9\\xa2\\xd9\\xa5\\xd9\\xa5'"),
    ])
    def test_header_numbers_are_ascii_decimal_by_name(self, header, field, text):
        with pytest.raises(PnmError, match=f"^PGM {field} {re.escape(text)} "
                                           "is not a decimal integer$"):
            decode_pgm(header + b"\0" * 16)

    def test_header_number_past_the_digit_limit_named(self):
        with pytest.raises(PnmError, match="^PGM height of 5000 digits is out of range$"):
            decode_pgm(b"P5\n4 " + b"1" * 5000 + b"\n255\n")


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
