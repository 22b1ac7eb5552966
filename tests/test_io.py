import struct

import numpy as np
import numpy.testing as npt
import pytest

from epl.io import FormatError, read_pgm, read_tensor, write_pgm, write_tensor


class TestTensorFormat:
    def test_round_trip_exact(self, tmp_path):
        arr = np.random.default_rng(0).normal(size=(4, 3, 8, 8)).astype(np.float32)
        write_tensor(tmp_path / "t.eplt", arr)
        npt.assert_array_equal(read_tensor(tmp_path / "t.eplt"), arr)

    def test_header_layout(self, tmp_path):
        write_tensor(tmp_path / "t.eplt", np.zeros((2, 3), dtype=np.float32))
        raw = (tmp_path / "t.eplt").read_bytes()
        magic, version, ndim = struct.unpack_from("<4sII", raw, 0)
        assert magic == b"EPLT" and version == 1 and ndim == 2
        assert struct.unpack_from("<2I", raw, 12) == (2, 3)
        assert len(raw) == 12 + 8 + 4 * 6

    def test_scalar_promoted_to_vector(self, tmp_path):
        write_tensor(tmp_path / "s.eplt", np.float32(7.0))
        npt.assert_array_equal(read_tensor(tmp_path / "s.eplt"), [7.0])

    def test_bad_magic(self, tmp_path):
        write_tensor(tmp_path / "t.eplt", np.ones(3))
        raw = (tmp_path / "t.eplt").read_bytes()
        (tmp_path / "t.eplt").write_bytes(b"NOPE" + raw[4:])
        with pytest.raises(FormatError):
            read_tensor(tmp_path / "t.eplt")

    def test_bad_version(self, tmp_path):
        write_tensor(tmp_path / "t.eplt", np.ones(3))
        raw = bytearray((tmp_path / "t.eplt").read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        (tmp_path / "t.eplt").write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_tensor(tmp_path / "t.eplt")

    def test_truncated_payload(self, tmp_path):
        write_tensor(tmp_path / "t.eplt", np.ones(8))
        raw = (tmp_path / "t.eplt").read_bytes()
        (tmp_path / "t.eplt").write_bytes(raw[:-4])
        with pytest.raises(FormatError):
            read_tensor(tmp_path / "t.eplt")


class TestPgm:
    def test_round_trip(self, tmp_path):
        lab = np.random.default_rng(1).integers(0, 5, (9, 7))
        write_pgm(tmp_path / "l.pgm", lab)
        npt.assert_array_equal(read_pgm(tmp_path / "l.pgm"), lab)

    def test_labels_are_read_as_writable_uint8(self, tmp_path):
        write_pgm(tmp_path / "l.pgm", np.array([[0, 255], [7, 1]]))
        lab = read_pgm(tmp_path / "l.pgm")
        assert lab.dtype == np.uint8 and lab.flags.writeable
        npt.assert_array_equal(lab, [[0, 255], [7, 1]])

    def test_header_has_maxval_255(self, tmp_path):
        write_pgm(tmp_path / "l.pgm", np.zeros((2, 4), dtype=int))
        assert (tmp_path / "l.pgm").read_bytes().startswith(b"P5\n4 2\n255\n")

    def test_comments_in_header_are_skipped(self, tmp_path):
        body = bytes(range(6))
        (tmp_path / "c.pgm").write_bytes(b"P5\n# a comment\n3 2\n# more\n255\n" + body)
        lab = read_pgm(tmp_path / "c.pgm")
        npt.assert_array_equal(lab, np.arange(6).reshape(2, 3))

    def test_rejects_wrong_magic(self, tmp_path):
        (tmp_path / "x.pgm").write_bytes(b"P6\n1 1\n255\n\x00")
        with pytest.raises(FormatError):
            read_pgm(tmp_path / "x.pgm")

    def test_rejects_wide_values(self, tmp_path):
        with pytest.raises(FormatError):
            write_pgm(tmp_path / "x.pgm", np.array([[256]]))

    @pytest.mark.parametrize("value", [1.7, np.nan])
    def test_rejects_a_float_map(self, tmp_path, value):
        with pytest.raises(FormatError, match="label map must be integer, got dtype float64"):
            write_pgm(tmp_path / "x.pgm", np.full((2, 2), value))
        assert not (tmp_path / "x.pgm").exists()

    def test_rejects_truncated_body(self, tmp_path):
        (tmp_path / "x.pgm").write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(FormatError):
            read_pgm(tmp_path / "x.pgm")

    def test_rejects_two_byte_maxval(self, tmp_path):
        (tmp_path / "x.pgm").write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FormatError):
            read_pgm(tmp_path / "x.pgm")

    def test_rejects_pixels_above_a_maxval_below_255(self, tmp_path):
        (tmp_path / "x.pgm").write_bytes(b"P5\n2 1\n3\n\x00\x07")
        with pytest.raises(FormatError, match=r"x\.pgm: 1 pixel\(s\) exceed maxval 3$"):
            read_pgm(tmp_path / "x.pgm")
        (tmp_path / "y.pgm").write_bytes(b"P5\n3 1\n1\n\x02\x01\xff")
        with pytest.raises(FormatError, match=r"y\.pgm: 2 pixel\(s\) exceed maxval 1$"):
            read_pgm(tmp_path / "y.pgm")

    @pytest.mark.parametrize("maxval", [3, 7, 255])
    def test_pixels_up_to_maxval_are_read(self, tmp_path, maxval):
        body = bytes([0, maxval // 2, maxval])
        (tmp_path / "x.pgm").write_bytes(b"P5\n3 1\n%d\n" % maxval + body)
        npt.assert_array_equal(read_pgm(tmp_path / "x.pgm"), [list(body)])
