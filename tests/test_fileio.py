import numpy as np
import pytest

from fdbridge.fileio import (
    CIMG_MAGIC,
    KMSK_MAGIC,
    read_cimg,
    read_csv,
    read_kmsk,
    write_cimg,
    write_csv,
    write_kmsk,
)

from conftest import rand_image


def test_cimg_round_trip(tmp_path):
    img = rand_image(5, 7, seed=11)
    path = tmp_path / "img.cimg"
    write_cimg(path, img)
    assert np.array_equal(read_cimg(path), img)


def test_cimg_header_layout(tmp_path):
    path = tmp_path / "img.cimg"
    write_cimg(path, np.zeros((3, 2), complex))
    raw = path.read_bytes()
    assert raw[:6] == CIMG_MAGIC == bytes([0x43, 0x49, 0x4D, 0x47, 0x31, 0x00])
    assert int.from_bytes(raw[6:10], "little") == 3
    assert int.from_bytes(raw[10:14], "little") == 2
    assert len(raw) == 14 + 3 * 2 * 16


def test_cimg_interleaving(tmp_path):
    img = np.array([[1.5 + 2.5j]])
    path = tmp_path / "one.cimg"
    write_cimg(path, img)
    body = np.frombuffer(path.read_bytes(), dtype="<f8", offset=14)
    assert body.tolist() == [1.5, 2.5]


def test_cimg_bad_magic(tmp_path):
    path = tmp_path / "bad.cimg"
    path.write_bytes(b"NOPE!\x00" + b"\x00" * 16)
    with pytest.raises(ValueError):
        read_cimg(path)


def test_cimg_rejects_non_finite(tmp_path):
    path = tmp_path / "nan.cimg"
    body = np.zeros((4, 3, 2), dtype="<f8")
    body[2, 1, 1] = np.nan
    path.write_bytes(CIMG_MAGIC + (4).to_bytes(4, "little") + (3).to_bytes(4, "little") + body.tobytes())
    with pytest.raises(ValueError, match="non-finite value nan in the imaginary part at row 2, column 1"):
        read_cimg(path)


def test_kmsk_round_trip(tmp_path):
    mask = np.random.default_rng(0).random((6, 4)) > 0.4
    path = tmp_path / "m.kmsk"
    write_kmsk(path, mask)
    assert np.array_equal(read_kmsk(path), mask)
    raw = path.read_bytes()
    assert raw[:6] == KMSK_MAGIC == bytes([0x4B, 0x4D, 0x53, 0x4B, 0x31, 0x00])
    body = raw[14:]
    assert set(body) <= {0, 1}


def test_kmsk_rejects_other_bytes(tmp_path):
    path = tmp_path / "m.kmsk"
    path.write_bytes(KMSK_MAGIC + (1).to_bytes(4, "little") + (1).to_bytes(4, "little") + b"\x02")
    with pytest.raises(ValueError):
        read_kmsk(path)


def test_kmsk_cut_header(tmp_path):
    path = tmp_path / "cut.kmsk"
    path.write_bytes(KMSK_MAGIC + b"\x04\x00")  # the magic, then half the height
    with pytest.raises(ValueError, match="not a KMSK1 file"):
        read_kmsk(path)


def test_csv_round_trip_floats(tmp_path):
    path = tmp_path / "t.csv"
    rows = [(1, 0.1 + 0.2), (2, float("inf")), (3, float("nan")), (np.int64(4), float("-inf")), (5, np.float32(0.1))]
    write_csv(path, ["t", "w"], rows)
    header, parsed = read_csv(path)
    assert header == ["t", "w"]
    assert float(parsed[0][1]) == 0.1 + 0.2  # repr round-trips exactly
    assert parsed[1:] == [["2", "inf"], ["3", "nan"], ["4", "-inf"], ["5", repr(float(np.float32(0.1)))]]
