"""On-disk formats and atomic writes.

CIMG1 (complex image): 6-byte magic ``43 49 4D 47 31 00``, u32-LE height,
u32-LE width, then H*W interleaved (real, imag) little-endian float64 in
row-major order.  Every value is finite: the writer and the reader refuse
NaN and infinity.

KMSK1 (frequency mask): 6-byte magic ``4B 4D 53 4B 31 00``, u32-LE height,
u32-LE width, then H*W bytes (0x00 = removed, 0x01 = kept).

All writers go through a temp-file + rename so partially written artifacts
never appear under their final name.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .grid import as_image

CIMG_MAGIC = b"CIMG1\x00"
KMSK_MAGIC = b"KMSK1\x00"


def atomic_write_bytes(path, payload: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_cimg(path, img: np.ndarray) -> None:
    img = as_image(img)
    h, w = img.shape
    interleaved = np.empty((h, w, 2), dtype="<f8")
    interleaved[..., 0] = img.real
    interleaved[..., 1] = img.imag
    atomic_write_bytes(path, CIMG_MAGIC + struct.pack("<II", h, w) + interleaved.tobytes())


def read_cimg(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:6] != CIMG_MAGIC or len(raw) < 14:
        raise ValueError(f"{path}: not a CIMG1 file")
    h, w = struct.unpack("<II", raw[6:14])
    expected = 14 + h * w * 16
    if len(raw) != expected:
        raise ValueError(f"{path}: truncated CIMG1 payload ({len(raw)} != {expected} bytes)")
    flat = np.frombuffer(raw, dtype="<f8", offset=14).reshape(h, w, 2)
    finite = np.isfinite(flat)
    if not finite.all():
        row, col, part = np.argwhere(~finite)[0]
        value, name = flat[row, col, part], ("real", "imaginary")[part]
        raise ValueError(f"{path}: non-finite value {value} in the {name} part at row {row}, column {col}")
    return (flat[..., 0] + 1j * flat[..., 1]).astype(np.complex128)


def write_kmsk(path, keep: np.ndarray) -> None:
    keep = np.asarray(keep)
    if keep.ndim != 2:
        raise ValueError(f"mask must be 2D, got shape {keep.shape}")
    h, w = keep.shape
    payload = keep.astype(bool).astype(np.uint8).tobytes()
    atomic_write_bytes(path, KMSK_MAGIC + struct.pack("<II", h, w) + payload)


def read_kmsk(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:6] != KMSK_MAGIC or len(raw) < 14:
        raise ValueError(f"{path}: not a KMSK1 file")
    h, w = struct.unpack("<II", raw[6:14])
    expected = 14 + h * w
    if len(raw) != expected:
        raise ValueError(f"{path}: truncated KMSK1 payload ({len(raw)} != {expected} bytes)")
    body = np.frombuffer(raw, dtype=np.uint8, offset=14)
    if not np.all((body == 0) | (body == 1)):
        raise ValueError(f"{path}: mask bytes must be 0x00 or 0x01")
    return body.reshape(h, w).astype(bool)


def write_json(path, obj) -> None:
    atomic_write_bytes(path, json.dumps(obj, indent=2, sort_keys=True).encode() + b"\n")


def read_json(path):
    return json.loads(Path(path).read_text())


def format_cell(value) -> str:
    """CSV cell formatting: shortest round-trip repr for floats, plain str otherwise."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    text = Path(path).read_text().strip("\n")
    lines = text.split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]
