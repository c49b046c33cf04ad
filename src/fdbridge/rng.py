"""Deterministic random streams.

Every random draw in the package comes from a counter-based Philox
generator whose 128-bit key and 256-bit counter are derived by hashing a
64-bit run seed together with a tag path (for example
``substream(seed, "ddpm-reverse", t)`` for one reverse step, or
``substream(seed, "degradation")`` for every step of one trajectory).
Streams for different paths are statistically independent, reproducible
across platforms, and do not depend on how many values other streams
consumed.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

_MASK64 = (1 << 64) - 1


def _encode_tag(h, tag) -> None:
    if isinstance(tag, str):
        raw = tag.encode("utf-8")
        h.update(b"s" + struct.pack("<I", len(raw)) + raw)
    elif isinstance(tag, (bool, np.bool_)):
        h.update(b"b" + struct.pack("<?", bool(tag)))
    elif isinstance(tag, (int, np.integer)):
        h.update(b"i" + struct.pack("<Q", int(tag) & _MASK64))
    else:
        raise TypeError(f"unsupported stream tag type: {type(tag).__name__}")


def substream(seed: int, *path) -> np.random.Generator:
    """Return an independent Generator for ``(seed, *path)``.

    Tags may be ints or strings.  The same (seed, path) always yields the
    same stream regardless of any other stream's usage.
    """
    h = hashlib.blake2b(digest_size=32)
    h.update(struct.pack("<Q", seed & _MASK64))
    for tag in path:
        _encode_tag(h, tag)
    digest = h.digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    counter = np.concatenate(
        [np.frombuffer(digest[16:32], dtype=np.uint64), np.zeros(2, dtype=np.uint64)]
    )
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def child_seed(seed: int, *path) -> int:
    """Derive a 64-bit seed for a nested component from a tag path."""
    return int(substream(seed, *path).integers(0, 1 << 63, dtype=np.int64))
