"""Shared pieces of the two binary file formats (dataset and model).

Both files open with a 4-byte ASCII magic, a u16 version and (models only)
a u16 flags word; everything is little-endian. Truncation must surface as
a clean error, never a crash or a short silent read.
"""

from __future__ import annotations

import struct
from typing import BinaryIO


class BadMagic(ValueError):
    pass


class VersionMismatch(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


class TruncatedFile(DimensionMismatch):
    """Truncation surfaces as a structural mismatch, per the file contract."""


class NonFiniteValues(ValueError):
    """A stored number is NaN or infinite."""


def read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise TruncatedFile(f"wanted {n} bytes for {what}, got {len(data)}")
    return data


def write_header(f: BinaryIO, magic: bytes, version: int) -> None:
    f.write(magic + struct.pack("<H", version))


def read_header(f: BinaryIO, magic: bytes, version: int) -> None:
    got = f.read(len(magic))
    if got != magic:
        raise BadMagic(f"expected {magic!r}, got {got!r}")
    (file_version,) = struct.unpack("<H", read_exact(f, 2, "version"))
    if file_version != version:
        raise VersionMismatch(f"file version {file_version}, reader supports {version}")
