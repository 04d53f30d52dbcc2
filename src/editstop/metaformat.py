"""Binary persistence for training-dynamics metadata (EDITMETA files), the
file framing that the model checkpoint shares, and the CSV text of every
run-directory table (``csv_text``).

Every artifact file is framed by ``write_framed``: magic bytes, a u16
format version, the body, and a u32 CRC32 of everything before it.
``read_framed`` checks the length, magic, version and file CRC, and its
reader's ``done()`` rejects trailing bytes. Little-endian throughout.

An EDITMETA body (magic b"EDITMETA", version 1):

    entry_count      u16
    per entry:
        id_len       u16
        module_id    id_len UTF-8 bytes
        kind         u8       0 = row-summary vector, 1 = subspace basis
        d_out        u32
        rank         u32      vectors: adapter rank; subspaces: column count
        payload      d_out * (1 if vector else k) float32, C order
        payload_crc  u32      CRC32 of the payload bytes

Coefficients are stored at 32-bit precision (a 4096-row vector is exactly
16384 payload bytes); in-memory math stays 64-bit.
"""

from __future__ import annotations

import csv
import io
import struct
import zlib
from contextlib import contextmanager
from os import PathLike

import numpy as np

from .capture import EvolutionVector, SubspaceBasis
from .errors import (
    BadMagicError,
    ChecksumMismatchError,
    DegenerateVectorError,
    DuplicateModuleIdError,
    EmptyInputError,
    IoFailureError,
    TruncatedFileError,
    VersionUnsupportedError,
)

MAGIC = b"EDITMETA"
VERSION = 1

KIND_VECTOR = 0
KIND_SUBSPACE = 1


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedFileError(
                f"needed {n} bytes at offset {self.pos}, file has {len(self.data)}"
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def payload(self, n: int, name: str) -> bytes:
        """``n`` payload bytes of the entry ``name``, checked against the
        CRC32 that follows them (``checked_payload``)."""
        data = self.take(n)
        if self.u32() != zlib.crc32(data):
            raise ChecksumMismatchError(f"payload checksum mismatch for {name!r}")
        return data

    def name(self) -> str:
        """A u16-length-prefixed UTF-8 name (a module id or parameter name)."""
        raw = self.take(self.u16())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TruncatedFileError(f"name {raw!r} is not UTF-8") from exc

    def done(self) -> None:
        if self.pos != len(self.data):
            raise TruncatedFileError(f"{len(self.data) - self.pos} unexpected trailing bytes")


@contextmanager
def io_failure(verb: str, path):
    """Raise an ``OSError`` from the block as ``IoFailureError``, saying it
    could not ``verb`` ``path``. Every artifact file and run directory is
    read, written or created under it."""
    try:
        yield
    except OSError as exc:
        raise IoFailureError(f"cannot {verb} {path!r}: {exc}") from exc


def write_framed(path, magic: bytes, version: int, body: bytes) -> bytes:
    """Frame ``body`` with ``magic``, ``version`` and the file CRC, write it to
    ``path`` unless that is None, and return the framed bytes."""
    blob = magic + struct.pack("<H", version) + body
    blob += struct.pack("<I", zlib.crc32(blob))
    if path is not None:
        with io_failure("write", path), open(path, "wb") as fh:
            fh.write(blob)
    return blob


def read_framed(path, magic: bytes, version: int) -> _Reader:
    """Read a ``write_framed`` file, check its frame, and return a reader
    over its body."""
    with io_failure("read", path), open(path, "rb") as fh:
        data = fh.read()
    minimum = len(magic) + 2 + 4
    if len(data) < minimum:
        raise TruncatedFileError(f"file is {len(data)} bytes, minimum is {minimum}")
    if data[: len(magic)] != magic:
        raise BadMagicError(f"bad magic {data[:len(magic)]!r}")
    found = struct.unpack_from("<H", data, len(magic))[0]
    if found != version:
        raise VersionUnsupportedError(f"version {found} unsupported (expected {version})")
    if zlib.crc32(data[:-4]) != struct.unpack("<I", data[-4:])[0]:
        raise ChecksumMismatchError("file checksum mismatch")
    return _Reader(data[len(magic) + 2 : -4])


def csv_text(header, rows) -> str:
    """``header`` and ``rows`` as CSV text, one ``\\n``-terminated line each."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def checked_payload(arr: np.ndarray, dtype: str) -> bytes:
    """``arr`` as C-order ``dtype`` bytes followed by their CRC32, the
    payload that ``_Reader.payload`` reads back."""
    data = np.ascontiguousarray(arr, dtype=dtype).tobytes()
    return data + struct.pack("<I", zlib.crc32(data))


def _encode_entry(module_id: str, kind: int, d_out: int, rank: int, coeffs: np.ndarray) -> bytes:
    ident = module_id.encode("utf-8")
    if len(ident) > 0xFFFF:
        raise EmptyInputError(f"module_id too long: {len(ident)} bytes")
    header = struct.pack("<H", len(ident)) + ident + struct.pack("<BII", kind, d_out, rank)
    return header + checked_payload(coeffs, "<f4")


def persist_metadata(
    vectors: list[EvolutionVector],
    bases: list[SubspaceBasis],
    path: str | PathLike,
) -> int:
    """Write vectors and bases to ``path``; returns total bytes written."""
    if not vectors:
        raise EmptyInputError("at least one vector is required")
    seen: set[str] = set()
    for name in [v.module_id for v in vectors] + [b.source_module for b in bases]:
        if name in seen:
            raise DuplicateModuleIdError(f"duplicate module_id {name!r}")
        seen.add(name)
    for v in vectors:
        if v.norm() == 0.0:
            raise DegenerateVectorError(f"all-zero summary for module {v.module_id!r}")

    body = bytearray(struct.pack("<H", len(vectors) + len(bases)))
    for v in vectors:
        body += _encode_entry(v.module_id, KIND_VECTOR, v.d_out, v.rank, v.u)
    for b in bases:
        body += _encode_entry(b.source_module, KIND_SUBSPACE, b.d_out, b.k, b.columns)
    return len(write_framed(path, MAGIC, VERSION, bytes(body)))


def load_metadata(path: str | PathLike) -> tuple[list[EvolutionVector], list[SubspaceBasis]]:
    """Read an EDITMETA file back into vectors and bases.

    Values come back at the stored 32-bit precision; subspace orthonormality
    is re-checked at a tolerance loose enough for the float32 round trip.
    """
    rd = read_framed(path, MAGIC, VERSION)
    entry_count = rd.u16()

    vectors: list[EvolutionVector] = []
    bases: list[SubspaceBasis] = []
    for _ in range(entry_count):
        ident = rd.name()
        kind = rd.u8()
        d_out = rd.u32()
        rank = rd.u32()
        if kind not in (KIND_VECTOR, KIND_SUBSPACE):
            raise TruncatedFileError(f"unknown entry kind {kind}")
        payload = rd.payload(d_out * (1 if kind == KIND_VECTOR else rank) * 4, ident)
        coeffs = np.frombuffer(payload, dtype="<f4").astype(np.float64)
        if kind == KIND_VECTOR:
            vectors.append(EvolutionVector(coeffs, ident, rank))
        else:
            bases.append(SubspaceBasis(coeffs.reshape(d_out, rank), ident, orthogonality_tol=1e-5))
    rd.done()
    return vectors, bases
