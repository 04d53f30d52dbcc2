"""Tests for the binary metadata file format."""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np
import pytest

from editstop.capture import EvolutionVector, SubspaceBasis, build_subspace
from editstop.errors import (
    BadMagicError,
    ChecksumMismatchError,
    DegenerateVectorError,
    DuplicateModuleIdError,
    EmptyInputError,
    IoFailureError,
    TruncatedFileError,
    VersionUnsupportedError,
)
from editstop.metaformat import MAGIC, VERSION, load_metadata, persist_metadata, write_framed


def sample_vectors(rng, n=2, d_out=16):
    return [
        EvolutionVector(rng.random(d_out) + 0.1, f"blk{i}.q.B", 4)
        for i in range(n)
    ]


class TestRoundTrip:
    def test_vectors_round_trip_at_stored_precision(self, tmp_path):
        rng = np.random.default_rng(40)
        vectors = sample_vectors(rng, n=3, d_out=24)
        path = tmp_path / "meta.bin"
        persist_metadata(vectors, [], path)
        loaded, bases = load_metadata(path)
        assert bases == []
        assert [v.module_id for v in loaded] == [v.module_id for v in vectors]
        assert [v.rank for v in loaded] == [4, 4, 4]
        for orig, back in zip(vectors, loaded):
            np.testing.assert_array_equal(
                back.u, orig.u.astype(np.float32).astype(np.float64)
            )

    def test_subspace_round_trip(self, tmp_path):
        rng = np.random.default_rng(41)
        tensor = rng.normal(size=(32, 4))
        basis = build_subspace(tensor, 3, "blk1.q.B")
        vectors = sample_vectors(rng, n=1)
        path = tmp_path / "meta.bin"
        persist_metadata(vectors, [basis], path)
        _, loaded = load_metadata(path)
        assert len(loaded) == 1
        assert loaded[0].source_module == "blk1.q.B"
        assert loaded[0].k == 3
        np.testing.assert_array_equal(
            loaded[0].columns,
            basis.columns.astype(np.float32).astype(np.float64),
        )

    def test_second_write_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(42)
        vectors = sample_vectors(rng)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        persist_metadata(vectors, [], p1)
        persist_metadata(vectors, [], p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_returns_bytes_written(self, tmp_path):
        rng = np.random.default_rng(43)
        path = tmp_path / "meta.bin"
        n = persist_metadata(sample_vectors(rng), [], path)
        assert n == os.path.getsize(path)


class TestStorageLayout:
    def test_4096_row_vector_payload_is_16384_bytes(self, tmp_path):
        rng = np.random.default_rng(44)
        vec = EvolutionVector(rng.random(4096) + 0.1, "blk31.q.B", 16)
        path = tmp_path / "meta.bin"
        total = persist_metadata([vec], [], path)
        ident_len = len(b"blk31.q.B")
        overhead = len(MAGIC) + 2 + 2 + (2 + ident_len + 1 + 4 + 4 + 4) + 4
        assert total - overhead == 16384

    def test_header_fields(self, tmp_path):
        rng = np.random.default_rng(45)
        path = tmp_path / "meta.bin"
        persist_metadata(sample_vectors(rng, n=2), [], path)
        data = path.read_bytes()
        assert data[:8] == b"EDITMETA"
        version, count = struct.unpack_from("<HH", data, 8)
        assert version == 1
        assert count == 2

    def test_trailer_is_whole_file_crc(self, tmp_path):
        rng = np.random.default_rng(46)
        path = tmp_path / "meta.bin"
        persist_metadata(sample_vectors(rng), [], path)
        data = path.read_bytes()
        assert struct.unpack("<I", data[-4:])[0] == zlib.crc32(data[:-4])


class TestPersistValidation:
    def test_no_vectors_rejected(self, tmp_path):
        with pytest.raises(EmptyInputError):
            persist_metadata([], [], tmp_path / "meta.bin")

    def test_zero_norm_vector_rejected(self, tmp_path):
        vec = EvolutionVector(np.zeros(8), "m", 4)
        with pytest.raises(DegenerateVectorError):
            persist_metadata([vec], [], tmp_path / "meta.bin")

    def test_duplicate_ids_rejected(self, tmp_path):
        rng = np.random.default_rng(47)
        v1 = EvolutionVector(rng.random(8) + 0.1, "same", 4)
        v2 = EvolutionVector(rng.random(8) + 0.1, "same", 4)
        with pytest.raises(DuplicateModuleIdError):
            persist_metadata([v1, v2], [], tmp_path / "meta.bin")

    def test_duplicate_across_kinds_rejected(self, tmp_path):
        rng = np.random.default_rng(48)
        vec = EvolutionVector(rng.random(8) + 0.1, "same", 4)
        basis = build_subspace(rng.normal(size=(8, 4)), 2, "same")
        with pytest.raises(DuplicateModuleIdError):
            persist_metadata([vec], [basis], tmp_path / "meta.bin")

    def test_unwritable_path_raises_io_failure(self, tmp_path):
        rng = np.random.default_rng(49)
        with pytest.raises(IoFailureError):
            persist_metadata(sample_vectors(rng), [], tmp_path / "no" / "dir" / "meta.bin")


class TestLoadValidation:
    def make_file(self, tmp_path, name="meta.bin"):
        rng = np.random.default_rng(50)
        path = tmp_path / name
        persist_metadata(sample_vectors(rng, n=2, d_out=6), [], path)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailureError):
            load_metadata(tmp_path / "absent.bin")

    def test_bad_magic(self, tmp_path):
        path = self.make_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTMETA!"
        path.write_bytes(bytes(data))
        with pytest.raises(BadMagicError):
            load_metadata(path)

    def test_unsupported_version(self, tmp_path):
        path = self.make_file(tmp_path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, 8, 2)
        # keep the trailer consistent so the version check is what fires
        data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])))
        path.write_bytes(bytes(data))
        with pytest.raises(VersionUnsupportedError):
            load_metadata(path)

    def test_too_short_file(self, tmp_path):
        path = tmp_path / "tiny.bin"
        path.write_bytes(b"EDITMETA")
        with pytest.raises(TruncatedFileError):
            load_metadata(path)

    def test_every_single_byte_flip_is_detected(self, tmp_path):
        path = self.make_file(tmp_path)
        original = path.read_bytes()
        for pos in range(len(original)):
            corrupted = bytearray(original)
            corrupted[pos] ^= 0xFF
            path.write_bytes(bytes(corrupted))
            with pytest.raises(
                (BadMagicError, VersionUnsupportedError, ChecksumMismatchError)
            ):
                load_metadata(path)

    def test_truncation_is_detected(self, tmp_path):
        path = self.make_file(tmp_path)
        original = path.read_bytes()
        for cut in (len(original) - 1, len(original) // 2, 20):
            path.write_bytes(original[:cut])
            with pytest.raises((TruncatedFileError, ChecksumMismatchError)):
                load_metadata(path)

    def test_trailing_garbage_is_detected(self, tmp_path):
        path = self.make_file(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises((TruncatedFileError, ChecksumMismatchError)):
            load_metadata(path)

    def test_module_id_that_is_not_utf8_is_refused(self, tmp_path):
        # A validly framed file whose first module id starts with 0xff.
        path = tmp_path / "m.editmeta"
        persist_metadata(sample_vectors(np.random.default_rng(7)), [], path)
        body = bytearray(path.read_bytes()[len(MAGIC) + 2 : -4])
        body[4] = 0xFF  # after the u16 entry count and the u16 id length
        write_framed(path, MAGIC, VERSION, bytes(body))
        with pytest.raises(TruncatedFileError, match="is not UTF-8"):
            load_metadata(path)

    def test_per_entry_crc_checked_when_file_crc_forged(self, tmp_path):
        # Corrupt one payload byte, then recompute the file CRC so only the
        # per-entry checksum can catch it.
        path = self.make_file(tmp_path)
        data = bytearray(path.read_bytes())
        # First entry payload starts after header + id_len + id + kind + d_out + rank.
        id_len = struct.unpack_from("<H", data, 12)[0]
        payload_at = 12 + 2 + id_len + 1 + 4 + 4
        data[payload_at] ^= 0xFF
        data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])))
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumMismatchError):
            load_metadata(path)
