"""The binary container shared by the features, index and checkpoint files.

Each file is a 4-byte magic, a u32 version, u32 header fields and a payload
whose length the header fixes exactly; ``files.read_file`` is the one
reader of that container, and ``files.write_atomic`` writes every file.
"""
import math
import os
import struct

import numpy as np
import pytest

from semhash.data import read_features, write_features
from semhash.errors import MalformedFile, NonFiniteInput, ShapeMismatch, VersionMismatch
from semhash.files import file_header, read_file, write_atomic, write_json
from semhash.hashing import HashIndex, load_index, save_index
from semhash.model import ClassifierParams, EncoderParams, load_checkpoint, save_checkpoint


def small_features(path):
    write_features(path, np.arange(6, dtype=np.float32).reshape(2, 3))


def small_index(path):
    # K = 70 takes two words per code
    words = np.array([[1, 0b11], [2**63, 0]], dtype=np.uint64)
    save_index(path, HashIndex(words=words, ids=[4, 9], labels=[1, 0], code_length=70))


def small_checkpoint(path):
    rng = np.random.default_rng(0)
    layers = [(rng.normal(size=(3, 2)), rng.normal(size=3)), (rng.normal(size=(2, 3)), rng.normal(size=2))]
    head = ClassifierParams(weights=rng.normal(size=(2, 2)), biases=rng.normal(size=2))
    save_checkpoint(path, EncoderParams(layers=layers, code_length=2), head)


FORMATS = {
    "features": (small_features, read_features),
    "index": (small_index, load_index),
    "checkpoint": (small_checkpoint, load_checkpoint),
}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_every_strict_prefix_is_malformed(tmp_path, fmt):
    write, read = FORMATS[fmt]
    good = tmp_path / f"good.{fmt}"
    write(good)
    raw = good.read_bytes()
    read(good)
    bad = tmp_path / f"bad.{fmt}"
    for size in range(len(raw)):
        bad.write_bytes(raw[:size])
        with pytest.raises(MalformedFile):
            read(bad)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_one_trailing_byte_is_malformed(tmp_path, fmt):
    write, read = FORMATS[fmt]
    path = tmp_path / f"x.{fmt}"
    write(path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(MalformedFile):
        read(path)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_header_claiming_a_huge_payload_is_malformed(tmp_path, fmt):
    # every u32 header field at its maximum; nothing that size is allocated
    write, read = FORMATS[fmt]
    path = tmp_path / f"x.{fmt}"
    write(path)
    raw = path.read_bytes()
    n_fields = {"features": 2, "index": 2, "checkpoint": 4}[fmt]
    path.write_bytes(raw[:8] + struct.pack(f"<{n_fields}I", *[2**32 - 1] * n_fields) + raw[8 + 4 * n_fields :])
    with pytest.raises(MalformedFile):
        read(path)


class TestReadFile:
    def test_fields_and_takes_round_trip(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(file_header(b"TEST", 7, 2, 3) + struct.pack("<2I", 5, 6) + struct.pack("<d", 0.5))
        with read_file(path, b"TEST", 7, 2) as (fields, take):
            assert fields == [2, 3]
            assert take("<u4", 2).tolist() == [5, 6]
            assert take("<f8", 0).tolist() == []
            assert take(np.dtype("<f8"), 1).tolist() == [0.5]

    def test_header_is_magic_then_little_endian_u32s(self):
        assert file_header(b"TEST", 1, 2, 2**32 - 1) == b"TEST" + bytes([1, 0, 0, 0, 2, 0, 0, 0]) + b"\xff" * 4

    def test_short_take_and_left_over_bytes_are_malformed(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(file_header(b"TEST", 1) + bytes(12))
        with pytest.raises(MalformedFile, match="x.bin"):  # 4 bytes left when the block ends
            with read_file(path, b"TEST", 1, 0) as (_, take):
                with pytest.raises(MalformedFile, match="x.bin"):
                    take("<f8", 2)
                take("<f8", 1)

    def test_magic_then_version(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(file_header(b"TEST", 2, 0))
        with pytest.raises(MalformedFile, match="bad magic"):
            with read_file(path, b"TSET", 2, 1):
                pass
        with pytest.raises(VersionMismatch, match="version 2"):
            with read_file(path, b"TEST", 1, 1):
                pass
        with pytest.raises(MalformedFile, match="truncated header"):
            with read_file(path, b"TEST", 2, 2):
                pass

    @pytest.mark.parametrize("error", [ShapeMismatch, NonFiniteInput])
    def test_a_type_check_in_the_block_is_malformed_and_names_the_file(self, tmp_path, error):
        path = tmp_path / "x.bin"
        path.write_bytes(file_header(b"TEST", 1) + bytes(8))
        with pytest.raises(MalformedFile, match=r"x\.bin: bad value$") as caught:
            with read_file(path, b"TEST", 1, 0) as (_, take):
                take("<f8", 1)
                raise error("bad value")
        assert type(caught.value) is MalformedFile

    def test_other_errors_pass_unchanged_and_skip_the_length_check(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(file_header(b"TEST", 1) + bytes(12))  # no block below takes all 12 bytes
        with pytest.raises(MalformedFile, match="truncated at") as from_take:
            with read_file(path, b"TEST", 1, 0) as (_, take):
                take("<f8", 2)
        with pytest.raises(ValueError, match="^not a file error$") as other:
            with read_file(path, b"TEST", 1, 0) as (_, take):
                take("<f8", 1)
                raise ValueError("not a file error")
        assert type(from_take.value) is MalformedFile and type(other.value) is ValueError
        with pytest.raises(MalformedFile, match=r"x\.bin: can't$"):
            with read_file(path, b"TEST", 1, 0):  # a raised block: nothing taken, no length error
                raise ShapeMismatch("can't")


class TestWrites:
    def test_symlink_is_replaced_and_its_target_keeps_its_bytes(self, tmp_path):
        target = tmp_path / "target"
        target.write_bytes(b"old")
        target.chmod(0o600)
        link = tmp_path / "out"
        link.symlink_to(target)
        default = tmp_path / "default"
        default.write_bytes(b"")  # a new file's permissions under this umask
        write_atomic(link, "new")
        assert not link.is_symlink()
        assert link.read_bytes() == b"new"
        assert target.read_bytes() == b"old"
        assert os.stat(link).st_mode & 0o777 == os.stat(default).st_mode & 0o777
        assert os.stat(target).st_mode & 0o777 == 0o600

    def test_json_is_sorted_indented_and_ends_in_a_newline(self, tmp_path):
        write_json(tmp_path / "x.json", {"b": [1, 2.5], "a": None})
        assert (tmp_path / "x.json").read_text() == '{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ]\n}\n'

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_json_rejects_non_finite_numbers_and_writes_nothing(self, tmp_path, value):
        with pytest.raises(ValueError):
            write_json(tmp_path / "x.json", {"a": value})
        assert list(tmp_path.iterdir()) == []
