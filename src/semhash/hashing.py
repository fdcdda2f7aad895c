"""Bit-packed binary codes and exact Hamming-distance retrieval.

Codes are stored as little-endian 64-bit words (bit j of the code is bit
j % 64 of word j // 64).  Retrieval is an exact full scan with word-level
popcounts; ties are broken by ascending sample id so results are
deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .data import Dataset
from .errors import EmptyIndex, LengthMismatch, NonFiniteInput, ShapeMismatch
from .files import file_header, read_file, write_atomic
from .model import EncoderParams, _embedding_values, _forward

INDEX_MAGIC = b"SHRI"
INDEX_VERSION = 1
WORD_BITS = 64
# rows per block of encode's forward pass and of packing: working memory stays one
# block, and a row's bits do not depend on how many rows are encoded with it
ENCODE_ROWS = 512


def _n_words(code_length: int) -> int:
    return (code_length + WORD_BITS - 1) // WORD_BITS


def _pad_mask(code_length: int) -> int:
    used = code_length % WORD_BITS
    return (1 << used) - 1 if used else (1 << WORD_BITS) - 1


@dataclass(frozen=True)
class HashCode:
    """A code_length-bit code; padding bits above the top are zero."""

    words: tuple[int, ...]
    code_length: int

    def __post_init__(self) -> None:
        if self.code_length < 1:
            raise ShapeMismatch("code length must be >= 1")
        if len(self.words) != _n_words(self.code_length):
            raise ShapeMismatch(
                f"{len(self.words)} words for code length {self.code_length}"
            )
        for w in self.words:
            if not 0 <= w < (1 << WORD_BITS):
                raise ShapeMismatch(f"word {w:#x} out of 64-bit range")
        if self.words[-1] & ~_pad_mask(self.code_length) & ((1 << WORD_BITS) - 1):
            raise ShapeMismatch("padding bits above the code length must be zero")


def _pack(bits: np.ndarray) -> np.ndarray:
    """The B x W little-endian ``uint64`` words of a B x K bit matrix."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    padded = np.zeros((bits.shape[0], _n_words(bits.shape[1]) * 8), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    return padded.view("<u8")


def pack_bits(bits: Sequence[int] | np.ndarray) -> HashCode:
    bits = np.asarray(bits)
    if bits.ndim != 1 or bits.size < 1:
        raise ShapeMismatch("bits must be a non-empty 1-D sequence")
    as_bool = bits.astype(bool)
    if np.count_nonzero(bits != as_bool):  # only 0 and 1 equal their truth value
        raise ShapeMismatch("bits must be 0 or 1")
    return HashCode(words=tuple(_pack(as_bool[None, :])[0].tolist()), code_length=bits.size)


def _threshold(threshold: float) -> np.float64:
    """``threshold`` as the float64 that codes compare with; ``NonFiniteInput`` unless finite."""
    if not math.isfinite(threshold):
        raise NonFiniteInput(f"threshold must be finite, got {threshold}")
    return np.float64(threshold)


def _packed(values: np.ndarray, threshold: float) -> np.ndarray:
    """The N x W words of N x K embedding values: bit = 1 iff value >= threshold, compared
    in float64 whatever the values' float type, ENCODE_ROWS rows at a time; NaN/inf raise."""
    threshold = _threshold(threshold)
    words = np.empty((len(values), _n_words(values.shape[1])), dtype=np.uint64)
    for start in range(0, len(values), ENCODE_ROWS):
        block = values[start : start + ENCODE_ROWS]
        if not np.isfinite(block).all():
            raise NonFiniteInput("embeddings contain NaN or inf")
        words[start : start + ENCODE_ROWS] = _pack(block >= threshold)
    return words


def binarize(z, threshold: float = 0.5) -> list[HashCode]:
    """Threshold each embedding coordinate: bit = 1 iff value >= threshold; NaN/inf raise."""
    values = _embedding_values(z)
    words = _packed(values, threshold)
    return [HashCode(words=tuple(row), code_length=values.shape[1]) for row in words.tolist()]


def hamming(a: HashCode, b: HashCode) -> int:
    if a.code_length != b.code_length:
        raise LengthMismatch(f"code lengths differ: {a.code_length} vs {b.code_length}")
    return sum((wa ^ wb).bit_count() for wa, wb in zip(a.words, b.words))


def _in_range(values, name: str, bits: int, dtype=np.int64) -> np.ndarray:
    """``values`` as ``dtype`` if each is an integer in [0, 2**bits); else ``ShapeMismatch``."""
    array = np.asarray(values)  # Python ints beyond int64 give a float or object array
    if array.size and (array.dtype.kind not in "iu" or array.min() < 0 or int(array.max()) >> bits):
        raise ShapeMismatch(f"{name} must be integers in [0, 2**{bits})")
    return array.astype(dtype, copy=False)


def _check_unique_ids(ids: np.ndarray) -> None:
    values, counts = np.unique(ids, return_counts=True)
    if np.any(counts > 1):
        raise ShapeMismatch(f"duplicate sample id {values[counts > 1][0]}")


@dataclass
class HashIndex:
    """Searchable codes with parallel unique sample ids in [0, 2**63) and labels in [0, 2**32)."""

    words: np.ndarray  # N x W uint64
    ids: np.ndarray  # N
    labels: np.ndarray  # N
    code_length: int

    def __post_init__(self) -> None:
        self.words = np.ascontiguousarray(_in_range(self.words, "code words", 64, np.uint64))
        self.ids = _in_range(self.ids, "sample ids", 63)
        self.labels = _in_range(self.labels, "labels", 32)
        if self.code_length < 1:
            raise ShapeMismatch(f"code length must be >= 1, got {self.code_length}")
        if self.words.ndim != 2 or self.words.shape[1] != _n_words(self.code_length):
            raise ShapeMismatch(
                f"words shape {self.words.shape} incompatible with K={self.code_length}"
            )
        n = self.words.shape[0]
        if self.ids.shape != (n,) or self.labels.shape != (n,):
            raise LengthMismatch("ids and labels must parallel the code list")
        _check_unique_ids(self.ids)
        mask = np.uint64(_pad_mask(self.code_length))
        if n and np.any(self.words[:, -1] & ~mask):
            raise ShapeMismatch("padding bits above the code length must be zero")

    def __len__(self) -> int:
        return self.words.shape[0]

    def codes(self) -> list[HashCode]:
        return [
            HashCode(words=tuple(int(w) for w in row), code_length=self.code_length)
            for row in self.words
        ]


def build_index(
    codes: Sequence[HashCode], ids: Sequence[int], labels: Sequence[int]
) -> HashIndex:
    if not codes:
        raise EmptyIndex("cannot build an index from zero codes")
    k = codes[0].code_length
    for c in codes:
        if c.code_length != k:
            raise LengthMismatch("all codes in an index must share one code length")
    words = np.array([c.words for c in codes], dtype=np.uint64)
    return HashIndex(words=words, ids=ids, labels=labels, code_length=k)


def index_values(values: np.ndarray, labels, threshold: float = 0.5) -> HashIndex:
    """The index of N x K embedding values at ``threshold``, with ids 0 to N - 1."""
    return HashIndex(_packed(values, threshold), np.arange(len(values)), labels, values.shape[1])


def encode(
    encoder: EncoderParams, dataset: Dataset, threshold: float = 0.5, dtype=np.float64
) -> tuple[np.ndarray, HashIndex]:
    """The embeddings of ``dataset``'s features as ``dtype``, and the index of their codes.

    The encoder runs over blocks of ENCODE_ROWS rows, the last padded with zero
    rows whose outputs are dropped, so every row's embedding comes from a product
    of one size and does not depend on the rows encoded with it.  The codes are
    taken from the ``dtype`` values, as ``index_values`` takes them from saved
    embeddings.  A non-finite threshold raises before the forward pass; an
    overflowing unit saturates, and a NaN embedding raises ``NonFiniteInput``.
    """
    _threshold(threshold)
    features = dataset.features
    if features.shape[1] != encoder.in_dim:
        raise ShapeMismatch(f"input dim {features.shape[1]} != encoder in-dim {encoder.in_dim}")
    n = len(features)
    values = np.empty((n, encoder.code_length), dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, ENCODE_ROWS):
            rows = features[start : start + ENCODE_ROWS]
            if len(rows) < ENCODE_ROWS:
                rows = np.pad(rows, ((0, ENCODE_ROWS - len(rows)), (0, 0)))  # zero rows
            values[start : start + ENCODE_ROWS] = _forward(encoder.layers, rows)[1][-1][: n - start]
    return values, index_values(values, dataset.labels, threshold)


def hamming_to_all(index: HashIndex, words: np.ndarray) -> np.ndarray:
    """Hamming distances from packed query codes to every indexed code.

    ``words`` is one code as a row of W packed ``uint64`` words (the result
    has N entries) or a block of b codes as a b x W array (the result is b x N).
    The distances are of the smallest unsigned type that holds ``K + 1``, so
    a caller can mark an entry with a value above K, such as the type's maximum.
    """
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim not in (1, 2) or words.shape[-1:] != index.words.shape[1:]:
        raise LengthMismatch(f"query words {words.shape} != index rows {index.words.shape[1:]}")
    dtype = np.min_scalar_type(index.code_length + 1)
    return np.bitwise_count(index.words ^ words[..., None, :]).sum(axis=-1, dtype=dtype)


def _rank_by_id(dists: np.ndarray, ids: np.ndarray, exclude_id: Optional[int] = None) -> np.ndarray:
    """Positions ordered by (distance, id), without the entry whose id is ``exclude_id``."""
    by_id = np.argsort(ids, kind="stable")
    if exclude_id is not None:
        by_id = by_id[ids[by_id] != exclude_id]
    return by_id[np.argsort(dists[by_id], kind="stable")]


def query_topk(index: HashIndex, q: HashCode, k: int) -> list[tuple[int, int]]:
    """Exact top-k by (Hamming distance, sample id) over a full scan."""
    if len(index) == 0:
        raise EmptyIndex("index is empty")
    if k < 1:
        raise ShapeMismatch(f"k must be >= 1, got {k}")
    if q.code_length != index.code_length:
        raise LengthMismatch(f"query K={q.code_length} != index K={index.code_length}")
    dists = hamming_to_all(index, np.array(q.words, dtype=np.uint64))
    return [(int(index.ids[i]), int(dists[i])) for i in _rank_by_id(dists, index.ids)[:k]]


def _index_entry(code_length: int) -> np.dtype:
    """One index file entry: u64 id, u32 label, then the code's u64 words."""
    return np.dtype([("id", "<u8"), ("label", "<u4"), ("words", "<u8", (_n_words(code_length),))])


def save_index(path: str | Path, index: HashIndex) -> None:
    records = np.empty(len(index), dtype=_index_entry(index.code_length))
    records["id"] = index.ids
    records["label"] = index.labels
    records["words"] = index.words
    write_atomic(
        path, file_header(INDEX_MAGIC, INDEX_VERSION, index.code_length, len(index)), records
    )


def load_index(path: str | Path) -> HashIndex:
    with read_file(path, INDEX_MAGIC, INDEX_VERSION, 2) as ((code_length, count), take):
        records = take(_index_entry(code_length), count)
        return HashIndex(records["words"], records["id"], records["label"], code_length)
