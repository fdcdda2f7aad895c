import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semhash.hashing as hashing_mod
from semhash.benchmark import balanced_taxonomy
from semhash.data import Dataset, RngState, generate_synthetic
from semhash.errors import (
    EmptyIndex,
    LengthMismatch,
    MalformedFile,
    NonFiniteInput,
    ShapeMismatch,
    VersionMismatch,
)
from semhash.hashing import (
    HashCode,
    HashIndex,
    binarize,
    build_index,
    encode,
    hamming,
    hamming_to_all,
    index_values,
    load_index,
    pack_bits,
    query_topk,
    save_index,
)
from semhash.model import EncoderParams, encoder_forward, init_encoder

from conftest import overflowing_encoder
from oracles import bf_hamming, bf_topk, smallest_duplicate, unpack_bits


def random_codes(rng, n, k):
    bits = rng.integers(0, 2, size=(n, k), dtype=np.uint8)
    return [pack_bits(row) for row in bits], bits


class TestBinarize:
    def test_threshold_pair(self):
        codes = binarize(np.array([[0.49, 0.51]]))
        assert unpack_bits(codes[0]).tolist() == [0, 1]

    def test_exactly_half_rounds_up(self):
        codes = binarize(np.array([[0.5]]))
        assert unpack_bits(codes[0]).tolist() == [1]

    def test_matches_scalar_threshold_loop(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(0.0, 1.0, (20, 67))
        codes = binarize(z)
        for row, code in zip(z, codes):
            expected = [1 if v >= 0.5 else 0 for v in row]
            assert unpack_bits(code).tolist() == expected

    def test_padding_bits_zero(self):
        codes = binarize(np.ones((1, 5)))
        assert codes[0].words[0] == 0b11111
        assert codes[0].code_length == 5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(NonFiniteInput):
            binarize(np.array([[bad, 0.7]]))
        with pytest.raises(NonFiniteInput):
            binarize(np.array([[0.2, 0.7], [0.4, bad]]))


# (features D, hidden sizes, K) of the README's pipeline and of cli_pipeline's
ENCODE_SHAPES = {"readme": (32, (16,), 8), "cli": (128, (256, 128), 64)}


def encode_setup(shape: str, per_class: int = 50):
    """An untrained encoder of one of ENCODE_SHAPES and 32 leaves' synthetic rows."""
    dim, hidden, k = ENCODE_SHAPES[shape]
    dataset = generate_synthetic(balanced_taxonomy((4, 4, 2)), per_class=per_class, dim=dim,
                                 noise=0.5, rng=RngState.from_seed(5))
    return init_encoder(dim, hidden, k, RngState.from_seed(6)), dataset


class TestEncode:
    """encode runs the encoder over fixed row blocks and packs each block's codes."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", ENCODE_SHAPES)
    def test_rows_encoded_alone_get_the_bits_they_get_inside_a_larger_set(self, shape, dtype):
        encoder, dataset = encode_setup(shape)
        values, index = encode(encoder, dataset, dtype=dtype)
        assert len(dataset.features) == 1600 and values.dtype == dtype
        for n in (1, 10, 511, 513):
            alone, alone_index = encode(encoder, Dataset(dataset.features[:n], dataset.labels[:n]),
                                        dtype=dtype)
            assert alone.tobytes() == values[:n].tobytes()
            assert alone_index.words.tobytes() == index.words[:n].tobytes()
            np.testing.assert_array_equal(alone_index.ids, np.arange(n))

    @pytest.mark.parametrize("shape", ENCODE_SHAPES)
    def test_gives_the_bits_of_one_pass_over_all_rows_with_binarize(self, shape):
        encoder, dataset = encode_setup(shape)
        values, index = encode(encoder, dataset)
        batch, _ = encoder_forward(encoder, dataset.features)
        assert values.tobytes() == batch.values.tobytes()
        want = build_index(binarize(batch), np.arange(len(values)), dataset.labels)
        assert index.words.tobytes() == want.words.tobytes()
        np.testing.assert_array_equal(index.labels, dataset.labels)
        assert index.code_length == want.code_length

    @pytest.mark.parametrize("n, dim", [(20_000, 128), (100_000, 64)])
    def test_memory_stays_one_block_beyond_inputs_and_outputs(self, n, dim):
        # a whole-batch forward pass held 635 MiB at N = 100,000 and D = 64
        encoder = init_encoder(dim, (256, 128), 64, RngState.from_seed(0))
        rng = np.random.default_rng(0)
        dataset = Dataset(rng.normal(size=(n, dim)).astype(np.float32), rng.integers(0, 32, n))
        tracemalloc.start()
        try:
            values, index = encode(encoder, dataset, dtype=np.float32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes + index.words.nbytes + 8 * 2**20

    def test_a_forward_pass_that_makes_nan_raises(self):
        dataset = Dataset(np.ones((3, 4), dtype=np.float32), np.zeros(3, dtype=np.int64))
        with pytest.raises(NonFiniteInput, match="^embeddings must not contain NaN or inf$"):
            encode(overflowing_encoder(4, [[1.0, -1.0]]), dataset)  # inf - inf

    def test_an_encoder_of_another_input_width_is_a_shape_mismatch(self):
        encoder, dataset = encode_setup("readme", per_class=2)
        with pytest.raises(ShapeMismatch, match="input dim 31 != encoder in-dim 32"):
            encode(encoder, Dataset(dataset.features[:, 1:], dataset.labels))


class TestIndexValues:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_bit_is_set_from_half_up_in_either_float_type(self, dtype):
        # 0.5 is exact in both types, so the neighbours of 0.5 in each fall on either side
        half = dtype(0.5)
        values = np.array([[np.nextafter(half, 0), half, np.nextafter(half, 1)]], dtype=dtype)
        assert unpack_bits(binarize(values)[0]).tolist() == [0, 1, 1]
        assert index_values(values, [0]).words.tolist() == [[0b110]]
        # a constant encoder whose sigmoid, 0.5 + s/4 near 0, gives these values as dtype
        bias = 4 * (values[0].astype(np.float64) - 0.5)
        encoder = EncoderParams(layers=[(np.zeros((3, 2)), bias)], code_length=3)
        embeddings, index = encode(encoder, Dataset(np.zeros((1, 2)), [0]), dtype)
        assert embeddings.tobytes() == values.tobytes()
        assert index.words.tolist() == [[0b110]]

    def test_packs_in_blocks_the_words_of_one_pack(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0.0, 1.0, (2 * hashing_mod.ENCODE_ROWS + 3, 70))
        index = index_values(values, np.zeros(len(values), dtype=np.int64))
        assert index.words.tobytes() == hashing_mod._pack(values >= 0.5).tobytes()
        assert index.code_length == 70

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_raise(self, bad):
        with pytest.raises(NonFiniteInput, match="^embeddings must not contain NaN or inf$"):
            index_values(np.array([[0.2, bad]]), [0])

    def test_values_that_are_no_matrix_are_a_shape_mismatch(self):
        # these raised IndexError and AttributeError before the float-array rule
        with pytest.raises(ShapeMismatch, match=re.escape(
                "embeddings must be a 2-D array of real numbers, got float64 of shape (2,)")):
            index_values(np.array([0.2, 0.7]), [0])
        with pytest.raises(ShapeMismatch, match="got a ragged sequence$"):
            index_values([[0.2, 0.7], [0.1]], [0, 1])
        assert index_values([[0.2, 0.7]], [0]).words.tolist() == [[0b10]]

    def test_float32_values_are_packed_without_a_float64_copy(self):
        values = np.random.default_rng(2).uniform(0.0, 1.0, (20_000, 64)).astype(np.float32)
        tracemalloc.start()
        try:
            index = index_values(values, np.zeros(len(values), dtype=np.int64))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert index.words.tobytes() == hashing_mod._pack(values >= 0.5).tobytes()
        assert peak < values.nbytes  # a float64 copy alone would be twice their size


class TestPacking:
    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=200))
    @settings(max_examples=80)
    def test_pack_unpack_roundtrip(self, bits):
        code = pack_bits(bits)
        assert unpack_bits(code).tolist() == bits
        assert pack_bits(unpack_bits(code)) == code

    @pytest.mark.parametrize("bits", [[2, 3], [0, 2], [0.5], [-1], [1, np.nan], [np.inf]])
    def test_values_other_than_0_and_1_rejected(self, bits):
        with pytest.raises(ShapeMismatch, match="0 or 1"):
            pack_bits(bits)

    @pytest.mark.parametrize("bits, got", [
        ([[1], [1, 0]], "a ragged sequence"),  # this raised numpy's ValueError
        ([None], "object of shape (1,)"),
        ([[1, 0]], "int64 of shape (1, 2)"),
    ])
    def test_bits_that_are_no_1d_numbers_are_a_shape_mismatch(self, bits, got):
        message = re.escape(f"bits must be a 1-D array of real numbers, got {got}")
        with pytest.raises(ShapeMismatch, match=message):
            pack_bits(bits)

    @pytest.mark.parametrize("bits", [[True, False], [1.0, 0.0], np.array([0, 1], dtype=np.int8)])
    def test_bool_and_float_bits_pack_like_ints(self, bits):
        assert pack_bits(bits) == pack_bits([int(b) for b in bits])

    def test_padding_invariant_enforced(self):
        with pytest.raises(ShapeMismatch):
            HashCode(words=(0b1000000,), code_length=5)


class TestHamming:
    def test_identical(self):
        c = pack_bits([1, 0, 1, 1])
        assert hamming(c, c) == 0

    def test_small_example(self):
        a = pack_bits([1, 0, 1, 0])
        b = pack_bits([0, 1, 1, 0])
        assert hamming(a, b) == 2

    def test_matches_bit_loop_on_random_pairs(self):
        rng = np.random.default_rng(1)
        codes, bits = random_codes(rng, 40, 128)
        for i in range(0, 40, 2):
            assert hamming(codes[i], codes[i + 1]) == bf_hamming(bits[i], bits[i + 1])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            hamming(pack_bits([1, 0]), pack_bits([1, 0, 1]))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50)
    def test_metric_axioms(self, seed):
        rng = np.random.default_rng(seed)
        (a, b, c), _ = random_codes(rng, 3, 70)
        assert hamming(a, b) == hamming(b, a)
        assert hamming(a, a) == 0
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c)


class TestQueryTopk:
    def test_single_entry(self):
        code = pack_bits([1, 0, 1])
        idx = build_index([code], [7], [0])
        assert query_topk(idx, pack_bits([0, 0, 1]), 5) == [(7, 1)]

    def test_tie_break_by_ascending_id(self):
        code = pack_bits([1, 1])
        idx = build_index([code] * 4, [3, 1, 2, 0], [0, 0, 0, 0])
        assert query_topk(idx, code, 4) == [(0, 0), (1, 0), (2, 0), (3, 0)]

    def test_matches_naive_sort_oracle(self):
        rng = np.random.default_rng(5)
        codes, bits = random_codes(rng, 1000, 48)
        ids = rng.permutation(1000)
        idx = build_index(codes, ids, np.zeros(1000, dtype=int))
        q_bits = rng.integers(0, 2, 48, dtype=np.uint8)
        got = query_topk(idx, pack_bits(q_bits), 50)
        assert got == bf_topk(bits, ids, q_bits, 50)

    def test_full_scan_is_total_order(self):
        rng = np.random.default_rng(6)
        codes, bits = random_codes(rng, 64, 16)
        idx = build_index(codes, np.arange(64), np.zeros(64, dtype=int))
        q = codes[0]
        result = query_topk(idx, q, 64)
        assert len(result) == 64
        keys = [(d, i) for i, d in result]
        assert keys == sorted(keys)

    def test_empty_index(self):
        idx = HashIndex(words=np.zeros((0, 1), dtype=np.uint64), ids=[], labels=[], code_length=8)
        with pytest.raises(EmptyIndex):
            query_topk(idx, pack_bits([0] * 8), 1)

    def test_length_mismatch(self):
        idx = build_index([pack_bits([1, 0])], [0], [0])
        with pytest.raises(LengthMismatch):
            query_topk(idx, pack_bits([1, 0, 1]), 1)


class TestHammingToAll:
    def test_word_row_matches_bit_loop(self):
        rng = np.random.default_rng(4)
        codes, bits = random_codes(rng, 30, 100)
        idx = build_index(codes, np.arange(30), np.zeros(30, dtype=int))
        got = hamming_to_all(idx, idx.words[7])
        assert got.tolist() == [bf_hamming(row, bits[7]) for row in bits]

    def test_wrong_word_count(self):
        idx = build_index([pack_bits([1, 0])], [0], [0])
        with pytest.raises(LengthMismatch, match=re.escape(
                "code words of shape (2,) are no rows of 1 for K=2")):
            hamming_to_all(idx, np.zeros(2, dtype=np.uint64))

    @pytest.mark.parametrize("words", [
        [2.9],  # this was cast to the word 2
        [-1], ["a"], [2**64],
        np.array([[1.0]]),  # a float array, even of a whole number
    ])
    def test_query_words_that_are_no_64_bit_integers_are_a_shape_mismatch(self, words):
        idx = build_index([pack_bits([1, 0])], [0], [0])
        message = r"^code words must be integers in \[0, 18446744073709551616\)$"
        with pytest.raises(ShapeMismatch, match=message):
            hamming_to_all(idx, words)

    def test_a_set_padding_bit_in_a_query_is_a_shape_mismatch(self):
        # this scored the padding bit as a distance
        idx = build_index([pack_bits([1, 0])], [0], [0])
        with pytest.raises(ShapeMismatch, match="^padding bits above the code length must be zero$"):
            hamming_to_all(idx, [0b101])
        assert hamming_to_all(idx, [0b01]).tolist() == [0]

    def test_query_words_as_python_ints_score_like_uint64_words(self):
        codes = [pack_bits([1] * 64), pack_bits([0] * 63 + [1])]
        idx = build_index(codes, [0, 1], [0, 0])
        for q in ([2**64 - 1], (2**63,), [[0], [2**64 - 1]]):
            assert hamming_to_all(idx, q).tolist() == hamming_to_all(idx, np.array(q, np.uint64)).tolist()

    @pytest.mark.parametrize("shape", [(3, 2), (1, 1, 1)])
    def test_block_of_wrong_shape(self, shape):
        idx = build_index([pack_bits([1, 0])], [0], [0])
        with pytest.raises(LengthMismatch):
            hamming_to_all(idx, np.zeros(shape, dtype=np.uint64))

    @pytest.mark.parametrize("k", [1, 64, 130])
    def test_block_of_rows_matches_one_row_at_a_time(self, k):
        rng = np.random.default_rng(k)
        codes, _ = random_codes(rng, 20, k)
        idx = build_index(codes, np.arange(20), np.zeros(20, dtype=int))
        block = idx.words[[3, 0, 3, 19]]
        got = hamming_to_all(idx, block)
        assert got.shape == (4, 20)
        for row, words in zip(got, block):
            assert row.tolist() == hamming_to_all(idx, words).tolist()

    @pytest.mark.parametrize("k", [1, 64, 65, 254, 255, 300])
    def test_narrow_dtype_holds_k_plus_one(self, k):
        rng = np.random.default_rng(k)
        codes, bits = random_codes(rng, 6, k)
        codes.append(pack_bits(1 - bits[0]))  # at distance K from the first code
        bits = np.vstack([bits, 1 - bits[0]])
        idx = build_index(codes, np.arange(7), np.zeros(7, dtype=int))
        got = hamming_to_all(idx, idx.words[:2])
        assert got.dtype.kind == "u" and np.iinfo(got.dtype).max >= k + 1
        assert got[0, -1] == k
        assert got.tolist() == [[bf_hamming(row, q) for row in bits] for q in bits[:2]]


class TestHashIndex:
    def test_zero_code_length_is_a_shape_mismatch(self):
        with pytest.raises(ShapeMismatch, match="code length"):
            HashIndex(np.zeros((2, 0), np.uint64), [0, 1], [0, 0], 0)

    @pytest.mark.parametrize("k", [2.5, 1.0, True, np.float64(2)])
    def test_a_code_length_that_is_no_integer_is_a_shape_mismatch(self, k):
        message = re.escape(f"code length must be an integer >= 1, got {k!r}")
        with pytest.raises(ShapeMismatch, match=message):
            HashIndex(np.zeros((2, 1), np.uint64), [0, 1], [0, 0], k)
        with pytest.raises(ShapeMismatch, match=message):  # the query side's code too
            HashCode((0,), k)


class TestIndexFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        codes, _ = random_codes(rng, 17, 70)
        idx = build_index(codes, rng.integers(0, 1000, 17), rng.integers(0, 30, 17))
        path = tmp_path / "x.index"
        save_index(path, idx)
        back = load_index(path)
        np.testing.assert_array_equal(back.words, idx.words)
        np.testing.assert_array_equal(back.ids, idx.ids)
        np.testing.assert_array_equal(back.labels, idx.labels)
        assert back.code_length == 70

    def test_truncated(self, tmp_path):
        codes, _ = random_codes(np.random.default_rng(0), 3, 16)
        idx = build_index(codes, [0, 1, 2], [0, 0, 0])
        path = tmp_path / "x.index"
        save_index(path, idx)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(MalformedFile):
            load_index(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.index"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(MalformedFile):
            load_index(path)

    def test_version_mismatch(self, tmp_path):
        codes, _ = random_codes(np.random.default_rng(0), 1, 8)
        idx = build_index(codes, [0], [0])
        path = tmp_path / "x.index"
        save_index(path, idx)
        raw = bytearray(path.read_bytes())
        raw[4] = 42
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatch):
            load_index(path)

    def test_hand_built_fixture_bytes(self, tmp_path):
        # one entry: id=5, label=3, K=4, code bits 1010 -> word 0b0101 = 5
        raw = b"SHRI" + struct.pack("<III", 1, 4, 1) + struct.pack("<QI", 5, 3) + struct.pack("<Q", 0b0101)
        path = tmp_path / "hand.index"
        path.write_bytes(raw)
        idx = load_index(path)
        assert idx.code_length == 4
        assert idx.ids.tolist() == [5]
        assert idx.labels.tolist() == [3]
        assert unpack_bits(idx.codes()[0]).tolist() == [1, 0, 1, 0]

    @pytest.mark.parametrize("count", [0, 2])
    def test_zero_code_length_is_malformed(self, tmp_path, count):
        raw = b"SHRI" + struct.pack("<III", 1, 0, count) + struct.pack("<QI", 5, 3) * count
        path = tmp_path / "k0.index"
        path.write_bytes(raw)
        with pytest.raises(MalformedFile, match="k0.index: .*code length"):
            load_index(path)

    def test_id_not_below_2_to_the_63_is_malformed(self, tmp_path):
        # one entry whose u64 id would wrap to -1 as a signed id
        raw = b"SHRI" + struct.pack("<III", 1, 4, 1) + struct.pack("<QI", 2**64 - 1, 3) + struct.pack("<Q", 5)
        path = tmp_path / "big.index"
        path.write_bytes(raw)
        with pytest.raises(MalformedFile, match="big.index"):
            load_index(path)


def test_build_index_rejects_mixed_lengths():
    with pytest.raises(LengthMismatch):
        build_index([pack_bits([1]), pack_bits([1, 0])], [0, 1], [0, 0])


def test_build_index_rejects_empty():
    with pytest.raises(EmptyIndex):
        build_index([], [], [])


@settings(max_examples=200, deadline=None)
@given(
    distinct=st.lists(st.integers(0, 2**63 - 1), max_size=12, unique=True),
    repeats=st.lists(st.integers(0, 11), max_size=3),
    dtype=st.sampled_from([np.int64, np.uint64]),
    n_off=st.sampled_from([0, 0, 0, -1, 1]),
    seed=st.integers(0, 2**16),
)
@example(distinct=[], repeats=[], dtype=np.int64, n_off=0, seed=0)
@example(distinct=[], repeats=[], dtype=np.uint64, n_off=1, seed=0)
def test_entries_are_checked_by_length_then_for_the_smallest_repeated_id(
    distinct, repeats, dtype, n_off, seed
):
    # shuffled ids with 0-3 repeats of drawn ids, and labels parallel to them
    ids = distinct + [distinct[r % len(distinct)] for r in repeats if distinct]
    ids = np.random.default_rng(seed).permutation(np.array(ids, dtype=dtype))
    labels = np.arange(len(ids), dtype=dtype) % 5
    n = len(ids) + n_off
    if n != len(ids):
        with pytest.raises(LengthMismatch, match=rf"^{n} rows but sample ids \({len(ids)},\)"):
            hashing_mod._entries(ids, labels, n)
    elif (repeated := smallest_duplicate(ids)) is not None:
        with pytest.raises(ShapeMismatch, match=f"^duplicate sample id {repeated}$"):
            hashing_mod._entries(ids, labels, n)
    else:
        got_ids, got_labels = hashing_mod._entries(ids, labels, n)
        assert got_ids.dtype == got_labels.dtype == np.int64
        assert got_ids.tolist() == ids.tolist() and got_labels.tolist() == labels.tolist()


def test_build_index_rejects_duplicate_ids():
    with pytest.raises(ShapeMismatch):
        build_index([pack_bits([1]), pack_bits([0]), pack_bits([1])], [0, 0, 1], [0, 0, 1])


@pytest.mark.parametrize("ids, labels", [
    ([2**63, 5], [0, 0]),  # a float64 array, in which 2**63 - 1 would round to 2**63
    ([2**64, 5], [0, 0]),  # an object array
    ([-1, 5], [0, 0]),
    (np.array([2**63, 5], dtype=np.uint64), [0, 0]),
    ([4, 5], [-1, 0]),
    ([4, 5], [0, 2**32]),
])
def test_build_index_rejects_what_an_index_file_cannot_hold(ids, labels):
    with pytest.raises(ShapeMismatch, match="must be integers in"):
        build_index([pack_bits([1]), pack_bits([0])], ids, labels)


@pytest.mark.parametrize("words", [
    np.array([[1.5]]),  # would be truncated to word 1
    np.array([[-1]]),  # would overflow the uint64 cast
    np.array([[2**64]], dtype=object),
    [[2.9]], [[True]], [[1], [2.0]], [[-1], [2**64 - 1]],
    [[True], [2]], [[True], [2**64 - 1]],  # numpy would make the bool the word 1
])
def test_index_rejects_code_words_that_are_not_64_bit_integers(words):
    with pytest.raises(ShapeMismatch, match="code words must be integers in"):
        HashIndex(words, range(len(words)), [3] * len(words), 64)


def test_index_keeps_the_largest_64_bit_word():
    index = HashIndex(np.array([[2**64 - 1]]), [0], [3], 64)
    assert index.words.dtype == np.uint64 and index.words.tolist() == [[2**64 - 1]]


def test_index_takes_python_int_words_that_numpy_would_make_floats():
    # numpy turns this nesting into float64, which rounded 2**64 - 1 and was rejected
    index = HashIndex([[0], [2**64 - 1]], [0, 1], [0, 0], 64)
    assert index.words.dtype == np.uint64 and index.words.tolist() == [[0], [2**64 - 1]]


@settings(max_examples=150, deadline=None)
@given(
    k=st.sampled_from([1, 64, 65, 130]),
    entries=st.lists(
        st.tuples(st.integers(-(2**63), 2**63 - 1), st.integers(-1, 2**32), st.integers(0, 2**64 - 1)),
        max_size=5,
    ),
)
def test_every_index_that_constructs_round_trips_through_its_file(tmp_path_factory, k, entries):
    ids = np.array([e[0] for e in entries], dtype=np.int64)
    labels = np.array([e[1] for e in entries], dtype=np.int64)
    words = np.tile(np.array([e[2] for e in entries], dtype=np.uint64)[:, None], (1, (k + 63) // 64))
    words[:, -1] &= np.uint64(2**64 - 1 if k % 64 == 0 else (1 << k % 64) - 1)  # padding bits zero
    try:
        index = HashIndex(words, ids, labels, k)
    except ShapeMismatch:  # an id or label out of range, or a repeated id
        return
    path = tmp_path_factory.mktemp("index") / "x.index"
    save_index(path, index)
    back = load_index(path)
    assert back.code_length == k
    for got, want in ((back.words, words), (back.ids, ids), (back.labels, labels)):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
