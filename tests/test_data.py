import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from semhash.data import (
    FEATURES_MAGIC,
    FEATURES_VERSION,
    Dataset,
    RngState,
    beta_sample,
    generate_synthetic,
    load_dataset,
    read_features,
    read_labels,
    write_features,
    write_labels,
)
from semhash._args import MAX_ITEMS
from semhash.benchmark import balanced_taxonomy
from semhash.errors import (
    ConfigError,
    InvalidShapeParam,
    MalformedFile,
    NonFiniteInput,
    NotALeaf,
    ShapeMismatch,
    UnknownLabel,
    UnknownNode,
    VersionMismatch,
)
from semhash.files import file_header
from semhash.hierarchy import distance_matrix, parse_taxonomy
from semhash.trainer import TrainConfig, train

from oracles import bf_generate_synthetic, ks_statistic_uniform, spearman


class TestRngState:
    def test_same_seed_same_stream(self):
        a = RngState.from_seed(123).generator.uniform(size=100)
        b = RngState.from_seed(123).generator.uniform(size=100)
        np.testing.assert_array_equal(a, b)

    def test_split_streams_are_deterministic_and_distinct(self):
        s1 = [r.generator.uniform(size=10) for r in RngState.from_seed(9).split(3)]
        s2 = [r.generator.uniform(size=10) for r in RngState.from_seed(9).split(3)]
        for a, b in zip(s1, s2):
            np.testing.assert_array_equal(a, b)
        assert not np.array_equal(s1[0], s1[1])
        assert not np.array_equal(s1[1], s1[2])

    def test_seed_range_is_philox_key_range(self):
        RngState.from_seed(2**128 - 1)
        for seed in (-1, 2**128):
            with pytest.raises(ConfigError, match=rf"^seed must be an integer in \[0, {2**128 - 1}\], got {seed}$"):
                RngState.from_seed(seed)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, "1"])
    def test_seed_that_is_not_an_integer_is_rejected_not_truncated(self, seed):
        with pytest.raises(ConfigError, match=r"^seed must be an integer in \[0, \d+\], got "):
            RngState.from_seed(seed)

    @pytest.mark.parametrize("n", [2**70, -1, 0, 1025, 2.5, True])
    def test_split_takes_a_count_of_at_most_1024_children(self, n):
        # 2**70 looped once per child, and -1 returned no child
        with pytest.raises(InvalidShapeParam, match=rf"^n must be an integer in \[1, 1024\], got {n!r}$"):
            RngState.from_seed(0).split(n)
        assert len(RngState.from_seed(0).split(np.int64(1024))) == 1024

    def test_numpy_integer_seed_is_the_same_stream(self):
        want = RngState.from_seed(7).generator.uniform(size=4)
        np.testing.assert_array_equal(RngState.from_seed(np.uint64(7)).generator.uniform(size=4), want)


class TestBetaSample:
    def test_symmetric_mean(self):
        s = beta_sample(0.1, 0.1, (100_000, 1), RngState.from_seed(0))
        assert abs(s.mean() - 0.5) < 0.01

    def test_variance_matches_analytic_formula(self):
        # var = a*b / ((a+b)^2 (a+b+1)) = 0.0208333... * 10 for a=b=0.1
        a = b = 0.1
        expected = a * b / ((a + b) ** 2 * (a + b + 1))
        s = beta_sample(a, b, (100_000, 1), RngState.from_seed(1))
        assert abs(s.var() - expected) < 0.01
        assert expected == pytest.approx(0.2083333333, rel=1e-9)

    def test_uniform_special_case_ks(self):
        n = 100_000
        s = beta_sample(1.0, 1.0, (n, 1), RngState.from_seed(2)).ravel()
        # 1% critical value of the one-sample KS statistic
        assert ks_statistic_uniform(s) < 1.628 / np.sqrt(n)

    def test_open_interval(self):
        s = beta_sample(0.1, 0.1, (10_000, 4), RngState.from_seed(3))
        assert np.all((s > 0.0) & (s < 1.0))

    @pytest.mark.parametrize("alpha, beta", [(0.1, 0.1), (0.5, 3.0), (2.0, 5.0)])
    @pytest.mark.parametrize("b, k", [(4, 16), (64, 64)])
    def test_one_draw_equals_consecutive_draws(self, alpha, beta, b, k):
        # the trainer draws an epoch's targets at once and slices B rows per
        # step; numpy takes Beta variates one after another from the stream
        # (Johnk's method for alpha, beta <= 1, gamma ratios otherwise)
        n = 5
        whole = beta_sample(alpha, beta, (n * b, k), RngState.from_seed(21))
        rng = RngState.from_seed(21)
        steps = [beta_sample(alpha, beta, (b, k), rng) for _ in range(n)]
        assert whole.tobytes() == np.concatenate(steps).tobytes()

    def test_invalid_shape_params(self):
        with pytest.raises(InvalidShapeParam):
            beta_sample(0.0, 0.1, (2, 2), RngState.from_seed(0))
        with pytest.raises(InvalidShapeParam):
            beta_sample(0.1, -1.0, (2, 2), RngState.from_seed(0))

    @pytest.mark.parametrize("shape", [(-1, 2), (2.5, 2), (2, True), 2.5, (2**70, 2), (2**40, 2**40)])
    def test_a_shape_that_no_array_takes_is_invalid(self, shape):
        # each size bounds the next, so that their product fits numpy's largest array
        with pytest.raises(InvalidShapeParam, match=r"^a size in shape must be an integer in \[0, \d+\], got "):
            beta_sample(0.1, 0.1, shape, RngState.from_seed(0))
        assert beta_sample(0.1, 0.1, 3, RngState.from_seed(0)).shape == (3,)

    @pytest.mark.parametrize("alpha", ["a", None, 1j, True, 10**400])
    def test_a_shape_param_that_is_no_finite_real_is_invalid(self, alpha):
        with pytest.raises(InvalidShapeParam, match="^alpha and beta must be a finite real number > 0, got "):
            beta_sample(alpha, 0.1, (2, 2), RngState.from_seed(0))

    @pytest.mark.parametrize("alpha, beta", [
        (np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf), (-np.inf, 1.0),
    ])
    def test_non_finite_shape_params(self, alpha, beta):
        # numpy draws all-NaN targets for these
        with pytest.raises(InvalidShapeParam, match="finite"):
            beta_sample(alpha, beta, (2, 2), RngState.from_seed(0))


class TestGenerateSynthetic:
    def test_zero_noise_duplicates_within_class(self, five_node_tax):
        ds = generate_synthetic(five_node_tax, per_class=2, dim=6, noise=0.0,
                                rng=RngState.from_seed(4))
        assert ds.n_samples == 2 * len(five_node_tax.leaves())
        for i in range(0, ds.n_samples, 2):
            np.testing.assert_array_equal(ds.features[i], ds.features[i + 1])
            assert ds.labels[i] == ds.labels[i + 1]

    def test_same_seed_bit_identical(self, wordnet_like_tax):
        kw = dict(per_class=3, dim=5, noise=0.3)
        d1 = generate_synthetic(wordnet_like_tax, rng=RngState.from_seed(7), **kw)
        d2 = generate_synthetic(wordnet_like_tax, rng=RngState.from_seed(7), **kw)
        np.testing.assert_array_equal(d1.features, d2.features)
        np.testing.assert_array_equal(d1.labels, d2.labels)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("text", [
        "r z\nz y\nr a\na q\nr b\nq m\nb c",  # breadth-first order is not id order
        "r a\nr b\na c\nb d\nc e\nd f\nb g\na h",
    ])
    def test_matches_queue_oracle(self, text, seed):
        t = parse_taxonomy(text)
        assert t.order != list(range(len(t)))
        kw = dict(per_class=3, dim=5, noise=0.3)
        ds = generate_synthetic(t, rng=RngState.from_seed(seed), **kw)
        features, labels = bf_generate_synthetic(t, rng=RngState.from_seed(seed), **kw)
        assert ds.features.tobytes() == features.tobytes()
        np.testing.assert_array_equal(ds.labels, labels)

    def test_class_mean_distances_track_semantic_distances(self):
        # balanced three-level tree: lca height is monotone in leaf-to-leaf
        # path length, which is what the diffusion process spreads means by
        t = balanced_taxonomy((3, 2, 2))
        leaves = t.leaves()
        sem = distance_matrix(t, leaves)
        iu = np.triu_indices(len(leaves), k=1)
        for seed in range(5):
            ds = generate_synthetic(t, per_class=10, dim=64, noise=0.1,
                                    rng=RngState.from_seed(seed))
            means = np.stack([
                ds.features[ds.labels == leaf].mean(axis=0) for leaf in leaves
            ]).astype(np.float64)
            feat = np.sqrt(((means[:, None, :] - means[None, :, :]) ** 2).sum(-1))
            assert spearman(feat[iu], sem[iu]) > 0.5

    def test_draws_straight_into_float32(self):
        # each leaf's float64 draw is cast as it is stored: no float64 N x D matrix
        tax = balanced_taxonomy((4, 2))  # 8 leaves, 500 rows each
        tracemalloc.start()
        try:
            ds = generate_synthetic(tax, per_class=500, dim=256, noise=0.5,
                                    rng=RngState.from_seed(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.features.dtype == np.float32 and ds.features.nbytes == 4000 * 256 * 4
        assert peak < 2 * ds.features.nbytes

    def test_invalid_params(self, five_node_tax):
        rng = RngState.from_seed(0)
        with pytest.raises(InvalidShapeParam):
            generate_synthetic(five_node_tax, 0, 4, 0.1, rng)
        with pytest.raises(InvalidShapeParam):
            generate_synthetic(five_node_tax, 2, 4, -0.1, rng)
        for noise in (np.nan, np.inf):
            with pytest.raises(InvalidShapeParam, match=f"^noise must be a finite real number >= 0, got {noise}$"):
                generate_synthetic(five_node_tax, 2, 4, noise, rng)

    @pytest.mark.parametrize("per_class, dim", [
        (2.5, 4), (2, np.nan), (2, 4.0), (True, 4), (2, "4"),
    ])
    def test_sizes_that_are_no_integers_are_invalid(self, five_node_tax, per_class, dim):
        with pytest.raises(InvalidShapeParam, match=r"^(per_class|dim) must be an integer in \[1, \d+\], got "):
            generate_synthetic(five_node_tax, per_class, dim, 0.1, RngState.from_seed(0))

    @pytest.mark.parametrize("noise", ["0.5", None, 1j, True, np.bool_(False)])
    def test_noise_that_is_no_real_number_is_invalid(self, five_node_tax, noise):
        # these raised TypeError, and True was noise 1.0
        with pytest.raises(InvalidShapeParam, match="^noise must be a finite real number >= 0, got "):
            generate_synthetic(five_node_tax, 2, 3, noise, RngState.from_seed(0))

    def test_sizes_beyond_numpys_largest_array_are_invalid(self, five_node_tax):
        # the means of the 6 nodes bound dim, and the features of the 3 leaves per_class
        rng = RngState.from_seed(0)
        with pytest.raises(InvalidShapeParam, match=rf"^dim must be an integer in \[1, {MAX_ITEMS // 6}\]"):
            generate_synthetic(five_node_tax, 1, MAX_ITEMS // 6 + 1, 0.5, rng)
        with pytest.raises(InvalidShapeParam, match=rf"^per_class must be an integer in \[1, {MAX_ITEMS // 6}\]"):
            generate_synthetic(five_node_tax, MAX_ITEMS // 6 + 1, 2, 0.5, rng)

    @pytest.mark.parametrize("noise", [1e300, 1e39])
    def test_overflowing_noise_is_named(self, five_node_tax, noise):
        # finite values whose draws overflow float64 or the float32 features
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InvalidShapeParam, match="^noise .* overflows"):
                generate_synthetic(five_node_tax, 2, 4, noise, RngState.from_seed(0))
        assert not caught


class TestDatasetFiles:
    def test_two_row_fixture(self, tmp_path, five_node_tax):
        t = five_node_tax
        f, l = tmp_path / "d.features", tmp_path / "d.labels"
        write_features(f, np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
        l.write_text("a1\nb1\n")
        ds = load_dataset(f, l, t)
        assert ds.n_samples == 2
        assert ds.labels.tolist() == [t.node_id("a1"), t.node_id("b1")]

    def test_unknown_label(self, tmp_path, five_node_tax):
        f, l = tmp_path / "d.features", tmp_path / "d.labels"
        write_features(f, np.zeros((1, 2), dtype=np.float32))
        l.write_text("nope\n")
        with pytest.raises(UnknownLabel):
            load_dataset(f, l, five_node_tax)

    def test_internal_node_label_rejected(self, tmp_path, five_node_tax):
        f, l = tmp_path / "d.features", tmp_path / "d.labels"
        write_features(f, np.zeros((1, 2), dtype=np.float32))
        l.write_text("A\n")
        with pytest.raises(UnknownLabel):
            load_dataset(f, l, five_node_tax)

    def test_label_lines_are_stripped_and_blank_ones_skipped(self, tmp_path, five_node_tax):
        # lines end at every break that str.splitlines knows, not only at the newline
        t = five_node_tax
        path = tmp_path / "d.labels"
        path.write_bytes(b"\n  a1 \r\n\n\tb1\ra2\x0ba1\x0c \r\n" + "b1\u2028a2".encode())
        assert read_labels(path, t).tolist() == [t.node_id(n) for n in ("a1", "b1", "a2", "a1", "b1", "a2")]

    def test_unknown_label_names_the_file_and_the_label(self, tmp_path, five_node_tax):
        path = tmp_path / "d.labels"
        path.write_text("a1\n b1 \n bird \na2\n")
        with pytest.raises(UnknownLabel, match=r"d.labels: label 'bird' is not a leaf of the taxonomy$"):
            read_labels(path, five_node_tax)

    @pytest.mark.parametrize("rows_before_bad_bytes", [0, 1, 50_000])
    def test_non_utf8_label_file_is_malformed_after_an_unknown_label(
            self, tmp_path, five_node_tax, rows_before_bad_bytes):
        # the unknown label comes first; the bad bytes sit in the same block of the
        # file or, at 50,000 rows, well past the first block that is read
        path = tmp_path / "d.labels"
        path.write_bytes(b"bird\n" + b"a1\n" * rows_before_bad_bytes + b"\xff\na2\n")
        with pytest.raises(MalformedFile, match=r"d.labels: not UTF-8 text$"):
            read_labels(path, five_node_tax)

    def test_reading_labels_holds_the_ids_not_the_text(self, tmp_path):
        # 200,000 labels (1.4 MB of text) are 1.6 MB of ids; a list of the names and
        # one of their ids, beside the decoded text, peaked at 15 MiB
        t = balanced_taxonomy((4, 4, 2))
        labels = np.array(t.leaves())[np.random.default_rng(0).integers(0, 32, 200_000)]
        path = tmp_path / "big.labels"
        write_labels(path, labels, t)
        tracemalloc.start()
        try:
            back = read_labels(path, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.dtype == np.int64 and back.tolist() == labels.tolist()
        assert peak < 5 * 2**20

    def test_inner_node_labels_are_not_written(self, tmp_path, five_node_tax):
        # read_labels refuses an inner node's name, so write_labels writes nothing
        t = five_node_tax
        path = tmp_path / "d.labels"
        with pytest.raises(NotALeaf, match="node 'A' is not a leaf"):
            write_labels(path, [t.node_id("a1"), t.node_id("A")], t)
        with pytest.raises(UnknownNode):
            write_labels(path, [t.node_id("a1"), len(t)], t)
        assert list(tmp_path.iterdir()) == []

    def test_smallest_bad_id_is_reported(self, tmp_path, five_node_tax):
        t = five_node_tax
        with pytest.raises(UnknownNode, match=r"^node id must be an integer in \[0, 5\], got 7$"):
            write_labels(tmp_path / "d.labels", [t.node_id("a1"), 9, 7, 8], t)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("labels", [np.array([1.0, 2.7]), np.array([True, False])])
    def test_float_and_bool_ids_are_not_written(self, tmp_path, five_node_tax, labels):
        # neither is truncated or read as an id
        with pytest.raises(UnknownNode):
            write_labels(tmp_path / "d.labels", labels, five_node_tax)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
    def test_written_bytes_are_the_names_one_a_line(self, tmp_path, wordnet_like_tax, dtype):
        t = wordnet_like_tax
        labels = np.array(t.leaves(), dtype=dtype)[np.random.default_rng(1).integers(0, 5, 50)]
        write_labels(tmp_path / "d.labels", labels, t)
        want = "".join(f"{t.nodes[int(label)].name}\n" for label in labels)
        assert (tmp_path / "d.labels").read_bytes() == want.encode()

    def test_no_labels_write_one_newline(self, tmp_path, five_node_tax):
        for labels in ([], np.array([], dtype=np.int64)):
            write_labels(tmp_path / "d.labels", labels, five_node_tax)
            assert (tmp_path / "d.labels").read_bytes() == b"\n"

    def test_row_count_mismatch(self, tmp_path, five_node_tax):
        f, l = tmp_path / "d.features", tmp_path / "d.labels"
        write_features(f, np.zeros((2, 2), dtype=np.float32))
        l.write_text("a1\n")
        with pytest.raises(ShapeMismatch, match=r"^2 feature rows but labels of shape \(1,\)$"):
            load_dataset(f, l, five_node_tax)

    def test_zero_row_features_are_an_empty_dataset(self, tmp_path, five_node_tax):
        f, l = tmp_path / "d.features", tmp_path / "d.labels"
        write_features(f, np.zeros((0, 2), dtype=np.float32))
        l.write_text("a1\n")
        with pytest.raises(ShapeMismatch, match="^dataset must contain at least one sample$"):
            load_dataset(f, l, five_node_tax)

    def test_generate_save_load_roundtrip(self, tmp_path, wordnet_like_tax):
        ds = generate_synthetic(wordnet_like_tax, per_class=4, dim=7, noise=0.2,
                                rng=RngState.from_seed(11))
        f, l = tmp_path / "r.features", tmp_path / "r.labels"
        write_features(f, ds.features)
        write_labels(l, ds.labels, wordnet_like_tax)
        back = load_dataset(f, l, wordnet_like_tax)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_hand_built_fixture_bytes(self, tmp_path):
        # N=2, D=3, float32 rows written row-major after the 16-byte header
        values = [[0.5, -1.25, 2.0], [3.0, 0.0, -0.75]]
        raw = b"SHRF" + struct.pack("<III", 1, 2, 3) + struct.pack("<6f", *values[0], *values[1])
        path = tmp_path / "hand.features"
        write_features(path, np.array(values, dtype=np.float32))
        assert path.read_bytes() == raw
        path.write_bytes(raw)
        back = read_features(path)
        assert back.dtype == np.float32
        assert back.tolist() == values

    def test_reading_holds_one_copy_of_the_features(self, tmp_path):
        # the file is read into one writable buffer, which the features are a view of
        features = np.random.default_rng(0).normal(size=(20_000, 128)).astype(np.float32)
        path = tmp_path / "big.features"
        write_features(path, features)
        tracemalloc.start()
        try:
            back = read_features(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.tobytes() == features.tobytes() and back.flags.writeable
        assert peak < 1.25 * features.nbytes

    def test_bad_magic_is_named_as_bytes(self, tmp_path):
        path = tmp_path / "bad.features"
        path.write_bytes(b"XXXX" + bytes(12))
        with pytest.raises(MalformedFile, match=r"bad.features: bad magic b'XXXX'$"):
            read_features(path)

    @pytest.mark.parametrize("n", [0, 3])
    def test_zero_width_features_are_malformed_and_name_the_file(self, tmp_path, n):
        path = tmp_path / "flat.features"
        path.write_bytes(file_header(FEATURES_MAGIC, FEATURES_VERSION, n, 0))  # n x 0, no payload
        with pytest.raises(MalformedFile, match="flat.features: feature dimension must be >= 1"):
            read_features(path)

    def test_zero_width_features_are_not_written(self, tmp_path):
        path = tmp_path / "flat.features"
        with pytest.raises(ShapeMismatch, match=r"features must be N x D with D >= 1, got shape \(3, 0\)"):
            write_features(path, np.zeros((3, 0), dtype=np.float32))
        assert list(tmp_path.iterdir()) == []  # not even a temporary file
        write_features(path, np.ones((2, 1), dtype=np.float32))
        before = path.read_bytes()
        with pytest.raises(ShapeMismatch):
            write_features(path, np.zeros((0, 0), dtype=np.float32))
        assert path.read_bytes() == before

    def test_truncated_features(self, tmp_path):
        path = tmp_path / "bad.features"
        write_features(path, np.zeros((3, 3), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(MalformedFile):
            read_features(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.features"
        path.write_bytes(b"XXXX" + bytes(12))
        with pytest.raises(MalformedFile):
            read_features(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.features"
        write_features(path, np.zeros((1, 1), dtype=np.float32))
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatch):
            read_features(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_are_non_finite_input(bad):
    # the class that train's entry check and encoder_forward raise for the same rows
    features = np.ones((3, 2), dtype=np.float32)
    features[1, 0] = bad
    with pytest.raises(NonFiniteInput, match="^features must not contain NaN or inf$"):
        Dataset(features=features, labels=np.zeros(3, dtype=np.int64))


def test_finiteness_check_allocates_no_array_the_size_of_the_features():
    # 200,000 x 64 float32 features are 48.8 MiB; an isfinite mask of them would be 12.2 MiB
    features = np.ones((200_000, 64), dtype=np.float32)
    labels = np.zeros(200_000, dtype=np.int64)
    tracemalloc.start()
    try:
        Dataset(features=features, labels=labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("n", [1, 3])
def test_zero_width_features_are_finite(n):
    assert Dataset(features=np.ones((n, 0), dtype=np.float32),
                   labels=np.zeros(n, dtype=np.int64)).dim == 0


@pytest.mark.parametrize("labels", [[3.9, 4.2], [True, False], ["3", "4"], [2**64, 1]])
def test_non_integer_labels_are_a_shape_mismatch(labels):
    # a cast to int64 would truncate floats, read bools and digit strings as ids,
    # and overflow on an integer beyond uint64
    with pytest.raises(ShapeMismatch, match=r"^labels must be integers in \[0, 9223372036854775808\)$"):
        Dataset(features=np.zeros((2, 2), dtype=np.float32), labels=labels)


def test_a_label_that_is_no_array_is_a_shape_mismatch():
    with pytest.raises(ShapeMismatch, match=r"^3 feature rows but labels of shape \(\)$"):
        Dataset(np.zeros((3, 2)), 0)


@pytest.mark.parametrize("dtype", [np.int8, np.uint32, np.int64])
def test_integer_labels_become_int64(dtype):
    ds = Dataset(features=np.zeros((2, 2), dtype=np.float32), labels=np.array([3, 4], dtype=dtype))
    assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [3, 4]


def test_dataset_validates_membership(five_node_tax):
    # membership in the class list (the taxonomy's leaves) is checked where
    # the classes are used: train's leaf-class lookup
    ds = Dataset(features=np.zeros((2, 2)), labels=np.array([five_node_tax.leaves()[0], 99]))
    cfg = TrainConfig(code_length=4, hidden_sizes=(), batch_size=2, epochs=1,
                      learning_rate=1e-3, seed=0)
    with pytest.raises(UnknownLabel, match="^dataset label 99 is not a leaf"):
        train(cfg, ds, five_node_tax)
