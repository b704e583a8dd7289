"""Dataset tests: generator determinism and bytes against a per-example
oracle, glyph separability, the IDX codec against hand-built bytes, and
batching order."""

import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunelab import data
from prunelab.errors import FormatError, InputError

from helpers import generate_shapes_oracle


def assert_oracle_bytes(num_classes, per_class, image_size, noise, seed, split):
    ds = data.generate_shapes(num_classes, per_class, image_size, noise, seed, split)
    images, labels = generate_shapes_oracle(num_classes, per_class, image_size, noise, seed, split)
    assert ds.images.dtype == images.dtype and ds.images.shape == images.shape
    assert ds.images.tobytes() == images.tobytes()
    assert ds.labels.dtype == labels.dtype and ds.labels.tobytes() == labels.tobytes()


class TestGenerate:
    def test_same_seed_bitwise_identical(self):
        for noise in (0.0, 0.15):
            a = data.generate_shapes(4, 5, image_size=12, noise=noise, seed=7)
            b = data.generate_shapes(4, 5, image_size=12, noise=noise, seed=7)
            assert a.images.tobytes() == b.images.tobytes()
            assert np.array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = data.generate_shapes(2, 3, image_size=12, seed=1)
        b = data.generate_shapes(2, 3, image_size=12, seed=2)
        assert a.images.tobytes() != b.images.tobytes()

    def test_splits_use_disjoint_streams(self):
        train, test = data.make_splits(3, 4, 4, image_size=12, noise=0.1, seed=5)
        assert train.images.tobytes() != test.images.tobytes()
        assert train.split == "train"
        assert test.split == "test"

    def test_label_histogram_exact(self):
        ds = data.generate_shapes(5, 7, image_size=12, seed=0)
        assert np.bincount(ds.labels).tolist() == [7] * 5

    def test_labels_interleave_for_prefix_coverage(self):
        ds = data.generate_shapes(4, 3, image_size=12, seed=0)
        assert np.array_equal(ds.labels, np.arange(12) % 4)

    def test_shapes_range_dtype(self):
        ds = data.generate_shapes(3, 2, image_size=14, noise=0.3, seed=9)
        assert ds.images.shape == (6, 1, 14, 14)
        assert ds.images.dtype == np.float32
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        assert len(ds) == 6

    def test_noiseless_images_draw_glyph_pixels(self):
        ds = data.generate_shapes(10, 2, image_size=16, noise=0.0, seed=3)
        for i in range(len(ds)):
            lit = ds.images[i] >= 0.65
            assert lit.any(), f"example {i} drew nothing"
            assert not ds.images[i][~lit].any(), "background must stay zero"

    def test_classes_visually_distinct(self):
        ds = data.generate_shapes(10, 20, image_size=16, noise=0.0, seed=4)
        means = np.stack([ds.images[ds.labels == k].mean(axis=0).ravel() for k in range(10)])
        for a in range(10):
            for b in range(a + 1, 10):
                assert np.abs(means[a] - means[b]).max() > 0.05, (a, b)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(num_classes=st.integers(2, 10), per_class=st.integers(1, 12), image_size=st.integers(12, 32),
           noise=st.just(0.0) | st.floats(0.0, 0.5, exclude_min=True), seed=st.integers(0, 2**64 - 1),
           split=st.sampled_from(data.SPLITS))
    def test_images_and_labels_match_the_per_example_oracle(self, num_classes, per_class, image_size, noise,
                                                           seed, split):
        assert_oracle_bytes(num_classes, per_class, image_size, noise, seed, split)

    @pytest.mark.parametrize("split", data.SPLITS)
    def test_noise_blocks_with_a_partial_last_one_match_the_oracle(self, split):
        # 70 examples: two whole blocks of 32 and one of 6, each block's normals in one buffer
        assert_oracle_bytes(10, 7, 16, 0.1, 11, split)

    def test_parameter_validation(self):
        with pytest.raises(InputError, match="num_classes"):
            data.generate_shapes(1, 3, image_size=12)
        with pytest.raises(InputError, match="num_classes"):
            data.generate_shapes(11, 3, image_size=12)
        with pytest.raises(InputError, match="image_size"):
            data.generate_shapes(2, 3, image_size=11)
        with pytest.raises(InputError, match="per_class"):
            data.generate_shapes(2, 0, image_size=12)
        with pytest.raises(InputError, match="noise"):
            data.generate_shapes(2, 3, image_size=12, noise=-0.1)
        for noise in (float("nan"), float("inf")):
            with pytest.raises(InputError, match="noise must be a finite number"):
                data.generate_shapes(2, 3, image_size=12, noise=noise)
        with pytest.raises(InputError, match="split"):
            data.generate_shapes(2, 3, image_size=12, split="val")

    def test_linear_probe_separates_two_classes(self):
        train, test = data.make_splits(2, 150, 50, image_size=12, noise=0.0, seed=6)
        x = train.images.reshape(len(train), -1).astype(np.float64)
        x = np.hstack([x, np.ones((len(train), 1))])
        onehot = np.eye(2)[train.labels]
        gram = x.T @ x + np.eye(x.shape[1])  # ridge keeps the fit stable
        w = np.linalg.lstsq(gram, x.T @ onehot, rcond=None)[0]
        xt = test.images.reshape(len(test), -1).astype(np.float64)
        xt = np.hstack([xt, np.ones((len(test), 1))])
        accuracy = (np.argmax(xt @ w, axis=1) == test.labels).mean()
        assert accuracy >= 0.95


class TestDataset:
    def test_missing_class_rejected(self):
        images = np.zeros((3, 1, 4, 4))
        with pytest.raises(InputError, match="class 1"):
            data.Dataset(images, np.array([0, 0, 2]), "train", 0)

    def test_label_length_mismatch(self):
        with pytest.raises(InputError, match="labels"):
            data.Dataset(np.zeros((3, 1, 4, 4)), np.array([0, 1]), "train", 0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1.5, -0.1])
    def test_out_of_range_pixels(self, value):
        images = np.full((2, 1, 4, 4), 0.5)
        images[1, 0, 2, 3] = value
        with pytest.raises(InputError, match=r"^image values must lie in \[0, 1\]$"):
            data.Dataset(images, np.array([0, 1]), "train", 0)

    def test_range_check_allocates_no_mask(self):
        # the frozen copy is the only image-sized buffer: a boolean mask of the finite pixels
        # took a byte a pixel on top (a peak of 12.88 MB here, against 10.24 MB of images)
        images = np.random.default_rng(0).random((10_000, 1, 16, 16)).astype(np.float32)
        labels = np.arange(len(images)) % 4
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            data.Dataset(images, labels, "train", 0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < images.nbytes + images.size // 4

    def test_immutable_after_construction(self):
        ds = data.generate_shapes(2, 2, image_size=12, seed=0)
        with pytest.raises(ValueError):
            ds.images[0, 0, 0, 0] = 0.5
        with pytest.raises(ValueError):
            ds.labels[0] = 1

    def test_empty_rejected(self):
        with pytest.raises(InputError, match="at least one"):
            data.Dataset(np.zeros((0, 1, 4, 4)), np.zeros(0, dtype=np.int64), "train", 0)

    def test_importance_protocol_fields(self):
        ds = data.generate_shapes(2, 2, image_size=12, seed=0)
        assert ds.images.shape[0] == ds.labels.shape[0]
        assert ds.num_classes == 2


class TestIdx:
    def test_hand_built_pair(self, tmp_path):
        pixels = bytes([0, 128, 255, 64] * 4)  # 4 images of 2x2
        images_path = tmp_path / "imgs.idx"
        labels_path = tmp_path / "lbls.idx"
        images_path.write_bytes(struct.pack(">IIII", 0x00000803, 4, 2, 2) + pixels)
        labels_path.write_bytes(struct.pack(">II", 0x00000801, 4) + bytes([0, 1, 0, 1]))
        ds = data.load_idx(images_path, labels_path)
        assert len(ds) == 4
        assert ds.images.shape == (4, 1, 2, 2)
        assert ds.images[0, 0, 0, 0] == 0.0
        assert abs(ds.images[0, 0, 0, 1] - 128 / 255) < 1e-7
        assert ds.images[0, 0, 1, 0] == 1.0
        assert np.array_equal(ds.labels, np.array([0, 1, 0, 1]))

    def test_round_trip(self, tmp_path):
        ds = data.generate_shapes(3, 4, image_size=12, noise=0.2, seed=8)
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        data.save_idx(ds, ip, lp)
        loaded = data.load_idx(ip, lp)
        assert np.abs(loaded.images - ds.images).max() <= 0.5 / 255 + 1e-7
        assert np.array_equal(loaded.labels, ds.labels)

    def test_resave_bitwise_stable(self, tmp_path):
        ds = data.generate_shapes(2, 3, image_size=12, noise=0.1, seed=1)
        i1, l1 = tmp_path / "i1.idx", tmp_path / "l1.idx"
        i2, l2 = tmp_path / "i2.idx", tmp_path / "l2.idx"
        data.save_idx(ds, i1, l1)
        data.save_idx(data.load_idx(i1, l1), i2, l2)
        assert i1.read_bytes() == i2.read_bytes()
        assert l1.read_bytes() == l2.read_bytes()

    def test_bad_images_magic(self, tmp_path):
        ip = tmp_path / "bad.idx"
        ip.write_bytes(struct.pack(">IIII", 0x00000801, 1, 2, 2) + bytes(4))
        lp = tmp_path / "l.idx"
        lp.write_bytes(struct.pack(">II", 0x00000801, 1) + bytes([0]))
        with pytest.raises(FormatError, match="magic.*offset 0"):
            data.load_idx(ip, lp)

    def test_truncated_images(self, tmp_path):
        ip = tmp_path / "short.idx"
        ip.write_bytes(struct.pack(">IIII", 0x00000803, 4, 2, 2) + bytes(7))
        lp = tmp_path / "l.idx"
        lp.write_bytes(struct.pack(">II", 0x00000801, 4) + bytes(4))
        with pytest.raises(FormatError, match="expected 32"):
            data.load_idx(ip, lp)

    def test_truncated_header(self, tmp_path):
        ip = tmp_path / "tiny.idx"
        ip.write_bytes(b"\x00\x00")
        with pytest.raises(FormatError, match="truncated"):
            data.load_idx(ip, tmp_path / "missing.idx")

    def test_count_mismatch(self, tmp_path):
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        ip.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(8))
        lp.write_bytes(struct.pack(">II", 0x00000801, 3) + bytes([0, 1, 0]))
        with pytest.raises(FormatError, match="count"):
            data.load_idx(ip, lp)

    def test_zero_images_rejected(self, tmp_path):
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        ip.write_bytes(struct.pack(">IIII", 0x00000803, 0, 2, 2))
        lp.write_bytes(struct.pack(">II", 0x00000801, 0))
        with pytest.raises(FormatError, match=">= 1"):
            data.load_idx(ip, lp)

    def test_zero_labels_rejected(self, tmp_path):
        lp = tmp_path / "l.idx"
        lp.write_bytes(struct.pack(">II", 0x00000801, 0))
        with pytest.raises(FormatError, match="label count must be >= 1"):
            data.load_idx_labels(lp)

    @pytest.mark.parametrize("raw,message", [
        (b"\x00\x00\x08", "labels file truncated: 3 bytes, header needs 8"),
        (struct.pack(">II", 0x00000803, 1) + bytes(1), "bad labels magic 0x00000803 at offset 0, expected 0x00000801"),
        (struct.pack(">II", 0x00000801, 3) + bytes(2), "labels file has 10 bytes, expected 11 (payload at offset 8)"),
    ])
    def test_labels_header_messages(self, tmp_path, raw, message):
        lp = tmp_path / "l.idx"
        lp.write_bytes(raw)
        with pytest.raises(FormatError, match=re.escape(message)):
            data.load_idx_labels(lp)

    def test_multichannel_export_rejected(self, tmp_path):
        images = np.zeros((2, 3, 4, 4))
        ds = data.Dataset(images, np.array([0, 1]), "train", 0)
        with pytest.raises(InputError, match="single-channel"):
            data.save_idx(ds, tmp_path / "i.idx", tmp_path / "l.idx")


class TestBatches:
    def dataset(self, m=10):
        images = np.linspace(0, 1, m * 4, dtype=np.float32).reshape(m, 1, 2, 2)
        labels = np.arange(m, dtype=np.int64) % 2
        return data.Dataset(images, labels, "train", 0)

    def test_batch_sizes(self):
        sizes = [len(lbl) for _, lbl in data.batches(self.dataset(), 4)]
        assert sizes == [4, 4, 2]

    def test_unshuffled_is_dataset_order(self):
        ds = self.dataset()
        seen = np.concatenate([img[:, 0, 0, 0] for img, _ in data.batches(ds, 3)])
        assert np.array_equal(seen, ds.images[:, 0, 0, 0])

    def test_unshuffled_repeatable(self):
        ds = self.dataset()
        a = [lbl.tolist() for _, lbl in data.batches(ds, 4)]
        b = [lbl.tolist() for _, lbl in data.batches(ds, 4)]
        assert a == b

    def test_shuffle_same_seed_identical(self):
        ds = self.dataset()
        a = np.concatenate([img[:, 0, 0, 0] for img, _ in data.batches(ds, 4, shuffle_seed=3)])
        b = np.concatenate([img[:, 0, 0, 0] for img, _ in data.batches(ds, 4, shuffle_seed=3)])
        assert np.array_equal(a, b)

    def test_shuffle_is_permutation(self):
        ds = self.dataset()
        a = np.concatenate([img[:, 0, 0, 0] for img, _ in data.batches(ds, 4, shuffle_seed=3)])
        assert np.array_equal(np.sort(a), ds.images[:, 0, 0, 0])
        different = np.concatenate([img[:, 0, 0, 0] for img, _ in data.batches(ds, 4, shuffle_seed=4)])
        assert not np.array_equal(a, different)

    def test_bad_batch_size(self):
        with pytest.raises(InputError, match="batch_size"):
            list(data.batches(self.dataset(), 0))


class TestCsvCodec:
    COLUMNS = {"name": (str, data.TEXT), "flag": (data.parse_bool, data.FLAG),
               "value": (data.finite_float, data.FINITE), "count": (int, data.integer(-1))}

    def test_writes_the_table_spelling(self, tmp_path):
        path = tmp_path / "t.csv"
        data.write_csv(path, self.COLUMNS, [("a,b", True, 0.1, 3), ("c", np.bool_(False), np.float32(0.5), 4)])
        assert path.read_bytes() == b'name,flag,value,count\n"a,b",true,0.1,3\nc,false,0.5,4\n'

    def test_round_trip(self, tmp_path):
        rows = [("a,b", True, 0.1, 3), ("é", False, -2.5e-300, -1)]
        path = tmp_path / "t.csv"
        data.write_csv(path, self.COLUMNS, rows)
        assert data.read_csv(path, self.COLUMNS, list) == rows

    @pytest.mark.parametrize("text,match", [
        ("", "header"),
        ("name,flag,value\n", "header"),
        ("name,flag,value,count\n", "no entries"),
        ("name,flag,value,count\na,true,1.0,1\nb,true,1.0\n", "row 3: 3 fields, expected 4"),
        ("name,flag,value,count\na,True,1.0,1\n", "row 2: flag must be true or false, got 'True'"),
        ("name,flag,value,count\na,true,nan,1\n", "row 2: value must be a finite number, got 'nan'"),
        ("name,flag,value,count\na,true,1.0,1.5\n", "row 2: count must be an integer"),
    ])
    def test_malformed_table_is_format_error(self, tmp_path, text, match):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError, match=match):
            data.read_csv(path, self.COLUMNS, list)

    def test_parsers(self):
        assert data.parse_bool("true") is True and data.parse_bool("false") is False
        assert data.finite_float("1e-3") == 1e-3
        for text in ("inf", "-inf", "nan", "1e999"):
            with pytest.raises(ValueError, match="not finite"):
                data.finite_float(text)
