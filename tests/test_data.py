import struct

import numpy as np
import pytest

from graftcert import Dataset, FormatError, UsageError, gaussian_blobs, load_dataset, two_moons
from graftcert.data import load_csv, load_idx_images, load_idx_labels


def write_idx_images(path, images):
    """images: uint8 array (n, rows, cols)"""
    n, r, c = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, r, c))
        fh.write(images.tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())


class TestIdx:
    def test_round_trip_and_scaling(self, tmp_path):
        rng = np.random.default_rng(0)
        imgs = rng.integers(0, 256, (5, 28, 28), dtype=np.uint8)
        labels = np.array([3, 1, 4, 1, 5], dtype=np.uint8)
        ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx_images(ip, imgs)
        write_idx_labels(lp, labels)
        ds = load_dataset({"kind": "idx", "images": str(ip), "labels": str(lp)})
        assert ds.features.shape == (5, 784)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
        assert np.array_equal(ds.features[0], imgs[0].reshape(-1) / 255.0)
        assert ds.labels.tolist() == [3, 1, 4, 1, 5]

    def test_bad_image_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000801, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(FormatError, match="byte 0"):
            load_idx_images(path)

    def test_bad_label_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">II", 0x00000803, 1) + b"\x00")
        with pytest.raises(FormatError, match="byte 0"):
            load_idx_labels(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 5)
        with pytest.raises(FormatError, match="byte 16"):
            load_idx_images(path)

    def test_count_mismatch(self, tmp_path):
        ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx_images(ip, np.zeros((3, 2, 2), dtype=np.uint8))
        write_idx_labels(lp, [0, 1])
        with pytest.raises(FormatError, match="count"):
            load_dataset({"kind": "idx", "images": str(ip), "labels": str(lp)})


class TestCsv:
    def test_parse_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,0.5,0.25\n0,0.125,0.75\n")
        ds = load_csv(path)
        assert ds.labels.tolist() == [1, 0]
        assert ds.features[0].tolist() == [0.5, 0.25]

    def test_via_load_dataset(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,0.5,0.25\n")
        ds = load_dataset({"kind": "csv", "path": str(path)})
        assert len(ds) == 1 and ds.dim == 2


class TestSynthetic:
    def test_seeded_determinism(self):
        a = load_dataset({"kind": "synthetic", "generator": "two_moons", "n": 100, "seed": 7})
        b = load_dataset({"kind": "synthetic", "generator": "two_moons", "n": 100, "seed": 7})
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        c = load_dataset({"kind": "synthetic", "generator": "two_moons", "n": 100, "seed": 8})
        assert not np.array_equal(a.features, c.features)

    def test_moons_in_unit_box(self):
        ds = two_moons(500, seed=1, noise=0.08)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
        assert set(ds.labels.tolist()) == {0, 1}

    def test_blobs_shapes_and_balance(self):
        ds = gaussian_blobs(90, dim=5, classes=3, seed=2)
        assert ds.features.shape == (90, 5)
        counts = np.bincount(ds.labels)
        assert counts.tolist() == [30, 30, 30]

    def test_blobs_shared_centers_across_splits(self):
        a = gaussian_blobs(2000, dim=4, classes=2, seed=1, center_seed=5, std=0.01)
        b = gaussian_blobs(2000, dim=4, classes=2, seed=2, center_seed=5, std=0.01)
        # per-class means nearly coincide when centers are shared
        for k in (0, 1):
            ma = a.features[a.labels == k].mean(axis=0)
            mb = b.features[b.labels == k].mean(axis=0)
            assert np.max(np.abs(ma - mb)) < 0.005

    def test_multimodal_classes(self):
        ds = gaussian_blobs(600, dim=2, classes=2, seed=3, clusters_per_class=3, std=0.01)
        # within-class spread far exceeds the noise scale when multimodal
        spread = ds.features[ds.labels == 0].std(axis=0).max()
        assert spread > 0.05

    def test_numpy_integers_are_integers(self):
        # the integer rule takes any integral type, numpy's included
        a = load_dataset({"kind": "synthetic", "n": np.int64(10), "seed": np.int32(1)})
        b = load_dataset({"kind": "synthetic", "n": 10, "seed": 1})
        assert a.features.tobytes() == b.features.tobytes() and len(a) == 10

    def test_unknown_generator_and_kind(self):
        with pytest.raises(UsageError):
            load_dataset({"kind": "synthetic", "generator": "spiral"})
        with pytest.raises(UsageError):
            load_dataset({"kind": "parquet"})
        with pytest.raises(UsageError):
            load_dataset("not-a-dict")


class TestBadSpecs:
    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"kind": "idx"}, "idx dataset spec has no 'images' entry"),
            ({"kind": "idx", "images": "img.idx"}, "idx dataset spec has no 'labels' entry"),
            ({"kind": "csv"}, "csv dataset spec has no 'path' entry"),
            ({"kind": "synthetic", "n": -3}, "dataset 'n' must be >= 1, got -3"),
            ({"kind": "synthetic", "n": 0}, "dataset 'n' must be >= 1, got 0"),
            ({"kind": "synthetic", "n": "many"}, "dataset 'n' must be an integer, got 'many'"),
            ({"kind": "synthetic", "n": None}, "dataset 'n' must be an integer, got None"),
            ({"kind": "synthetic", "generator": "blobs", "classes": 0},
             "dataset 'classes' must be >= 1, got 0"),
            ({"kind": "synthetic", "generator": "blobs", "dim": -1},
             "dataset 'dim' must be >= 1, got -1"),
            ({"kind": "synthetic", "generator": "blobs", "clusters_per_class": 0},
             "dataset 'clusters_per_class' must be >= 1, got 0"),
            ({"kind": "synthetic", "seed": -1}, "dataset 'seed' must be >= 0, got -1"),
            ({"kind": "synthetic", "seed": None}, "dataset 'seed' must be an integer, got None"),
            ({"kind": "synthetic", "generator": "blobs", "center_seed": -2},
             "dataset 'center_seed' must be >= 0, got -2"),
            ({"kind": "synthetic", "noise": "abc"}, "dataset 'noise' must be a number, got 'abc'"),
            ({"kind": "synthetic", "noise": -0.1},
             "dataset 'noise' must be a finite number >= 0.0, got -0.1"),
            ({"kind": "synthetic", "generator": "blobs", "std": "wide"},
             "dataset 'std' must be a number, got 'wide'"),
            ({"kind": "synthetic", "generator": "blobs", "std_max": [0.1]},
             "dataset 'std_max' must be a number, got [0.1]"),
            ({"kind": "synthetic", "generator": "blobs", "center_low": "low"},
             "dataset 'center_low' must be a number, got 'low'"),
            ({"kind": "synthetic", "generator": "blobs", "center_high": float("inf")},
             "dataset 'center_high' must be a finite number, got inf"),
            ({"kind": "csv", "path": None}, "csv dataset 'path' must be a file path, got None"),
            ({"kind": "idx", "images": 3, "labels": "l.idx"},
             "idx dataset 'images' must be a file path, got 3"),
            # fractions, bools and numeric strings are rejected, not truncated
            ({"kind": "synthetic", "n": 10.7, "seed": 1}, "dataset 'n' must be an integer, got 10.7"),
            ({"kind": "synthetic", "n": 10.0}, "dataset 'n' must be an integer, got 10.0"),
            ({"kind": "synthetic", "n": True}, "dataset 'n' must be an integer, got True"),
            ({"kind": "synthetic", "n": "12"}, "dataset 'n' must be an integer, got '12'"),
            ({"kind": "synthetic", "n": 10, "seed": 1.9}, "dataset 'seed' must be an integer, got 1.9"),
            ({"kind": "synthetic", "seed": False}, "dataset 'seed' must be an integer, got False"),
            ({"kind": "synthetic", "generator": "blobs", "dim": 2.5},
             "dataset 'dim' must be an integer, got 2.5"),
            ({"kind": "synthetic", "generator": "blobs", "classes": True},
             "dataset 'classes' must be an integer, got True"),
            ({"kind": "synthetic", "generator": "blobs", "clusters_per_class": 1.5},
             "dataset 'clusters_per_class' must be an integer, got 1.5"),
            ({"kind": "synthetic", "generator": "blobs", "center_seed": 3.0},
             "dataset 'center_seed' must be an integer, got 3.0"),
        ],
    )
    def test_plain_message(self, spec, message):
        with pytest.raises(UsageError) as info:
            load_dataset(spec)
        assert str(info.value) == message


class TestDataset:
    def test_validation(self):
        with pytest.raises(UsageError):
            Dataset(np.zeros((3, 2)), np.zeros(4, dtype=int))

    def test_subset_and_head(self):
        ds = gaussian_blobs(50, dim=2, classes=2, seed=4)
        assert len(ds.head(10)) == 10
        sub = ds.subset([1, 3, 5])
        assert np.array_equal(sub.features, ds.features[[1, 3, 5]])
        assert ds.num_classes == 2
