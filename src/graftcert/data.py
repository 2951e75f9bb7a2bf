"""Dataset ingestion: IDX image/label files, CSV rows, and seeded
synthetic generators (two moons and Gaussian blobs).

All features are float64; image bytes are scaled to [0, 1] and synthetic
data is generated inside [0, 1] so the usual pixel clip range applies.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, UsageError, require_integers

__all__ = ["Dataset", "load_dataset", "load_idx_images", "load_idx_labels",
           "load_csv", "two_moons", "gaussian_blobs"]

_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64

    def __post_init__(self):
        X = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise UsageError("dataset needs (n, d) features and (n,) labels")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self) else 0

    def subset(self, idx) -> "Dataset":
        return Dataset(self.features[idx], self.labels[idx])

    def head(self, n: int) -> "Dataset":
        return self.subset(slice(0, n))


def _read_be32(fh, path, offset: int) -> int:
    data = fh.read(4)
    if len(data) != 4:
        raise FormatError(f"{path}: truncated header at byte {offset}")
    return struct.unpack(">I", data)[0]


def load_idx_images(path) -> np.ndarray:
    """Read an IDX image file: big-endian magic 0x00000803, dims header,
    raw bytes scaled to [0, 1] and flattened per image."""
    with open(path, "rb") as fh:
        magic = _read_be32(fh, path, 0)
        if magic != _IDX_IMAGE_MAGIC:
            raise FormatError(
                f"{path}: bad image magic 0x{magic:08x} at byte 0 "
                f"(expected 0x{_IDX_IMAGE_MAGIC:08x})"
            )
        count = _read_be32(fh, path, 4)
        rows = _read_be32(fh, path, 8)
        cols = _read_be32(fh, path, 12)
        payload = fh.read()
    expected = count * rows * cols
    if len(payload) != expected:
        raise FormatError(
            f"{path}: expected {expected} pixel bytes from byte 16, got {len(payload)}"
        )
    data = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    return data.reshape(count, rows * cols)


def load_idx_labels(path) -> np.ndarray:
    """Read an IDX label file: big-endian magic 0x00000801."""
    with open(path, "rb") as fh:
        magic = _read_be32(fh, path, 0)
        if magic != _IDX_LABEL_MAGIC:
            raise FormatError(
                f"{path}: bad label magic 0x{magic:08x} at byte 0 "
                f"(expected 0x{_IDX_LABEL_MAGIC:08x})"
            )
        count = _read_be32(fh, path, 4)
        payload = fh.read()
    if len(payload) != count:
        raise FormatError(
            f"{path}: expected {count} label bytes from byte 8, got {len(payload)}"
        )
    return np.frombuffer(payload, dtype=np.uint8).astype(np.int64)


def load_csv(path) -> Dataset:
    """Rows of ``label,feature,feature,...``."""
    data = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    if data.shape[1] < 2:
        raise FormatError(f"{path}: need at least one feature column")
    return Dataset(data[:, 1:], data[:, 0].astype(np.int64))


def two_moons(n: int, seed: int = 0, noise: float = 0.06) -> Dataset:
    """Two interleaved half-circles mapped into [0, 1]^2."""
    rng = np.random.default_rng(seed)
    n0 = n // 2
    n1 = n - n0
    t0 = rng.uniform(0.0, np.pi, n0)
    t1 = rng.uniform(0.0, np.pi, n1)
    outer = np.stack([np.cos(t0), np.sin(t0)], axis=1)
    inner = np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
    X = np.vstack([outer, inner]) + rng.normal(0.0, noise, (n, 2))
    y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    # affine map of the natural range x in [-1, 2], y in [-0.5, 1] into the unit box
    X[:, 0] = (X[:, 0] + 1.0) / 3.0
    X[:, 1] = (X[:, 1] + 0.5) / 1.5
    X = np.clip(X, 0.0, 1.0)
    perm = rng.permutation(n)
    return Dataset(X[perm], y[perm])


def gaussian_blobs(
    n: int,
    dim: int = 2,
    classes: int = 2,
    seed: int = 0,
    std: float = 0.08,
    std_max: float | None = None,
    center_low: float = 0.25,
    center_high: float = 0.75,
    center_seed: int | None = None,
    clusters_per_class: int = 1,
) -> Dataset:
    """Gaussian clusters with uniform-random centers, clipped to [0, 1]^dim.
    Class sizes are balanced up to rounding.

    ``center_seed`` fixes the cluster centers independently of the sample
    seed, so train/test splits share one distribution.  ``std_max`` draws a
    per-example noise scale from [std, std_max], spreading difficulty the
    way natural data does; ``clusters_per_class`` > 1 makes classes
    multimodal, so the optimal decision boundary is genuinely nonlinear.
    """
    center_rng = np.random.default_rng(seed if center_seed is None else center_seed)
    rng = np.random.default_rng(seed)
    centers = center_rng.uniform(
        center_low, center_high, (classes, clusters_per_class, dim)
    )
    y = np.arange(n, dtype=np.int64) % classes
    mode = rng.integers(0, clusters_per_class, n)
    if std_max is None:
        scale = np.full(n, std)
    else:
        scale = rng.uniform(std, std_max, n)
    X = centers[y, mode] + scale[:, None] * rng.normal(0.0, 1.0, (n, dim))
    X = np.clip(X, 0.0, 1.0)
    perm = rng.permutation(n)
    return Dataset(X[perm], y[perm])


def load_dataset(spec: dict) -> Dataset:
    """Build a dataset from a JSON-style spec.

    Kinds: {"kind": "idx", "images": ..., "labels": ...},
    {"kind": "csv", "path": ...}, or {"kind": "synthetic", "generator":
    "two_moons" | "blobs", "n": ..., "seed": ..., ...generator knobs}.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise UsageError(f"dataset spec must be a dict with a 'kind', got {spec!r}")
    kind = spec["kind"]

    def required(key):
        if key not in spec:
            raise UsageError(f"{kind} dataset spec has no {key!r} entry")
        return spec[key]

    def integer(key, value):
        # the rule of the experiment config's counts: a bool, a float or a
        # string is not an integer, so 10.7 fails instead of truncating
        require_integers(**{f"dataset {key!r}": value})
        return int(value)

    def count(key, default):
        value = spec.get(key, default)
        n = integer(key, value)
        if n < 1:
            raise UsageError(f"dataset {key!r} must be >= 1, got {value!r}")
        return n

    def seed_value(key, default):
        value = spec.get(key, default)
        if value is None and default is None:
            return None
        s = integer(key, value)
        if s < 0:
            raise UsageError(f"dataset {key!r} must be >= 0, got {value!r}")
        return s

    def real(key, default, low=None):
        value = spec.get(key, default)
        if value is None and default is None:
            return None
        try:
            x = float(value)
        except (TypeError, ValueError):
            raise UsageError(f"dataset {key!r} must be a number, got {value!r}") from None
        if not np.isfinite(x) or (low is not None and x < low):
            bound = "a finite number" if low is None else f"a finite number >= {low}"
            raise UsageError(f"dataset {key!r} must be {bound}, got {value!r}")
        return x

    def path(key):
        value = required(key)
        if not isinstance(value, (str, os.PathLike)):
            raise UsageError(f"{kind} dataset {key!r} must be a file path, got {value!r}")
        return value

    if kind == "idx":
        images, labels = path("images"), path("labels")
        X = load_idx_images(images)
        y = load_idx_labels(labels)
        if X.shape[0] != y.shape[0]:
            raise FormatError(
                f"image count {X.shape[0]} does not match label count {y.shape[0]}"
            )
        return Dataset(X, y)
    if kind == "csv":
        return load_csv(path("path"))
    if kind == "synthetic":
        gen = spec.get("generator", "two_moons")
        n = count("n", 512)
        seed = seed_value("seed", 0)
        if gen == "two_moons":
            return two_moons(n, seed, real("noise", 0.06, low=0.0))
        if gen == "blobs":
            return gaussian_blobs(
                n,
                dim=count("dim", 2),
                classes=count("classes", 2),
                seed=seed,
                std=real("std", 0.08, low=0.0),
                std_max=real("std_max", None, low=0.0),
                center_low=real("center_low", 0.25),
                center_high=real("center_high", 0.75),
                center_seed=seed_value("center_seed", None),
                clusters_per_class=count("clusters_per_class", 1),
            )
        raise UsageError(f"unknown synthetic generator {gen!r}")
    raise UsageError(f"unknown dataset kind {kind!r}")
