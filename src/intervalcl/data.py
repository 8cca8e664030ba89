"""Datasets and task-sequence builders.

Everything emitted downstream obeys the same contract: inputs are float64
in [0, 1], labels are integers in [0, classes), splits are disjoint, and
every task in a sequence shares one class count. Generators are pure
functions of their seed.
Permuted and rotated image tasks come from one builder that applies each
task's transform to a shared split of the base images.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049


class DataError(ValueError):
    """Missing, corrupt, or inconsistent data files."""


@dataclass
class LabeledData:
    """Inputs in the unit box with integer labels."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise ValueError(f"labels must be integers, got {self.labels.dtype}")
        if self.labels.ndim != 1:
            raise ValueError(f"labels must be a vector, got shape {self.labels.shape}")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ValueError(f"{self.inputs.shape[0]} inputs vs "
                             f"{self.labels.shape[0]} labels")
        # NaN fails both comparisons.
        if self.inputs.size and not (self.inputs.min() >= 0.0 and self.inputs.max() <= 1.0):
            raise ValueError("inputs must be finite and lie in [0, 1]")
        if self.labels.size and self.labels.min() < 0:
            raise ValueError("labels must be non-negative")

    def __len__(self):
        return self.labels.shape[0]


@dataclass
class Task:
    """Train/val/test splits of one task plus its provenance."""

    train: LabeledData
    val: LabeledData
    test: LabeledData
    classes: int
    descriptor: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("train", "val", "test"):
            split = getattr(self, name)
            if split.labels.size and split.labels.max() >= self.classes:
                raise ValueError(
                    f"{name} split holds label {split.labels.max()} for "
                    f"{self.classes} classes")


def validate_sequence(tasks) -> None:
    """Every task must agree on the class count."""
    if not tasks:
        raise ValueError("empty task sequence")
    classes = {t.classes for t in tasks}
    if len(classes) != 1:
        raise ValueError(f"tasks disagree on class count: {sorted(classes)}")


# ---- IDX files -----------------------------------------------------------


def _read_idx(path: str, expected_magic: int) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if len(raw) < 8:
        raise DataError(f"{path}: header truncated at {len(raw)} bytes")
    magic = struct.unpack(">l", raw[:4])[0]
    if magic != expected_magic:
        raise DataError(f"{path}: magic {magic}, expected {expected_magic}")
    rank = 1 if expected_magic == LABEL_MAGIC else 3
    header_len = 4 + 4 * rank
    if len(raw) < header_len:
        raise DataError(f"{path}: dimension header truncated")
    dims = struct.unpack(f">{rank}l", raw[4:header_len])
    count = int(np.prod(dims))
    payload = raw[header_len:]
    if len(payload) != count:
        raise DataError(
            f"{path}: payload holds {len(payload)} bytes, header promises {count}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_idx(images_path: str, labels_path: str) -> LabeledData:
    """Load an IDX image/label file pair, scaling pixels to [0, 1]."""
    images = _read_idx(images_path, IMAGE_MAGIC)
    labels = _read_idx(labels_path, LABEL_MAGIC)
    if images.shape[0] != labels.shape[0]:
        raise DataError(
            f"{images.shape[0]} images vs {labels.shape[0]} labels")
    return LabeledData(images.astype(np.float64) / 255.0,
                       labels.astype(np.int64))


# ---- geometry helpers ----------------------------------------------------


def downsample_images(images: np.ndarray, factor: int) -> np.ndarray:
    """Mean-pool (N, H, W) by an integer factor, center-cropping first."""
    if factor < 1:
        raise ValueError(f"factor must be positive, got {factor}")
    if factor == 1:
        return np.asarray(images, dtype=np.float64)
    images = np.asarray(images, dtype=np.float64)
    n, h, w = images.shape
    ch, cw = (h // factor) * factor, (w // factor) * factor
    if ch == 0 or cw == 0:
        raise ValueError(f"factor {factor} larger than image {h}x{w}")
    top, left = (h - ch) // 2, (w - cw) // 2
    cropped = images[:, top:top + ch, left:left + cw]
    return cropped.reshape(n, ch // factor, factor, cw // factor, factor).mean(axis=(2, 4))


def rotate_images(images: np.ndarray, angle: float) -> np.ndarray:
    """Rotate (N, H, W) about the image centre; out-of-frame reads as 0.

    Each output pixel reads its nearest source pixel. Angles are degrees,
    positive rotating the content the same way as ``np.rot90``; multiples
    of 90 use exact trig values so they reproduce ``np.rot90`` bit for bit.
    """
    images = np.asarray(images, dtype=np.float64)
    _, h, w = images.shape
    if angle % 90 == 0:
        quarter = int(angle // 90) % 4
        cos_t, sin_t = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)][quarter]
    else:
        rad = np.deg2rad(angle)
        cos_t, sin_t = np.cos(rad), np.sin(rad)
    ci, cj = (h - 1) / 2.0, (w - 1) / 2.0
    di, dj = np.meshgrid(np.arange(h) - ci, np.arange(w) - cj, indexing="ij")
    ii = np.rint(ci + cos_t * di + sin_t * dj).astype(int)
    jj = np.rint(cj - sin_t * di + cos_t * dj).astype(int)
    inside = (ii >= 0) & (ii < h) & (jj >= 0) & (jj < w)
    out = images[:, np.clip(ii, 0, h - 1), np.clip(jj, 0, w - 1)] * inside
    return np.clip(out, 0.0, 1.0)


def split_indices(count: int, sizes, seed: int) -> list[np.ndarray]:
    """Disjoint index blocks of the given sizes from a seeded shuffle."""
    if any(size < 0 for size in sizes):
        raise ValueError(f"split sizes must be non-negative, got {tuple(sizes)}")
    total = sum(sizes)
    if total > count:
        raise ValueError(f"requested {total} samples from {count}")
    order = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                         spawn_key=(731,))).permutation(count)
    blocks = []
    start = 0
    for size in sizes:
        blocks.append(order[start:start + size])
        start += size
    return blocks


# ---- task builders over a base image dataset -----------------------------


def _image_tasks(images, labels, seed, kind, key, values, transform, *,
                 train_size, val_size, test_size, flat) -> list[Task]:
    """One task per value on one shared split of the (N, H, W) ``images``.

    Each split goes through ``transform(images, value)``; the task's
    descriptor records the value under ``key``.
    """
    for name, size in (("train", train_size), ("val", val_size), ("test", test_size)):
        if size < 1:
            raise ValueError(f"{name}_size must be at least 1, got {size}")
    labels = np.asarray(labels, dtype=np.int64)
    classes = int(labels.max()) + 1
    splits = [(images[index], labels[index]) for index in split_indices(
        images.shape[0], (train_size, val_size, test_size), seed)]
    tasks = []
    for t, value in enumerate(values):
        split = []
        for x, y in splits:
            x = transform(x, value)
            # flat vectors, or images with a single channel
            x = x.reshape(x.shape[0], -1) if flat else x[..., None]
            split.append(LabeledData(x, y))
        tasks.append(Task(*split, classes=classes,
                          descriptor={"kind": kind, "task": t, key: value}))
    return tasks


def build_permuted_tasks(images, labels, task_count: int, seed: int, *,
                         downsample: int = 1, train_size: int, val_size: int,
                         test_size: int, flat: bool = True) -> list[Task]:
    """Pixel-permutation task sequence from one base image set.

    The first task keeps the identity permutation; later tasks shuffle the
    pixel positions with their own seeded permutation. All tasks share the
    same underlying train/val/test split of the base data.
    """
    if task_count < 1:
        raise ValueError("need at least one task")
    images = downsample_images(np.asarray(images, dtype=np.float64), downsample)
    width = images.shape[1] * images.shape[2]
    perms = [np.arange(width)] + [
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
        .permutation(width) for t in range(1, task_count)]
    return _image_tasks(
        images, labels, seed, "permuted", "permutation", perms,
        lambda x, perm: x.reshape(x.shape[0], -1)[:, perm].reshape(x.shape),
        train_size=train_size, val_size=val_size, test_size=test_size, flat=flat)


def build_rotated_tasks(images, labels, angles, seed: int, *,
                        downsample: int = 1, train_size: int, val_size: int,
                        test_size: int, flat: bool = True) -> list[Task]:
    """Rotation task sequence: one task per angle."""
    if not len(angles):
        raise ValueError("need at least one angle")
    if not np.isfinite(np.asarray(angles, dtype=np.float64)).all():
        raise ValueError(f"angles must be finite, got {list(angles)}")
    images = downsample_images(np.asarray(images, dtype=np.float64), downsample)
    return _image_tasks(images, labels, seed, "rotated", "angle",
                        [float(a) for a in angles], rotate_images,
                        train_size=train_size, val_size=val_size,
                        test_size=test_size, flat=flat)


# ---- synthetic generators ------------------------------------------------


def _balanced_labels(count: int, classes: int, rng) -> np.ndarray:
    labels = np.arange(count) % classes
    rng.shuffle(labels)
    return labels


def _check_spread(spread):
    # Written so that NaN fails the check.
    if not 0.0 <= spread < np.inf:
        raise ValueError(f"spread must be finite and non-negative, got {spread}")


def gen_blobs_tasks(task_count: int, *, classes: int = 3, dims: int = 2,
                    train_size: int = 300, val_size: int = 60,
                    test_size: int = 150, separation: float = 0.35,
                    spread: float = 0.05, seed: int = 0,
                    means=None) -> list[Task]:
    """Isotropic Gaussian clusters; every task draws fresh seeded means.

    Means live in [0.15, 0.85]^dims with pairwise distance at least
    ``separation``; samples are clipped to the unit box. Labels are
    balanced to within one sample per split.

    Pass ``means`` with shape (task_count, classes, dims) to place the
    clusters explicitly instead; ``separation`` is then ignored.
    """
    for name, value in (("classes", classes), ("dims", dims)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if means is not None:
        means = np.asarray(means, dtype=np.float64)
        if means.shape != (task_count, classes, dims):
            raise ValueError(
                f"means shape {means.shape} does not match "
                f"({task_count}, {classes}, {dims})")
        if means.min() < 0.0 or means.max() > 1.0:
            raise ValueError("means must lie inside the unit box")
    elif not separation > 0.0:
        raise ValueError(f"separation must be positive, got {separation}")
    _check_spread(spread)
    tasks = []
    for t in range(task_count):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                           spawn_key=(t,)))
        if means is None:
            task_means = _draw_separated_means(rng, classes, dims, separation)
        else:
            task_means = means[t]

        def draw(count):
            labels = _balanced_labels(count, classes, rng)
            points = task_means[labels] + spread * rng.normal(size=(count, dims))
            return LabeledData(np.clip(points, 0.0, 1.0), labels)

        tasks.append(Task(
            train=draw(train_size), val=draw(val_size), test=draw(test_size),
            classes=classes,
            descriptor={"kind": "blobs", "task": t, "means": task_means},
        ))
    return tasks


def ring_task_means(task_count: int, *, classes: int = 3,
                    radius: float = 0.3, center: float = 0.5,
                    task_step_degrees: float = 40.0) -> np.ndarray:
    """Class means on one shared circle, each task rotated a step further.

    Class ``c`` of task ``t`` sits at angle ``t*task_step_degrees +
    c*360/classes`` on the circle. Because every task occupies the same
    annulus, inputs from one task land near the decision boundaries of
    the others — the overlap that makes entropy-based task inference
    meaningful. Returns a (task_count, classes, 2) array for the
    ``means`` argument of :func:`gen_blobs_tasks`.
    """
    # Written so that NaN fails the check.
    if not (radius > 0.0 and center - radius >= 0.0 and center + radius <= 1.0):
        raise ValueError("circle must fit inside the unit box")
    angles = (np.deg2rad(task_step_degrees) * np.arange(task_count)[:, None]
              + 2.0 * np.pi / classes * np.arange(classes)[None, :])
    return np.stack([center + radius * np.cos(angles),
                     center + radius * np.sin(angles)], axis=-1)


def _draw_separated_means(rng, classes, dims, separation):
    for _ in range(1000):  # draws before giving up
        means = rng.uniform(0.15, 0.85, size=(classes, dims))
        gaps = np.linalg.norm(means[:, None] - means[None, :], axis=-1)
        gaps[np.diag_indices(classes)] = np.inf
        if gaps.min() >= separation:
            return means
    raise ValueError(
        f"could not place {classes} means {separation} apart in {dims} dims")


_TOY2D_CENTERS = np.array([[0.3, 0.3], [0.7, 0.7]])


def gen_toy2d(points_per_class: int, seed: int, *, spread: float = 0.08,
              pair_count: int | None = None):
    """Two 2-d clusters around ``_TOY2D_CENTERS`` plus greedily matched
    cross-class pairs.

    Pairs are chosen by repeatedly taking the closest still-unused
    cross-class pair, nearest first.

    Returns:
        (LabeledData of the real points, int array of index pairs (P, 2)).
    """
    if points_per_class < 1:
        raise ValueError("need at least one point per class")
    _check_spread(spread)
    if pair_count is not None and pair_count < 1:
        raise ValueError(f"pair_count must be at least 1 (None for all), got {pair_count}")
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(2), points_per_class)
    points = np.clip(_TOY2D_CENTERS[labels] + spread * rng.normal(size=(2 * points_per_class, 2)),
                     0.0, 1.0)
    data = LabeledData(points, labels)

    idx_a = np.flatnonzero(labels == 0)
    idx_b = np.flatnonzero(labels == 1)
    max_pairs = min(len(idx_a), len(idx_b))
    if pair_count is None:
        pair_count = max_pairs
    if pair_count > max_pairs:
        raise ValueError(f"{pair_count} pairs requested, only {max_pairs} possible")

    dists = np.linalg.norm(points[idx_a][:, None] - points[idx_b][None], axis=-1)
    order = np.argsort(dists, axis=None, kind="stable")
    used_a = np.zeros(len(idx_a), dtype=bool)
    used_b = np.zeros(len(idx_b), dtype=bool)
    pairs = []
    for flat_idx in order:
        ia, ib = np.unravel_index(flat_idx, dists.shape)
        if used_a[ia] or used_b[ib]:
            continue
        used_a[ia] = used_b[ib] = True
        pairs.append((idx_a[ia], idx_b[ib]))
        if len(pairs) == pair_count:
            break
    return data, np.array(pairs, dtype=np.int64)


# 7-segment style glyphs give ten clearly distinct 8x8 digit templates.
_SEGMENTS = {
    "0": "abcdef", "1": "bc", "2": "abged", "3": "abgcd", "4": "fgbc",
    "5": "afgcd", "6": "afgedc", "7": "abc", "8": "abcdefg", "9": "abcfgd",
}


def _digit_glyph(digit: str) -> np.ndarray:
    glyph = np.zeros((8, 8))
    segs = _SEGMENTS[digit]
    if "a" in segs:
        glyph[0, 1:7] = 1.0
    if "d" in segs:
        glyph[7, 1:7] = 1.0
    if "g" in segs:
        glyph[3:5, 1:7] = 1.0
    if "f" in segs:
        glyph[0:4, 0] = 1.0
    if "b" in segs:
        glyph[0:4, 7] = 1.0
    if "e" in segs:
        glyph[4:8, 0] = 1.0
    if "c" in segs:
        glyph[4:8, 7] = 1.0
    return glyph


def gen_digits(count: int, seed: int, *, noise: float = 0.08) -> LabeledData:
    """Synthetic 8x8 digit images: rescaled, noisy glyph templates.

    Balanced over the ten classes; returns images shaped (count, 8, 8).
    """
    if count < 1:
        raise ValueError("need at least one sample")
    # Written so that NaN fails the check.
    if not 0.0 <= noise < np.inf:
        raise ValueError(f"noise must be finite and non-negative, got {noise}")
    rng = np.random.default_rng(seed)
    glyphs = np.stack([_digit_glyph(str(d)) for d in range(10)])
    labels = _balanced_labels(count, 10, rng)
    intensity = rng.uniform(0.7, 1.0, size=(count, 1, 1))
    images = glyphs[labels] * intensity + noise * rng.normal(size=(count, 8, 8))
    return LabeledData(np.clip(images, 0.0, 1.0), labels)
