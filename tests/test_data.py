"""Dataset containers, IDX parsing, geometry, and generators."""

import struct

import numpy as np
import pytest

from intervalcl.data import (
    DataError,
    LabeledData,
    Task,
    build_permuted_tasks,
    build_rotated_tasks,
    downsample_images,
    gen_blobs_tasks,
    ring_task_means,
    gen_digits,
    gen_toy2d,
    load_idx,
    rotate_images,
    split_indices,
    validate_sequence,
)


def softmax_probe(x, y, classes, *, iters=400, lr=1.0):
    """Plain-numpy multinomial logistic regression, used as a learnability
    oracle independent of the package's own autodiff."""
    w = np.zeros((x.shape[1], classes))
    b = np.zeros(classes)
    onehot = np.eye(classes)[y]
    n = x.shape[0]
    for _ in range(iters):
        z = x @ w + b
        z = z - z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p = p / p.sum(axis=1, keepdims=True)
        g = (p - onehot) / n
        w = w - lr * (x.T @ g)
        b = b - lr * g.sum(axis=0)

    def predict(q):
        return np.argmax(q @ w + b, axis=1)

    return predict


# ---- containers ----------------------------------------------------------


class TestLabeledData:
    def test_accepts_unit_box(self):
        d = LabeledData(np.array([[0.0, 1.0], [0.5, 0.25]]), np.array([0, 1]))
        assert len(d) == 2
        assert d.inputs.dtype == np.float64

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            LabeledData(np.array([[1.5]]), np.array([0]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            LabeledData(np.array([[-0.1]]), np.array([0]))

    def test_rejects_nan_inputs(self):
        # NaN passes ``x < 0`` and ``x > 1``; it must not pass the box check.
        for bad in ([[np.nan, 0.5]], [[0.5, np.nan]]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                LabeledData(np.array(bad), np.array([0]))

    def test_rejects_float_labels(self):
        with pytest.raises(ValueError, match="integer"):
            LabeledData(np.array([[0.5]]), np.array([0.0]))

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError, match="2 inputs vs 1 labels"):
            LabeledData(np.zeros((2, 3)), np.array([0]))

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError, match="non-negative"):
            LabeledData(np.zeros((1, 3)), np.array([-1]))


class TestTask:
    def _split(self, labels):
        return LabeledData(np.zeros((len(labels), 2)), np.asarray(labels))

    def test_accepts_consistent(self):
        t = Task(self._split([0, 1]), self._split([1]), self._split([0]), classes=2)
        validate_sequence([t, t])

    def test_rejects_label_beyond_classes(self):
        with pytest.raises(ValueError, match="label 2 for 2 classes"):
            Task(self._split([0, 2]), self._split([0]), self._split([0]), classes=2)

    def test_sequence_rejects_class_mismatch(self):
        a = Task(self._split([0]), self._split([0]), self._split([0]), classes=2)
        b = Task(self._split([0]), self._split([0]), self._split([0]), classes=3)
        with pytest.raises(ValueError, match="disagree"):
            validate_sequence([a, b])

    def test_sequence_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            validate_sequence([])


# ---- IDX parsing ---------------------------------------------------------


def write_idx_pair(tmp_path, images_u8, labels_u8):
    """Byte-level fixture writer, independent of the loader."""
    n, h, w = images_u8.shape
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    images_path.write_bytes(struct.pack(">llll", 2051, n, h, w) + images_u8.tobytes())
    labels_path.write_bytes(struct.pack(">ll", 2049, n) + labels_u8.tobytes())
    return str(images_path), str(labels_path)


class TestLoadIdx:
    def test_round_trip_values_and_scaling(self, tmp_path):
        rng = np.random.default_rng(3)
        images = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
        images[0, 0, 0] = 0
        images[0, 0, 1] = 255
        images[0, 0, 2] = 128
        labels = np.array([0, 3, 1, 2, 9], dtype=np.uint8)
        data = load_idx(*write_idx_pair(tmp_path, images, labels))
        assert data.inputs.shape == (5, 4, 3)
        assert np.array_equal(data.labels, labels)
        assert data.inputs[0, 0, 0] == 0.0
        assert data.inputs[0, 0, 1] == 1.0
        assert data.inputs[0, 0, 2] == 128 / 255
        assert np.array_equal(data.inputs, images / 255.0)

    def test_bad_image_magic(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">llll", 1234, 1, 2, 2) + images.tobytes())
        labels_path = tmp_path / "labels.idx"
        labels_path.write_bytes(struct.pack(">ll", 2049, 1) + b"\x00")
        with pytest.raises(DataError, match="magic 1234, expected 2051"):
            load_idx(str(path), str(labels_path))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">llll", 2051, 2, 2, 2) + b"\x00" * 5)
        labels_path = tmp_path / "labels.idx"
        labels_path.write_bytes(struct.pack(">ll", 2049, 2) + b"\x00\x01")
        with pytest.raises(DataError, match="5 bytes, header promises 8"):
            load_idx(str(path), str(labels_path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tiny.idx"
        path.write_bytes(b"\x00\x00")
        with pytest.raises(DataError, match="truncated"):
            load_idx(str(path), str(path))

    def test_count_mismatch_between_files(self, tmp_path):
        images = np.zeros((3, 2, 2), dtype=np.uint8)
        labels = np.zeros(2, dtype=np.uint8)
        images_path = tmp_path / "images.idx"
        labels_path = tmp_path / "labels.idx"
        images_path.write_bytes(struct.pack(">llll", 2051, 3, 2, 2) + images.tobytes())
        labels_path.write_bytes(struct.pack(">ll", 2049, 2) + labels.tobytes())
        with pytest.raises(DataError, match="3 images vs 2 labels"):
            load_idx(str(images_path), str(labels_path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_idx(str(tmp_path / "absent.idx"), str(tmp_path / "absent2.idx"))


# ---- geometry ------------------------------------------------------------


class TestDownsample:
    def test_exact_block_means(self):
        img = np.arange(16, dtype=np.float64).reshape(1, 4, 4) / 16.0
        out = downsample_images(img, 2)
        expected = np.array([[[img[0, :2, :2].mean(), img[0, :2, 2:].mean()],
                              [img[0, 2:, :2].mean(), img[0, 2:, 2:].mean()]]])
        assert np.array_equal(out, expected)

    def test_center_crop_of_odd_size(self):
        img = np.zeros((1, 5, 5))
        img[0, 2, 2] = 1.0  # centre pixel survives a centred crop
        out = downsample_images(img, 2)
        assert out.shape == (1, 2, 2)
        assert out.sum() == 0.25  # one bright pixel averaged over a 2x2 block

    def test_factor_one_identity(self):
        img = np.random.default_rng(0).uniform(size=(2, 3, 3))
        assert np.array_equal(downsample_images(img, 1), img)

    def test_factor_too_large(self):
        with pytest.raises(ValueError, match="larger than image"):
            downsample_images(np.zeros((1, 2, 2)), 3)


class TestRotate:
    def test_zero_identity(self):
        img = np.random.default_rng(1).uniform(size=(3, 5, 5))
        assert np.array_equal(rotate_images(img, 0.0), img)
        assert np.array_equal(rotate_images(img, 360.0), img)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_quarter_turns_match_rot90(self, k):
        img = np.random.default_rng(2).uniform(size=(4, 6, 6))
        out = rotate_images(img, 90.0 * k)
        expected = np.stack([np.rot90(im, k=k) for im in img])
        assert np.array_equal(out, expected)

    def test_small_angle_keeps_centre(self):
        img = np.zeros((1, 7, 7))
        img[0, 3, 3] = 1.0
        out = rotate_images(img, 30.0)
        assert out[0, 3, 3] == 1.0

    def test_out_of_frame_reads_zero(self):
        img = np.ones((1, 4, 4))
        out = rotate_images(img, 45.0)
        assert out[0, 0, 0] == 0.0  # the corner leaves the frame


class TestSplitIndices:
    def test_disjoint_and_sized(self):
        blocks = split_indices(100, (60, 10, 30), seed=5)
        assert [len(b) for b in blocks] == [60, 10, 30]
        joined = np.concatenate(blocks)
        assert len(np.unique(joined)) == 100

    def test_deterministic(self):
        a = split_indices(50, (20, 10), seed=7)
        b = split_indices(50, (20, 10), seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_seed_changes_split(self):
        a = split_indices(50, (25,), seed=1)[0]
        b = split_indices(50, (25,), seed=2)[0]
        assert not np.array_equal(a, b)

    def test_oversubscription(self):
        with pytest.raises(ValueError, match="requested 11 samples from 10"):
            split_indices(10, (6, 5), seed=0)

    def test_negative_size_is_refused(self):
        # (-3, 2) used to return a 7-index first block.
        with pytest.raises(ValueError, match="non-negative"):
            split_indices(10, (-3, 2), seed=0)


# ---- permuted / rotated task builders ------------------------------------


@pytest.fixture(scope="module")
def small_digits():
    return gen_digits(220, seed=11)


class TestPermutedTasks:
    def build(self, data, **kw):
        args = dict(task_count=3, seed=4, train_size=120, val_size=40,
                    test_size=50)
        args.update(kw)
        return build_permuted_tasks(data.inputs, data.labels, **args)

    def test_first_task_is_identity(self, small_digits):
        tasks = self.build(small_digits)
        perm = tasks[0].descriptor["permutation"]
        assert np.array_equal(perm, np.arange(64))
        # identity task inputs are the raw flattened images of its split
        flat = tasks[0].train.inputs
        assert flat.shape == (120, 64)

    def test_inverse_permutation_recovers_base(self, small_digits):
        tasks = self.build(small_digits)
        base = tasks[0]
        for t in (1, 2):
            perm = tasks[t].descriptor["permutation"]
            inverse = np.argsort(perm)
            assert np.array_equal(tasks[t].test.inputs[:, inverse],
                                  base.test.inputs)
            assert np.array_equal(tasks[t].test.labels, base.test.labels)

    def test_tasks_share_split_and_differ_in_layout(self, small_digits):
        tasks = self.build(small_digits)
        assert np.array_equal(tasks[0].train.labels, tasks[1].train.labels)
        assert not np.array_equal(tasks[0].train.inputs, tasks[1].train.inputs)
        assert not np.array_equal(tasks[1].descriptor["permutation"],
                                  tasks[2].descriptor["permutation"])

    def test_deterministic(self, small_digits):
        a = self.build(small_digits)
        b = self.build(small_digits)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.train.inputs, tb.train.inputs)

    def test_image_layout_option(self, small_digits):
        tasks = self.build(small_digits, flat=False)
        assert tasks[0].train.inputs.shape == (120, 8, 8, 1)

    def test_downsample_option(self, small_digits):
        tasks = self.build(small_digits, downsample=2)
        assert tasks[0].train.inputs.shape == (120, 16)

    @pytest.mark.parametrize("split,size", [("train", -90), ("train", 0),
                                            ("val", 0), ("test", 0)])
    def test_split_size_below_one_is_refused(self, small_digits, split, size):
        # train_size=-90 used to train quietly on 10 samples; a size of 0
        # failed in a reshape.
        with pytest.raises(ValueError, match=f"{split}_size must be at least 1"):
            self.build(small_digits, **{f"{split}_size": size})


class TestRotatedTasks:
    def build(self, data, **kw):
        args = dict(angles=(0.0, 90.0), seed=4, train_size=100, val_size=30,
                    test_size=40)
        args.update(kw)
        return build_rotated_tasks(data.inputs, data.labels, **args)

    def test_angle_zero_task_is_raw(self, small_digits):
        tasks = self.build(small_digits)
        assert tasks[0].descriptor["angle"] == 0.0
        assert tasks[0].train.inputs.shape == (100, 64)

    def test_quarter_turn_matches_rot90_of_first_task(self, small_digits):
        tasks = self.build(small_digits)
        base = tasks[0].test.inputs.reshape(-1, 8, 8)
        rotated = tasks[1].test.inputs.reshape(-1, 8, 8)
        expected = np.stack([np.rot90(im) for im in base])
        assert np.array_equal(rotated, expected)

    def test_labels_shared_across_angles(self, small_digits):
        tasks = self.build(small_digits, angles=(0.0, 30.0, 60.0))
        for t in tasks[1:]:
            assert np.array_equal(t.train.labels, tasks[0].train.labels)

    def test_split_size_below_one_is_refused(self, small_digits):
        with pytest.raises(ValueError, match="val_size must be at least 1"):
            self.build(small_digits, val_size=0)

    @pytest.mark.parametrize("angle", [np.nan, np.inf])
    def test_non_finite_angle_is_refused(self, small_digits, angle):
        # A NaN angle used to fail inside the rotation's integer cast.
        with pytest.raises(ValueError, match="angles must be finite"):
            self.build(small_digits, angles=(0.0, angle))


# ---- blobs ---------------------------------------------------------------


class TestBlobs:
    def test_shapes_balance_and_range(self):
        tasks = gen_blobs_tasks(2, classes=3, train_size=90, val_size=30,
                                test_size=30, seed=9)
        validate_sequence(tasks)
        for task in tasks:
            assert task.train.inputs.shape == (90, 2)
            counts = np.bincount(task.train.labels, minlength=3)
            assert counts.max() - counts.min() <= 1
            assert task.train.inputs.min() >= 0.0
            assert task.train.inputs.max() <= 1.0

    def test_deterministic_and_tasks_differ(self):
        a = gen_blobs_tasks(2, seed=3)
        b = gen_blobs_tasks(2, seed=3)
        assert np.array_equal(a[0].train.inputs, b[0].train.inputs)
        assert not np.array_equal(a[0].descriptor["means"],
                                  a[1].descriptor["means"])

    def test_means_respect_separation(self):
        for task in gen_blobs_tasks(4, classes=4, separation=0.3, seed=1):
            means = task.descriptor["means"]
            gaps = np.linalg.norm(means[:, None] - means[None, :], axis=-1)
            gaps[np.diag_indices(len(means))] = np.inf
            assert gaps.min() >= 0.3

    def test_impossible_separation_raises(self):
        with pytest.raises(ValueError, match="could not place"):
            gen_blobs_tasks(1, classes=5, separation=2.0, seed=0)

    @pytest.mark.parametrize("separation", [np.nan, 0.0, -0.1])
    def test_non_positive_separation_refused_up_front(self, separation):
        # NaN fails the check at once instead of exhausting the mean draws.
        with pytest.raises(ValueError, match="separation must be positive"):
            gen_blobs_tasks(1, separation=separation)

    @pytest.mark.parametrize("spread", [np.nan, np.inf, -0.05])
    def test_bad_spread_refused(self, spread):
        means = np.array([[[0.2, 0.2], [0.8, 0.8]]])
        for kwargs in ({}, {"classes": 2, "means": means}):
            with pytest.raises(ValueError, match="spread must be finite"):
                gen_blobs_tasks(1, spread=spread, **kwargs)

    def test_zero_spread_puts_samples_on_the_means(self):
        task = gen_blobs_tasks(1, classes=2, spread=0.0, seed=5)[0]
        means = task.descriptor["means"]
        assert np.array_equal(task.train.inputs, means[task.train.labels])

    def test_linearly_learnable(self):
        task = gen_blobs_tasks(1, classes=3, separation=0.4, spread=0.04,
                               train_size=150, test_size=90, seed=2)[0]
        predict = softmax_probe(task.train.inputs, task.train.labels, 3)
        accuracy = np.mean(predict(task.test.inputs) == task.test.labels)
        assert accuracy == 1.0

    def test_explicit_means_are_used_verbatim(self):
        means = np.array([[[0.2, 0.2], [0.8, 0.8]],
                          [[0.2, 0.8], [0.8, 0.2]]])
        tasks = gen_blobs_tasks(2, classes=2, spread=0.01, train_size=40,
                                val_size=10, test_size=10, seed=4,
                                means=means)
        for t, task in enumerate(tasks):
            assert np.array_equal(task.descriptor["means"], means[t])
            for c in range(2):
                cluster = task.train.inputs[task.train.labels == c]
                assert np.linalg.norm(cluster.mean(axis=0) - means[t, c]) < 0.02

    def test_explicit_means_validated(self):
        with pytest.raises(ValueError, match="does not match"):
            gen_blobs_tasks(2, classes=2, means=np.zeros((1, 2, 2)))
        with pytest.raises(ValueError, match="unit box"):
            gen_blobs_tasks(1, classes=2,
                            means=np.array([[[0.5, 0.5], [1.2, 0.5]]]))


class TestRingTaskMeans:
    def test_shape_and_shared_circle(self):
        means = ring_task_means(3, classes=3, radius=0.3, center=0.5)
        assert means.shape == (3, 3, 2)
        radii = np.linalg.norm(means - 0.5, axis=-1)
        assert np.allclose(radii, 0.3)

    def test_task_rotation_step(self):
        means = ring_task_means(2, classes=3, radius=0.3,
                                task_step_degrees=40.0)
        # rotating task 0 by 40 degrees reproduces task 1
        theta = np.deg2rad(40.0)
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        rotated = (means[0] - 0.5) @ rot.T + 0.5
        assert np.allclose(rotated, means[1])

    def test_classes_evenly_spaced(self):
        means = ring_task_means(1, classes=4, radius=0.25)[0]
        angles = np.arctan2(means[:, 1] - 0.5, means[:, 0] - 0.5)
        steps = np.diff(np.unwrap(angles))
        assert np.allclose(steps, np.pi / 2)

    def test_circle_must_fit(self):
        with pytest.raises(ValueError, match="unit box"):
            ring_task_means(1, radius=0.6)
        with pytest.raises(ValueError, match="unit box"):
            ring_task_means(1, radius=0.3, center=0.2)

    def test_nan_radius_refused(self):
        with pytest.raises(ValueError, match="unit box"):
            ring_task_means(1, radius=np.nan)


# ---- toy 2-d pairing -----------------------------------------------------


def pairing_oracle(points, labels, pair_count):
    """Repeated global-minimum scan over unused cross-class pairs."""
    remaining_a = [int(i) for i in np.flatnonzero(labels == 0)]
    remaining_b = [int(i) for i in np.flatnonzero(labels == 1)]
    pairs = []
    while len(pairs) < pair_count:
        best = None
        for i in remaining_a:
            for j in remaining_b:
                d = float(np.linalg.norm(points[i] - points[j]))
                if best is None or d < best[0]:
                    best = (d, i, j)
        pairs.append((best[1], best[2]))
        remaining_a.remove(best[1])
        remaining_b.remove(best[2])
    return np.array(pairs)


class TestToy2d:
    def test_layout(self):
        data, pairs = gen_toy2d(20, seed=0)
        assert data.inputs.shape == (40, 2)
        assert np.array_equal(np.sort(np.unique(data.labels)), [0, 1])
        assert pairs.shape == (20, 2)

    def test_pairs_are_cross_class_and_disjoint(self):
        data, pairs = gen_toy2d(15, seed=1)
        assert np.all(data.labels[pairs[:, 0]] == 0)
        assert np.all(data.labels[pairs[:, 1]] == 1)
        assert len(np.unique(pairs)) == pairs.size

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_greedy_matches_exhaustive_oracle(self, seed):
        data, pairs = gen_toy2d(4, seed=seed, spread=0.2)
        expected = pairing_oracle(data.inputs, data.labels, 4)
        assert np.array_equal(pairs, expected)

    def test_pair_count_option(self):
        _, pairs = gen_toy2d(10, seed=2, pair_count=3)
        assert pairs.shape == (3, 2)
        with pytest.raises(ValueError, match="11 pairs requested"):
            gen_toy2d(10, seed=2, pair_count=11)

    @pytest.mark.parametrize("pair_count", [0, -2])
    def test_pair_count_below_one_is_refused(self, pair_count):
        # Both used to return every pair, as if no count had been given.
        with pytest.raises(ValueError, match="pair_count must be at least 1"):
            gen_toy2d(4, 0, pair_count=pair_count)

    @pytest.mark.parametrize("spread", [np.nan, np.inf, -0.05])
    def test_bad_spread_refused(self, spread):
        with pytest.raises(ValueError, match="spread must be finite"):
            gen_toy2d(4, 0, spread=spread)

    def test_single_point_per_class(self):
        data, pairs = gen_toy2d(1, seed=5)
        assert pairs.shape == (1, 2)
        assert set(pairs[0]) == {0, 1}

    def test_deterministic(self):
        a = gen_toy2d(12, seed=7)
        b = gen_toy2d(12, seed=7)
        assert np.array_equal(a[0].inputs, b[0].inputs)
        assert np.array_equal(a[1], b[1])


# ---- synthetic digits ----------------------------------------------------


class TestDigits:
    def test_layout_range_balance(self):
        data = gen_digits(200, seed=0)
        assert data.inputs.shape == (200, 8, 8)
        assert data.inputs.min() >= 0.0 and data.inputs.max() <= 1.0
        counts = np.bincount(data.labels, minlength=10)
        assert counts.max() - counts.min() <= 1

    def test_deterministic(self):
        assert np.array_equal(gen_digits(50, seed=4).inputs,
                              gen_digits(50, seed=4).inputs)

    def test_class_templates_differ(self):
        data = gen_digits(500, seed=1)
        means = np.stack([data.inputs[data.labels == d].mean(axis=0)
                          for d in range(10)])
        for a in range(10):
            for b in range(a + 1, 10):
                assert np.abs(means[a] - means[b]).sum() > 1.0

    def test_linearly_learnable(self):
        train = gen_digits(600, seed=2)
        test = gen_digits(200, seed=3)
        predict = softmax_probe(train.inputs.reshape(600, -1), train.labels, 10)
        accuracy = np.mean(predict(test.inputs.reshape(200, -1)) == test.labels)
        assert accuracy >= 0.95

    @pytest.mark.parametrize("noise", [np.nan, np.inf, -0.08])
    def test_bad_noise_refused(self, noise):
        # Infinite noise used to return images of only 0s and 1s.
        with pytest.raises(ValueError, match="noise must be finite"):
            gen_digits(20, seed=0, noise=noise)
