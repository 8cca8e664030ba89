"""Bitwise gates: SHA-256 digests of trained state and evaluation outputs.

Each training case trains a small model and hashes the task embeddings,
the generator weights and ``repr`` of every log row. A refactor of the
training path that keeps results bitwise identical leaves every digest
unchanged. Frozen batchnorm moments (``h.bn_stats``) are left out of the
digest: they come from a separate evaluation-time pass whose rounding is
not part of the training contract.

The evaluation cases hash what the untaped path returns on fixed inputs:
every layer's bounds and the certificates of a conv -> batchnorm ->
maxpool network under the moments its point pass captured, the FGSM and
PGD adversarial inputs, and the arrays of
the permuted and rotated image-task builders.

The digests belong to one numpy/OpenBLAS build: another BLAS, or another
numpy release, may round a matmul differently and move them without any
change to this package. Recompute them on the reference build when that
happens, never to hide a change in the training code.
"""

import hashlib

import numpy as np
import pytest

from intervalcl import data
from intervalcl import evaluation as ev
from intervalcl import losses as L
from intervalcl import nets
from intervalcl import training


class Data:
    def __init__(self, inputs, labels):
        self.inputs = inputs
        self.labels = labels


class Task:
    def __init__(self, train, val, test):
        self.train = train
        self.val = val
        self.test = test


def _blobs(seed, count, centers, spread=0.05):
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=np.float64)
    labels = np.arange(count) % len(centers)
    rng.shuffle(labels)
    inputs = np.clip(centers[labels]
                     + spread * rng.normal(size=(count, centers.shape[1])),
                     0.0, 1.0)
    return Data(inputs, labels)


def _blob_tasks(with_val):
    tasks = []
    for t, centers in enumerate(([[0.2, 0.2], [0.8, 0.8]],
                                 [[0.2, 0.8], [0.8, 0.2]])):
        train = _blobs(100 + t, 60, centers)
        val = _blobs(200 + t, 20, centers) if with_val else None
        tasks.append(Task(train, val, _blobs(300 + t, 20, centers)))
    return tasks


def _image_tasks():
    tasks = []
    for t in range(2):
        rng = np.random.default_rng(400 + t)
        labels = np.arange(40) % 2
        inputs = rng.uniform(size=(40, 6, 6, 1)) * 0.5
        inputs[labels == 1, t:t + 3, :, 0] += 0.5
        tasks.append(Task(Data(inputs[:30], labels[:30]), None,
                          Data(inputs[30:], labels[30:])))
    return tasks


def _digest(h, logs) -> str:
    sha = hashlib.sha256()
    sha.update(h.embeddings.tobytes())
    for w, b in h.weights:
        sha.update(w.tobytes())
        sha.update(b.tobytes())
    sha.update(repr(logs).encode())
    return sha.hexdigest()


def _mlp_sequence(cfg, with_val):
    spec = nets.NetworkSpec((2,), nets.mlp_layers([10], 2), classes=2)
    h = nets.Hypernetwork(spec.total_params, 4, [12], 2,
                          np.random.default_rng(31))
    _, logs = training.train_sequence(h, spec, _blob_tasks(with_val), cfg)
    return _digest(h, logs)


def mixup_with_selection():
    cfg = training.TrainerConfig(
        steps=30, batch_size=12, seed=5, val_every=10, model_selection=True,
        loss=L.LossConfig(eps=0.03, beta=0.05))
    return _mlp_sequence(cfg, with_val=True)


def plain_ibp():
    cfg = training.TrainerConfig(
        steps=30, batch_size=12, seed=6, use_interval_mixup=False,
        model_selection=False, loss=L.LossConfig(eps=0.03, beta=0.05))
    return _mlp_sequence(cfg, with_val=False)


def conv_batchnorm():
    spec = nets.NetworkSpec(
        (6, 6, 1),
        [nets.conv(3, 3), nets.batchnorm(), nets.act("relu"), nets.avgpool(2),
         nets.flatten(), nets.dense(2)],
        classes=2)
    h = nets.Hypernetwork(spec.total_params, 4, [12], 2,
                          np.random.default_rng(32))
    cfg = training.TrainerConfig(
        steps=12, batch_size=8, seed=7, model_selection=False,
        loss=L.LossConfig(eps=0.02, beta=0.05))
    _, logs = training.train_sequence(h, spec, _image_tasks(), cfg)
    return _digest(h, logs)


def virtual_only():
    spec = nets.NetworkSpec((2,), nets.mlp_layers([10], 2), classes=2)
    h = nets.Hypernetwork(spec.total_params, 4, [12], 1,
                          np.random.default_rng(33))
    points = np.array([[0.25, 0.25], [0.75, 0.75], [0.2, 0.3], [0.8, 0.7]])
    labels = np.array([0, 1, 0, 1])
    x, ya, yb, lam = L.virtual_samples(points, labels, np.array([[0, 1], [2, 3]]),
                                       np.linspace(0.0, 1.0, 7))
    cfg = training.TrainerConfig(steps=30, batch_size=12, seed=8,
                                 loss=L.LossConfig(eps=0.05))
    log = training.train_virtual(h, spec, 0, x, ya, yb, lam, cfg)
    return _digest(h, [log])


GOLDEN = {
    "mixup_with_selection":
        "a1b10bc675fba901fe8053098e7f6e55c9120c6a57bc262bfd709483da62d9ce",
    "plain_ibp":
        "e01f3b159adeb9aed485758712d35b93787f37fab8e987194586517238f1b313",
    "conv_batchnorm":
        "a8c685c9c0d6bad88ca0dc4ba5d55cd2ea7f447ed0efdaa099dc96ce42e75269",
    "virtual_only":
        "d834c550c8373add049f86982ddb68c4a147d6ab324f29e845aa6fc31c2ad7a2",
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_training_digest_is_unchanged(case):
    assert globals()[case]() == GOLDEN[case]


# ---- evaluation path -----------------------------------------------------


def _hash(arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        array = np.asarray(array)
        sha.update(repr((array.dtype.str, array.shape)).encode())
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


def _conv_net():
    spec = nets.NetworkSpec(
        (6, 6, 2),
        [nets.conv(4, 3), nets.batchnorm(), nets.act("relu"), nets.maxpool(2),
         nets.flatten(), nets.dense(3)],
        classes=3)
    rng = np.random.default_rng(41)
    params = nets.ParamSet(spec, rng.normal(scale=0.5, size=spec.total_params))
    inputs = rng.uniform(size=(16, 6, 6, 2))
    # Predicted classes, four of them shifted: certificates then fall from
    # 12 of 16 toward none as the radius grows.
    labels = np.argmax(nets.forward_point(spec, params, inputs), axis=1)
    labels[12:] = (labels[12:] + 1) % 3
    return spec, params, inputs, labels


def _mlp_net():
    spec = nets.NetworkSpec((5,), nets.mlp_layers([7], 3), classes=3)
    rng = np.random.default_rng(42)
    params = nets.ParamSet(spec, rng.normal(size=spec.total_params))
    return spec, params, rng.uniform(size=(16, 5)), rng.integers(0, 3, size=16)


def conv_bounds_and_certificates():
    spec, params, x, y = _conv_net()
    stats: list = []
    arrays = [nets.forward_point(spec, params, x, bn_capture=stats)]
    for eps in (0.0, 0.004, 0.02, 0.1):
        record: list = []
        nets.forward_interval(spec, params, x, eps=eps, record=record,
                              bn_stats=stats)
        arrays += [a for box in record[1:] for a in (box.lower, box.upper)]
        arrays.append(ev.certify(spec, params, x, y, eps, bn_stats=stats))
    arrays.append(nets.forward_point(spec, params, x, bn_stats=stats))
    return _hash(arrays)


def attacks():
    arrays = []
    for net in (_mlp_net, _conv_net):
        spec, params, x, y = net()
        for eps in (0.03, 0.2):
            arrays.append(ev.pgd(spec, params, x, y,
                                 ev.AttackConfig(kind="fgsm", eps=eps)))
            arrays.append(ev.pgd(spec, params, x, y,
                                 ev.AttackConfig(eps=eps, iters=4, seed=9)))
            arrays.append(ev.pgd(spec, params, x, y,
                                 ev.AttackConfig(eps=eps, step=eps / 3, iters=3,
                                                 random_start=False)))
    return _hash(arrays)


def _task_arrays(tasks):
    arrays = []
    for task in tasks:
        for split in (task.train, task.val, task.test):
            arrays += [split.inputs, split.labels]
        arrays.append(np.asarray(task.classes))
        arrays += [np.asarray(task.descriptor[k]) for k in sorted(task.descriptor)
                   if k != "kind"]
    return arrays


def image_tasks(builder, flat):
    base = data.gen_digits(90, seed=3)
    sizes = dict(train_size=40, val_size=15, test_size=20, flat=flat)
    if builder == "permuted":
        tasks = (data.build_permuted_tasks(base.inputs, base.labels, 3, 4, **sizes)
                 + data.build_permuted_tasks(base.inputs, base.labels, 2, 5,
                                             downsample=2, **sizes))
    else:
        tasks = (data.build_rotated_tasks(base.inputs, base.labels,
                                          [0.0, 30.0, 90.0, -135.0], 4, **sizes)
                 + data.build_rotated_tasks(base.inputs, base.labels, [45.0], 5,
                                            downsample=2, **sizes))
    return _hash(_task_arrays(tasks))


EVAL_GOLDEN = {
    "conv_bounds_and_certificates":
        "f90c3e60268f3228909287b3c52d62360c5b2c1ecee9a7a0a13e1fe786b32a67",
    "attacks":
        "5f5a3205e611fd59e7b88441b50eb664872e5379dea9df04dd5b8700a432ed62",
    ("permuted", True):
        "97a44d7b14dffe662449c3e4867790c8f282e06c4562a4408c71b497f280e582",
    ("permuted", False):
        "adf54e2ea867896e49afe67af6101cb2a4bcb00c6aa3b42bb46de9ed9f34820b",
    ("rotated", True):
        "3d40fb99695fd4a0a88d7898a89631a978a64125a9c6076321358426dd94e54b",
    ("rotated", False):
        "a73c9fa6eb9d252d938c95fab373936b28a4a82a97fc82b7240abbf5dc5d23de",
}


@pytest.mark.parametrize("case", ["conv_bounds_and_certificates", "attacks"])
def test_evaluation_digest_is_unchanged(case):
    assert globals()[case]() == EVAL_GOLDEN[case]


@pytest.mark.parametrize("builder", ["permuted", "rotated"])
@pytest.mark.parametrize("flat", [True, False])
def test_image_task_digest_is_unchanged(builder, flat):
    assert image_tasks(builder, flat) == EVAL_GOLDEN[(builder, flat)]
