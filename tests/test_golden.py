"""Bitwise gate on training: SHA-256 digests of trained state.

Each case trains a small model and hashes the task embeddings, the
generator weights and ``repr`` of every log row. A refactor of the
training path that keeps results bitwise identical leaves every digest
unchanged. Frozen batchnorm moments (``h.bn_stats``) are left out of the
digest: they come from a separate evaluation-time pass whose rounding is
not part of the training contract.

The digests belong to one numpy/OpenBLAS build: another BLAS, or another
numpy release, may round a matmul differently and move them without any
change to this package. Recompute them on the reference build when that
happens, never to hide a change in the training code.
"""

import hashlib

import numpy as np
import pytest

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
        "1871b1b7d802285fc355c13cc472ed85bd81065e795087b95a44d3580c7e771e",
    "plain_ibp":
        "dac4bc23550629dc039946eaf075fcb122232ab489dc57ec3b8ae5c5a97a4d8a",
    "conv_batchnorm":
        "0847c704f266d889216443ba0932b1a20463f899475a1804d33d19a533ec760e",
    "virtual_only":
        "3b406e7ea7dfcaf0dd40b06e82c4a6a795490433edd5d8f571e23febf83ea4bb",
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_training_digest_is_unchanged(case):
    assert globals()[case]() == GOLDEN[case]
