"""The three benchmark workloads; BENCHMARK.json says why each exists.

Each workload is a complete user session: synthetic data and a model built
from the seed, a three-task training sequence, then certification and
attack of the trained networks. The shared training settings follow the
paper's acceptance configurations: Interval MixUp with alpha 0.1, output
regularizer beta 0.01, Adam at lr 1e-3, validation every 50 steps.

Step counts, radius-grid sizes, attacked-sample counts and oracle sizes set
run length only; the PGD strength (100 iterations, step eps/4, random start)
is part of the workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from intervalcl import data, nets
from intervalcl.losses import LossConfig
from intervalcl.training import TrainerConfig

# The CLI draws the hypernetwork init from this spawn key, so a benchmark
# model starts from the same weights `intervalcl train` would give it.
HYPERNET_INIT_KEY = 104729

TASKS = 3
# Blob cluster means are drawn as in the A3/A4 acceptance config (seed 5);
# the benchmark seed draws everything else. DESIGN.md says why.
BLOBS_MEANS_SEED = 5
PGD_ITERS = 100


@dataclass(frozen=True)
class Workload:
    name: str
    eps: float
    batch: int
    steps: int                    # optimizer steps per task
    grid: tuple[float, ...]       # certification radii, as multiples of eps
    attacked_per_task: int        # test samples attacked by PGD per task
    oracle_boxes_per_task: int    # test boxes checked by the soundness oracle
    oracle_samples: int           # points drawn per oracle box
    embedding: int
    hypernet_hidden: tuple[int, ...]
    build_tasks: Callable[[int], list]
    build_layers: Callable[[], list]
    input_shape: tuple[int, ...]
    classes: int

    def trainer_config(self, seed: int) -> TrainerConfig:
        return TrainerConfig(
            steps=self.steps, batch_size=self.batch, lr=1e-3,
            optimizer="adam",
            loss=LossConfig(beta=0.01, eps=self.eps, alpha=0.1),
            use_interval_mixup=True, seed=seed, val_every=50,
            model_selection=True)

    def radii(self) -> list[float]:
        return [self.eps * m for m in self.grid]

    def setup(self, seed: int):
        """Data plus a freshly initialised model: ``(tasks, spec, hypernet)``."""
        tasks = self.build_tasks(seed)
        spec = nets.NetworkSpec(self.input_shape, self.build_layers(),
                                self.classes)
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=seed, spawn_key=(HYPERNET_INIT_KEY,)))
        hypernet = nets.Hypernetwork(spec.total_params, self.embedding,
                                     list(self.hypernet_hidden), TASKS, rng)
        return tasks, spec, hypernet

    def settings(self) -> dict:
        """Run-length settings recorded with every result."""
        return {
            "tasks": TASKS, "steps_per_task": self.steps,
            "batch": self.batch, "eps": self.eps,
            "grid_size": len(self.grid), "grid": self.radii(),
            "attacked_per_task": self.attacked_per_task,
            "pgd_iters": PGD_ITERS,
            "oracle_boxes_per_task": self.oracle_boxes_per_task,
            "oracle_samples": self.oracle_samples,
        }


def _blobs_tasks(seed):
    means = np.stack([t.descriptor["means"] for t in data.gen_blobs_tasks(
        TASKS, classes=3, dims=2, separation=0.3, train_size=1, val_size=1,
        test_size=1, seed=BLOBS_MEANS_SEED)])
    return data.gen_blobs_tasks(TASKS, classes=3, dims=2, spread=0.07,
                                train_size=300, val_size=60, test_size=150,
                                seed=seed, means=means)


def _digits(seed):
    return data.gen_digits(3000, seed)


def _permuted_digits_tasks(seed):
    base = _digits(seed)
    return data.build_permuted_tasks(base.inputs, base.labels, TASKS, seed,
                                     train_size=2000, val_size=400,
                                     test_size=600)


def _rotated_digits_tasks(seed):
    base = _digits(seed)
    return data.build_rotated_tasks(base.inputs, base.labels, [0.0, 30.0, 60.0],
                                    seed, train_size=2000, val_size=400,
                                    test_size=600, flat=False)


def _conv_layers():
    return [nets.conv(8, 3), nets.batchnorm(), nets.act("relu"),
            nets.maxpool(2), nets.flatten(), nets.dense(10)]


def _grid(points: int) -> tuple[float, ...]:
    """``points`` radii from 0 to 2 eps, as multiples of eps. With an odd
    count, eps itself (multiple 1.0) is on the grid; the verified accuracy
    metric reads that entry."""
    half = (points - 1) // 2
    return tuple(i / half for i in range(points))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="blobs_mlp",
            eps=0.1, batch=32, steps=500, grid=_grid(101),
            attacked_per_task=150, oracle_boxes_per_task=10,
            oracle_samples=1000, embedding=8, hypernet_hidden=(32,),
            build_tasks=_blobs_tasks,
            build_layers=lambda: nets.mlp_layers([16], 3),
            input_shape=(2,), classes=3),
        Workload(
            name="digits_mlp",
            eps=0.03, batch=64, steps=100, grid=_grid(41),
            attacked_per_task=600, oracle_boxes_per_task=10,
            oracle_samples=500, embedding=24, hypernet_hidden=(64, 64),
            build_tasks=_permuted_digits_tasks,
            build_layers=lambda: nets.mlp_layers([48], 10),
            input_shape=(64,), classes=10),
        Workload(
            name="digits_conv",
            eps=0.03, batch=64, steps=100, grid=_grid(11),
            attacked_per_task=60, oracle_boxes_per_task=10,
            oracle_samples=500, embedding=24, hypernet_hidden=(64, 64),
            build_tasks=_rotated_digits_tasks,
            build_layers=_conv_layers,
            input_shape=(8, 8, 1), classes=10),
    )
}
