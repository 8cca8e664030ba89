"""One benchmark session: set up, train with checkpoints, reload, certify,
attack, evaluate.

The session drives the public library API in the order the CLI commands
use it: ``train`` (``train_sequence`` with a checkpoint saved after every
task through the ``after_task`` hook), then ``certify`` and ``eval`` on the
reloaded checkpoint, then class-incremental evaluation. Each phase is
timed on its own. Correctness checks run outside the timed phases, with
tracing paused, and count into a ``Checks`` tally.
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from intervalcl import checkpoint, evaluation, intervals, nets, training
from intervalcl.intervals import IntervalTensor

from workloads import PGD_ITERS, Workload


@dataclass
class Checks:
    """Attempted and failed correctness checks, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, attempted: int, failed: int, note: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(note)


@dataclass
class SessionResult:
    setup_s: float
    phase_s: dict[str, float]
    weights_sha256: str
    final_aa: float
    verified_acc: float
    pgd_acc: float
    cil_acc: float
    train_steps: int
    certify_samples: int
    pgd_samples: int

    @property
    def session_s(self) -> float:
        return sum(self.phase_s.values())

    def outcome(self) -> tuple:
        """Everything a repeat of the same seed must reproduce exactly."""
        return (self.weights_sha256, self.final_aa, self.verified_acc,
                self.pgd_acc, self.cil_acc)


def weights_sha256(h: nets.Hypernetwork) -> str:
    """SHA-256 over the embeddings and every generator weight and bias."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(h.embeddings).tobytes())
    for w, b in h.weights:
        digest.update(np.ascontiguousarray(w).tobytes())
        digest.update(np.ascontiguousarray(b).tobytes())
    return digest.hexdigest()


def run_session(workload: Workload, seed: int, work_dir: Path, tracer,
                checks: Checks, verify: bool) -> SessionResult | None:
    """One full session; ``None`` if training diverged (a failed check).

    With ``verify``, the certificates and the interval bounds of the trained
    networks are checked too. Repeats of a seed need not check them again:
    their outcome must be bitwise that of the first session.
    """
    gc.collect()
    with tracer.span("session.setup"):
        start = perf_counter()
        tasks, spec, hypernet = workload.setup(seed)
        setup_s = perf_counter() - start
    cfg = workload.trainer_config(seed)
    paths = [work_dir / f"checkpoint_task{t}.json" for t in range(len(tasks))]
    phase_s: dict[str, float] = {}

    def after_task(t, result, _log):
        checkpoint.save_checkpoint(str(paths[t]), hypernet, spec, seed=seed,
                                   results=result)

    with tracer.span("session.train"):
        start = perf_counter()
        try:
            result, _logs = training.train_sequence(hypernet, spec, tasks, cfg,
                                                    after_task=after_task)
        except training.NumericalDivergenceError as exc:
            checks.record(1, 1, f"training diverged: {exc}")
            return None
        phase_s["train"] = perf_counter() - start
    checks.record(len(tasks), 0, "")  # each task trained is one check

    with tracer.span("session.load"):
        start = perf_counter()
        loaded = checkpoint.load_checkpoint(str(paths[-1])).hypernet
        phase_s["load"] = perf_counter() - start
    with tracer.paused():
        _check_reload(hypernet, loaded, checks)

    radii = workload.radii()
    at_eps = workload.grid.index(1.0)
    verified = []
    with tracer.span("session.certify"):
        start = perf_counter()
        for t, task in enumerate(tasks):
            params = nets.generate_params(loaded, spec, t)
            bn_stats = loaded.bn_stats.get(t)
            for i, radius in enumerate(radii):
                acc = evaluation.verified_accuracy(
                    spec, params, task.test.inputs, task.test.labels, radius,
                    bn_stats=bn_stats)
                if i == at_eps:
                    verified.append(acc)
        phase_s["certify"] = perf_counter() - start

    attack_cfg = evaluation.AttackConfig(kind="pgd", eps=workload.eps,
                                         step=None, iters=PGD_ITERS,
                                         random_start=True, seed=seed)
    n_attack = workload.attacked_per_task
    attacked, adversarial = [], []
    with tracer.span("session.pgd"):
        start = perf_counter()
        for t, task in enumerate(tasks):
            params = nets.generate_params(loaded, spec, t)
            bn_stats = loaded.bn_stats.get(t)
            x, y = task.test.inputs[:n_attack], task.test.labels[:n_attack]
            adv = evaluation.pgd(spec, params, x, y, attack_cfg,
                                 bn_stats=bn_stats)
            attacked.append(evaluation.clean_accuracy(spec, params, adv, y,
                                                      bn_stats=bn_stats))
            adversarial.append(adv)
        phase_s["pgd"] = perf_counter() - start

    with tracer.span("session.cil"):
        start = perf_counter()
        cil = evaluation.cil_evaluate(loaded, spec, [task.test for task in tasks])
        phase_s["cil"] = perf_counter() - start

    if verify:
        with tracer.paused():
            _check_certificates(workload, spec, tasks, loaded, adversarial,
                                checks)
            _check_soundness(workload, spec, tasks, loaded, seed, checks)

    return SessionResult(
        setup_s=setup_s,
        phase_s=phase_s,
        weights_sha256=weights_sha256(hypernet),
        final_aa=evaluation.metrics(result).average_accuracy,
        verified_acc=float(np.mean(verified)),
        pgd_acc=float(np.mean(attacked)),
        cil_acc=float(cil["accuracy"]),
        train_steps=cfg.steps * len(tasks),
        certify_samples=sum(len(task.test) for task in tasks) * len(radii),
        pgd_samples=sum(len(task.test.labels[:n_attack]) for task in tasks))


def _check_reload(trained, loaded, checks: Checks) -> None:
    """Per task: the reloaded generator and frozen batchnorm moments are
    bitwise those of the trained hypernetwork."""
    for t in range(trained.layout.task_count):
        same = (trained.generate_flat(t).tobytes()
                == loaded.generate_flat(t).tobytes())
        stats_a = trained.bn_stats.get(t, [])
        stats_b = loaded.bn_stats.get(t, [])
        same = same and len(stats_a) == len(stats_b) and all(
            ma.tobytes() == mb.tobytes() and va.tobytes() == vb.tobytes()
            for (ma, va), (mb, vb) in zip(stats_a, stats_b))
        checks.record(1, int(not same),
                      f"task {t}: reloaded checkpoint differs from the "
                      "trained hypernetwork")


def _check_certificates(workload, spec, tasks, hypernet, adversarial,
                        checks: Checks) -> None:
    """No sample certified at the training radius changes its prediction
    under the PGD attack at that radius; each certified sample is a check."""
    n_attack = workload.attacked_per_task
    for t, task in enumerate(tasks):
        params = nets.generate_params(hypernet, spec, t)
        bn_stats = hypernet.bn_stats.get(t)
        x, y = task.test.inputs[:n_attack], task.test.labels[:n_attack]
        mask = evaluation.certify(spec, params, x, y, workload.eps,
                                  bn_stats=bn_stats)
        before = np.argmax(nets.forward_point(spec, params, x[mask],
                                              bn_stats=bn_stats), axis=1)
        after = np.argmax(nets.forward_point(spec, params, adversarial[t][mask],
                                             bn_stats=bn_stats), axis=1)
        flips = int(np.count_nonzero(before != after))
        checks.record(int(mask.sum()), flips,
                      f"task {t}: {flips} certified samples flipped under PGD")


def _check_soundness(workload, spec, tasks, hypernet, seed,
                     checks: Checks) -> None:
    """Every point sampled from a test box stays inside the propagated
    bounds at every layer, by the oracle at its default tolerance; each box
    is a check."""
    for t, task in enumerate(tasks):
        params = nets.generate_params(hypernet, spec, t)
        for i in range(workload.oracle_boxes_per_task):
            box = IntervalTensor.from_ball(task.test.inputs[i:i + 1],
                                           workload.eps)
            report = intervals.soundness_oracle(spec, params, box,
                                                workload.oracle_samples,
                                                seed=seed + i)
            checks.record(1, int(not report.sound),
                          f"task {t} box {i}: {report.violations} sampled "
                          f"points escaped the bounds "
                          f"(worst {report.max_violation:.3e})")
