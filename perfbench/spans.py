"""Span tracing of intervalcl from outside the package.

A ``Tracer`` replaces the public functions of each intervalcl module with
wrappers that record a span per call: name, start, end, parent span and
session id. Spans stay in memory until the run ends. Layer self time is a
span's duration minus the time its child spans cover. Hooks on a few calls
record exact counts where the work happens (tape nodes per backward,
optimizer elements, checkpoint bytes, certified samples).

Everything runs on one thread, so spans nest strictly and no layer waits on
another.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from intervalcl import (
    autodiff,
    checkpoint,
    data,
    evaluation,
    intervals,
    losses,
    nets,
    training,
)

NAME, START, END, PARENT, SESSION = range(5)


class Tracer:
    """Records spans while ``active``; ``install`` patches the package."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.session = ""
        self.active = False
        self.nodes_per_backward: list[int] = []
        self.step_starts: list[tuple[int, float]] = []  # (train_task span, t)
        self.counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    # ---- recording -------------------------------------------------------

    def _open(self, name):
        span_id = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        record = [name, perf_counter(), 0.0, parent, self.session]
        self.spans.append(record)
        self.stack.append(span_id)
        return record

    def _close(self, record):
        record[END] = perf_counter()
        self.stack.pop()

    @contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    @contextmanager
    def span(self, name):
        """Span around a block of the benchmark's own code."""
        if not self.active:
            yield
            return
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            record = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            if after is not None:
                after(record, args, kwargs, result)
            return result

        return traced

    # ---- hooks -----------------------------------------------------------

    def _after_topological_order(self, record, args, kwargs, order):
        self.nodes_per_backward.append(len(order))

    def _after_tape_generate(self, record, args, kwargs, result):
        # Each training step makes exactly one generation with a trainable
        # embedding; the output regularizer's extra ones pass False.
        if kwargs.get("train_embedding", True):
            self.step_starts.append((record[PARENT], record[START]))

    def _after_adam_update(self, record, args, kwargs, result):
        self.counts["training.adam_update.elements"] += args[2].size

    def _after_certify(self, record, args, kwargs, mask):
        self.counts["evaluation.certified"] += int(np.count_nonzero(mask))
        self.counts["evaluation.certify_attempted"] += mask.size

    def _after_save(self, record, args, kwargs, result):
        self.counts["checkpoint.save.bytes"] += os.path.getsize(args[0])

    # ---- patching --------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, hook) for every traced call.

        Package modules call each other through module attributes
        (``nets.forward_point``, ``iv.interval_affine``), so patching the
        attribute on its defining module reaches every internal caller.
        """
        return [
            (autodiff.Tensor, "backward", "autodiff.backward", None),
            (autodiff, "topological_order", "autodiff.topological_order",
             self._after_topological_order),
            (nets.Hypernetwork, "tape_generate", "nets.tape_generate",
             self._after_tape_generate),
            (nets.Hypernetwork, "generate_flat", "nets.generate_flat", None),
            (nets, "forward_point", "nets.forward_point", None),
            (nets, "forward_interval", "nets.forward_interval", None),
            (intervals, "interval_affine", "intervals.affine", None),
            (intervals, "interval_conv2d", "intervals.conv2d", None),
            (intervals, "interval_activation", "intervals.activation", None),
            (intervals, "interval_batchnorm", "intervals.batchnorm", None),
            (intervals, "interval_pool", "intervals.pool", None),
            (intervals, "point_batchnorm", "intervals.point_batchnorm", None),
            (losses, "interval_mixup_loss", "losses.interval_mixup_loss", None),
            (losses, "output_reg_loss", "losses.output_reg_loss", None),
            (losses, "ibp_loss", "losses.ibp_loss", None),
            (training.Adam, "update", "training.adam_update",
             self._after_adam_update),
            (training, "train_task", "training.train_task", None),
            (evaluation, "certify", "evaluation.certify", self._after_certify),
            (evaluation, "pgd", "evaluation.pgd", None),
            (evaluation, "clean_accuracy", "evaluation.clean_accuracy", None),
            (evaluation, "cil_evaluate", "evaluation.cil_evaluate", None),
            (checkpoint, "save_checkpoint", "checkpoint.save", self._after_save),
            (checkpoint, "load_checkpoint", "checkpoint.load", None),
            (data, "gen_blobs_tasks", "data.generate", None),
            (data, "gen_digits", "data.generate", None),
            (data, "build_permuted_tasks", "data.generate", None),
            (data, "build_rotated_tasks", "data.generate", None),
        ]

    def install(self):
        for owner, attr, name, hook in self._targets():
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hook))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ---- results ---------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: (calls, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record[PARENT] >= 0:
                child_time[record[PARENT]] += record[END] - record[START]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for record, covered in zip(self.spans, child_time):
            calls[record[NAME]] += 1
            self_s[record[NAME]] += record[END] - record[START] - covered
        return calls, self_s

    def step_ms(self) -> list[float]:
        """Milliseconds between successive training steps of one task."""
        gaps = []
        for (task_a, t_a), (task_b, t_b) in zip(self.step_starts,
                                                self.step_starts[1:]):
            if task_a == task_b:
                gaps.append((t_b - t_a) * 1e3)
        return gaps

    def layer_metrics(self, sessions: int) -> dict[str, float]:
        """Per-layer metrics, each count and time given per session."""
        calls, self_s = self.self_times()
        out: dict[str, float] = {}
        for name in LAYER_SPANS:
            out[f"{name}.calls"] = calls.get(name, 0) / sessions
            out[f"{name}.self_s"] = self_s.get(name, 0.0) / sessions
        out["autodiff.nodes_per_backward"] = float(
            statistics.median(self.nodes_per_backward)) \
            if self.nodes_per_backward else 0.0
        gaps = self.step_ms()
        if gaps:
            out["training.step_ms.p50"] = float(np.percentile(gaps, 50))
            out["training.step_ms.p99"] = float(np.percentile(gaps, 99))
        else:
            out["training.step_ms.p50"] = out["training.step_ms.p99"] = 0.0
        out["training.adam_update.elements"] = \
            self.counts["training.adam_update.elements"] / sessions
        attempted = self.counts["evaluation.certify_attempted"]
        out["evaluation.certified_share"] = \
            self.counts["evaluation.certified"] / attempted if attempted else 0.0
        out["checkpoint.save.bytes"] = \
            self.counts["checkpoint.save.bytes"] / sessions
        return out

    def dump(self, path):
        """Write every span as one gzipped JSON line: id, name, start, end,
        parent, session."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span_id, record in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": span_id, "name": record[NAME],
                    "start": record[START], "end": record[END],
                    "parent": record[PARENT], "session": record[SESSION],
                }, separators=(",", ":")) + "\n")


# Spans reported as ``<name>.calls`` and ``<name>.self_s``.
LAYER_SPANS = (
    "autodiff.backward",
    "autodiff.topological_order",
    "nets.tape_generate",
    "nets.generate_flat",
    "nets.forward_point",
    "nets.forward_interval",
    "intervals.affine",
    "intervals.conv2d",
    "intervals.activation",
    "intervals.batchnorm",
    "intervals.pool",
    "intervals.point_batchnorm",
    "losses.interval_mixup_loss",
    "losses.output_reg_loss",
    "losses.ibp_loss",
    "training.adam_update",
    "training.train_task",
    "evaluation.certify",
    "evaluation.pgd",
    "evaluation.clean_accuracy",
    "evaluation.cil_evaluate",
    "checkpoint.save",
    "checkpoint.load",
    "data.generate",
)

OVERHEAD = "trace.overhead"  # mean traced over mean warm untraced session


def _per_layer() -> dict[str, tuple[str, str]]:
    metrics = {}
    for span in LAYER_SPANS:
        metrics[f"{span}.calls"] = ("count", "lower")
        metrics[f"{span}.self_s"] = ("s", "lower")
    metrics.update({
        "autodiff.nodes_per_backward": ("count", "lower"),
        "training.adam_update.elements": ("count", "lower"),
        "training.step_ms.p50": ("ms", "lower"),
        "training.step_ms.p99": ("ms", "lower"),
        "evaluation.certified_share": ("ratio", "higher"),
        "checkpoint.save.bytes": ("bytes", "lower"),
        OVERHEAD: ("ratio", "lower"),
    })
    return metrics

# name -> (unit, better) of every per-layer metric, in report order.
PER_LAYER = _per_layer()
