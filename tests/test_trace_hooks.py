"""The benchmark's span tracer still reaches the layer rules.

``perfbench/spans.py`` traces by replacing module attributes such as
``intervals.interval_conv2d`` and ``autodiff.topological_order``. A rename,
a forward pass that calls the rules through a table bound at import time,
or a backward that walks the tape inline would leave the traced run
without those spans or counts and raise no error; these tests fail instead.
"""

import importlib.util
from pathlib import Path

import numpy as np

from intervalcl import autodiff as ad
from intervalcl import checkpoint, data, losses, nets, training

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_forward_passes_record_layer_spans():
    spec = nets.NetworkSpec(
        (6, 6, 1),
        [nets.conv(3, 3), nets.batchnorm(), nets.act("relu"), nets.avgpool(2),
         nets.flatten(), nets.dense(2)],
        classes=2)
    rng = np.random.default_rng(0)
    params = nets.ParamSet(spec, rng.normal(size=spec.total_params) * 0.3)
    x = rng.uniform(size=(3,) + spec.input_shape)

    tracer = load_spans().Tracer()
    tracer.install()
    tracer.active = True
    try:
        stats: list = []
        nets.forward_point(spec, params, x, bn_capture=stats)
        nets.forward_interval(spec, params, x, eps=0.01, bn_stats=stats)
    finally:
        tracer.active = False
        tracer.uninstall()

    calls, _ = tracer.self_times()
    for name in ("nets.forward_interval", "nets.forward_point",
                 "intervals.conv2d", "intervals.batchnorm", "intervals.pool",
                 "intervals.point_batchnorm"):
        assert calls.get(name, 0) >= 1, f"no span recorded for {name}"
    # Each pass runs its own batchnorm rule once; the point pass never calls
    # the interval rule.
    assert calls["intervals.batchnorm"] == calls["intervals.point_batchnorm"] == 1
    assert calls["intervals.conv2d"] == calls["intervals.pool"] == 1


def test_checkpoint_round_trip_records_spans_and_bytes(tmp_path):
    spec = nets.NetworkSpec((3,), nets.mlp_layers([4], 2), classes=2)
    h = nets.Hypernetwork(spec.total_params, 3, [5], task_count=2,
                          rng=np.random.default_rng(1))
    path = str(tmp_path / "model.json")

    tracer = load_spans().Tracer()
    tracer.install()
    tracer.active = True
    try:
        # The byte hook reads the path as the first positional argument,
        # the way the benchmark session passes it.
        checkpoint.save_checkpoint(path, h, spec)
        checkpoint.load_checkpoint(path)
    finally:
        tracer.active = False
        tracer.uninstall()

    calls, _ = tracer.self_times()
    assert calls.get("checkpoint.save") == 1
    assert calls.get("checkpoint.load") == 1
    assert tracer.counts["checkpoint.save.bytes"] > 0


def test_backward_records_its_pruned_node_count():
    spec = nets.NetworkSpec((3,), nets.mlp_layers([4], 2), classes=2)
    h = nets.Hypernetwork(spec.total_params, 3, [5], task_count=1,
                          rng=np.random.default_rng(2))
    flat, _ = h.tape_generate(0)
    x = np.random.default_rng(3).uniform(size=(2, 3))
    logits = nets.forward_point(spec, nets.ParamSet(spec, flat), x)
    loss = ad.softmax_cross_entropy(logits, ad.onehot(np.array([0, 1]), 2))
    expected = len(ad.topological_order(loss))

    tracer = load_spans().Tracer()
    tracer.install()
    tracer.active = True
    try:
        loss.backward()
    finally:
        tracer.active = False
        tracer.uninstall()

    assert tracer.nodes_per_backward == [expected]


def test_mixup_training_records_one_loss_span_per_step_and_per_validation():
    # The benchmark's loss spans patch ``losses.interval_mixup_loss`` and
    # ``losses.ibp_loss``; training and validation must reach both through
    # the module.
    spec = nets.NetworkSpec((2,), nets.mlp_layers([4], 2), classes=2)
    h = nets.Hypernetwork(spec.total_params, 3, [5], task_count=1,
                          rng=np.random.default_rng(4))
    rng = np.random.default_rng(5)
    split = data.LabeledData(rng.uniform(size=(8, 2)), np.arange(8) % 2)
    cfg = training.TrainerConfig(steps=6, batch_size=4, seed=1, val_every=2,
                                 use_interval_mixup=True, model_selection=True,
                                 loss=losses.LossConfig(eps=0.05))

    tracer = load_spans().Tracer()
    tracer.install()
    tracer.active = True
    try:
        training.train_task(h, spec, 0, split, cfg, val_data=split)
    finally:
        tracer.active = False
        tracer.uninstall()

    calls, _ = tracer.self_times()
    assert calls["losses.interval_mixup_loss"] == 6
    assert calls["losses.ibp_loss"] == 3
