"""The benchmark's span tracer still reaches the layer rules.

``perfbench/spans.py`` traces by replacing module attributes such as
``intervals.interval_conv2d``. A rename, or a forward pass that calls the
rules through a table bound at import time, would leave the traced run
without those spans and raise no error; this test fails instead.
"""

import importlib.util
from pathlib import Path

import numpy as np

from intervalcl import nets

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
        nets.forward_interval(spec, params, x, eps=0.01)
        nets.forward_point(spec, params, x)
    finally:
        tracer.active = False
        tracer.uninstall()

    calls, _ = tracer.self_times()
    for name in ("nets.forward_interval", "nets.forward_point",
                 "intervals.conv2d", "intervals.batchnorm", "intervals.pool",
                 "intervals.point_batchnorm"):
        assert calls.get(name, 0) >= 1, f"no span recorded for {name}"
    # The point pass reuses the batchnorm formula through the interval rule.
    assert calls["intervals.batchnorm"] == 2
    assert calls["intervals.conv2d"] == calls["intervals.pool"] == 1
