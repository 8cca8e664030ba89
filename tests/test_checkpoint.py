"""Checkpoint files round-trip every stored value bit for bit."""

import base64
import json
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from intervalcl.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    spec_from_json,
    spec_to_json,
)
from intervalcl.evaluation import ResultMatrix, certify
from intervalcl.losses import LossConfig
from intervalcl.nets import (
    Hypernetwork,
    NetworkSpec,
    act,
    batchnorm,
    conv,
    dense,
    flatten,
    forward_interval,
    forward_point,
    generate_params,
    maxpool,
    mlp_layers,
)
from intervalcl.training import TrainerConfig, train_task


@pytest.fixture
def model():
    """Two of three tasks trained, each with the moments of its one
    batchnorm layer."""
    spec = NetworkSpec((3,), [dense(5), batchnorm(), act("relu"), dense(2)],
                       classes=2)
    h = Hypernetwork(spec.total_params, 4, [6], task_count=3,
                     rng=np.random.default_rng(12))
    h.bn_stats = {task: [(np.random.default_rng(1 + 2 * task).normal(size=5),
                          np.random.default_rng(2 + 2 * task).uniform(0.1, 2.0, size=5))]
                  for task in range(2)}
    h.trained_tasks = 2
    return h, spec


@pytest.fixture
def results():
    r = ResultMatrix(3)
    r.record(0, 0, 0.9)
    r.record(1, 0, 0.8)
    r.record(1, 1, 0.7)
    return r


class TestSpecCodec:
    def test_conv_spec_round_trip(self):
        spec = NetworkSpec((8, 8, 1),
                           [conv(4, 3), act("relu"), batchnorm(), flatten(),
                            dense(3)],
                           classes=3)
        restored = spec_from_json(spec_to_json(spec))
        assert restored.input_shape == spec.input_shape
        assert restored.layers == spec.layers
        assert restored.classes == spec.classes
        assert restored.slots == spec.slots
        assert restored.total_params == spec.total_params

    def test_malformed_spec(self):
        with pytest.raises(CheckpointError, match="malformed network"):
            spec_from_json({"input_shape": [3], "classes": 2})


    @pytest.mark.parametrize("layer, key, value, message", [
        (0, "channels", 2.0, "layer 0: conv channels must be an integer, got 2.0"),
        (1, "pool", "min", "layer 1: unknown pooling kind 'min'"),
        (1, "window", 2.0, "layer 1: pool window must be an integer, got 2.0"),
        (3, "units", 2.0, "layer 3: dense units must be an integer, got 2.0"),
    ])
    def test_layers_it_cannot_run_are_refused(self, tmp_path, layer, key, value,
                                              message):
        spec = NetworkSpec((4, 4, 1), [conv(2, 3), maxpool(2), flatten(), dense(2)],
                           classes=2)
        h = Hypernetwork(spec.total_params, 4, [6], task_count=1,
                         rng=np.random.default_rng(3))
        path = tmp_path / "model.json"
        save_checkpoint(str(path), h, spec)
        payload = json.loads(path.read_text())
        payload["spec"]["layers"][layer][key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError,
                           match="malformed network description: " + re.escape(message)):
            load_checkpoint(str(path))


class TestRoundTrip:
    def test_all_values_bitwise(self, tmp_path, model, results):
        h, spec = model
        path = str(tmp_path / "model.json")
        save_checkpoint(path, h, spec, seed=99, results=results)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.hypernet.embeddings, h.embeddings)
        for (w1, b1), (w2, b2) in zip(loaded.hypernet.weights, h.weights):
            assert np.array_equal(w1, w2)
            assert np.array_equal(b1, b2)
        assert loaded.hypernet.trained_tasks == 2
        assert loaded.seed == 99
        assert set(loaded.hypernet.bn_stats) == {0, 1}
        for task in range(2):
            [(m1, v1)], [(m2, v2)] = loaded.hypernet.bn_stats[task], h.bn_stats[task]
            assert np.array_equal(m1, m2)
            assert np.array_equal(v1, v2)

    def test_generated_weights_identical(self, tmp_path, model):
        h, spec = model
        path = str(tmp_path / "model.json")
        save_checkpoint(path, h, spec)
        loaded = load_checkpoint(path)
        for task in range(3):
            assert np.array_equal(loaded.hypernet.generate_flat(task),
                                  h.generate_flat(task))

    def test_result_matrix_nan_pattern(self, tmp_path, model, results):
        h, spec = model
        path = str(tmp_path / "model.json")
        save_checkpoint(path, h, spec, results=results)
        loaded = load_checkpoint(path)
        expected_nan = np.isnan(results.values)
        assert np.array_equal(np.isnan(loaded.results.values), expected_nan)
        assert np.array_equal(loaded.results.values[~expected_nan],
                              results.values[~expected_nan])

    def test_no_results_loads_none(self, tmp_path, model):
        h, spec = model
        path = str(tmp_path / "model.json")
        save_checkpoint(path, h, spec)
        assert load_checkpoint(path).results is None

    def test_save_load_save_identical_bytes(self, tmp_path, model, results):
        h, spec = model
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_checkpoint(str(first), h, spec, seed=5, results=results)
        loaded = load_checkpoint(str(first))
        save_checkpoint(str(second), loaded.hypernet, loaded.spec,
                        seed=loaded.seed, results=loaded.results)
        assert first.read_bytes() == second.read_bytes()

    def test_awkward_floats_survive(self, tmp_path, model):
        h, spec = model
        h.embeddings[0, 0] = 0.1 + 0.2  # 0.30000000000000004
        h.embeddings[0, 1] = 1e-308
        h.embeddings[0, 2] = -1.7976931348623157e308
        h.embeddings[0, 3] = -0.0
        h.embeddings[1, 0] = 5e-324  # smallest subnormal
        h.embeddings[1, 1] = np.nan
        path = str(tmp_path / "model.json")
        save_checkpoint(path, h, spec)
        loaded = load_checkpoint(path)
        assert loaded.hypernet.embeddings.tobytes() == h.embeddings.tobytes()


def _bytes_array(array):
    """Format 2 array: base64 of the little-endian float64 bytes."""
    flat = np.asarray(array, dtype=np.float64).ravel().tolist()
    packed = struct.pack(f"<{len(flat)}d", *flat)
    return {"shape": list(np.shape(array)),
            "data": base64.b64encode(packed).decode("ascii")}


def _reference_bytes(h, spec, seed, results):
    """The file as one ``json.dump`` of the whole payload writes it."""
    payload = {
        "format": 2,
        "seed": seed,
        "spec": spec_to_json(spec),
        "hypernet": {
            "layout": {"target_size": h.layout.target_size,
                       "embedding_dim": h.layout.embedding_dim,
                       "hidden": list(h.layout.hidden),
                       "task_count": h.layout.task_count},
            "embeddings": _bytes_array(h.embeddings),
            "weights": [{"w": _bytes_array(w), "b": _bytes_array(b)}
                        for w, b in h.weights],
            "bn_stats": {str(task): [{"mean": _bytes_array(m),
                                      "var": _bytes_array(v)}
                                     for m, v in stats]
                         for task, stats in sorted(h.bn_stats.items())},
            "trained_tasks": h.trained_tasks,
        },
        "results": _bytes_array(results.values),
    }
    text = json.dumps(payload, sort_keys=True, allow_nan=False,
                      separators=(",", ":")) + "\n"
    return text.encode("utf-8")


class TestStreamedWriter:
    """``save_checkpoint`` streams one ``json.dump`` of the payload."""

    @pytest.fixture
    def awkward_model(self):
        spec = NetworkSpec((3,), mlp_layers([5], 2), classes=2)
        h = Hypernetwork(spec.total_params, 4, [7], task_count=3,
                         rng=np.random.default_rng(5))
        w0 = h.weights[0][0].reshape(-1)
        w0[0] = np.nan
        w0[1] = -0.0
        w0[2] = 5e-324
        w0[-1] = np.nan
        # Moments of untrained tasks are stored as they are, unchecked.
        h.bn_stats = {2: [(np.array([0.5, np.nan]), np.array([1.0, 2.0]))],
                      10: [(np.zeros(2), np.ones(2))]}
        h.trained_tasks = 2
        return h, spec

    def test_bytes_equal_one_json_dump(self, tmp_path, awkward_model, results):
        h, spec = awkward_model
        path = tmp_path / "model.json"
        save_checkpoint(str(path), h, spec, seed=3, results=results)
        assert path.read_bytes() == _reference_bytes(h, spec, 3, results)

    def test_file_with_empty_extra_key_loads(self, tmp_path, awkward_model,
                                             results):
        # Earlier format-2 files carry ``"extra": {}``; the reader ignores it.
        h, spec = awkward_model
        path = tmp_path / "model.json"
        save_checkpoint(str(path), h, spec, seed=3, results=results)
        saved = path.read_bytes()
        payload = json.loads(saved)
        payload["extra"] = {}
        path.write_text(json.dumps(payload, sort_keys=True,
                                   separators=(",", ":")) + "\n")
        loaded = load_checkpoint(str(path))
        again = tmp_path / "again.json"
        save_checkpoint(str(again), loaded.hypernet, loaded.spec,
                        seed=loaded.seed, results=loaded.results)
        assert again.read_bytes() == saved

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinity_is_refused_by_name(self, tmp_path, awkward_model, value):
        h, spec = awkward_model
        h.weights[1][0][3, 2] = value
        path = tmp_path / "model.json"
        with pytest.raises(CheckpointError,
                           match=f"non-finite value {float(value)}$"):
            save_checkpoint(str(path), h, spec)
        assert not path.exists()


class TestValidation:
    def test_version_mismatch(self, tmp_path, model):
        h, spec = model
        path = tmp_path / "model.json"
        save_checkpoint(str(path), h, spec)
        payload = json.loads(path.read_text())
        for version in (1, 99):
            payload["format"] = version
            path.write_text(json.dumps(payload))
            with pytest.raises(CheckpointError,
                               match=f"format {version}, this build reads "
                                     f"format 2$"):
                load_checkpoint(str(path))

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "absent.json"))

    def test_tampered_array_length(self, tmp_path, model):
        h, spec = model
        path = tmp_path / "model.json"
        save_checkpoint(str(path), h, spec)
        payload = json.loads(path.read_text())
        stored = payload["hypernet"]["embeddings"]
        stored["data"] = base64.b64encode(
            base64.b64decode(stored["data"])[:-8]).decode("ascii")
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="values for shape"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("tamper", [
        lambda data: data[:-1],                       # truncated base64
        lambda data: "!!!!" + data[4:],               # not base64
        lambda data: data[:4] + "\n" + data[4:],      # stray whitespace
        lambda data: base64.b64encode(                # 7 bytes short of 8
            base64.b64decode(data)[:-1]).decode("ascii"),
        lambda data: [0.0] * 3,                       # format 1 data
    ], ids=["truncated", "not-base64", "whitespace", "partial-value",
            "list"])
    def test_corrupt_array_data(self, tmp_path, model, tamper):
        h, spec = model
        path = tmp_path / "model.json"
        save_checkpoint(str(path), h, spec)
        payload = json.loads(path.read_text())
        stored = payload["hypernet"]["weights"][0]["w"]
        stored["data"] = tamper(stored["data"])
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="malformed array"):
            load_checkpoint(str(path))

    def test_wrong_array_shape(self, tmp_path, model):
        h, spec = model
        path = tmp_path / "model.json"
        save_checkpoint(str(path), h, spec)
        payload = json.loads(path.read_text())
        stored = payload["hypernet"]["weights"][0]["w"]
        stored["shape"] = stored["shape"][::-1]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="weight shaped"):
            load_checkpoint(str(path))
        stored["shape"] = [-d for d in stored["shape"]]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="values for shape"):
            load_checkpoint(str(path))

    def test_size_mismatch_between_spec_and_hypernet(self, tmp_path, model):
        h, _ = model
        other = NetworkSpec((7,), mlp_layers([5], 2), classes=2)
        with pytest.raises(CheckpointError, match="parameters"):
            save_checkpoint(str(tmp_path / "x.json"), h, other)

    def test_results_shape_mismatch(self, tmp_path, model):
        h, spec = model
        path = tmp_path / "model.json"
        save_checkpoint(str(path), h, spec, results=ResultMatrix(3))
        payload = json.loads(path.read_text())
        payload["results"]["shape"] = [2, 2]
        payload["results"]["data"] = base64.b64encode(
            np.full(4, np.nan).tobytes()).decode("ascii")
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="result table shape"):
            load_checkpoint(str(path))


def _bn_model():
    """``(2,) -> dense(4) -> batchnorm -> relu -> dense(3)``, three tasks
    trained, with moments shaped as training freezes them."""
    spec = NetworkSpec((2,), [dense(4), batchnorm(), act("relu"), dense(3)],
                       classes=3)
    h = Hypernetwork(spec.total_params, 4, [6], task_count=3,
                     rng=np.random.default_rng(4))
    rng = np.random.default_rng(5)
    h.bn_stats = {t: [(rng.normal(size=(1, 4)),
                       rng.uniform(0.1, 2.0, size=(1, 4)))] for t in range(3)}
    h.trained_tasks = 3
    return h, spec


def _replace_pair(task, mean=None, var=None):
    def tamper(stats):
        old_mean, old_var = stats[task][0]
        return {**stats, task: [(old_mean if mean is None else mean(old_mean),
                                 old_var if var is None else var(old_var))]}
    return tamper


BN_DEFECTS = {
    "empty": (lambda stats: {**stats, 0: []},
              r"task 0 stores 0 batchnorm moment pairs, network has 1"),
    "missing": (lambda stats: {},
                r"task 0 stores 0 batchnorm moment pairs"),
    "two-pairs": (lambda stats: {**stats, 1: stats[1] * 2},
                  r"task 1 stores 2 batchnorm moment pairs"),
    "narrow": (lambda stats: {**stats, 1: [(np.zeros((1, 3)),
                                            np.ones((1, 3)))]},
               r"task 1, layer 1: batchnorm mean shaped \(1, 3\)"),
    "column": (_replace_pair(0, mean=lambda m: m.reshape(4, 1)),
               r"task 0, layer 1: batchnorm mean shaped \(4, 1\)"),
    "extra-axis": (_replace_pair(0, var=lambda v: v.reshape(1, 1, 4)),
                   r"task 0, layer 1: batchnorm var shaped \(1, 1, 4\)"),
    "nan-mean": (_replace_pair(2, mean=lambda m: np.where(m > m.min(), m,
                                                          np.nan)),
                 r"task 2, layer 1: batchnorm mean is not finite"),
    "negative-var": (_replace_pair(2, var=lambda v: -v),
                     r"task 2, layer 1: batchnorm variance must be finite"),
    "nan-var": (_replace_pair(0, var=lambda v: v * np.nan),
                r"task 0, layer 1: batchnorm variance must be finite"),
}


class TestBatchnormMoments:
    @pytest.mark.parametrize("shape", [(1, 4), (4,)])
    def test_moments_per_feature_load(self, tmp_path, shape):
        h, spec = _bn_model()
        h.bn_stats = {t: [(m.reshape(shape), v.reshape(shape))]
                      for t, [(m, v)] in h.bn_stats.items()}
        path = str(tmp_path / "model.json")
        save_checkpoint(path, h, spec)
        loaded = load_checkpoint(path).hypernet
        for task in range(3):
            [(m1, v1)], [(m2, v2)] = loaded.bn_stats[task], h.bn_stats[task]
            assert m1.shape == m2.shape == shape
            assert m1.tobytes() == m2.tobytes()
            assert v1.tobytes() == v2.tobytes()

    @pytest.mark.parametrize("defect", list(BN_DEFECTS))
    def test_unusable_moments_refused(self, tmp_path, defect):
        tamper, message = BN_DEFECTS[defect]
        h, spec = _bn_model()
        h.bn_stats = tamper(h.bn_stats)
        path = str(tmp_path / "model.json")
        save_checkpoint(path, h, spec)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_untrained_tasks_need_no_moments(self, tmp_path):
        h, spec = _bn_model()
        h.trained_tasks = 1
        h.bn_stats = {0: h.bn_stats[0], 2: []}
        path = str(tmp_path / "model.json")
        save_checkpoint(path, h, spec)
        assert set(load_checkpoint(path).hypernet.bn_stats) == {0, 2}

    def test_moments_for_a_network_without_batchnorm_refused(self, tmp_path):
        # Such a file used to load; its first evaluation then failed inside
        # the forward pass with a ValueError that named no file.
        spec = NetworkSpec((3,), mlp_layers([5], 2), classes=2)
        h = Hypernetwork(spec.total_params, 4, [6], task_count=2,
                         rng=np.random.default_rng(12))
        h.bn_stats = {0: [(np.zeros(5), np.ones(5))]}
        h.trained_tasks = 1
        path = str(tmp_path / "model.json")
        save_checkpoint(path, h, spec)
        with pytest.raises(CheckpointError, match=(
                "^" + re.escape(path) + ": task 0 stores 1 batchnorm moment "
                "pairs, network has 0 batchnorm layers$")):
            load_checkpoint(path)

    @pytest.mark.parametrize("input_shape, layers, classes", [
        ((2,), [dense(4), batchnorm(), act("relu"), dense(3)], 3),
        ((4, 4, 1), [conv(2, 2), batchnorm(), act("relu"), flatten(),
                     dense(2)], 2),
    ], ids=["flat", "nhwc"])
    def test_trained_moments_load_and_evaluate_bitwise(
            self, tmp_path, input_shape, layers, classes):
        spec = NetworkSpec(input_shape, layers, classes)
        h = Hypernetwork(spec.total_params, 4, [8], task_count=2,
                         rng=np.random.default_rng(6))
        rng = np.random.default_rng(7)
        data = SimpleNamespace(inputs=rng.uniform(size=(24,) + input_shape),
                               labels=np.arange(24) % classes)
        cfg = TrainerConfig(steps=4, batch_size=8, model_selection=False,
                            loss=LossConfig(eps=0.02))
        for task in range(2):
            train_task(h, spec, task, data, cfg)
        path = str(tmp_path / "model.json")
        save_checkpoint(path, h, spec)
        loaded = load_checkpoint(path).hypernet
        x, y = data.inputs, data.labels
        for task in range(2):
            results = []
            for model in (h, loaded):
                params = generate_params(model, spec, task)
                stats = model.bn_stats[task]
                bounds = forward_interval(spec, params, x, eps=0.02,
                                          bn_stats=stats)
                results.append([
                    forward_point(spec, params, x, bn_stats=stats),
                    bounds.lower, bounds.upper,
                    certify(spec, params, x, y, 0.02, bn_stats=stats)])
            for ours, theirs in zip(*results):
                assert ours.tobytes() == theirs.tobytes()
