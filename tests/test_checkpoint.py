"""Checkpoint files round-trip every stored value bit for bit."""

import base64
import json
import struct

import numpy as np
import pytest

from intervalcl.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    spec_from_json,
    spec_to_json,
)
from intervalcl.evaluation import ResultMatrix
from intervalcl.nets import (
    Hypernetwork,
    NetworkSpec,
    act,
    batchnorm,
    conv,
    dense,
    flatten,
    mlp_layers,
)


@pytest.fixture
def model():
    spec = NetworkSpec((3,), mlp_layers([5], 2), classes=2)
    h = Hypernetwork(spec.total_params, 4, [6], task_count=3,
                     rng=np.random.default_rng(12))
    h.bn_stats = {0: [(np.random.default_rng(1).normal(size=5),
                       np.random.default_rng(2).uniform(0.1, 2.0, size=5))]}
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


class TestRoundTrip:
    def test_all_values_bitwise(self, tmp_path, model, results):
        h, spec = model
        path = str(tmp_path / "model.json")
        save_checkpoint(path, h, spec, seed=99, results=results,
                        extra={"note": "x"})
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.hypernet.embeddings, h.embeddings)
        for (w1, b1), (w2, b2) in zip(loaded.hypernet.weights, h.weights):
            assert np.array_equal(w1, w2)
            assert np.array_equal(b1, b2)
        assert loaded.hypernet.trained_tasks == 2
        assert loaded.seed == 99
        assert loaded.extra == {"note": "x"}
        assert set(loaded.hypernet.bn_stats) == {0}
        for (m1, v1), (m2, v2) in zip(loaded.hypernet.bn_stats[0],
                                      h.bn_stats[0]):
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
                        seed=loaded.seed, results=loaded.results,
                        extra=loaded.extra)
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


def _list_array(array):
    """Format 1 array: shortest round-tripping floats, NaN as null."""
    flat = np.asarray(array, dtype=np.float64).ravel().tolist()
    return {"shape": list(np.shape(array)),
            "data": [None if v != v else v for v in flat]}


def _bytes_array(array):
    """Format 2 array: base64 of the little-endian float64 bytes."""
    flat = np.asarray(array, dtype=np.float64).ravel().tolist()
    packed = struct.pack(f"<{len(flat)}d", *flat)
    return {"shape": list(np.shape(array)),
            "data": base64.b64encode(packed).decode("ascii")}


def _reference_bytes(h, spec, seed, results, extra, version=2):
    """The file as one ``json.dump`` of the whole payload writes it, with
    arrays encoded as format ``version`` (1 is what earlier builds wrote)."""
    encode = {1: _list_array, 2: _bytes_array}[version]
    payload = {
        "format": version,
        "seed": seed,
        "spec": spec_to_json(spec),
        "hypernet": {
            "layout": {"target_size": h.layout.target_size,
                       "embedding_dim": h.layout.embedding_dim,
                       "hidden": list(h.layout.hidden),
                       "task_count": h.layout.task_count},
            "embeddings": encode(h.embeddings),
            "weights": [{"w": encode(w), "b": encode(b)} for w, b in h.weights],
            "bn_stats": {str(task): [{"mean": encode(m), "var": encode(v)}
                                     for m, v in stats]
                         for task, stats in sorted(h.bn_stats.items())},
            "trained_tasks": h.trained_tasks,
        },
        "results": encode(results.values),
        "extra": extra,
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
        h.bn_stats = {0: [(np.array([0.5, np.nan]), np.array([1.0, 2.0]))],
                      10: [(np.zeros(2), np.ones(2))]}
        h.trained_tasks = 2
        return h, spec

    def test_bytes_equal_one_json_dump(self, tmp_path, awkward_model, results):
        h, spec = awkward_model
        extra = {"note": "caf\u00e9", "nested": {"b": [1, 2.5], "a": None}}
        path = tmp_path / "model.json"
        save_checkpoint(str(path), h, spec, seed=3, results=results,
                        extra=extra)
        assert path.read_bytes() == _reference_bytes(h, spec, 3, results, extra)

    def test_format_1_file_loads_bitwise(self, tmp_path, awkward_model,
                                         results):
        h, spec = awkward_model
        extra = {"note": "old"}
        path = tmp_path / "model.json"
        path.write_bytes(_reference_bytes(h, spec, 3, results, extra,
                                          version=1))
        loaded = load_checkpoint(str(path))
        assert loaded.hypernet.embeddings.tobytes() == h.embeddings.tobytes()
        for (w1, b1), (w2, b2) in zip(loaded.hypernet.weights, h.weights):
            assert w1.tobytes() == w2.tobytes()
            assert b1.tobytes() == b2.tobytes()
        assert set(loaded.hypernet.bn_stats) == set(h.bn_stats)
        for task, stats in h.bn_stats.items():
            for (m1, v1), (m2, v2) in zip(loaded.hypernet.bn_stats[task],
                                          stats):
                assert m1.tobytes() == m2.tobytes()
                assert v1.tobytes() == v2.tobytes()
        assert loaded.results.values.tobytes() == results.values.tobytes()
        assert (loaded.seed, loaded.extra) == (3, extra)
        assert loaded.hypernet.trained_tasks == 2

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
        payload["format"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="format 99"):
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
