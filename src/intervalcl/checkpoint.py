"""Model checkpoints: JSON files that round-trip bit for bit.

A checkpoint captures everything needed to resume or evaluate a run: the
target architecture, the hypernetwork (layout, weights, embeddings, frozen
batchnorm moments, completed-task count), the accuracy table recorded so
far, and the seed. Floats are written with their shortest round-tripping
representation, so save -> load -> save reproduces the file byte for byte.

The file is compact JSON with sorted keys. ``save_checkpoint`` writes the
bytes ``json.dump(..., sort_keys=True, allow_nan=False, separators=(",",
":"))`` would write, but streams them: the small structure goes through
``json.dumps``, and each array's data through ``json.dumps`` of bounded
slices. ``json.dump`` is avoided because it always takes the pure-Python
encoder, which made writing a hypernetwork's weights the bulk of the
save; encoding the whole document with ``json.dumps`` instead would hold
it, and every array as a Python list, in memory at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from intervalcl.evaluation import ResultMatrix
from intervalcl.nets import Hypernetwork, LayerDescriptor, NetworkSpec

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


# ---- array and spec codecs ----------------------------------------------


_JSON_OPTIONS = {"sort_keys": True, "allow_nan": False, "separators": (",", ":")}
_SLICE = 8192  # array values encoded per json.dumps call


class _Array:
    """float64 array stored as ``{"data":[...],"shape":[...]}``, NaN as null.

    Infinities cannot be stored and are refused here, before the file is
    opened.
    """

    __slots__ = ("values",)

    def __init__(self, array):
        array = np.asarray(array, dtype=np.float64)
        infinite = np.isinf(array)
        if infinite.any():
            value = float(array[infinite][0])
            raise CheckpointError(f"cannot store non-finite value {value}")
        self.values = array

    def write(self, fh) -> None:
        flat = self.values.reshape(-1)
        fh.write('{"data":[')
        for start in range(0, flat.size, _SLICE):
            chunk = flat[start:start + _SLICE]
            values = chunk.tolist()
            if np.isnan(chunk).any():
                values = [None if v != v else v for v in values]
            if start:
                fh.write(",")
            fh.write(json.dumps(values, **_JSON_OPTIONS)[1:-1])
        fh.write('],"shape":')
        fh.write(json.dumps(list(self.values.shape), **_JSON_OPTIONS))
        fh.write("}")


def _holds_array(obj) -> bool:
    if isinstance(obj, _Array):
        return True
    if isinstance(obj, dict):
        return any(_holds_array(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_holds_array(v) for v in obj)
    return False


def _write_json(fh, obj) -> None:
    """Write ``obj`` as ``json.dump`` with ``_JSON_OPTIONS`` would, streaming
    the ``_Array`` values in it; containers holding them have string keys."""
    if isinstance(obj, _Array):
        obj.write(fh)
    elif not _holds_array(obj):
        fh.write(json.dumps(obj, **_JSON_OPTIONS))
    elif isinstance(obj, dict):
        fh.write("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                fh.write(",")
            fh.write(json.dumps(key))
            fh.write(":")
            _write_json(fh, obj[key])
        fh.write("}")
    else:
        fh.write("[")
        for i, item in enumerate(obj):
            if i:
                fh.write(",")
            _write_json(fh, item)
        fh.write("]")


def _decode_array(obj) -> np.ndarray:
    try:
        shape = tuple(int(d) for d in obj["shape"])
        flat = [math.nan if v is None else float(v) for v in obj["data"]]
    except (TypeError, KeyError, ValueError) as exc:
        raise CheckpointError(f"malformed array: {exc}") from exc
    if len(flat) != int(np.prod(shape)):
        raise CheckpointError(
            f"array data holds {len(flat)} values for shape {shape}")
    return np.array(flat, dtype=np.float64).reshape(shape)


def spec_to_json(spec: NetworkSpec) -> dict:
    return {
        "input_shape": list(spec.input_shape),
        "classes": spec.classes,
        "layers": [asdict(layer) for layer in spec.layers],
    }


def spec_from_json(obj) -> NetworkSpec:
    try:
        layers = [LayerDescriptor(**layer) for layer in obj["layers"]]
        return NetworkSpec(tuple(obj["input_shape"]), layers, int(obj["classes"]))
    except (TypeError, KeyError, ValueError) as exc:
        raise CheckpointError(f"malformed network description: {exc}") from exc


# ---- checkpoint ----------------------------------------------------------


@dataclass
class Checkpoint:
    hypernet: Hypernetwork
    spec: NetworkSpec
    seed: int
    results: ResultMatrix | None
    extra: dict


def save_checkpoint(path: str, hypernet: Hypernetwork, spec: NetworkSpec, *,
                    seed: int = 0, results: ResultMatrix | None = None,
                    extra: dict | None = None) -> None:
    layout = hypernet.layout
    if layout.target_size != spec.total_params:
        raise CheckpointError(
            f"hypernetwork emits {layout.target_size} parameters, "
            f"network needs {spec.total_params}")
    payload = {
        "format": FORMAT_VERSION,
        "seed": int(seed),
        "spec": spec_to_json(spec),
        "hypernet": {
            "layout": {
                "target_size": layout.target_size,
                "embedding_dim": layout.embedding_dim,
                "hidden": list(layout.hidden),
                "task_count": layout.task_count,
            },
            "embeddings": _Array(hypernet.embeddings),
            "weights": [{"w": _Array(w), "b": _Array(b)}
                        for w, b in hypernet.weights],
            "bn_stats": {
                str(task): [{"mean": _Array(m), "var": _Array(v)}
                            for m, v in stats]
                for task, stats in sorted(hypernet.bn_stats.items())
            },
            "trained_tasks": hypernet.trained_tasks,
        },
        "results": None if results is None else _Array(results.values),
        "extra": extra or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(fh, payload)
        fh.write("\n")


def load_checkpoint(path: str) -> Checkpoint:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path}: expected a JSON object")
    version = payload.get("format")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format {version!r}, this build reads {FORMAT_VERSION}")
    try:
        spec = spec_from_json(payload["spec"])
        stored = payload["hypernet"]
        layout = stored["layout"]
        hypernet = Hypernetwork(
            int(layout["target_size"]), int(layout["embedding_dim"]),
            [int(h) for h in layout["hidden"]], int(layout["task_count"]),
            np.random.default_rng(0))
        _restore_array(hypernet.embeddings, stored["embeddings"], "embeddings")
        if len(stored["weights"]) != len(hypernet.weights):
            raise CheckpointError(
                f"{len(stored['weights'])} weight layers stored, layout has "
                f"{len(hypernet.weights)}")
        for (w, b), item in zip(hypernet.weights, stored["weights"]):
            _restore_array(w, item["w"], "weight")
            _restore_array(b, item["b"], "bias")
        hypernet.bn_stats = {
            int(task): [(_decode_array(s["mean"]), _decode_array(s["var"]))
                        for s in stats]
            for task, stats in stored["bn_stats"].items()
        }
        hypernet.trained_tasks = int(stored["trained_tasks"])
        results_obj = payload["results"]
        seed = int(payload["seed"])
        extra = payload.get("extra", {})
    except (TypeError, KeyError, ValueError) as exc:
        if isinstance(exc, CheckpointError):
            raise
        raise CheckpointError(f"{path}: malformed checkpoint: {exc}") from exc
    if hypernet.layout.target_size != spec.total_params:
        raise CheckpointError(
            f"{path}: hypernetwork emits {hypernet.layout.target_size} "
            f"parameters, network needs {spec.total_params}")
    if not 0 <= hypernet.trained_tasks <= hypernet.layout.task_count:
        raise CheckpointError(
            f"{path}: {hypernet.trained_tasks} trained tasks out of range")
    results = None
    if results_obj is not None:
        values = _decode_array(results_obj)
        if values.shape != (hypernet.layout.task_count,) * 2:
            raise CheckpointError(
                f"{path}: result table shape {values.shape} does not match "
                f"{hypernet.layout.task_count} tasks")
        results = ResultMatrix(hypernet.layout.task_count)
        results.values = values
    return Checkpoint(hypernet=hypernet, spec=spec, seed=seed,
                      results=results, extra=extra)


def _restore_array(target: np.ndarray, obj, name: str) -> None:
    decoded = _decode_array(obj)
    if decoded.shape != target.shape:
        raise CheckpointError(
            f"{name} shaped {decoded.shape}, layout expects {target.shape}")
    target[...] = decoded
