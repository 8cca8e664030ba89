"""Model checkpoints: JSON files that round-trip bit for bit.

A checkpoint captures everything needed to resume or evaluate a run: the
target architecture, the hypernetwork (layout, weights, embeddings, frozen
batchnorm moments, completed-task count), the accuracy table recorded so
far, and the seed. The file is compact JSON with sorted keys. Each array
is stored as ``{"data": ..., "shape": [...]}``, where ``data`` is the
base64 text of its little-endian float64 bytes in C order, so every value
(NaN, -0.0 and subnormals included) loads back bit for bit and save ->
load -> save reproduces the file byte for byte. Infinities are refused.

That is format 2. Format 1 files, written by earlier builds, store
``data`` as a list of shortest round-tripping floats with NaN as null;
they still load.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass

import numpy as np

from intervalcl.evaluation import ResultMatrix
from intervalcl.nets import Hypernetwork, LayerDescriptor, NetworkSpec

FORMAT_VERSION = 2
_READABLE = (1, FORMAT_VERSION)


class CheckpointError(ValueError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


# ---- array and spec codecs ----------------------------------------------


def _encode_array(array) -> dict:
    array = np.asarray(array, dtype=np.float64)
    infinite = np.isinf(array)
    if infinite.any():
        value = float(array[infinite][0])
        raise CheckpointError(f"cannot store non-finite value {value}")
    data = base64.b64encode(array.astype("<f8", copy=False).tobytes())
    return {"data": data.decode("ascii"), "shape": list(array.shape)}


def _decode_array(obj, version: int) -> np.ndarray:
    try:
        shape = tuple(int(d) for d in obj["shape"])
        if version == 1:
            values = [np.nan if v is None else float(v) for v in obj["data"]]
        else:
            values = np.frombuffer(
                base64.b64decode(obj["data"], validate=True), dtype="<f8")
        flat = np.array(values, dtype=np.float64)
    except (TypeError, KeyError, ValueError) as exc:
        raise CheckpointError(f"malformed array: {exc}") from exc
    if flat.size != int(np.prod(shape)) or min(shape, default=0) < 0:
        raise CheckpointError(
            f"array data holds {flat.size} values for shape {shape}")
    return flat.reshape(shape)


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
            "embeddings": _encode_array(hypernet.embeddings),
            "weights": [{"w": _encode_array(w), "b": _encode_array(b)}
                        for w, b in hypernet.weights],
            "bn_stats": {
                str(task): [{"mean": _encode_array(m), "var": _encode_array(v)}
                            for m, v in stats]
                for task, stats in sorted(hypernet.bn_stats.items())
            },
            "trained_tasks": hypernet.trained_tasks,
        },
        "results": None if results is None else _encode_array(results.values),
        "extra": extra or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, allow_nan=False,
                  separators=(",", ":"))
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
    if type(version) is not int or version not in _READABLE:
        raise CheckpointError(
            f"{path}: format {version!r}, this build reads formats "
            f"{' and '.join(map(str, _READABLE))}")
    try:
        spec = spec_from_json(payload["spec"])
        stored = payload["hypernet"]
        layout = stored["layout"]
        hypernet = Hypernetwork(
            int(layout["target_size"]), int(layout["embedding_dim"]),
            [int(h) for h in layout["hidden"]], int(layout["task_count"]),
            np.random.default_rng(0))
        _restore_array(hypernet.embeddings, stored["embeddings"], "embeddings",
                       version)
        if len(stored["weights"]) != len(hypernet.weights):
            raise CheckpointError(
                f"{len(stored['weights'])} weight layers stored, layout has "
                f"{len(hypernet.weights)}")
        for (w, b), item in zip(hypernet.weights, stored["weights"]):
            _restore_array(w, item["w"], "weight", version)
            _restore_array(b, item["b"], "bias", version)
        hypernet.bn_stats = {
            int(task): [(_decode_array(s["mean"], version),
                         _decode_array(s["var"], version)) for s in stats]
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
        values = _decode_array(results_obj, version)
        if values.shape != (hypernet.layout.task_count,) * 2:
            raise CheckpointError(
                f"{path}: result table shape {values.shape} does not match "
                f"{hypernet.layout.task_count} tasks")
        results = ResultMatrix(hypernet.layout.task_count)
        results.values = values
    return Checkpoint(hypernet=hypernet, spec=spec, seed=seed,
                      results=results, extra=extra)


def _restore_array(target: np.ndarray, obj, name: str, version: int) -> None:
    decoded = _decode_array(obj, version)
    if decoded.shape != target.shape:
        raise CheckpointError(
            f"{name} shaped {decoded.shape}, layout expects {target.shape}")
    target[...] = decoded
