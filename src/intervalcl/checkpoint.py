"""Model checkpoints: JSON files that round-trip bit for bit.

A checkpoint captures everything needed to resume or evaluate a run: the
target architecture, the hypernetwork (layout, weights, embeddings, frozen
batchnorm moments, completed-task count), the accuracy table recorded so
far, and the seed. The file is compact JSON with sorted keys. Each array
is stored as ``{"data": ..., "shape": [...]}``, where ``data`` is the
base64 text of its little-endian float64 bytes in C order, so every value
(NaN, -0.0 and subnormals included) loads back bit for bit and save ->
load -> save reproduces the file byte for byte. Infinities are refused.

For a network with batchnorm layers, every trained task must carry one
frozen (mean, var) pair per batchnorm layer: the loader refuses missing,
misshapen or non-finite moments and negative variances.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass

import numpy as np

from intervalcl.evaluation import ResultMatrix
from intervalcl.nets import Hypernetwork, LayerDescriptor, NetworkSpec

FORMAT_VERSION = 2


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


def _decode_array(obj) -> np.ndarray:
    try:
        shape = tuple(int(d) for d in obj["shape"])
        flat = np.frombuffer(base64.b64decode(obj["data"], validate=True),
                             dtype="<f8").astype(np.float64)
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
        return NetworkSpec(tuple(obj["input_shape"]), layers, obj["classes"])
    except (TypeError, KeyError, ValueError) as exc:
        raise CheckpointError(f"malformed network description: {exc}") from exc


# ---- checkpoint ----------------------------------------------------------


@dataclass
class Checkpoint:
    hypernet: Hypernetwork
    spec: NetworkSpec
    seed: int
    results: ResultMatrix | None


def save_checkpoint(path: str, hypernet: Hypernetwork, spec: NetworkSpec, *,
                    seed: int = 0, results: ResultMatrix | None = None) -> None:
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
    if type(version) is not int or version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format {version!r}, this build reads format "
            f"{FORMAT_VERSION}")
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
        values = None if results_obj is None else _decode_array(results_obj)
        seed = int(payload["seed"])
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    except (TypeError, KeyError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint: {exc}") from exc
    if hypernet.layout.target_size != spec.total_params:
        raise CheckpointError(
            f"{path}: hypernetwork emits {hypernet.layout.target_size} "
            f"parameters, network needs {spec.total_params}")
    if not 0 <= hypernet.trained_tasks <= hypernet.layout.task_count:
        raise CheckpointError(
            f"{path}: {hypernet.trained_tasks} trained tasks out of range")
    _check_bn_stats(path, spec, hypernet)
    results = None
    if values is not None:
        if values.shape != (hypernet.layout.task_count,) * 2:
            raise CheckpointError(
                f"{path}: result table shape {values.shape} does not match "
                f"{hypernet.layout.task_count} tasks")
        results = ResultMatrix(hypernet.layout.task_count)
        results.values = values
    return Checkpoint(hypernet=hypernet, spec=spec, seed=seed, results=results)


def _check_bn_stats(path: str, spec: NetworkSpec, hypernet: Hypernetwork) -> None:
    """Each trained task needs the moments ``spec.check_bn_stats`` takes for
    boxes, so none for a network without batchnorm, holding finite means
    and finite, non-negative variances; otherwise the forward passes refuse
    the call, the point pass normalizes with each batch's own moments, or
    every logit turns NaN."""
    for task in range(hypernet.trained_tasks):
        stats = hypernet.bn_stats.get(task, [])
        try:
            spec.check_bn_stats(stats, boxed=True)
        except ValueError as exc:
            raise CheckpointError(f"{path}: task {task}, {exc}") from None
        for index, (mean, var) in zip(spec.batchnorm_layers, stats):
            where = f"{path}: task {task}, layer {index}"
            if not np.isfinite(mean).all():
                raise CheckpointError(f"{where}: batchnorm mean is not finite")
            # Written so that NaN fails the check.
            if not ((0.0 <= var) & (var < np.inf)).all():
                raise CheckpointError(
                    f"{where}: batchnorm variance must be finite and "
                    f"non-negative")


def _restore_array(target: np.ndarray, obj, name: str) -> None:
    decoded = _decode_array(obj)
    if decoded.shape != target.shape:
        raise CheckpointError(
            f"{name} shaped {decoded.shape}, layout expects {target.shape}")
    target[...] = decoded
