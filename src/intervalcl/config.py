"""Experiment configuration: INI files with a fixed, validated schema.

A config is a flat section/key document. Unknown sections or keys are
rejected by name; every key has a documented default, so an empty file is
a valid experiment. ``--set section.key=value`` overrides go through the
same coercion and validation as file values.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass

from intervalcl.losses import DECAY_KINDS


class ConfigError(ValueError):
    """Bad configuration: unknown key, bad type, or bad value."""


@dataclass(frozen=True)
class Field:
    kind: str  # "int" | "float" | "bool" | "str" | "ints" | "floats"
    default: object
    help: str
    choices: tuple = ()
    minimum: int | None = None  # smallest accepted "int" value


SCHEMA: dict[str, dict[str, Field]] = {
    "data": {
        "kind": Field("str", "blobs", "task sequence family",
                      choices=("blobs", "permuted", "rotated", "toy2d")),
        "source": Field("str", "glyphs",
                        "image base for permuted/rotated: built-in glyph "
                        "digits or an IDX file pair",
                        choices=("glyphs", "idx")),
        "images": Field("str", "", "IDX image file (source = idx)"),
        "labels": Field("str", "", "IDX label file (source = idx)"),
        "tasks": Field("int", 3, "number of tasks T", minimum=1),
        "seed": Field("int", 0, "seed for generation, splits, permutations",
                      minimum=0),
        "angles": Field("floats", (), "rotation angle per task (kind = rotated)"),
        "downsample": Field("int", 1, "integer image downsampling factor"),
        "base_count": Field("int", 3000,
                            "glyph images generated before splitting"),
        "noise": Field("float", 0.08, "glyph pixel noise level"),
        "classes": Field("int", 3, "classes per task (kind = blobs)", minimum=2),
        "dims": Field("int", 2, "input dimension (kind = blobs)", minimum=1),
        "separation": Field("float", 0.35, "minimum blob mean distance"),
        "spread": Field("float", 0.05, "blob standard deviation"),
        "train_size": Field("int", 300, "training samples per task"),
        "val_size": Field("int", 60, "validation samples per task"),
        "test_size": Field("int", 150, "test samples per task"),
        "points": Field("int", 12, "points per class (kind = toy2d)"),
        "pairs": Field("int", 0, "cross-class pairs, 0 = as many as possible "
                                 "(kind = toy2d)"),
    },
    "net": {
        "hidden": Field("ints", (64,), "target network hidden layer widths"),
        "activation": Field("str", "relu", "target network activation",
                            choices=("relu", "sigmoid")),
    },
    "hypernet": {
        "hidden": Field("ints", (64, 64), "hypernetwork hidden layer widths"),
        "embedding": Field("int", 24, "task embedding width"),
    },
    "train": {
        "steps": Field("int", 1000, "optimization steps per task"),
        "batch": Field("int", 32, "batch size"),
        "lr": Field("float", 0.001, "learning rate"),
        "beta": Field("float", 0.01, "hypernetwork output regularizer weight"),
        "eps": Field("float", 0.0, "target certification radius"),
        "alpha": Field("float", 0.1, "Beta(alpha, alpha) mixing parameter"),
        "use_interval_mixup": Field("bool", True,
                                    "train on interpolated hypercubes"),
        "decay": Field("str", "linear", "virtual-sample radius decay",
                       choices=DECAY_KINDS),
        "seed": Field("int", 0, "training seed", minimum=0),
        "val_every": Field("int", 50, "steps between validation passes"),
        "model_selection": Field("bool", True,
                                 "restore the best validation snapshot"),
        "lam_steps": Field("int", 11,
                           "mixing grid size per pair (toy2d training)",
                           minimum=1),
    },
    "attack": {
        "enabled": Field("bool", True,
                         "run the FGSM and PGD attacks of eval; false scores "
                         "clean inputs in their rows"),
        "eps": Field("float", 0.0, "attack radius"),
        "step": Field("float", 0.0, "PGD step size, 0 = radius / 4"),
        "iters": Field("int", 100, "PGD iterations"),
        "random_start": Field("bool", True,
                              "start PGD from a random point in the ball"),
        "seed": Field("int", 0, "attack randomness seed", minimum=0),
    },
    "output": {
        "dir": Field("str", "run", "output directory (joined to the "
                                   "INTERVALCL_OUTPUT_ROOT env var if relative)"),
        "grid_resolution": Field("int", 41,
                                 "decision-grid resolution per axis (toy2d)",
                                 minimum=2),
    },
}

OUTPUT_ROOT_ENV = "INTERVALCL_OUTPUT_ROOT"

# Keys that left the schema, with the note their refusal carries.
_REPLACED = {
    ("attack", "kind"): "replaced by attack.enabled, a true/false switch",
    ("train", "optimizer"): "removed: training always uses Adam",
}

_BOOL_STATES = {"1": True, "yes": True, "true": True, "on": True,
                "0": False, "no": False, "false": False, "off": False}


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_field(section: str, key: str, raw: str, field: Field):
    where = f"{section}.{key}"
    raw = raw.strip()
    try:
        if field.kind == "int":
            value = int(raw)
        elif field.kind == "float":
            value = _finite(raw)
        elif field.kind == "bool":
            try:
                value = _BOOL_STATES[raw.lower()]
            except KeyError:
                raise ValueError(f"not a boolean: {raw!r}")
        elif field.kind == "str":
            value = raw
        elif field.kind == "ints":
            value = tuple(int(p) for p in raw.replace(",", " ").split())
        elif field.kind == "floats":
            value = tuple(_finite(p) for p in raw.replace(",", " ").split())
        else:  # pragma: no cover - schema is static
            raise AssertionError(field.kind)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {field.kind} "
                          f"({exc})") from exc
    if field.choices and value not in field.choices:
        raise ConfigError(f"{where}: {value!r} is not one of "
                          f"{'/'.join(field.choices)}")
    if field.minimum is not None and value < field.minimum:
        raise ConfigError(f"{where}: {value!r} is below the minimum "
                          f"{field.minimum}")
    return value


def _field(where: str, section: str, key: str | None = None) -> Field | None:
    """Schema entry of ``section.key`` (only the section without ``key``)."""
    if section not in SCHEMA:
        raise ConfigError(f"{where}: unknown section [{section}]")
    if key is None:
        return None
    if key not in SCHEMA[section]:
        hint = _REPLACED.get((section, key))
        note = f" ({hint})" if hint else ""
        raise ConfigError(f"{where}: unknown key {section}.{key}{note}")
    return SCHEMA[section][key]


def default_config() -> dict:
    return {section: {key: field.default for key, field in keys.items()}
            for section, keys in SCHEMA.items()}


def parse_config_text(text: str, origin: str = "<config>") -> dict:
    parser = configparser.ConfigParser(interpolation=None,
                                       default_section="@none@")
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from exc
    cfg = default_config()
    for section in parser.sections():
        _field(origin, section)
        for key, raw in parser.items(section):
            cfg[section][key] = _parse_field(section, key, raw,
                                              _field(origin, section, key))
    return cfg


def apply_overrides(cfg: dict, overrides) -> dict:
    """Apply ``section.key=value`` strings on top of a parsed config."""
    for item in overrides:
        head, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not section.key=value")
        section, dot, key = head.strip().partition(".")
        key = key.strip()
        if not dot or not section or not key:
            raise ConfigError(f"override {item!r} is not section.key=value")
        cfg[section][key] = _parse_field(section, key, raw,
                                          _field(f"override {item!r}", section, key))
    return cfg


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_to_text(cfg: dict) -> str:
    """Canonical INI rendering of a full config (every key, schema order)."""
    out = io.StringIO()
    for section, keys in SCHEMA.items():
        out.write(f"[{section}]\n")
        for key in keys:
            out.write(f"{key} = {_format_value(cfg[section][key])}\n")
        out.write("\n")
    return out.getvalue()


def documented_defaults() -> str:
    """Default config as INI text with one help comment per key."""
    out = io.StringIO()
    for section, keys in SCHEMA.items():
        out.write(f"[{section}]\n")
        for key, field in keys.items():
            note = field.help
            if field.choices:
                note += f" (one of: {', '.join(str(c) for c in field.choices)})"
            if field.minimum is not None:
                note += f" (at least {field.minimum})"
            out.write(f"# {note}\n")
            out.write(f"{key} = {_format_value(field.default)}\n")
        out.write("\n")
    return out.getvalue()
