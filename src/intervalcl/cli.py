"""Experiment runner: train, eval, certify, and toy2d commands.

Every command takes ``--config <path>`` plus ``--set section.key=value``
overrides, writes CSV artifacts into the configured output directory, and
is deterministic given its config. Floats in CSV files carry 17
significant digits, enough to reproduce the double-precision value.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
divergence.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from intervalcl import losses as L
from intervalcl.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from intervalcl.config import (
    OUTPUT_ROOT_ENV,
    ConfigError,
    apply_overrides,
    config_to_text,
    default_config,
    documented_defaults,
    parse_config_text,
)
from intervalcl.data import (
    DataError,
    build_permuted_tasks,
    build_rotated_tasks,
    gen_blobs_tasks,
    gen_digits,
    gen_toy2d,
    load_idx,
    validate_sequence,
)
from intervalcl.evaluation import (
    AttackConfig,
    attacked_accuracy,
    certify,
    clean_accuracy,
    metrics,
    verified_accuracy,
)
from intervalcl.losses import LossConfig
from intervalcl.nets import (
    Hypernetwork,
    NetworkSpec,
    forward_point,
    generate_params,
    mlp_layers,
)
from intervalcl.training import (
    LogRow,
    NumericalDivergenceError,
    TrainerConfig,
    train_sequence,
    train_virtual,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

_HYPERNET_INIT_KEY = 104729  # fixed spawn key: model init never collides
                             # with the per-task training streams


# ---- CSV helpers ---------------------------------------------------------


def format_value(value) -> str:
    """One CSV cell; floats carry 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(cell) for cell in row) + "\n")


# ---- config -> objects ---------------------------------------------------


@contextmanager
def _config_values():
    """Report a ValueError raised while config values become objects as a
    configuration error; data and checkpoint errors keep their exit code."""
    try:
        yield
    except (ConfigError, DataError, CheckpointError):
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def resolve_output_dir(cfg) -> Path:
    root = os.environ.get(OUTPUT_ROOT_ENV, "")
    path = Path(cfg["output"]["dir"])
    if root and not path.is_absolute():
        path = Path(root) / path
    path.mkdir(parents=True, exist_ok=True)
    return path


def build_tasks(cfg):
    d = cfg["data"]
    kind = d["kind"]
    sizes = dict(train_size=d["train_size"], val_size=d["val_size"],
                 test_size=d["test_size"])
    if min(sizes.values()) < 1:
        raise ConfigError("data.train_size, data.val_size and data.test_size "
                          "must be positive")
    if kind == "blobs":
        return gen_blobs_tasks(d["tasks"], classes=d["classes"],
                               dims=d["dims"], separation=d["separation"],
                               spread=d["spread"], seed=d["seed"], **sizes)
    if kind in ("permuted", "rotated"):
        if d["source"] == "idx":
            if not d["images"] or not d["labels"]:
                raise ConfigError(
                    "data.images and data.labels are required for source = idx")
            base = load_idx(d["images"], d["labels"])
        else:
            base = gen_digits(d["base_count"], d["seed"], noise=d["noise"])
        if kind == "permuted":
            return build_permuted_tasks(base.inputs, base.labels, d["tasks"],
                                        d["seed"], downsample=d["downsample"],
                                        **sizes)
        if not d["angles"]:
            raise ConfigError("data.angles is required for kind = rotated")
        if len(d["angles"]) != d["tasks"]:
            raise ConfigError(
                f"data.angles lists {len(d['angles'])} angles for "
                f"{d['tasks']} tasks")
        return build_rotated_tasks(base.inputs, base.labels, d["angles"],
                                   d["seed"], downsample=d["downsample"],
                                   **sizes)
    raise ConfigError(
        "data.kind = toy2d builds through the toy2d command only")


def build_model(cfg, feature_count: int, classes: int, task_count: int):
    spec = NetworkSpec((feature_count,),
                       mlp_layers(list(cfg["net"]["hidden"]), classes,
                                  cfg["net"]["activation"]),
                       classes)
    seed_seq = np.random.SeedSequence(entropy=cfg["train"]["seed"],
                                      spawn_key=(_HYPERNET_INIT_KEY,))
    hypernet = Hypernetwork(spec.total_params, cfg["hypernet"]["embedding"],
                            list(cfg["hypernet"]["hidden"]), task_count,
                            np.random.default_rng(seed_seq))
    return spec, hypernet


def make_trainer_config(cfg) -> TrainerConfig:
    t = cfg["train"]
    return TrainerConfig(
        steps=t["steps"], batch_size=t["batch"], lr=t["lr"],
        loss=LossConfig(beta=t["beta"], eps=t["eps"], alpha=t["alpha"],
                        decay=t["decay"]),
        use_interval_mixup=t["use_interval_mixup"], seed=t["seed"],
        val_every=t["val_every"], model_selection=t["model_selection"])


def make_attack_config(cfg, kind) -> AttackConfig:
    a = cfg["attack"]
    return AttackConfig(kind=kind, eps=a["eps"],
                        step=None if a["step"] == 0.0 else a["step"],
                        iters=a["iters"], random_start=a["random_start"],
                        seed=a["seed"])


def _echo_config(out_dir: Path, cfg, source_text: str | None) -> None:
    if source_text is not None:
        (out_dir / "config.ini").write_text(source_text, encoding="utf-8")
    (out_dir / "config.effective.ini").write_text(config_to_text(cfg),
                                                  encoding="utf-8")


# ---- commands ------------------------------------------------------------


def cmd_train(cfg, source_text: str | None = None) -> Path:
    """Train the task sequence; returns the output directory."""
    out_dir = resolve_output_dir(cfg)
    _echo_config(out_dir, cfg, source_text)
    with _config_values():
        tasks = build_tasks(cfg)
        validate_sequence(tasks)
        features = int(np.prod(tasks[0].train.inputs.shape[1:]))
        spec, hypernet = build_model(cfg, features, tasks[0].classes,
                                     len(tasks))
        trainer_cfg = make_trainer_config(cfg)
    seed = cfg["train"]["seed"]

    def after_task(t, result, _log):
        save_checkpoint(str(out_dir / f"checkpoint_task{t}.json"), hypernet,
                        spec, seed=seed, results=result)

    # Divergence exits 4 with one message; numpy's warnings would bury it.
    with np.errstate(over="ignore", invalid="ignore"):
        result, logs = train_sequence(hypernet, spec, tasks, trainer_cfg,
                                      after_task=after_task)
    save_checkpoint(str(out_dir / "checkpoint.json"), hypernet, spec,
                    seed=seed, results=result)

    rows = []
    task_count = len(tasks)
    for t in range(task_count):
        for s in range(t + 1):
            rows.append(("accuracy", t, s, result.accuracy(t, s)))
    summary = metrics(result)
    rows.append(("aa", task_count - 1, None, summary.average_accuracy))
    if summary.backward_transfer is not None:
        rows.append(("bwt", task_count - 1, None, summary.backward_transfer))
    write_csv(out_dir / "results.csv",
              ("kind", "after_task", "eval_task", "value"), rows)

    write_csv(out_dir / "log.csv", [f.name for f in fields(LogRow)],
              [astuple(row) for task_log in logs for row in task_log])
    return out_dir


def _load_for_evaluation(cfg, checkpoint_path: str):
    loaded = load_checkpoint(checkpoint_path)
    hypernet, spec = loaded.hypernet, loaded.spec
    if hypernet.trained_tasks != hypernet.layout.task_count:
        raise CheckpointError(
            f"checkpoint trained {hypernet.trained_tasks} of "
            f"{hypernet.layout.task_count} tasks; finish training first")
    with _config_values():
        tasks = build_tasks(cfg)
    if len(tasks) != hypernet.layout.task_count:
        raise ConfigError(
            f"config describes {len(tasks)} tasks, checkpoint holds "
            f"{hypernet.layout.task_count}")
    features = int(np.prod(tasks[0].train.inputs.shape[1:]))
    if spec.input_shape != (features,) or spec.classes != tasks[0].classes:
        raise ConfigError(
            f"config data is {features} features / {tasks[0].classes} classes, "
            f"checkpoint network reads {spec.input_shape} / {spec.classes}")
    return loaded, tasks


def cmd_eval(cfg, checkpoint_path: str) -> Path:
    """Clean, FGSM, PGD, and verified accuracy per task, plus AA and BWT."""
    loaded, tasks = _load_for_evaluation(cfg, checkpoint_path)
    hypernet, spec = loaded.hypernet, loaded.spec
    out_dir = resolve_output_dir(cfg)
    attacked = cfg["attack"]["enabled"]
    with _config_values():
        attacks = {kind: make_attack_config(cfg, kind)
                   for kind in ("fgsm", "pgd")}
    eps_attack = cfg["attack"]["eps"]

    rows = []
    clean_row = []
    for t, task in enumerate(tasks):
        params = generate_params(hypernet, spec, t)
        bn_stats = hypernet.bn_stats.get(t)
        x, y = task.test.inputs, task.test.labels
        clean = clean_accuracy(spec, params, x, y, bn_stats=bn_stats)
        clean_row.append(clean)
        rows.append(("clean", t, clean))
        for kind, attack in attacks.items():
            value = (attacked_accuracy(spec, params, x, y, attack,
                                       bn_stats=bn_stats) if attacked else clean)
            rows.append((kind, t, value))
        rows.append(("verified", t,
                     verified_accuracy(spec, params, x, y, eps_attack,
                                       bn_stats=bn_stats)))

    rows.append(("aa", None, float(np.mean(clean_row))))
    if loaded.results is not None and len(tasks) > 1:
        table = loaded.results.values.copy()
        table[-1, :] = clean_row
        if not np.isnan(np.diag(table)).any():
            rows.append(("bwt", None, metrics(table).backward_transfer))
    write_csv(out_dir / "eval.csv", ("kind", "task", "value"), rows)
    return out_dir


def cmd_certify(cfg, checkpoint_path: str, grid) -> Path:
    """Verified accuracy per task across a radius grid."""
    loaded, tasks = _load_for_evaluation(cfg, checkpoint_path)
    hypernet, spec = loaded.hypernet, loaded.spec
    out_dir = resolve_output_dir(cfg)
    rows = []
    for t, task in enumerate(tasks):
        params = generate_params(hypernet, spec, t)
        bn_stats = hypernet.bn_stats.get(t)
        for eps in grid:
            rows.append((t, float(eps),
                         verified_accuracy(spec, params, task.test.inputs,
                                           task.test.labels, float(eps),
                                           bn_stats=bn_stats)))
    write_csv(out_dir / "certify.csv", ("task", "eps", "verified_accuracy"),
              rows)
    return out_dir


def cmd_toy2d(cfg, source_text: str | None = None) -> Path:
    """Train on interpolated samples only; dump grid, points, and samples.

    The training set consists purely of cross-class interpolations on a
    fixed coefficient grid; the real points are never trained on, only
    evaluated. Output CSVs carry the decision grid over the unit square,
    per-point predictions with certification flags at the training radius,
    and every virtual sample with its coefficient and final radius.
    """
    out_dir = resolve_output_dir(cfg)
    _echo_config(out_dir, cfg, source_text)
    d = cfg["data"]
    with _config_values():
        data, pairs = gen_toy2d(d["points"], d["seed"], spread=d["spread"],
                                pair_count=d["pairs"] if d["pairs"] else None)
        lam_grid = np.linspace(0.0, 1.0, cfg["train"]["lam_steps"])
        x, labels_a, labels_b, lam = L.virtual_samples(
            data.inputs, data.labels, pairs, lam_grid)
        spec, hypernet = build_model(cfg, 2, 2, task_count=1)
        trainer_cfg = make_trainer_config(cfg)
        axis = np.linspace(0.0, 1.0, cfg["output"]["grid_resolution"])
    with np.errstate(over="ignore", invalid="ignore"):
        train_virtual(hypernet, spec, 0, x, labels_a, labels_b, lam, trainer_cfg)
    save_checkpoint(str(out_dir / "checkpoint.json"), hypernet, spec,
                    seed=cfg["train"]["seed"])

    params = generate_params(hypernet, spec, 0)
    eps = trainer_cfg.loss.eps
    radius = np.asarray(L.scaled_radius(lam, eps, trainer_cfg.loss.decay))
    write_csv(out_dir / "virtuals.csv",
              ("x", "y", "label_a", "label_b", "lam", "eps_virtual"),
              [(x[i, 0], x[i, 1], labels_a[i], labels_b[i], lam[i], radius[i])
               for i in range(x.shape[0])])

    predicted = np.argmax(forward_point(spec, params, data.inputs), axis=1)
    certified = certify(spec, params, data.inputs, data.labels, eps)
    write_csv(out_dir / "points.csv",
              ("x", "y", "label", "predicted", "certified"),
              [(data.inputs[i, 0], data.inputs[i, 1], data.labels[i],
                predicted[i], certified[i]) for i in range(len(data))])

    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    grid_points = np.stack([gx.ravel(), gy.ravel()], axis=1)
    grid_class = np.argmax(forward_point(spec, params, grid_points), axis=1)
    write_csv(out_dir / "grid.csv", ("x", "y", "class"),
              [(grid_points[i, 0], grid_points[i, 1], grid_class[i])
               for i in range(grid_points.shape[0])])
    return out_dir


# ---- argument parsing ----------------------------------------------------


def _parse_grid(text: str):
    try:
        grid = [float(p) for p in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse radius grid {text!r}: {exc}") from exc
    if not grid or not all(0.0 <= eps < np.inf for eps in grid):
        raise ConfigError(f"radius grid {text!r} must list finite, "
                          "non-negative radii")
    return grid


def _load_effective_config(args):
    source_text = None
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                source_text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        cfg = parse_config_text(source_text, origin=args.config)
    else:
        cfg = default_config()
    apply_overrides(cfg, args.set or [])
    return cfg, source_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intervalcl",
        description="Certified continual learning experiments: a "
                    "hypernetwork emits per-task weights for an interval-"
                    "bound-propagated target network.",
        epilog="Run 'intervalcl defaults' to print every config key with "
               "its default and documentation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file; defaults apply "
                                        "for every omitted key")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override one config value (repeatable)")

    p_train = sub.add_parser("train", help="train a task sequence, write "
                             "checkpoints, results.csv, and log.csv")
    common(p_train)

    p_eval = sub.add_parser("eval", help="clean/FGSM/PGD/verified accuracy "
                            "of a finished checkpoint")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)

    p_cert = sub.add_parser("certify", help="verified accuracy over a "
                            "radius grid")
    common(p_cert)
    p_cert.add_argument("--checkpoint", required=True)
    p_cert.add_argument("--grid", required=True,
                        help="comma-separated radii, e.g. 0,0.01,0.05")

    p_toy = sub.add_parser("toy2d", help="train on interpolated samples "
                           "only and dump the decision grid")
    common(p_toy)

    sub.add_parser("defaults", help="print the documented default config")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "defaults":
            sys.stdout.write(documented_defaults())
            return EXIT_OK
        cfg, source_text = _load_effective_config(args)
        if args.command == "train":
            out_dir = cmd_train(cfg, source_text)
        elif args.command == "eval":
            out_dir = cmd_eval(cfg, args.checkpoint)
        elif args.command == "certify":
            out_dir = cmd_certify(cfg, args.checkpoint, _parse_grid(args.grid))
        else:
            out_dir = cmd_toy2d(cfg, source_text)
        sys.stdout.write(f"{out_dir}\n")
        return EXIT_OK
    except NumericalDivergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DIVERGED
    except (DataError, CheckpointError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
