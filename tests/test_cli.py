"""Command-line behavior: artifacts, determinism, and exit codes."""

import base64
import json

import numpy as np
import pytest

from intervalcl import cli
from intervalcl.checkpoint import save_checkpoint
from intervalcl.cli import main
from intervalcl.nets import Hypernetwork, NetworkSpec, act, batchnorm, dense

BLOBS_ARGS = [
    "--set", "data.kind=blobs", "--set", "data.tasks=2",
    "--set", "data.train_size=40", "--set", "data.val_size=12",
    "--set", "data.test_size=20", "--set", "data.separation=0.4",
    "--set", "data.spread=0.04",
    "--set", "net.hidden=8", "--set", "hypernet.hidden=16",
    "--set", "hypernet.embedding=4",
    "--set", "train.steps=60", "--set", "train.batch=16",
    "--set", "train.eps=0.02", "--set", "attack.eps=0.02",
]

TINY_ARGS = [
    "--set", "data.tasks=1", "--set", "data.train_size=30",
    "--set", "data.val_size=10", "--set", "data.test_size=10",
    "--set", "net.hidden=8", "--set", "hypernet.hidden=8",
    "--set", "hypernet.embedding=4", "--set", "train.steps=8",
]


# Two tasks of 4x4 glyph images from a 120-image base.
IMAGE_SETS = (
    "data.tasks=2", "data.base_count=120", "data.downsample=2",
    "data.train_size=30", "data.val_size=10", "data.test_size=10",
    "net.hidden=8", "hypernet.hidden=8", "hypernet.embedding=4", "train.steps=4",
)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def run(*argv):
    return main(list(argv))


def _as_format_1(obj):
    """A format-2 payload with each array's data as a float list (NaN as
    null), the way earlier builds stored it."""
    if isinstance(obj, dict):
        if set(obj) == {"data", "shape"}:
            values = np.frombuffer(base64.b64decode(obj["data"]), dtype="<f8")
            return {"data": [None if v != v else v for v in values.tolist()],
                    "shape": obj["shape"]}
        return {key: _as_format_1(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_as_format_1(value) for value in obj]
    return obj


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    rc = run("train", "--set", f"output.dir={out}", *BLOBS_ARGS)
    assert rc == 0
    return out


class TestTrain:
    def test_artifacts_exist(self, trained_run):
        for name in ("config.effective.ini", "checkpoint.json",
                     "checkpoint_task0.json", "checkpoint_task1.json",
                     "results.csv", "log.csv"):
            assert (trained_run / name).exists(), name

    def test_results_rows(self, trained_run):
        rows = read_csv(trained_run / "results.csv")
        kinds = [r["kind"] for r in rows]
        assert kinds.count("accuracy") == 3  # lower triangle of a 2x2 table
        assert kinds.count("aa") == 1
        assert kinds.count("bwt") == 1
        for row in rows:
            if row["kind"] == "accuracy":
                assert 0.0 <= float(row["value"]) <= 1.0

    def test_aa_matches_final_row(self, trained_run):
        rows = read_csv(trained_run / "results.csv")
        final = [float(r["value"]) for r in rows
                 if r["kind"] == "accuracy" and r["after_task"] == "1"]
        aa = next(float(r["value"]) for r in rows if r["kind"] == "aa")
        assert aa == np.mean(final)

    def test_log_covers_all_steps(self, trained_run):
        rows = read_csv(trained_run / "log.csv")
        assert len(rows) == 2 * 60
        assert rows[0]["step"] == "1"
        assert rows[0]["task"] == "0"
        assert rows[-1]["task"] == "1"
        # scheduled values are logged with full precision
        assert float(rows[0]["kappa"]) == 1 - 1 / 120

    def test_rerun_is_byte_identical(self, trained_run, tmp_path):
        other = tmp_path / "rerun"
        assert run("train", "--set", f"output.dir={other}", *BLOBS_ARGS) == 0
        for name in ("results.csv", "log.csv", "checkpoint.json"):
            assert (other / name).read_bytes() == \
                (trained_run / name).read_bytes(), name

    def test_single_task_has_one_accuracy_row_and_no_bwt(self, tmp_path):
        out = tmp_path / "single"
        args = BLOBS_ARGS.copy()
        args[args.index("data.tasks=2")] = "data.tasks=1"
        assert run("train", "--set", f"output.dir={out}", *args) == 0
        rows = read_csv(out / "results.csv")
        assert [r["kind"] for r in rows] == ["accuracy", "aa"]

    def test_config_file_echoed_verbatim(self, tmp_path):
        source = tmp_path / "exp.ini"
        text = "# my experiment\n[data]\ntasks = 1\ntrain_size = 30\n" \
               "val_size = 10\ntest_size = 10\n[train]\nsteps = 10\n" \
               "[net]\nhidden = 8\n[hypernet]\nhidden = 8\nembedding = 4\n"
        source.write_text(text)
        out = tmp_path / "echo"
        assert run("train", "--config", str(source),
                   "--set", f"output.dir={out}") == 0
        assert (out / "config.ini").read_text() == text
        assert "steps = 10" in (out / "config.effective.ini").read_text()

    def test_config_file_read_once(self, tmp_path, monkeypatch):
        source = tmp_path / "exp.ini"
        source.write_text("[train]\nsteps = 7\n")
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        args = cli.build_parser().parse_args(["train", "--config", str(source)])
        cfg, text = cli._load_effective_config(args)
        assert opened.count(str(source)) == 1
        assert text == "[train]\nsteps = 7\n"
        assert cfg["train"]["steps"] == 7


class TestEval:
    def test_attack_none_reproduces_stored_clean(self, trained_run, tmp_path):
        out = tmp_path / "eval"
        assert run("eval", "--checkpoint", str(trained_run / "checkpoint.json"),
                   "--set", f"output.dir={out}", *BLOBS_ARGS,
                   "--set", "attack.enabled=false") == 0
        eval_rows = read_csv(out / "eval.csv")
        stored = {r["eval_task"]: float(r["value"])
                  for r in read_csv(trained_run / "results.csv")
                  if r["kind"] == "accuracy" and r["after_task"] == "1"}
        for row in eval_rows:
            if row["kind"] in ("clean", "fgsm", "pgd"):
                assert abs(float(row["value"]) - stored[row["task"]]) <= 1e-12

    def test_zero_radius_attack_equals_clean(self, trained_run, tmp_path):
        out = tmp_path / "eval0"
        args = [a.replace("attack.eps=0.02", "attack.eps=0")
                for a in BLOBS_ARGS]
        assert run("eval", "--checkpoint", str(trained_run / "checkpoint.json"),
                   "--set", f"output.dir={out}", *args) == 0
        rows = read_csv(out / "eval.csv")
        clean = {r["task"]: r["value"] for r in rows if r["kind"] == "clean"}
        for row in rows:
            if row["kind"] in ("fgsm", "pgd"):
                assert row["value"] == clean[row["task"]]

    def test_verified_at_most_clean(self, trained_run, tmp_path):
        out = tmp_path / "evalv"
        assert run("eval", "--checkpoint", str(trained_run / "checkpoint.json"),
                   "--set", f"output.dir={out}", *BLOBS_ARGS) == 0
        rows = read_csv(out / "eval.csv")
        clean = {r["task"]: float(r["value"]) for r in rows
                 if r["kind"] == "clean"}
        for row in rows:
            if row["kind"] == "verified":
                assert float(row["value"]) <= clean[row["task"]]

    def test_aggregate_rows_present(self, trained_run, tmp_path):
        out = tmp_path / "evala"
        assert run("eval", "--checkpoint", str(trained_run / "checkpoint.json"),
                   "--set", f"output.dir={out}", *BLOBS_ARGS) == 0
        kinds = {r["kind"] for r in read_csv(out / "eval.csv")}
        assert {"clean", "fgsm", "pgd", "verified", "aa", "bwt"} <= kinds

    def test_incomplete_checkpoint_rejected(self, trained_run, tmp_path):
        out = tmp_path / "evali"
        rc = run("eval", "--checkpoint",
                 str(trained_run / "checkpoint_task0.json"),
                 "--set", f"output.dir={out}", *BLOBS_ARGS)
        assert rc == 3

    def test_corrupt_array_data_rejected(self, trained_run, tmp_path):
        payload = json.loads((trained_run / "checkpoint.json").read_text())
        payload["hypernet"]["embeddings"]["data"] = "not base64!"
        bad = tmp_path / "bad_array.json"
        bad.write_text(json.dumps(payload))
        rc = run("eval", "--checkpoint", str(bad),
                 "--set", f"output.dir={tmp_path}/evalc", *BLOBS_ARGS)
        assert rc == 3

    @pytest.mark.parametrize("units", [8.0, True])
    def test_layer_size_that_is_not_an_integer_is_data_error(
            self, trained_run, tmp_path, capsys, units):
        payload = json.loads((trained_run / "checkpoint.json").read_text())
        payload["spec"]["layers"][0]["units"] = units
        bad = tmp_path / "float_units.json"
        bad.write_text(json.dumps(payload))
        rc = run("eval", "--checkpoint", str(bad),
                 "--set", f"output.dir={tmp_path}/evalu", *BLOBS_ARGS)
        assert rc == 3
        assert (f"layer 0: dense units must be an integer, got {units!r}"
                in capsys.readouterr().err)

    def test_format_1_checkpoint_is_data_error(self, trained_run, tmp_path,
                                              capsys):
        payload = _as_format_1(
            json.loads((trained_run / "checkpoint.json").read_text()))
        payload.update(format=1, extra={})
        old = tmp_path / "format1.json"
        old.write_text(json.dumps(payload))
        rc = run("eval", "--checkpoint", str(old),
                 "--set", f"output.dir={tmp_path}/eval1", *BLOBS_ARGS)
        assert rc == 3
        assert "format 1, this build reads format 2" in capsys.readouterr().err

    @pytest.mark.parametrize("defect", ["empty", "missing"])
    def test_unusable_batchnorm_moments_are_data_error(self, tmp_path, defect):
        # Run on the default blobs config, which this network fits.
        spec = NetworkSpec((2,), [dense(4), batchnorm(), act("relu"),
                                  dense(3)], classes=3)
        h = Hypernetwork(spec.total_params, 4, [6], task_count=3,
                         rng=np.random.default_rng(4))
        pair = (np.zeros((1, 4)), np.ones((1, 4)))
        h.bn_stats = ({} if defect == "missing"
                      else {0: [], 1: [pair], 2: [pair]})
        h.trained_tasks = 3
        path = tmp_path / "bn.json"
        save_checkpoint(str(path), h, spec)
        assert run("eval", "--checkpoint", str(path),
                   "--set", f"output.dir={tmp_path}/evalb") == 3

    def test_negative_attack_seed_is_config_error(self, trained_run, tmp_path,
                                                  capsys):
        out = tmp_path / "evals"
        assert run("eval", "--checkpoint", str(trained_run / "checkpoint.json"),
                   "--set", f"output.dir={out}", *BLOBS_ARGS,
                   "--set", "attack.seed=-1") == 2
        assert "attack.seed: -1" in capsys.readouterr().err
        assert not (out / "eval.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_attack_eps_is_config_error(self, trained_run, tmp_path,
                                                   capsys, value):
        out = tmp_path / "evaln"
        assert run("eval", "--checkpoint", str(trained_run / "checkpoint.json"),
                   "--set", f"output.dir={out}", *BLOBS_ARGS,
                   "--set", f"attack.eps={value}") == 2
        assert "attack.eps" in capsys.readouterr().err
        assert not (out / "eval.csv").exists()

    def test_shape_mismatch_rejected(self, trained_run, tmp_path):
        out = tmp_path / "evalm"
        rc = run("eval", "--checkpoint", str(trained_run / "checkpoint.json"),
                 "--set", f"output.dir={out}", *BLOBS_ARGS,
                 "--set", "data.dims=3")
        assert rc == 2


class TestCertify:
    def test_grid_rows_and_monotonicity(self, trained_run, tmp_path):
        out = tmp_path / "cert"
        assert run("certify", "--checkpoint",
                   str(trained_run / "checkpoint.json"),
                   "--grid", "0,0.01,0.02,0.05",
                   "--set", f"output.dir={out}", *BLOBS_ARGS) == 0
        rows = read_csv(out / "certify.csv")
        assert len(rows) == 2 * 4
        for task in ("0", "1"):
            values = [float(r["verified_accuracy"]) for r in rows
                      if r["task"] == task]
            assert values == sorted(values, reverse=True)

    def test_zero_grid_row_equals_clean(self, trained_run, tmp_path):
        out = tmp_path / "cert0"
        assert run("certify", "--checkpoint",
                   str(trained_run / "checkpoint.json"), "--grid", "0",
                   "--set", f"output.dir={out}", *BLOBS_ARGS) == 0
        cert_rows = read_csv(out / "certify.csv")
        stored = {r["eval_task"]: float(r["value"])
                  for r in read_csv(trained_run / "results.csv")
                  if r["kind"] == "accuracy" and r["after_task"] == "1"}
        assert len(cert_rows) == 2
        for row in cert_rows:
            assert float(row["verified_accuracy"]) == stored[row["task"]]

    @pytest.mark.parametrize("grid", ["0,nan,inf", "0,-inf", "0.01,-0.02"])
    def test_bad_grid_radius_is_config_error_before_loading(self, tmp_path,
                                                            capsys, grid):
        # The checkpoint does not exist: the grid is refused first (exit 2,
        # not the data error 3 a missing checkpoint gives).
        out = tmp_path / "certn"
        assert run("certify", "--checkpoint", str(tmp_path / "absent.json"),
                   "--grid", grid, "--set", f"output.dir={out}") == 2
        assert "radius" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_grid_values_duplicate_rows(self, trained_run, tmp_path):
        out = tmp_path / "certd"
        assert run("certify", "--checkpoint",
                   str(trained_run / "checkpoint.json"), "--grid", "0.02,0.02",
                   "--set", f"output.dir={out}", *BLOBS_ARGS) == 0
        rows = read_csv(out / "certify.csv")
        assert rows[0] == rows[1]
        assert rows[2] == rows[3]


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy") / "run"
    rc = run("toy2d", "--set", f"output.dir={out}",
             "--set", "data.points=6", "--set", "data.seed=1",
             "--set", "net.hidden=8", "--set", "hypernet.hidden=16",
             "--set", "hypernet.embedding=4",
             "--set", "train.steps=120", "--set", "train.eps=0.05",
             "--set", "output.grid_resolution=9")
    assert rc == 0
    return out


class TestToy2d:
    def test_artifacts(self, toy_run):
        for name in ("grid.csv", "points.csv", "virtuals.csv",
                     "checkpoint.json", "config.effective.ini"):
            assert (toy_run / name).exists(), name

    def test_midpoint_virtuals_have_zero_radius(self, toy_run):
        rows = read_csv(toy_run / "virtuals.csv")
        assert len(rows) == 6 * 11  # pairs x coefficient grid
        mid = [r for r in rows if r["lam"] == "0.5"]
        assert len(mid) == 6
        assert all(r["eps_virtual"] == "0" for r in mid)

    def test_point_rows_carry_predictions_and_flags(self, toy_run):
        rows = read_csv(toy_run / "points.csv")
        assert len(rows) == 12
        for row in rows:
            assert row["predicted"] in ("0", "1")
            assert row["certified"] in ("0", "1")

    def test_grid_covers_unit_square(self, toy_run):
        rows = read_csv(toy_run / "grid.csv")
        assert len(rows) == 81
        xs = sorted({float(r["x"]) for r in rows})
        assert xs[0] == 0.0 and xs[-1] == 1.0


class TestExitCodes:
    def test_unknown_config_key_is_config_error(self, tmp_path):
        source = tmp_path / "bad.ini"
        source.write_text("[train]\nwarmup = 5\n")
        assert run("train", "--config", str(source)) == 2

    def test_removed_kappa_key_is_config_error(self, tmp_path):
        assert run("train", "--set", "train.kappa=0.5",
                   "--set", f"output.dir={tmp_path}/x") == 2

    @pytest.mark.parametrize("value", ["none", "fgsm", "pgd"])
    def test_replaced_attack_kind_names_enabled(self, tmp_path, capsys, value):
        source = tmp_path / "old.ini"
        source.write_text(f"[attack]\nkind = {value}\n")
        assert run("eval", "--config", str(source),
                   "--checkpoint", str(tmp_path / "absent.json")) == 2
        assert "attack.enabled" in capsys.readouterr().err
        assert run("train", "--set", f"attack.kind={value}",
                   "--set", f"output.dir={tmp_path}/x") == 2
        assert "attack.enabled" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_removed_optimizer_key_says_training_uses_adam(self, tmp_path, capsys):
        # Every file that ``intervalcl defaults`` wrote before the key went
        # sets ``optimizer = adam``.
        source = tmp_path / "old.ini"
        source.write_text("[train]\noptimizer = adam\n")
        want = "unknown key train.optimizer (removed: training always uses Adam)"
        assert run("train", "--config", str(source),
                   "--set", f"output.dir={tmp_path}/x") == 2
        assert want in capsys.readouterr().err
        assert run("train", "--set", "train.optimizer=adam",
                   "--set", f"output.dir={tmp_path}/x") == 2
        assert want in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        assert run("train", "--config", str(tmp_path / "absent.ini"),
                   "--set", f"output.dir={tmp_path}/x") == 2
        assert "cannot read config" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("override", [
        "train.eps=nan", "train.alpha=nan", "train.lr=nan", "train.beta=inf",
        "data.spread=nan", "data.angles=0,nan,90",
    ])
    def test_non_finite_value_is_config_error(self, tmp_path, capsys,
                                              override):
        assert run("train", "--set", override, *TINY_ARGS,
                   "--set", f"output.dir={tmp_path}/x") == 2
        assert override.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, override", [
        ("train", "data.seed=-1"), ("train", "train.seed=-1"),
        ("train", "attack.seed=-1"), ("toy2d", "data.seed=-1"),
        ("toy2d", "train.seed=-1"), ("toy2d", "output.grid_resolution=0"),
        ("toy2d", "output.grid_resolution=1"),
        ("toy2d", "output.grid_resolution=-1"),
        ("train", "data.classes=0"), ("train", "data.classes=1"),
        ("train", "data.classes=-2"), ("train", "data.dims=0"),
        ("train", "data.dims=-1"), ("train", "data.tasks=0"),
        ("toy2d", "train.lam_steps=0"), ("toy2d", "train.lam_steps=-1"),
    ])
    def test_value_below_key_minimum_names_key_and_value(self, tmp_path, capsys,
                                                          command, override):
        assert run(command, "--set", override,
                   "--set", f"output.dir={tmp_path}/x") == 2
        key, _, value = override.partition("=")
        assert f"{key}: {value} is below the minimum" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_negative_seed_in_config_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[data]\nseed = -3\n", encoding="utf-8")
        assert run("train", "--config", str(path),
                   "--set", f"output.dir={tmp_path}/x") == 2
        assert "data.seed: -3" in capsys.readouterr().err

    def test_smallest_grid_resolution_runs(self, tmp_path):
        out = tmp_path / "g"
        assert run("toy2d", "--set", "output.grid_resolution=2",
                   "--set", "data.points=4", "--set", "net.hidden=4",
                   "--set", "hypernet.hidden=4", "--set", "hypernet.embedding=2",
                   "--set", "train.steps=2", "--set", f"output.dir={out}") == 0
        assert len(read_csv(out / "grid.csv")) == 4

    def test_negative_spread_is_config_error(self, tmp_path, capsys):
        assert run("train", "--set", "data.spread=-0.05", *TINY_ARGS,
                   "--set", f"output.dir={tmp_path}/x") == 2
        assert "spread" in capsys.readouterr().err

    @pytest.mark.parametrize("command, overrides, message", [
        ("train", ("data.kind=permuted", "data.noise=-0.08"), "noise"),
        ("toy2d", ("data.spread=-0.05",), "spread"),
        ("toy2d", ("data.pairs=-2",), "pair_count"),
    ])
    def test_bad_generator_argument_is_config_error(self, tmp_path, capsys,
                                                    command, overrides, message):
        sets = [arg for o in overrides for arg in ("--set", o)]
        assert run(command, *sets, "--set", f"output.dir={tmp_path}/x") == 2
        assert message in capsys.readouterr().err

    def test_bad_override_is_config_error(self, tmp_path):
        assert run("train", "--set", "train.steps=soon",
                   "--set", f"output.dir={tmp_path}/x") == 2

    def test_toy2d_kind_through_train_is_config_error(self, tmp_path):
        assert run("train", "--set", "data.kind=toy2d",
                   "--set", f"output.dir={tmp_path}/x") == 2

    def test_missing_idx_file_is_data_error(self, tmp_path):
        assert run("train", "--set", "data.kind=permuted",
                   "--set", "data.source=idx",
                   "--set", f"data.images={tmp_path}/absent-images.idx",
                   "--set", f"data.labels={tmp_path}/absent-labels.idx",
                   "--set", f"output.dir={tmp_path}/x") == 3

    def test_corrupt_idx_file_is_data_error(self, tmp_path):
        for name in ("images.idx", "labels.idx"):
            (tmp_path / name).write_bytes(b"\x00\x00\x08")
        assert run("train", "--set", "data.kind=permuted",
                   "--set", "data.source=idx",
                   "--set", f"data.images={tmp_path}/images.idx",
                   "--set", f"data.labels={tmp_path}/labels.idx",
                   "--set", f"output.dir={tmp_path}/x") == 3

    def test_idx_without_paths_is_config_error(self, tmp_path):
        assert run("train", "--set", "data.kind=permuted",
                   "--set", "data.source=idx",
                   "--set", f"output.dir={tmp_path}/x") == 2

    @pytest.mark.parametrize("kind, extra", [("permuted", ()),
                                             ("rotated", ("data.angles=0,30",))])
    def test_image_task_kinds_train(self, tmp_path, kind, extra):
        sets = [arg for o in (f"data.kind={kind}", *extra, *IMAGE_SETS)
                for arg in ("--set", o)]
        assert run("train", *sets, "--set", f"output.dir={tmp_path}/x") == 0
        rows = read_csv(tmp_path / "x" / "results.csv")
        assert {row["eval_task"] for row in rows if row["kind"] == "accuracy"} == {"0", "1"}

    def test_rotated_angle_count_other_than_tasks_is_config_error(self, tmp_path,
                                                                 capsys):
        sets = [arg for o in ("data.kind=rotated", "data.angles=0,30,60", *IMAGE_SETS)
                for arg in ("--set", o)]
        assert run("train", *sets, "--set", f"output.dir={tmp_path}/x") == 2
        assert "data.angles lists 3 angles for 2 tasks" in capsys.readouterr().err

    def test_rotated_without_angles_is_config_error(self, tmp_path):
        assert run("train", "--set", "data.kind=rotated",
                   "--set", f"output.dir={tmp_path}/x") == 2

    @pytest.mark.parametrize("command, override", [
        ("train", "train.steps=0"),
        ("train", "hypernet.embedding=0"),
        ("train", "data.train_size=0"),
        ("toy2d", "output.grid_resolution=-1"),
    ])
    def test_value_rejected_while_building_is_config_error(self, tmp_path,
                                                          command, override):
        assert run(command, "--set", override,
                   "--set", f"output.dir={tmp_path}/x") == 2

    def test_library_value_error_is_not_config_error(self, tmp_path,
                                                     monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal failure")

        monkeypatch.setattr(cli, "train_sequence", broken)
        with pytest.raises(ValueError, match="internal failure"):
            run("train", "--set", f"output.dir={tmp_path}/x")

    def test_divergence_exit_code(self, tmp_path, capsys):
        # An Adam step moves each coordinate by about lr: the first leaves
        # weights near 1e300, whose loss at step 2 overflows.
        rc = run("train", "--set", f"output.dir={tmp_path}/x", *TINY_ARGS,
                 "--set", "train.lr=1e300")
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: non-finite loss at task 0 step 2"], err

    @pytest.mark.parametrize("selection", ["false", "true"])
    def test_diverged_last_step_exit_code(self, tmp_path, capsys, selection):
        # The one step's loss is finite; the weights it leaves are not usable.
        # Model selection meets them in its validation score, else the
        # point pass after the last step does.
        where = "validation loss" if selection == "true" else "training logits"
        rc = run("train", "--set", f"output.dir={tmp_path}/x",
                 "--set", "data.tasks=1", "--set", "train.steps=1",
                 "--set", "train.lr=1e300",
                 "--set", f"train.model_selection={selection}",
                 "--set", "data.train_size=40", "--set", "data.val_size=10",
                 "--set", "data.test_size=10")
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: non-finite {where}"), err
        assert not (tmp_path / "x" / "results.csv").exists()

    def test_toy2d_diverged_last_step_exit_code(self, tmp_path, capsys):
        # toy2d trains on virtual samples alone and has no test split to
        # score, so the check after the last step must catch this itself.
        out = tmp_path / "x"
        rc = run("toy2d", "--set", f"output.dir={out}",
                 "--set", "data.points=4", "--set", "net.hidden=4",
                 "--set", "hypernet.hidden=4", "--set", "hypernet.embedding=2",
                 "--set", "train.steps=1", "--set", "train.lr=1e300")
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: non-finite training logits after task 0"], err
        for name in ("checkpoint.json", "points.csv", "grid.csv"):
            assert not (out / name).exists(), name

    def test_corrupt_checkpoint_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert run("eval", "--checkpoint", str(bad),
                   "--set", f"output.dir={tmp_path}/x") == 3


class TestDefaultsCommand:
    def test_prints_documented_defaults(self, capsys):
        assert run("defaults") == 0
        out = capsys.readouterr().out
        assert "[train]" in out
        assert "steps = 1000" in out


class TestOutputRoot:
    def test_env_var_prefixes_relative_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("INTERVALCL_OUTPUT_ROOT", str(tmp_path))
        args = BLOBS_ARGS.copy()
        args[args.index("train.steps=60")] = "train.steps=5"
        assert run("train", "--set", "output.dir=nested/run", *args) == 0
        assert (tmp_path / "nested" / "run" / "results.csv").exists()

    def test_absolute_dir_ignores_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("INTERVALCL_OUTPUT_ROOT", str(tmp_path / "root"))
        out = tmp_path / "abs"
        args = BLOBS_ARGS.copy()
        args[args.index("train.steps=60")] = "train.steps=5"
        assert run("train", "--set", f"output.dir={out}", *args) == 0
        assert (out / "results.csv").exists()
