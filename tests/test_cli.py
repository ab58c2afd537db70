import base64
import contextlib
import copy
import hashlib
import importlib.util
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cganlab
from cganlab import cli, evalcond
from cganlab.cli import main
from cganlab.evalcond import EvalConfig, evaluate, regression_error
from cganlab.losses import FORMULATIONS, LossSpec
from cganlab.nets import MlpSpec, _unpack, decode_vector, encode_vector
from cganlab.pairing import ConditionalDataset, load_dataset_csv, save_dataset_csv
from cganlab.tasks import CondRegressionTask
from cganlab.trainer import TrainConfig, load_checkpoint

MINI_TASK = {"type": "gauss_modes", "n_modes": 4, "radius": 3.0, "sigma": 0.25,
             "n_samples": 400}
MINI_EVAL = {"n_eval": 200, "n_bins": 20, "ndb_k": 4, "n_per_label": 50, "phase_epochs": 1}


def write_config(path, out_dir, formulation="classic", seed=0, epochs=1):
    cfg = {
        "seed": seed,
        "out_dir": str(out_dir),
        "task": MINI_TASK,
        "model": {"gen_hidden": [16, 16], "disc_hidden": [16, 16]},
        "train": {"epochs": epochs, "batch_size": 50},
        "loss": {"formulation": formulation},
        "eval": MINI_EVAL,
    }
    path.write_text(json.dumps(cfg))
    return path


STAGES = ("gen-data", "train", "eval-conditionality", "ndb")


def _stage_args(stage, cfg_path, out_dir):
    args = [stage, "--config", str(cfg_path)]
    if stage in ("eval-conditionality", "ndb"):
        args += ["--checkpoint", str(out_dir / "checkpoint.json")]
    return args


def run_pipeline(cfg_path, out_dir):
    assert main(["gen-data", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    ckpt = str(out_dir / "checkpoint.json")
    assert main(["eval-conditionality", "--config", str(cfg_path), "--checkpoint", ckpt]) == 0
    assert main(["ndb", "--config", str(cfg_path), "--checkpoint", ckpt]) == 0


def test_gen_data_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "c.json", tmp_path / "run")
    assert main(["gen-data", "--config", str(cfg)]) == 0
    first = (tmp_path / "run" / "dataset.csv").read_bytes()
    assert main(["gen-data", "--config", str(cfg)]) == 0
    assert (tmp_path / "run" / "dataset.csv").read_bytes() == first


def test_full_pipeline_outputs_and_schema(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", out)
    run_pipeline(cfg, out)

    for name in ("config.json", "dataset.csv", "metrics.csv", "checkpoint.json",
                 "histogram.csv", "report.json", "ndb.json"):
        assert (out / name).exists(), name

    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"classification_rates", "auroc", "oracle_accuracy", "regression",
                           "ndb", "phase", "inputs"}
    rates = report["classification_rates"]
    assert set(rates) == {"real_cond", "gen_cond", "real_ac", "gen_ac"}
    assert all(0.0 <= v <= 1.0 for v in rates.values())
    assert 0.0 <= report["oracle_accuracy"] <= 1.0
    assert report["regression"] is None  # set on regression tasks only
    assert 0.0 <= report["ndb"]["ndb_over_k"] <= 1.0
    assert set(report["auroc"]) == {"gen_cond", "real_ac", "gen_ac"}
    assert all(0.0 <= v <= 1.0 for v in report["auroc"].values())
    effective = json.loads((out / "config.json").read_text())
    del effective["out_dir"]  # so that two run directories hold the same report
    assert report["inputs"] == {
        "config_sha256": hashlib.sha256(json.dumps(effective, sort_keys=True).encode()).hexdigest(),
        "dataset_csv_sha256": hashlib.sha256((out / "dataset.csv").read_bytes()).hexdigest(),
        "dataset_json_sha256": hashlib.sha256((out / "dataset.json").read_bytes()).hexdigest(),
        "checkpoint_sha256": hashlib.sha256((out / "checkpoint.json").read_bytes()).hexdigest(),
        "sources_sha256": report["inputs"]["sources_sha256"],
        "numpy_version": np.__version__,
    }
    assert json.loads((out / "dataset.json").read_text()) == \
        {"task": json.loads((out / "checkpoint.json").read_text())["task"]}

    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header.startswith("step,d_real_cond,d_gen_cond,d_real_ac,d_gen_ac,d_total")


def test_pipeline_reproducible_byte_for_byte(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = write_config(tmp_path / f"{tag}.json", out)
        run_pipeline(cfg, out)
        outs.append(out)
    for name in ("dataset.csv", "metrics.csv", "checkpoint.json", "histogram.csv",
                 "report.json", "ndb.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_effective_config_round_trips(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", out)
    assert main(["gen-data", "--config", str(cfg)]) == 0
    effective = out / "config.json"
    first = effective.read_bytes()
    # the echoed config is a valid input and reproduces itself
    assert main(["gen-data", "--config", str(effective)]) == 0
    assert effective.read_bytes() == first


def test_report_compares_formulations(tmp_path):
    for tag, formulation in (("base", "classic"), ("ac", "acontrario")):
        out = tmp_path / "sweep" / tag
        cfg = write_config(tmp_path / f"{tag}.json", out, formulation=formulation)
        run_pipeline(cfg, out)
    assert main(["report", "--run-dir", str(tmp_path / "sweep")]) == 0
    summary = json.loads((tmp_path / "sweep" / "summary.json").read_text())
    assert set(summary) == {"runs", "baseline", "acontrario", "comparison"}
    assert {r["formulation"] for r in summary["runs"]} == {"classic", "acontrario"}
    for run in summary["runs"]:
        assert set(run) == {"name", "formulation", "seed", "oracle_accuracy", "ndb_over_k",
                            "auroc_real_ac"}
    assert set(summary["comparison"]) == {"acontrario_auroc_real_ac_higher",
                                          "auroc_real_ac_sign_test", "oracle_accuracy_delta"}
    for group in ("baseline", "acontrario"):
        assert set(summary[group]) == {"median_oracle_accuracy", "median_auroc_real_ac"}
    for group, name in (("baseline", "base"), ("acontrario", "ac")):
        (run,) = [r for r in summary["runs"] if r["name"] == name]
        report = json.loads((tmp_path / "sweep" / name / "report.json").read_text())
        assert summary[group]["median_auroc_real_ac"] == run["auroc_real_ac"] \
            == report["auroc"]["real_ac"]
    assert summary["comparison"]["auroc_real_ac_sign_test"]["seeds"] == 1  # both at seed 0


def _fake_run(run_dir, name, formulation, seed=0, auroc_real_ac=0.5):
    """A run directory holding a well-formed config.json and report.json."""
    sub = run_dir / name
    sub.mkdir(parents=True)
    (sub / "config.json").write_text(json.dumps({"seed": seed,
                                                 "loss": {"formulation": formulation}}))
    (sub / "report.json").write_text(json.dumps(
        {"oracle_accuracy": None, "ndb": None, "auroc": {"real_ac": auroc_real_ac}}))
    return sub


def test_report_judges_by_auroc_median_and_sign_test(tmp_path):
    run_dir = tmp_path / "sweep"
    # seeds 0-4 paired once each: 3 wins, a tie at seed 3, a loss at seed 4
    for seed, ac in enumerate([0.9, 0.8, 0.7, 0.6, 0.5]):
        _fake_run(run_dir, f"base{seed}", "classic", seed, 0.6)
        _fake_run(run_dir, f"ac{seed}", "hinge_acontrario", seed, ac)
    _fake_run(run_dir, "ac5a", "acontrario", 5, 0.99)  # two a-contrario runs: unpaired
    _fake_run(run_dir, "ac5b", "acontrario", 5, 0.99)
    _fake_run(run_dir, "base5", "classic", 5, 0.1)
    _fake_run(run_dir, "base6", "hinge_classic", 6, 0.1)  # no a-contrario run: unpaired
    assert main(["report", "--run-dir", str(run_dir)]) == 0
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["baseline"]["median_auroc_real_ac"] == 0.6
    assert summary["acontrario"]["median_auroc_real_ac"] == 0.8
    assert summary["comparison"]["acontrario_auroc_real_ac_higher"] is True
    # two-sided: 2 * P(Binomial(4, 1/2) <= 1) = 2 * 5 / 16
    assert summary["comparison"]["auroc_real_ac_sign_test"] == {
        "seeds": 5, "wins": 3, "losses": 1, "ties": 1, "p_value": 0.625}


@settings(max_examples=60, deadline=None)
@given(wins=st.integers(0, 40), losses=st.integers(0, 40))
def test_sign_test_is_the_two_sided_binomial_test(wins, losses):
    from scipy.stats import binomtest

    expected = 1.0 if wins + losses == 0 else binomtest(wins, wins + losses, 0.5).pvalue
    assert cli._sign_test(wins, losses) == pytest.approx(expected, rel=1e-12)
    assert cli._sign_test(wins, losses) == cli._sign_test(losses, wins)


@pytest.mark.parametrize("name, text, message", [
    ("config.json", "{}", "missing loss.formulation"),
    ("config.json", '{"seed": 0, "loss": {"formulation": 3}}', "loss.formulation must be"),
    ("config.json", '{"seed": "0", "loss": {"formulation": "acontrario"}}', "seed must be"),
    # a formulation without "acontrario" in it once counted as a baseline
    ("config.json", '{"seed": 0, "loss": {"formulation": "clasic"}}',
     'unknown loss.formulation "clasic"'),
    ("report.json", "[]", "missing oracle_accuracy"),
    ("report.json", '{"oracle_accuracy": "0.5"}', "oracle_accuracy must be"),
    ("report.json", '{"oracle_accuracy": null, "ndb": {"ndb_over_k": [0.5]}}',
     "ndb.ndb_over_k must be"),
    ("report.json", '{"oracle_accuracy": ', "Expecting value"),
    ("report.json", '{"oracle_accuracy": null, "ndb": null}', "missing auroc.real_ac"),
    ("report.json", '{"oracle_accuracy": null, "ndb": null, "auroc": {"real_ac": null}}',
     "auroc.real_ac must be"),
], ids=["config_empty", "config_formulation_number", "config_seed_string",
        "config_formulation_unknown", "report_list", "report_rate_string", "report_ndb_list",
        "report_truncated", "report_without_auroc", "report_auroc_null"])
def test_malformed_run_file_reported_as_bad(tmp_path, capsys, name, text, message):
    run_dir = tmp_path / "sweep"
    _fake_run(run_dir, "base", "classic")
    bad = _fake_run(run_dir, "ac", "acontrario") / name
    assert main(["report", "--run-dir", str(run_dir)]) == 0  # well-formed as written
    (run_dir / "summary.json").unlink()
    bad.write_text(text)
    capsys.readouterr()
    assert main(["report", "--run-dir", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad-report: {bad}: ") and err.count("\n") == 1
    assert message in err
    assert not (run_dir / "summary.json").exists()


def test_unknown_keys_rejected(tmp_path, capsys):
    bad = {"seed": 0, "out_dir": str(tmp_path / "r"), "task": MINI_TASK, "typo": 1}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["gen-data", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-config:") and err.count("\n") == 1

    bad = {"seed": 0, "out_dir": str(tmp_path / "r"),
           "task": dict(MINI_TASK, extra=True)}
    p.write_text(json.dumps(bad))
    assert main(["gen-data", "--config", str(p)]) == 1
    assert "extra" in capsys.readouterr().err


def test_removed_ema_decay_key_refused(tmp_path, capsys):
    # the parameter EMA was never read by any output and is gone
    cfg = {"seed": 0, "out_dir": str(tmp_path / "r"), "task": MINI_TASK,
           "train": {"ema_decay": 0.9}}
    p = tmp_path / "ema.json"
    p.write_text(json.dumps(cfg))
    assert main(["gen-data", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-config:") and "ema_decay" in err


def test_removed_threshold_key_refused(tmp_path, capsys):
    # the logit threshold is fixed at 0, where D = 0.5; no output read another one
    cfg = {"seed": 0, "out_dir": str(tmp_path / "r"), "task": MINI_TASK,
           "eval": dict(MINI_EVAL, threshold=0.0)}
    p = tmp_path / "threshold.json"
    p.write_text(json.dumps(cfg))
    _refused_from_gen_data(capsys, p, tmp_path / "r", "threshold")


def _refused_from_gen_data(capsys, p, out, message):
    """`gen-data` and `train` both refuse config `p`, and nothing is written."""
    for stage in ("gen-data", "train"):
        capsys.readouterr()
        assert main([stage, "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-config:") and message in err, err
    assert not (out / "dataset.csv").exists() and not (out / "config.json").exists()


def test_invalid_loss_config_rejected(tmp_path, capsys):
    # every value is judged at load: gen-data refuses loss weights it never reads
    cfg = {"seed": 0, "out_dir": str(tmp_path / "r"), "task": MINI_TASK,
           "loss": {"formulation": "classic", "lambdas": [1, 1, 1, 1]}}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    _refused_from_gen_data(capsys, p, tmp_path / "r", "loss: classic ignores")


@pytest.mark.parametrize("task, message", [
    (dict(MINI_TASK, sigma=-0.25), "sigma must be non-negative, got -0.25"),
    (dict(MINI_TASK, radius=-4.0), "radius must be positive and finite, got -4.0"),
    ({"type": "cond_regression", "noise_std": -0.05, "n_samples": 400},
     "noise_std must be finite and non-negative, got -0.05"),
], ids=["sigma", "radius", "noise_std"])
def test_impossible_task_noise_or_radius_refused(tmp_path, capsys, task, message):
    # -0.25 would draw the data 0.25 draws, under a task dict of its own
    p = write_config(tmp_path / "c.json", tmp_path / "r")
    p.write_text(json.dumps(dict(json.loads(p.read_text()), task=task)))
    _refused_from_gen_data(capsys, p, tmp_path / "r", f"task: {message}")


@pytest.mark.parametrize("section, value, message", [
    ("loss", {"formulation": "classic", "lambdas": [1, 1, 1, 1]}, "classic ignores"),
    ("train", {"epochs": 1, "batch_size": 1}, "batch_size must be at least 2"),
    ("model", {"gen_hidden": [0], "disc_hidden": [16, 16]}, "widths must be positive"),
    ("eval", dict(MINI_EVAL, n_bins=0), "n_bins must be at least 1"),
], ids=["loss", "train", "model", "eval"])
def test_bad_value_refused_by_every_stage(tmp_path, capsys, section, value, message):
    p, out = _setup_run(tmp_path, "r")
    assert main(["train", "--config", str(p)]) == 0
    before = {f: (out / f).read_bytes() for f in os.listdir(out) if (out / f).is_file()}
    cfg = json.loads(p.read_text())
    cfg[section] = value
    p.write_text(json.dumps(cfg))
    for stage in STAGES:
        capsys.readouterr()
        assert main(_stage_args(stage, p, out)) == 1, stage
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid-config: {section}: ") and message in err, err
    assert {f: (out / f).read_bytes() for f in os.listdir(out)
            if (out / f).is_file()} == before


@pytest.mark.parametrize("stage, section, value", [
    ("gen-data", "task", []),
    ("gen-data", "task", "gauss_modes"),
    ("gen-data", "task", {"type": ["gauss_modes"]}),
    ("gen-data", "loss", [1]),
    ("gen-data", "train", ["epochs"]),
    ("train", "train", {"epochs": "4"}),
    ("train", "model", {"gen_hidden": 128}),
    ("train", "loss", {"lambdas": 1}),
    ("gen-data", "task", {"n_modes": "8"}),
    ("gen-data", "out_dir", 5),
    ("gen-data", "task", dict(MINI_TASK, n_samples="400")),
    ("eval-conditionality", "eval", dict(MINI_EVAL, n_eval="200")),
    ("ndb", "eval", dict(MINI_EVAL, ndb_k="4")),
    ("train", "train", {"epochs": 2.5}),
    ("train", "model", {"noise_dim": 1.0}),
    ("eval-conditionality", "eval", dict(MINI_EVAL, phase_epochs=1.5)),
    ("eval-conditionality", "eval", dict(MINI_EVAL, threshold="0")),
    ("train", "train", {"epochs": True}),
    ("train", "loss", {"recon_weight": True}),
    ("train", "train", {"checkpoint_every": True}),
    ("gen-data", "seed", True),
    ("train", "model", {"gen_hidden": [8.0]}),
    ("train", "model", {"gen_hidden": [True]}),
    ("gen-data", "task", dict(MINI_TASK, sigma=float("nan"))),
    ("train", "loss", {"recon_weight": float("nan")}),
    ("train", "train", {"checkpoint_every": -5}),
    ("eval-conditionality", "eval", dict(MINI_EVAL, phase_epochs=-1)),
], ids=["task-list", "task-string", "task-type-list", "loss-list", "train-list",
        "epochs-string", "hidden-int", "lambdas-int", "n_modes-string", "out_dir-int",
        "n_samples-string", "n_eval-string", "ndb_k-string", "epochs-float",
        "noise_dim-float", "phase_epochs-float", "threshold-string", "epochs-bool",
        "recon_weight-bool", "checkpoint_every-bool", "seed-bool", "hidden-float", "hidden-bool",
        "sigma-nan", "recon_weight-nan", "checkpoint_every-negative",
        "phase_epochs-negative"])
def test_config_type_errors_reported_as_invalid_config(tmp_path, capsys, stage, section,
                                                       value):
    # each of these once escaped as a traceback or an `error: ValueError:` line,
    # or was accepted: a bool as a number, a NaN, a float width
    p = write_config(tmp_path / "c.json", tmp_path / "r")
    cfg = json.loads(p.read_text())
    for before in STAGES[:STAGES.index(stage)][:2]:  # gen-data, then train
        assert main(_stage_args(before, p, tmp_path / "r")) == 0
    capsys.readouterr()
    cfg[section] = value
    p.write_text(json.dumps(cfg))
    assert main(_stage_args(stage, p, tmp_path / "r")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-config:") and err.count("\n") == 1


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_config_defaults_are_the_dataclass_defaults(tmp_path, formulation):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"loss": {"formulation": formulation}}))
    run = cli.load_config(p)
    assert run.train == TrainConfig(loss=LossSpec(formulation))
    assert run.eval == EvalConfig()


def test_removed_output_activation_refused(tmp_path, capsys):
    # every output layer is linear: the key stays while the benchmark's
    # configs spell it out, but takes no value other than "identity"
    p, out = _setup_run(tmp_path, "r")
    assert main(["train", "--config", str(p)]) == 0
    before = {f: f.read_bytes() for f in out.rglob("*") if f.is_file()}
    cfg = json.loads(p.read_text())
    for activation in ("sigmoid", "tanh"):
        cfg["model"]["gen_output_activation"] = activation
        p.write_text(json.dumps(cfg))
        for stage in STAGES:
            capsys.readouterr()
            assert main(_stage_args(stage, p, out)) == 1
            assert capsys.readouterr().err == (
                "error: invalid-config: model: gen_output_activation must be 'identity', "
                f"got '{activation}'\n")
    assert {f: f.read_bytes() for f in out.rglob("*") if f.is_file()} == before


def test_removed_adam_settings_refused(tmp_path, capsys):
    # Adam's settings are pix2pix's constants: a config that still sets one,
    # even to that value, is refused by every stage
    p, out = _setup_run(tmp_path, "r")
    assert main(["train", "--config", str(p)]) == 0
    before = {f: f.read_bytes() for f in out.rglob("*") if f.is_file()}
    base = json.loads(p.read_text())
    for key, value in (("lr", 2e-4), ("beta1", 0.5), ("beta2", 0.999)):
        cfg = copy.deepcopy(base)
        cfg["train"][key] = value
        p.write_text(json.dumps(cfg))
        for stage in STAGES:
            capsys.readouterr()
            assert main(_stage_args(stage, p, out)) == 1
            assert capsys.readouterr().err == \
                f"error: invalid-config: unknown key(s) in section 'train': ['{key}']\n"
    assert {f: f.read_bytes() for f in out.rglob("*") if f.is_file()} == before


def _bench_workloads():
    """`bench/workloads.py`, imported by path and only read."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_config_loads(tmp_path):
    # the benchmark sends every key it sets, so refusing one it still sends
    # (such as model.gen_output_activation) would fail every benchmark run
    workloads = _bench_workloads()
    for name in workloads.WORKLOADS:
        for tiny in (False, True):
            cfg = workloads.make_config(name, 3, str(tmp_path / name), tiny)
            p = tmp_path / f"{name}-{tiny}.json"
            p.write_text(json.dumps(cfg))
            try:
                run = cli.load_config(p)
            except cli.CliError as e:
                pytest.fail(f"{name} (tiny={tiny}): {e.kind}: {e}")
            for section, values in cfg.items():
                if isinstance(values, dict):
                    assert run.cfg[section] == dict(run.cfg[section], **values), (name, section)


# a pipeline small enough to run once per drawn value
_TINY = {
    "seed": 0,
    "model": {"gen_hidden": [8], "disc_hidden": [8]},
    "train": {"epochs": 1, "batch_size": 20},
    "eval": {"n_eval": 40, "n_bins": 10, "ndb_k": 4, "n_per_label": 10},
}
_TINY_TASKS = {
    "gauss_modes": {"type": "gauss_modes", "n_modes": 4, "radius": 3.0, "n_samples": 120},
    "cond_regression": {"type": "cond_regression", "n_samples": 120},
}
# (task type, section, key, default) of every config key but out_dir, a
# path whose failures are OSErrors
_KEYS = ([("gauss_modes", "seed", None, 0)]
         + [(t, "task", k, v) for t in _TINY_TASKS for k, v in cli.TASK_DEFAULTS[t].items()]
         + [("gauss_modes", s, k, v)
            for s, defaults in (("model", cli.MODEL_DEFAULTS), ("train", cli.TRAIN_DEFAULTS),
                                ("loss", dict(cli.LOSS_DEFAULTS,
                                              lambdas=cli.DEFAULT_LAMBDAS["classic"])),
                                ("eval", cli.EVAL_DEFAULTS))
            for k, v in defaults.items()])
# keys whose checks need neither the dataset nor the checkpoint: a value
# of one of them that some stage refuses, gen-data refuses too
_LOAD_CHECKED = ({("loss", k) for k in (*cli.LOSS_DEFAULTS, "lambdas")}
                 | {("model", k) for k in cli.MODEL_DEFAULTS}
                 | {("eval", k) for k in set(cli.EVAL_DEFAULTS) - {"n_eval", "ndb_k"}}
                 | {("train", k) for k in set(cli.TRAIN_DEFAULTS) - {"batch_size", "ac_mode"}})
_STRINGS = st.text(max_size=3) | st.sampled_from(
    ["gauss_modes", "cond_regression", "tanh", "sigmoid", "acontrario", "hinge_classic",
     "outside_batch"])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.floats(-10.0, 10.0)
    | st.sampled_from([math.nan, math.inf, -math.inf]) | _STRINGS,
    lambda v: st.lists(v, max_size=3) | st.dictionaries(st.text(max_size=3), v, max_size=2),
    max_leaves=4)


def _typed_like(default):
    """Values of the default's type, over ranges that reach every range check."""
    if isinstance(default, float):
        return st.floats(-10.0, 10.0) | st.integers(-2, 40)
    if isinstance(default, int):
        return st.integers(-2, 40)
    if isinstance(default, list):
        return st.lists(_typed_like(default[0]), max_size=4)
    return _STRINGS


@settings(max_examples=120, deadline=None)
@given(key=st.sampled_from(_KEYS), data=st.data())
def test_every_stage_runs_or_reports_invalid_config(key, data):
    task, section, name, default = key
    value = data.draw(_JSON_VALUES | _typed_like(default))
    cfg = copy.deepcopy(_TINY)
    cfg["task"] = dict(_TINY_TASKS[task])
    if name is None:
        cfg[section] = value
    else:
        cfg.setdefault(section, {})[name] = value
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        cfg["out_dir"] = str(out)
        p = out / "c.json"
        p.write_text(json.dumps(cfg))
        for stage in STAGES:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(_stage_args(stage, p, out))
            if code != 0:
                assert err.getvalue().startswith("error: invalid-config:"), err.getvalue()
                assert err.getvalue().count("\n") == 1
                assert stage == "gen-data" or (section, name) not in _LOAD_CHECKED, \
                    (stage, err.getvalue())
                break


@pytest.mark.parametrize("section, key, value", [
    ("loss", "gen_loss_mode", "non_saturating"), ("eval", "alpha", 0.05),
], ids=["loss.gen_loss_mode", "eval.alpha"])
def test_removed_loss_and_eval_keys_refused_by_every_stage(tmp_path, capsys, section, key,
                                                           value):
    # the generator loss is non-saturating (or hinge) and NDB's level 0.05:
    # a config that still sets either, even to that value, is refused
    p, out = _setup_run(tmp_path, "r")
    assert main(["train", "--config", str(p)]) == 0
    before = {f: f.read_bytes() for f in out.rglob("*") if f.is_file()}
    cfg = json.loads(p.read_text())
    cfg.setdefault(section, {})[key] = value
    p.write_text(json.dumps(cfg))
    for stage in STAGES:
        capsys.readouterr()
        assert main(_stage_args(stage, p, out)) == 1
        assert capsys.readouterr().err == \
            f"error: invalid-config: unknown key(s) in section '{section}': ['{key}']\n"
    assert {f: f.read_bytes() for f in out.rglob("*") if f.is_file()} == before


def _forbid(monkeypatch, name):
    def started(*args, **kwargs):
        raise AssertionError(f"{name} started")

    monkeypatch.setattr(cli, name, started)


def test_two_labels_odd_batch_refused_before_training(tmp_path, capsys, monkeypatch):
    # with two labels no batch of 51 rows splits into halves: no key-derangement
    cfg = {"seed": 0, "out_dir": str(tmp_path / "r"),
           "task": dict(MINI_TASK, n_modes=2),
           "train": {"epochs": 1, "batch_size": 51}}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["gen-data", "--config", str(p)]) == 0
    _forbid(monkeypatch, "train")
    capsys.readouterr()
    assert main(["train", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-config:") and "within_batch" in err


def test_unknown_ac_mode_refused_before_training(tmp_path, capsys, monkeypatch):
    cfg = {"seed": 0, "out_dir": str(tmp_path / "bogus"), "task": MINI_TASK,
           "train": {"epochs": 1, "batch_size": 50, "ac_mode": "bogus"}}
    p = tmp_path / "bogus.json"
    p.write_text(json.dumps(cfg))
    _forbid(monkeypatch, "train")
    _refused_from_gen_data(capsys, p, tmp_path / "bogus", "bogus")


@pytest.mark.parametrize("task, x_rows, labels, batch_size, ac_mode", [
    ({"type": "cond_regression", "dim_x": 2, "n_samples": 400},
     [[0.0, 0.0], [1.0, 0.0]] * 200, None, 3, "within_batch"),
    (dict(MINI_TASK, n_modes=2),
     [[1.0, 0.0]] * 35 + [[0.0, 1.0]] * 5, [0] * 35 + [1] * 5, 10, "outside_batch"),
], ids=["two_values_unlabelled_odd_batch", "dominant_label_outside_batch"])
def test_unpairable_dataset_refused_before_training(tmp_path, capsys, monkeypatch, task,
                                                     x_rows, labels, batch_size, ac_mode):
    p, out = _setup_run(tmp_path, "r", task=task,
                        train_extra={"batch_size": batch_size, "ac_mode": ac_mode})
    ys = load_dataset_csv(out / "dataset.csv").ys[:len(x_rows)]
    save_dataset_csv(ConditionalDataset(np.array(x_rows), ys, labels), out / "dataset.csv")
    _forbid(monkeypatch, "train")
    capsys.readouterr()
    assert main(["train", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-config:") and ac_mode in err


def test_oversized_eval_batch_refused_before_the_phase(tmp_path, capsys, monkeypatch):
    # outside_batch at n_eval 250 needs 500 distinct rows; the dataset has 400
    p, out = _setup_run(tmp_path, "r", train_extra={"ac_mode": "outside_batch"})
    assert main(["train", "--config", str(p)]) == 0
    cfg = json.loads(p.read_text())
    cfg["eval"] = dict(MINI_EVAL, n_eval=250)
    p.write_text(json.dumps(cfg))
    _forbid(monkeypatch, "evaluate")
    capsys.readouterr()
    assert main(["eval-conditionality", "--config", str(p),
                 "--checkpoint", str(out / "checkpoint.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-config:") and "outside_batch" in err
    assert not (out / "report.json").exists()


def test_zero_eval_batch_refused_before_the_phase(tmp_path, capsys, monkeypatch):
    # n_eval 0 asks for no rows, which the key rule alone would let through
    p, out = _setup_run(tmp_path, "r")
    assert main(["train", "--config", str(p)]) == 0
    cfg = json.loads(p.read_text())
    cfg["eval"] = dict(MINI_EVAL, n_eval=0)
    p.write_text(json.dumps(cfg))
    _forbid(monkeypatch, "evaluate")
    capsys.readouterr()
    assert main(["eval-conditionality", "--config", str(p),
                 "--checkpoint", str(out / "checkpoint.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-config:") and "at least 2" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("key, value, message", [
    ("ndb_k", 0, "ndb_k"), ("ndb_k", 41, "10\\*k"), ("n_bins", 0, "n_bins"),
    ("n_per_label", 0, "n_per_label"), ("phase_epochs", -1, "phase_epochs"),
])
def test_bad_eval_settings_refused_before_the_phase(tmp_path, capsys, monkeypatch, key,
                                                    value, message):
    # 41 bins need 410 rows and the dataset has 400
    p, out = _setup_run(tmp_path, "r")
    assert main(["train", "--config", str(p)]) == 0
    cfg = json.loads(p.read_text())
    cfg["eval"] = dict(MINI_EVAL, **{key: value})
    p.write_text(json.dumps(cfg))
    _forbid(monkeypatch, "evaluate")
    capsys.readouterr()
    assert main(["eval-conditionality", "--config", str(p),
                 "--checkpoint", str(out / "checkpoint.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-config: eval:") and err.count("\n") == 1
    assert re.search(message, err)
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("task", [MINI_TASK, {"type": "cond_regression", "n_samples": 400}],
                         ids=["gauss_modes", "cond_regression"])
def test_report_is_what_evaluate_returns(tmp_path, task):
    p, out = _setup_run(tmp_path, "r", task=task)
    assert main(["train", "--config", str(p)]) == 0
    assert main(_stage_args("eval-conditionality", p, out)) == 0
    written = json.loads((out / "report.json").read_text())
    run = cli.load_config(p)
    gen, disc, _, _ = load_checkpoint(str(out / "checkpoint.json"))
    ds = load_dataset_csv(out / "dataset.csv")
    report, _, _ = evaluate(gen, disc, ds, run.task, run.train, run.eval)
    assert written == dict(report, inputs=written["inputs"])


def test_ndb_k_above_distinct_real_points_refused_before_the_phase(tmp_path, capsys,
                                                                   monkeypatch):
    p, out = _setup_run(tmp_path, "r")
    assert main(["train", "--config", str(p)]) == 0
    ds = load_dataset_csv(out / "dataset.csv")
    signs = ConditionalDataset(ds.xs, np.sign(ds.ys), ds.labels)  # at most 4 distinct points
    save_dataset_csv(signs, out / "dataset.csv")
    cfg = json.loads(p.read_text())
    cfg["eval"] = dict(MINI_EVAL, ndb_k=5)
    p.write_text(json.dumps(cfg))
    _forbid(monkeypatch, "evaluate")
    capsys.readouterr()
    assert main(["eval-conditionality", "--config", str(p),
                 "--checkpoint", str(out / "checkpoint.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-config: eval:") and "distinct" in err


def test_diverged_run_writes_the_rows_before_it(tmp_path, capsys, monkeypatch):
    from cganlab import trainer
    p, out = _setup_run(tmp_path, "div")
    real_step = trainer._step
    k = 4

    def diverging_step(gen, disc, ds, config, state):
        if state.step + 1 == k:
            gen.params[-1][:] = np.nan
        return real_step(gen, disc, ds, config, state)

    monkeypatch.setattr(trainer, "_step", diverging_step)
    capsys.readouterr()
    assert main(["train", "--config", str(p)]) == 1
    assert f"non-finite d_gen_cond at step {k}" in capsys.readouterr().err
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 1 + (k - 1)
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, k))
    assert not (out / "checkpoint.json").exists()
    assert sorted(os.listdir(out)) == ["config.json", "dataset.csv", "dataset.json", "metrics.csv"]


@pytest.mark.parametrize("key, value, message, signs", [
    ("ndb_k", 0, "ndb_k", False), ("ndb_k", 41, "10\\*k", False),
    ("ndb_k", 5, "distinct", True),
], ids=["ndb_k_zero", "ndb_k_above_rows", "ndb_k_above_distinct_points"])
def test_bad_ndb_settings_refused_before_the_checkpoint(tmp_path, capsys, monkeypatch, key,
                                                        value, message, signs):
    # 41 bins need 410 rows and the dataset has 400; signs leave at most 4 distinct points
    p, out = _setup_run(tmp_path, "r")
    if signs:
        ds = load_dataset_csv(out / "dataset.csv")
        save_dataset_csv(ConditionalDataset(ds.xs, np.sign(ds.ys), ds.labels),
                         out / "dataset.csv")
    cfg = json.loads(p.read_text())
    cfg["eval"] = dict(MINI_EVAL, **{key: value})
    p.write_text(json.dumps(cfg))
    _forbid(monkeypatch, "_load_run_checkpoint")
    capsys.readouterr()
    assert main(["ndb", "--config", str(p), "--checkpoint", str(out / "checkpoint.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-config: eval:") and err.count("\n") == 1
    assert re.search(message, err)
    assert not (out / "ndb.json").exists()


def test_phase_log_written_as_phase_metrics(tmp_path):
    p, out = _setup_run(tmp_path, "r")
    cfg = json.loads(p.read_text())
    cfg["eval"] = dict(MINI_EVAL, phase_epochs=2)
    p.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p)]) == 0
    assert main(["eval-conditionality", "--config", str(p),
                 "--checkpoint", str(out / "checkpoint.json")]) == 0
    lines = (out / "phase_metrics.csv").read_text().splitlines()
    assert lines[0] == (out / "metrics.csv").read_text().splitlines()[0]
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [int(r["step"]) for r in rows] == list(range(1, 2 * (400 // 50) + 1))
    for r in rows:
        assert all(float(r[c]) == 0.0 for c in ("g_adv", "g_recon", "g_total", "grad_norm_G"))
        assert math.isfinite(float(r["d_total"])) and float(r["grad_norm_D"]) > 0.0
    report = json.loads((out / "report.json").read_text())
    assert report["phase"] == {"steps": len(rows), "d_total_first": float(rows[0]["d_total"]),
                               "d_total_last": float(rows[-1]["d_total"])}


def test_diverged_phase_writes_the_rows_before_it(tmp_path, capsys, monkeypatch):
    from cganlab import trainer
    p, out = _setup_run(tmp_path, "div")
    assert main(["train", "--config", str(p)]) == 0
    real_step = trainer._step
    k = 3

    def diverging_step(gen, disc, ds, config, state):
        if state.step + 1 == k:
            gen.params[-1][:] = np.nan
        return real_step(gen, disc, ds, config, state)

    monkeypatch.setattr(trainer, "_step", diverging_step)
    capsys.readouterr()
    assert main(["eval-conditionality", "--config", str(p),
                 "--checkpoint", str(out / "checkpoint.json")]) == 1
    assert f"non-finite d_gen_cond at step {k}" in capsys.readouterr().err
    lines = (out / "phase_metrics.csv").read_text().splitlines()
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, k))
    assert not (out / "report.json").exists()


def test_missing_files_reported(tmp_path, capsys):
    assert main(["gen-data", "--config", str(tmp_path / "nope.json")]) == 1
    assert "missing-file" in capsys.readouterr().err

    cfg = write_config(tmp_path / "c.json", tmp_path / "run")
    assert main(["train", "--config", str(cfg)]) == 1  # dataset not generated yet
    assert "missing-file" in capsys.readouterr().err

    assert main(["gen-data", "--config", str(cfg)]) == 0
    assert main(["eval-conditionality", "--config", str(cfg),
                 "--checkpoint", str(tmp_path / "run" / "nope.json")]) == 1
    assert "missing-file" in capsys.readouterr().err


def test_checkpoint_task_mismatch(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", out)
    assert main(["gen-data", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0

    other = {"seed": 0, "out_dir": str(tmp_path / "other"),
             "task": {"type": "cond_regression", "n_samples": 300},
             "train": {"epochs": 1, "batch_size": 50},
             "eval": MINI_EVAL}
    p2 = tmp_path / "other.json"
    p2.write_text(json.dumps(other))
    assert main(["gen-data", "--config", str(p2)]) == 0
    assert main(["eval-conditionality", "--config", str(p2),
                 "--checkpoint", str(out / "checkpoint.json")]) == 1
    assert "task-mismatch" in capsys.readouterr().err


def _setup_run(tmp_path, name, task=MINI_TASK, seed=0, train_extra=None):
    out = tmp_path / name
    cfg = {"seed": seed, "out_dir": str(out), "task": task,
           "model": {"gen_hidden": [16, 16], "disc_hidden": [16, 16]},
           "train": dict({"epochs": 1, "batch_size": 50}, **(train_extra or {})),
           "eval": MINI_EVAL}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    assert main(["gen-data", "--config", str(path)]) == 0
    return path, out


@pytest.mark.parametrize("model", [
    {"gen_hidden": [8, 8], "disc_hidden": [8, 8]},
    {"gen_hidden": [16, 16], "disc_hidden": [16, 16], "noise_dim": 1},
], ids=["widths", "noise_dim"])
def test_checkpoint_of_other_networks_refused(tmp_path, capsys, model):
    p, out = _setup_run(tmp_path, "r")  # [16, 16] networks
    assert main(["train", "--config", str(p)]) == 0
    cfg = json.loads(p.read_text())
    cfg["model"] = model
    p.write_text(json.dumps(cfg))
    for stage in ("eval-conditionality", "ndb"):
        capsys.readouterr()
        assert main(_stage_args(stage, p, out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: task-mismatch: checkpoint networks") \
            and err.count("\n") == 1
    assert not (out / "report.json").exists() and not (out / "ndb.json").exists()


@pytest.mark.parametrize("written, read", [
    ({"type": "cond_regression", "dim_x": 4, "dim_y": 2, "n_samples": 400}, MINI_TASK),
    (MINI_TASK, {"type": "cond_regression", "dim_x": 4, "dim_y": 2, "n_samples": 400}),
], ids=["regression_data_under_modes", "modes_data_under_regression"])
def test_dataset_of_the_other_task_kind_refused(tmp_path, capsys, written, read):
    # same widths (4 conditions, 2 targets): only the label column tells them apart
    p, out = _setup_run(tmp_path, "r", task=written)
    cfg = json.loads(p.read_text())
    cfg["task"] = read
    p.write_text(json.dumps(cfg))
    for stage in STAGES[1:]:
        capsys.readouterr()
        assert main(_stage_args(stage, p, out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: task-mismatch: dataset") and "label column" in err
    assert sorted(os.listdir(out)) == ["config.json", "dataset.csv", "dataset.json"]


@pytest.mark.parametrize("record, recorded", [
    (None, None), ("[]", "null"), ('{"task": {"type": "gauss_modes"}}', '{"type": "gauss_modes"}'),
    ("other_parameters", '{"n_modes": 4, "radius": 3.0, "sigma": 0.25, "type": "gauss_modes"}'),
], ids=["missing", "not_an_object", "other_task_dict", "other_parameters"])
def test_dataset_of_another_task_record_refused(tmp_path, capsys, record, recorded):
    # a dataset drawn at radius 3.0 once trained and evaluated at radius 4.0
    p, out = _setup_run(tmp_path, "r")
    cfg = json.loads(p.read_text())
    if record is None:
        (out / "dataset.json").unlink()
    elif record == "other_parameters":
        cfg["task"] = dict(MINI_TASK, radius=4.0)
        p.write_text(json.dumps(cfg))
    else:
        (out / "dataset.json").write_text(record)
    for stage in STAGES[1:]:
        capsys.readouterr()
        assert main(_stage_args(stage, p, out)) == 1, stage
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        if record is None:
            assert err.startswith("error: missing-file: dataset record not found:")
        else:
            # one line that names both task dicts
            assert err.startswith(f"error: task-mismatch: dataset task {recorded}")
            configured = {k: v for k, v in cfg["task"].items() if k != "n_samples"}
            assert f"configured task {json.dumps(configured, sort_keys=True)}" in err
    assert sorted(os.listdir(out)) == ["config.json", "dataset.csv"] + \
        ([] if record is None else ["dataset.json"])


def _spy_on_ndb_score(monkeypatch):
    """The list of `ndb_score` calls the CLI makes from now on."""
    calls, real = [], evalcond.ndb_score

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(evalcond, "ndb_score", spy)
    return calls


@pytest.mark.parametrize("task", [MINI_TASK, {"type": "cond_regression", "n_samples": 400}],
                         ids=["gauss_modes", "cond_regression"])
def test_ndb_reuses_the_report_of_the_same_inputs(tmp_path, monkeypatch, task):
    p, out = _setup_run(tmp_path, "r", task=task)
    assert main(["train", "--config", str(p)]) == 0
    assert main(_stage_args("eval-conditionality", p, out)) == 0
    calls = _spy_on_ndb_score(monkeypatch)
    assert main(_stage_args("ndb", p, out)) == 0
    assert calls == []
    reused = (out / "ndb.json").read_bytes()
    assert json.loads(reused) == json.loads((out / "report.json").read_text())["ndb"]

    # the same config in a fresh directory without report.json computes the same bytes
    fresh = tmp_path / "fresh"
    assert main(["gen-data", "--config", str(p), "--out", str(fresh)]) == 0
    assert main(["ndb", "--config", str(p), "--out", str(fresh),
                 "--checkpoint", str(out / "checkpoint.json")]) == 0
    assert len(calls) == 1
    assert (fresh / "ndb.json").read_bytes() == reused


@pytest.mark.parametrize("change", [
    "dataset_rewritten", "mid_run_checkpoint", "eval.ndb_k", "seed",
    "report_without_inputs", "report_unparsable", "sources_edited", "sources_unreadable",
])
def test_ndb_computes_when_an_input_changed(tmp_path, monkeypatch, change):
    p, out = _setup_run(tmp_path, "r", train_extra={"checkpoint_every": 4})
    assert main(["train", "--config", str(p)]) == 0
    if change == "sources_unreadable":  # null for both stages: nothing shows they match
        monkeypatch.setattr(cli, "_sources_sha256", lambda: None)
    assert main(_stage_args("eval-conditionality", p, out)) == 0
    ckpt, report, cfg = out / "checkpoint.json", out / "report.json", json.loads(p.read_text())
    if change == "dataset_rewritten":
        ds = load_dataset_csv(out / "dataset.csv")
        save_dataset_csv(ConditionalDataset(ds.xs, ds.ys * 1.01, ds.labels),
                         out / "dataset.csv")
    elif change == "mid_run_checkpoint":
        ckpt = out / "checkpoints" / "step_00000004.json"
    elif change == "eval.ndb_k":
        cfg["eval"]["ndb_k"] = 5
    elif change == "seed":
        cfg["seed"] = 1
    elif change == "report_without_inputs":
        doc = json.loads(report.read_text())
        del doc["inputs"]
        report.write_text(json.dumps(doc))
    elif change == "report_unparsable":
        report.write_text(report.read_text()[:-10])
    elif change == "sources_edited":
        monkeypatch.setattr(cli, "_sources_sha256", lambda: "0" * 64)
    p.write_text(json.dumps(cfg))
    calls = _spy_on_ndb_score(monkeypatch)
    assert main(["ndb", "--config", str(p), "--checkpoint", str(ckpt)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("section, value, message", [
    ("model", {"gen_hidden": [8, 8], "disc_hidden": [8, 8]},
     "task-mismatch: checkpoint networks"),
    ("task", dict(MINI_TASK, radius=4.0), "task-mismatch: dataset task"),
    ("task", {"type": "cond_regression", "dim_x": 4, "dim_y": 2, "n_samples": 400},
     "task-mismatch: dataset has a label column"),
    (None, None, "missing-file: dataset not found"),
], ids=["other_networks", "other_task_parameters", "other_task_kind", "dataset_deleted"])
def test_ndb_refusals_hold_after_a_report(tmp_path, capsys, section, value, message):
    p, out = _setup_run(tmp_path, "r")
    assert main(["train", "--config", str(p)]) == 0
    assert main(_stage_args("eval-conditionality", p, out)) == 0
    if section is None:
        (out / "dataset.csv").unlink()
    else:
        cfg = json.loads(p.read_text())
        cfg[section] = value
        p.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(_stage_args("ndb", p, out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    assert not (out / "ndb.json").exists()


def test_checkpoint_same_type_other_parameters_refused(tmp_path, capsys):
    p1, out = _setup_run(tmp_path, "r3")
    assert main(["train", "--config", str(p1)]) == 0
    p2, _ = _setup_run(tmp_path, "r4", task=dict(MINI_TASK, radius=4.0))
    capsys.readouterr()
    assert main(["ndb", "--config", str(p2),
                 "--checkpoint", str(out / "checkpoint.json")]) == 1
    err = capsys.readouterr().err
    # one line that names both task dicts
    assert err.startswith("error: task-mismatch:") and err.count("\n") == 1
    assert '"radius": 3.0' in err and '"radius": 4.0' in err


def test_checkpoint_same_task_other_run_settings_accepted(tmp_path):
    p1, out = _setup_run(tmp_path, "a")
    assert main(["train", "--config", str(p1)]) == 0
    p2, out2 = _setup_run(tmp_path, "b", task=dict(MINI_TASK, n_samples=300), seed=3)
    ckpt = str(out / "checkpoint.json")
    assert main(["eval-conditionality", "--config", str(p2), "--checkpoint", ckpt]) == 0
    assert main(["ndb", "--config", str(p2), "--checkpoint", ckpt]) == 0
    assert (out2 / "report.json").exists() and (out2 / "ndb.json").exists()


def test_mid_run_checkpoint_task_mismatch(tmp_path, capsys):
    p1, out = _setup_run(tmp_path, "ck", train_extra={"checkpoint_every": 4})
    assert main(["train", "--config", str(p1)]) == 0
    step_ckpt = out / "checkpoints" / "step_00000004.json"
    assert json.loads(step_ckpt.read_text())["task"] == \
        json.loads((out / "checkpoint.json").read_text())["task"]
    assert main(["ndb", "--config", str(p1), "--checkpoint", str(step_ckpt)]) == 0

    p2, _ = _setup_run(tmp_path, "reg", task={"type": "cond_regression", "n_samples": 300})
    capsys.readouterr()
    assert main(["eval-conditionality", "--config", str(p2),
                 "--checkpoint", str(step_ckpt)]) == 1
    assert "task-mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5],
                         ids=["format_1", "format_2", "format_3", "format_4", "format_5"])
def test_old_format_checkpoint_reported_as_bad(tmp_path, capsys, version):
    # as formats 1 to 5 wrote it: each spec with its "output_activation", and
    # before format 5 its "hidden_slope"; before format 4, a network's "params"
    # and each Adam moment as one {"shape", "data"} entry per array, its data a
    # JSON list of floats (formats 1 and 2) or the base64 of its float64 bytes
    # (format 3); no task in format 1
    p1, out = _setup_run(tmp_path, "old")
    assert main(["train", "--config", str(p1)]) == 0
    ckpt = out / "checkpoint.json"
    doc = json.loads(ckpt.read_text())
    doc["format_version"] = version

    def per_array(data, spec):
        arrays = _unpack(decode_vector(data, spec.n_params, "vector"), spec)
        return [{"shape": list(a.shape),
                 "data": a.ravel().tolist() if version < 3 else encode_vector(a.ravel())}
                for a in arrays]

    for net, adam in (("generator", "adam_g"), ("discriminator", "adam_d")):
        spec = MlpSpec.from_dict(doc[net]["spec"])
        doc[net]["spec"]["output_activation"] = "identity"
        if version < 5:
            doc[net]["spec"]["hidden_slope"] = 0.2
        if version < 4:
            doc[net]["params"] = per_array(doc[net].pop("flat"), spec)
            doc[adam] = dict(doc[adam], m=per_array(doc[adam]["m"], spec),
                             v=per_array(doc[adam]["v"], spec))
    if version == 1:
        del doc["task"]
    ckpt.write_text(json.dumps(doc))
    for stage in ("eval-conditionality", "ndb"):
        capsys.readouterr()
        assert main(_stage_args(stage, p1, out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad-checkpoint:") and "format_version" in err
    assert not (out / "report.json").exists() and not (out / "ndb.json").exists()


def _rebytes(change):
    """Damage that applies `change` to a vector string's bytes and encodes them again."""
    return lambda data: base64.b64encode(change(base64.b64decode(data))).decode("ascii")


# MINI_TASK's networks: the generator is 4 -> 16 -> 16 -> 2 (386 parameters), the
# discriminator 6 -> 16 -> 16 -> 1 (401)
@pytest.mark.parametrize("where, damage, message", [
    (("adam_d", "v"), lambda data: data[:-8], "adam_d.v holds 3204 bytes, expected 3208"),
    (("adam_d", "v"), lambda data: "@@not base64@@", "adam_d.v is not base64"),
    (("adam_d", "v"), lambda data: [0.0] * 4, "adam_d.v is not base64"),
    # a vector a float short or long, or a moment of another length, is refused
    # by its length: the file holds no shapes to check
    (("generator", "flat"), _rebytes(lambda b: b[:-8]),
     "generator.flat holds 3080 bytes, expected 3088 (386 float64s)"),
    (("discriminator", "flat"), _rebytes(lambda b: b + bytes(8)),
     "discriminator.flat holds 3216 bytes, expected 3208 (401 float64s)"),
    (("adam_d", "m"), _rebytes(lambda b: b[:8]), "adam_d.m holds 8 bytes, expected 3208"),
    # equal to the configured 0 and 16, so only their type shows they were never written
    (("generator", "noise_dim"), float, "noise_dim must be a non-negative int, got 0.0"),
    (("generator", "spec", "widths", 1), lambda w: w + 0.5, "widths must be positive integers"),
    # counters: a string once failed only on resuming, a negative t diverged at the
    # first resumed step, and a negative or bool step trained without an error
    (("adam_d", "t"), lambda t: "3", 'adam_d.t must be a non-negative int, got "3"'),
    (("adam_d", "t"), lambda t: -5, "adam_d.t must be a non-negative int, got -5"),
    (("step",), lambda step: "10", 'step must be a non-negative int, got "10"'),
    (("step",), lambda step: -1, "step must be a non-negative int, got -1"),
    (("step",), lambda step: True, "step must be a non-negative int, got true"),
    (("seed",), float, "seed must be a non-negative int, got 0.0"),
    # a slope edited into a spec would otherwise load as the constant 0.2
    (("discriminator", "spec"), lambda spec: dict(spec, hidden_slope=0.5),
     "unknown MlpSpec keys ['hidden_slope']"),
    # the bit generator's uint32 field once raised OverflowError through main
    (("rng_state", "uinteger"), lambda u: -1, "malformed checkpoint"),
], ids=["truncated_payload", "not_base64", "list_payload",
        "generator_flat_short", "discriminator_flat_long", "adam_moment_length",
        "noise_dim_float", "width_fraction", "adam_t_string", "adam_t_negative",
        "step_string", "step_negative", "step_bool", "seed_float", "spec_unknown_key",
        "rng_uinteger_negative"])
def test_checkpoint_bad_payload_reported_as_bad(tmp_path, capsys, where, damage, message):
    p1, out = _setup_run(tmp_path, "damaged")
    assert main(["train", "--config", str(p1)]) == 0
    doc = json.loads((out / "checkpoint.json").read_text())
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = damage(parent[where[-1]])
    (out / "checkpoint.json").write_text(json.dumps(doc))
    for stage in ("eval-conditionality", "ndb"):
        capsys.readouterr()
        assert main(_stage_args(stage, p1, out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad-checkpoint:") and message in err
    assert not (out / "report.json").exists() and not (out / "ndb.json").exists()


def test_checkpoint_without_task_refused(tmp_path, capsys):
    # nothing shows that a checkpoint with no recorded task belongs to this one
    p1, out = _setup_run(tmp_path, "notask")
    assert main(["train", "--config", str(p1)]) == 0
    ckpt = out / "checkpoint.json"
    doc = json.loads(ckpt.read_text())
    doc["task"] = None
    ckpt.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["ndb", "--config", str(p1), "--checkpoint", str(ckpt)]) == 1
    assert capsys.readouterr().err.startswith("error: task-mismatch:")


@pytest.mark.parametrize("path", [("seed",), ("generator", "flat")],
                         ids=["seed", "generator.flat"])
def test_checkpoint_missing_key_reported_as_bad(tmp_path, capsys, path):
    p1, out = _setup_run(tmp_path, "nokey")
    assert main(["train", "--config", str(p1)]) == 0
    ckpt = out / "checkpoint.json"
    doc = json.loads(ckpt.read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    ckpt.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["ndb", "--config", str(p1), "--checkpoint", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad-checkpoint:") and repr(path[-1]) in err


def test_checkpoint_not_an_object_reported_as_bad(tmp_path, capsys):
    p1, out = _setup_run(tmp_path, "list")
    ckpt = out / "checkpoint.json"
    ckpt.write_text("[1, 2]")
    capsys.readouterr()
    assert main(["ndb", "--config", str(p1), "--checkpoint", str(ckpt)]) == 1
    assert capsys.readouterr().err.startswith("error: bad-checkpoint:")


def test_checkpoint_with_removed_output_activation_reported_as_bad(tmp_path, capsys):
    # a checkpoint whose generator spec names an output nets no longer has
    p1, out = _setup_run(tmp_path, "sigmoid")
    assert main(["train", "--config", str(p1)]) == 0
    ckpt = out / "checkpoint.json"
    doc = json.loads(ckpt.read_text())
    doc["generator"]["spec"]["output_activation"] = "sigmoid"
    ckpt.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["ndb", "--config", str(p1), "--checkpoint", str(ckpt)]) == 1
    err = capsys.readouterr().err
    # the run directory is named sigmoid, so the message must name the key
    assert err.startswith("error: bad-checkpoint:") and "['output_activation']" in err


def test_report_write_failure_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    cli.write_json({"a": 1}, path)
    before = path.read_bytes()

    def broken_dump(obj, fh, **kw):
        fh.write('{"a": ')
        raise RuntimeError("serialisation failed")

    monkeypatch.setattr(cli.json, "dump", broken_dump)
    with pytest.raises(RuntimeError, match="serialisation failed"):
        cli.write_json({"a": 2}, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["report.json"]


def _child_env():
    src = os.path.dirname(os.path.dirname(cganlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "2"
    return env


def test_cli_import_does_not_load_scipy():
    code = "import sys, cganlab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def _fake_libc(monkeypatch, events, mallopt_returns=1):
    def mallopt(param, value):
        events.append(("mallopt", param, value))
        return mallopt_returns

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))


PINNED = [("mallopt", -3, 32 << 20), ("mallopt", -1, 256 << 20)]


@pytest.mark.parametrize("fails", [False, True])
def test_main_pins_malloc_thresholds_before_the_command(tmp_path, monkeypatch, capsys, fails):
    events = []
    _fake_libc(monkeypatch, events)

    def command(cfg):
        events.append("command")
        if fails:
            raise cli.CliError("invalid-config", "refused")

    monkeypatch.setattr(cli, "cmd_gen_data", command)
    cfg = write_config(tmp_path / "c.json", tmp_path / "run")
    assert main(["gen-data", "--config", str(cfg)]) == int(fails)
    assert events == PINNED + ["command"]
    assert ("error: invalid-config: refused" in capsys.readouterr().err) == fails


def _no_library(name):
    raise OSError("no such library")


@pytest.mark.parametrize("libc", ["missing-library", "missing-symbol", "refuses"])
def test_malloc_policy_unavailable_is_silent(tmp_path, monkeypatch, capsys, libc):
    events = []
    if libc == "missing-library":
        monkeypatch.setattr(cli.ctypes, "CDLL", _no_library)
    elif libc == "missing-symbol":
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace())
    else:
        _fake_libc(monkeypatch, events, mallopt_returns=0)
    cfg = write_config(tmp_path / "c.json", tmp_path / "run")
    assert main(["gen-data", "--config", str(cfg)]) == 0
    assert (tmp_path / "run" / "dataset.csv").exists()
    assert capsys.readouterr() == ("", "")
    # a refused mmap threshold leaves the trim threshold alone too: set
    # alone, it would send every large array to mmap
    assert events == PINNED[:1 if libc == "refuses" else 0]


def test_library_use_leaves_the_allocator_alone():
    code = """
import ctypes
looked_up = []
lookup = ctypes.CDLL.__getattr__
def recording(self, name):
    looked_up.append(name)
    return lookup(self, name)
ctypes.CDLL.__getattr__ = recording

import cganlab
from cganlab import Discriminator, Generator, TrainConfig, train
from cganlab.tasks import GaussModesTask, sample_dataset
task = GaussModesTask()
gen = Generator.build(task.dim_x, task.dim_y, hidden=(16, 16), seed=1)
disc = Discriminator.build(task.dim_x, task.dim_y, hidden=(16, 16), seed=2)
log, state = train(gen, disc, sample_dataset(task, 64, 0), TrainConfig(epochs=1))
assert state.step == 1
library_calls = looked_up.count("mallopt")
import cganlab.cli
cganlab.cli._keep_freed_memory()  # shows the recording sees the CLI's call
print(library_calls, looked_up.count("mallopt"))
"""
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["0", "1"]


def _mallopt_available() -> bool:
    """Whether this platform's C library takes the thresholds (asked in a child)."""
    code = "import ctypes, sys; sys.exit(0 if ctypes.CDLL(None).mallopt(-3, 32 << 20) else 1)"
    return subprocess.run([sys.executable, "-c", code], capture_output=True).returncode == 0


def _minor_faults_of_train(cfg_path, tmp_path, policy=True) -> int:
    """Run `cganlab train` as a child and return its minor page faults."""
    code = ("import sys; from cganlab import cli\n"
            + ("" if policy else "cli._keep_freed_memory = lambda: None\n")
            + "sys.exit(cli.main(sys.argv[1:]))")
    with open(tmp_path / "stderr.txt", "w+") as err:
        proc = subprocess.Popen([sys.executable, "-c", code, "train", "--config", str(cfg_path)],
                                env=_child_env(), stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        assert proc.returncode == 0, err.read()
    return usage.ru_minflt


def test_train_steps_reuse_freed_memory(tmp_path):
    if not _mallopt_available():
        pytest.skip("the C library has no mallopt that takes the thresholds")
    out = tmp_path / "run"
    configs = {}
    for epochs in (1, 3):
        configs[epochs] = tmp_path / f"e{epochs}.json"
        configs[epochs].write_text(json.dumps({
            "seed": 5, "out_dir": str(out),
            "task": {"type": "gauss_modes", "n_samples": 2048},
            "model": {"gen_hidden": [256, 256], "disc_hidden": [256, 256]},
            "train": {"epochs": epochs, "batch_size": 256}}))
    assert main(["gen-data", "--config", str(configs[1])]) == 0

    one_epoch = _minor_faults_of_train(configs[1], tmp_path)  # 8 steps
    outputs = [(out / name).read_bytes() for name in ("metrics.csv", "checkpoint.json")]
    three_epochs = _minor_faults_of_train(configs[3], tmp_path)  # 24 steps
    # each step frees and reallocates MBs of arrays: about 1,600 faults a
    # step without the policy, a handful with it
    assert (three_epochs - one_epoch) / 16 < 100

    _minor_faults_of_train(configs[1], tmp_path, policy=False)
    assert [(out / name).read_bytes() for name in ("metrics.csv", "checkpoint.json")] == outputs


def test_seed_and_out_overrides(tmp_path):
    cfg = write_config(tmp_path / "c.json", tmp_path / "run")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "elsewhere"),
                 "--seed", "99"]) == 0
    assert (tmp_path / "elsewhere" / "dataset.csv").exists()
    echoed = json.loads((tmp_path / "elsewhere" / "config.json").read_text())
    assert echoed["seed"] == 99
    base = (tmp_path / "run")
    assert main(["gen-data", "--config", str(cfg)]) == 0
    assert (base / "dataset.csv").read_bytes() != \
        (tmp_path / "elsewhere" / "dataset.csv").read_bytes()


def test_regression_task_pipeline_skips_oracle(tmp_path):
    out = tmp_path / "reg"
    cfg_doc = {"seed": 1, "out_dir": str(out),
               "task": {"type": "cond_regression", "n_samples": 400},
               "model": {"gen_hidden": [16, 16], "disc_hidden": [16, 16]},
               "train": {"epochs": 1, "batch_size": 50},
               "loss": {"formulation": "acontrario"},
               "eval": MINI_EVAL}
    p = tmp_path / "reg.json"
    p.write_text(json.dumps(cfg_doc))
    run_pipeline(p, out)
    report = json.loads((out / "report.json").read_text())
    assert report["oracle_accuracy"] is None
    assert report["ndb"] is not None
    # the trained generator against the noiseless map, on the eval's seed and size
    gen = load_checkpoint(str(out / "checkpoint.json"))[0]
    assert report["regression"] == regression_error(CondRegressionTask(), gen,
                                                    MINI_EVAL["n_eval"], seed=1)
    assert set(report["regression"]) == {"rmse", "nrmse"}
