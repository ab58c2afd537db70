import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cganlab
from cganlab import cli
from cganlab.cli import main

MINI_TASK = {"type": "gauss_modes", "n_modes": 4, "radius": 3.0, "sigma": 0.25,
             "n_samples": 400}
MINI_EVAL = {"n_eval": 200, "n_bins": 20, "ndb_k": 4, "alpha": 0.05,
             "n_per_label": 50, "phase_epochs": 1}


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
    rates = report["classification_rates"]
    assert set(rates) == {"real_cond", "gen_cond", "real_ac", "gen_ac"}
    assert all(0.0 <= v <= 1.0 for v in rates.values())
    assert 0.0 <= report["oracle_accuracy"] <= 1.0
    assert 0.0 <= report["ndb"]["ndb_over_k"] <= 1.0

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
    assert {r["formulation"] for r in summary["runs"]} == {"classic", "acontrario"}
    assert set(summary["comparison"]) == {"acontrario_real_ac_rate_lower",
                                          "oracle_accuracy_delta", "ndb_ordering_ok"}
    assert summary["baseline"]["median_real_ac_true_rate"] is not None


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


def test_invalid_loss_config_rejected(tmp_path, capsys):
    cfg = {"seed": 0, "out_dir": str(tmp_path / "r"), "task": MINI_TASK,
           "loss": {"formulation": "classic", "lambdas": [1, 1, 1, 1]}}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["gen-data", "--config", str(p)]) == 0  # gen-data ignores loss weights
    assert main(["train", "--config", str(p)]) == 1
    assert "error:" in capsys.readouterr().err


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


def test_old_format_checkpoint_reported_as_bad(tmp_path, capsys):
    p1, out = _setup_run(tmp_path, "old")
    assert main(["train", "--config", str(p1)]) == 0
    ckpt = out / "checkpoint.json"
    doc = json.loads(ckpt.read_text())
    doc["format_version"] = 1
    del doc["task"]
    ckpt.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["ndb", "--config", str(p1), "--checkpoint", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad-checkpoint:") and "format_version" in err


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


@pytest.mark.parametrize("path", [("seed",), ("generator", "params")],
                         ids=["seed", "generator.params"])
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


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(cganlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, cganlab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


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
