"""Config-driven command line for reproducible experiments.

Every run is described by a single JSON config; defaults are filled in,
validated (unknown keys are rejected), and the effective config is echoed
into the output directory so a run can be reproduced byte for byte. No
environment variables are consulted.

`train` records the task dict (the config's `task` section without
`n_samples`) in `checkpoint.json` and in every mid-run checkpoint.
`eval-conditionality` and `ndb` refuse a checkpoint whose recorded task
differs from the configured one, or which records none, and also one
whose network widths do not fit the task (`task-mismatch`).
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys

import numpy as np

from .evalcond import (
    build_histogram,
    classification_rates,
    collect_logits,
    make_report,
    ndb_score,
    oracle_accuracy,
    write_histogram_csv,
)
from .fileio import _atomic_open
from .losses import FORMULATIONS, GEN_LOSS_MODES, LossSpec
from .nets import Discriminator, Generator, gen_forward
from .pairing import load_dataset_csv, save_dataset_csv
from .tasks import GaussModesTask, sample_dataset, task_from_dict
from .trainer import (
    CheckpointError,
    TrainConfig,
    load_checkpoint,
    optimal_discriminator_phase,
    save_checkpoint,
    train,
)


class CliError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


TASK_DEFAULTS = {
    "gauss_modes": {"type": "gauss_modes", "n_modes": 8, "radius": 4.0,
                    "sigma": 0.25, "n_samples": 8000},
    "cond_regression": {"type": "cond_regression", "dim_x": 4, "dim_y": 2,
                        "noise_std": 0.05, "map_seed": 7, "n_samples": 8000},
}

MODEL_DEFAULTS = {"gen_hidden": [128, 128], "disc_hidden": [128, 128],
                  "noise_dim": 0, "gen_output_activation": "identity"}

TRAIN_DEFAULTS = {"epochs": 16, "batch_size": 64, "lr": 2e-4, "beta1": 0.5,
                  "beta2": 0.999, "d_steps_per_g_step": 1, "checkpoint_every": 0,
                  "ac_mode": "within_batch"}

LOSS_DEFAULTS = {"formulation": "classic", "gen_loss_mode": "non_saturating",
                 "recon_weight": 0.0}

EVAL_DEFAULTS = {"n_eval": 4000, "n_bins": 50, "ndb_k": 20, "alpha": 0.05,
                 "n_per_label": 1000, "phase_epochs": 1, "threshold": 0.0}


def _merge_section(name: str, given: dict, defaults: dict) -> dict:
    unknown = set(given) - set(defaults)
    if unknown:
        raise CliError("invalid-config",
                       f"unknown key(s) in section {name!r}: {sorted(unknown)}")
    merged = copy.deepcopy(defaults)
    merged.update(given)
    return merged


def load_config(path, seed_override=None, out_override=None) -> dict:
    """Parse, validate, and complete a run config."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise CliError("missing-file", f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise CliError("invalid-config", f"config does not parse: {e}") from None
    if not isinstance(raw, dict):
        raise CliError("invalid-config", "config must be a JSON object")

    known = {"seed", "out_dir", "task", "model", "train", "loss", "eval"}
    unknown = set(raw) - known
    if unknown:
        raise CliError("invalid-config", f"unknown top-level key(s): {sorted(unknown)}")

    task_given = raw.get("task", {})
    task_type = task_given.get("type", "gauss_modes")
    if task_type not in TASK_DEFAULTS:
        raise CliError("invalid-config", f"unknown task type {task_type!r}")

    loss_given = dict(raw.get("loss", {}))
    formulation = loss_given.get("formulation", LOSS_DEFAULTS["formulation"])
    if formulation not in FORMULATIONS:
        raise CliError("invalid-config", f"unknown loss formulation {formulation!r}")
    # default weighting: all four terms equal for the a-contrario
    # formulations, the two conditional terms otherwise
    if "lambdas" not in loss_given:
        loss_given["lambdas"] = [1.0, 1.0, 1.0, 1.0] if "acontrario" in formulation \
            else [1.0, 1.0, 0.0, 0.0]
    loss_defaults = dict(LOSS_DEFAULTS, lambdas=None)

    cfg = {
        "seed": raw.get("seed", 0),
        "out_dir": raw.get("out_dir", "runs/default"),
        "task": _merge_section("task", task_given, TASK_DEFAULTS[task_type]),
        "model": _merge_section("model", raw.get("model", {}), MODEL_DEFAULTS),
        "train": _merge_section("train", raw.get("train", {}), TRAIN_DEFAULTS),
        "loss": _merge_section("loss", loss_given, loss_defaults),
        "eval": _merge_section("eval", raw.get("eval", {}), EVAL_DEFAULTS),
    }
    if seed_override is not None:
        cfg["seed"] = seed_override
    if out_override is not None:
        cfg["out_dir"] = out_override
    if not isinstance(cfg["seed"], int):
        raise CliError("invalid-config", "seed must be an integer")
    if cfg["loss"]["gen_loss_mode"] not in GEN_LOSS_MODES:
        raise CliError("invalid-config",
                       f"unknown gen_loss_mode {cfg['loss']['gen_loss_mode']!r}")
    return cfg


def write_json(obj, path) -> None:
    with _atomic_open(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def build_task(cfg: dict):
    t = dict(cfg["task"])
    t.pop("n_samples")
    return task_from_dict(t)


def build_loss_spec(cfg: dict) -> LossSpec:
    try:
        return LossSpec.from_dict(cfg["loss"])
    except ValueError as e:
        raise CliError("invalid-config", str(e)) from None


def build_train_config(cfg: dict) -> TrainConfig:
    t = cfg["train"]
    try:
        return TrainConfig(
            epochs=t["epochs"], batch_size=t["batch_size"], lr=t["lr"],
            beta1=t["beta1"], beta2=t["beta2"], seed=cfg["seed"],
            loss=build_loss_spec(cfg), d_steps_per_g_step=t["d_steps_per_g_step"],
            checkpoint_every=t["checkpoint_every"], ac_mode=t["ac_mode"],
        )
    except ValueError as e:
        raise CliError("invalid-config", str(e)) from None


def build_nets(cfg: dict, task) -> tuple[Generator, Discriminator]:
    m = cfg["model"]
    gen = Generator.build(
        task.dim_x, task.dim_y, hidden=tuple(m["gen_hidden"]),
        noise_dim=m["noise_dim"], output_activation=m["gen_output_activation"],
        seed=cfg["seed"] * 2 + 1,
    )
    disc = Discriminator.build(
        task.dim_x, task.dim_y, hidden=tuple(m["disc_hidden"]),
        seed=cfg["seed"] * 2 + 2,
    )
    return gen, disc


def _dataset_path(cfg: dict) -> str:
    return os.path.join(cfg["out_dir"], "dataset.csv")


def _load_run_dataset(cfg: dict, task):
    path = _dataset_path(cfg)
    if not os.path.exists(path):
        raise CliError("missing-file", f"dataset not found: {path} (run gen-data first)")
    ds = load_dataset_csv(path)
    if ds.xs.shape[1] != task.dim_x or ds.ys.shape[1] != task.dim_y:
        raise CliError("task-mismatch",
                       f"dataset dims ({ds.xs.shape[1]},{ds.ys.shape[1]}) do not match "
                       f"task ({task.dim_x},{task.dim_y})")
    return ds


def _load_run_checkpoint(path, task):
    """Load a checkpoint and check that it was trained on `task`.

    The task dict stored in the checkpoint must equal `task.to_dict()`;
    seed, sample count and output directory are run settings and are not
    compared. The network widths must also fit the task's dimensions.
    """
    if not os.path.exists(path):
        raise CliError("missing-file", f"checkpoint not found: {path}")
    try:
        gen, disc, state, meta = load_checkpoint(path)
    except CheckpointError as e:
        raise CliError("bad-checkpoint", str(e)) from None
    expected = task.to_dict()
    if meta["task"] != expected:
        raise CliError("task-mismatch",
                       f"checkpoint task {json.dumps(meta['task'], sort_keys=True)} "
                       f"does not match configured task {json.dumps(expected, sort_keys=True)}")
    if (gen.spec.widths[0] != task.dim_x + gen.noise_dim
            or gen.spec.widths[-1] != task.dim_y
            or disc.spec.widths[0] != task.dim_x + task.dim_y):
        raise CliError("task-mismatch",
                       "checkpoint network dimensions do not match the configured task")
    return gen, disc, state, meta


def cmd_gen_data(cfg: dict) -> None:
    task = build_task(cfg)
    os.makedirs(cfg["out_dir"], exist_ok=True)
    ds = sample_dataset(task, cfg["task"]["n_samples"], cfg["seed"])
    save_dataset_csv(ds, _dataset_path(cfg))
    write_json(cfg, os.path.join(cfg["out_dir"], "config.json"))


def cmd_train(cfg: dict) -> None:
    task = build_task(cfg)
    ds = _load_run_dataset(cfg, task)
    gen, disc = build_nets(cfg, task)
    tc = build_train_config(cfg)
    ckpt_dir = None
    if tc.checkpoint_every > 0:
        ckpt_dir = os.path.join(cfg["out_dir"], "checkpoints")
        os.makedirs(ckpt_dir, exist_ok=True)
    task_dict = task.to_dict()
    log, state = train(gen, disc, ds, tc, checkpoint_dir=ckpt_dir, task=task_dict)
    log.to_csv(os.path.join(cfg["out_dir"], "metrics.csv"))
    save_checkpoint(gen, disc, state, tc, os.path.join(cfg["out_dir"], "checkpoint.json"),
                    task=task_dict)
    write_json(cfg, os.path.join(cfg["out_dir"], "config.json"))


def _generated_over_dataset(gen: Generator, ds, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 2])
    z = rng.standard_normal((len(ds), gen.noise_dim)) if gen.noise_dim > 0 else None
    return gen_forward(gen, ds.xs, z).values


def cmd_eval_conditionality(cfg: dict, checkpoint_path) -> None:
    task = build_task(cfg)
    ds = _load_run_dataset(cfg, task)
    gen, disc, _, _ = _load_run_checkpoint(checkpoint_path, task)
    tc = build_train_config(cfg)
    ev = cfg["eval"]

    optimal_discriminator_phase(gen, disc, ds, tc, epochs=ev["phase_epochs"])
    logits = collect_logits(disc, gen, ds, ev["n_eval"], seed=cfg["seed"],
                            ac_mode=tc.ac_mode)
    hist = build_histogram(logits, ev["n_bins"])
    rates = classification_rates(logits, ev["threshold"])

    acc = None
    if isinstance(task, GaussModesTask):
        acc = oracle_accuracy(gen, task, ev["n_per_label"], seed=cfg["seed"])
    y_gen = _generated_over_dataset(gen, ds, cfg["seed"])
    ndb = ndb_score(ds.ys, y_gen, k=ev["ndb_k"], alpha=ev["alpha"], seed=cfg["seed"])

    write_histogram_csv(hist, os.path.join(cfg["out_dir"], "histogram.csv"))
    write_json(make_report(rates, acc, ndb), os.path.join(cfg["out_dir"], "report.json"))


def cmd_ndb(cfg: dict, checkpoint_path) -> None:
    task = build_task(cfg)
    ds = _load_run_dataset(cfg, task)
    gen, _, _, _ = _load_run_checkpoint(checkpoint_path, task)
    ev = cfg["eval"]
    y_gen = _generated_over_dataset(gen, ds, cfg["seed"])
    ndb = ndb_score(ds.ys, y_gen, k=ev["ndb_k"], alpha=ev["alpha"], seed=cfg["seed"])
    write_json(ndb.to_dict(), os.path.join(cfg["out_dir"], "ndb.json"))


def cmd_report(run_dir) -> None:
    """Consolidate per-run reports into a baseline vs a-contrario summary."""
    if not os.path.isdir(run_dir):
        raise CliError("missing-file", f"run directory not found: {run_dir}")
    runs = []
    for name in sorted(os.listdir(run_dir)):
        sub = os.path.join(run_dir, name)
        report_path = os.path.join(sub, "report.json")
        config_path = os.path.join(sub, "config.json")
        if not (os.path.isfile(report_path) and os.path.isfile(config_path)):
            continue
        with open(report_path) as fh:
            report = json.load(fh)
        with open(config_path) as fh:
            run_cfg = json.load(fh)
        runs.append({
            "name": name,
            "formulation": run_cfg["loss"]["formulation"],
            "seed": run_cfg["seed"],
            "real_ac_true_rate": report["classification_rates"]["real_ac"],
            "oracle_accuracy": report["oracle_accuracy"],
            "ndb_over_k": report["ndb"]["ndb_over_k"] if report["ndb"] else None,
        })
    groups = {"baseline": [r for r in runs if "acontrario" not in r["formulation"]],
              "acontrario": [r for r in runs if "acontrario" in r["formulation"]]}
    if not groups["baseline"] or not groups["acontrario"]:
        raise CliError("missing-file",
                       "report needs at least one baseline and one a-contrario run "
                       "with report.json present")

    def med(rows, key):
        vals = [r[key] for r in rows if r[key] is not None]
        return float(np.median(vals)) if vals else None

    summary = {"runs": runs}
    for group, rows in groups.items():
        summary[group] = {
            "median_real_ac_true_rate": med(rows, "real_ac_true_rate"),
            "median_oracle_accuracy": med(rows, "oracle_accuracy"),
            "median_ndb_over_k": med(rows, "ndb_over_k"),
        }
    base, ac = summary["baseline"], summary["acontrario"]
    summary["comparison"] = {
        "acontrario_real_ac_rate_lower":
            ac["median_real_ac_true_rate"] < base["median_real_ac_true_rate"],
        "oracle_accuracy_delta":
            None if ac["median_oracle_accuracy"] is None
            or base["median_oracle_accuracy"] is None
            else ac["median_oracle_accuracy"] - base["median_oracle_accuracy"],
        "ndb_ordering_ok":
            None if ac["median_ndb_over_k"] is None or base["median_ndb_over_k"] is None
            else ac["median_ndb_over_k"] <= base["median_ndb_over_k"],
    }
    write_json(summary, os.path.join(run_dir, "summary.json"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cganlab")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, checkpoint=False):
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        if checkpoint:
            p.add_argument("--checkpoint", required=True)

    add_common(sub.add_parser("gen-data", help="write the task dataset CSV"))
    add_common(sub.add_parser("train", help="train and write checkpoint + metrics"))
    add_common(sub.add_parser("eval-conditionality",
                              help="optimal-discriminator phase, histograms, report"),
               checkpoint=True)
    add_common(sub.add_parser("ndb", help="mode-collapse score only"), checkpoint=True)
    rep = sub.add_parser("report", help="summarize baseline vs a-contrario runs")
    rep.add_argument("--run-dir", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            cmd_report(args.run_dir)
        else:
            cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
            os.makedirs(cfg["out_dir"], exist_ok=True)
            if args.command == "gen-data":
                cmd_gen_data(cfg)
            elif args.command == "train":
                cmd_train(cfg)
            elif args.command == "eval-conditionality":
                cmd_eval_conditionality(cfg, args.checkpoint)
            elif args.command == "ndb":
                cmd_ndb(cfg, args.checkpoint)
    except CliError as e:
        print(f"error: {e.kind}: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
