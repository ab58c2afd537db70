"""Config-driven command line for reproducible experiments.

Every run is described by a single JSON config; defaults are filled in,
validated (unknown keys are rejected), and the effective config is echoed
into the output directory so a run can be reproduced byte for byte. No
environment variables are consulted. The `task`, `train`, `loss` and
`eval` sections take their keys and defaults from the dataclasses they
build; `evalcond.EvalConfig` owns `eval`. Every value is judged once, by
`load_config`, which builds the task, the `TrainConfig`, the `EvalConfig`
and the untrained networks, so all stages refuse the same configs; a
stage runs only the checks that need its dataset or its checkpoint.

This module holds no evaluation logic: `eval-conditionality` loads its
inputs, calls `evalcond.evaluate` and writes `phase_metrics.csv` (when the
evaluation completes, or on a divergence), `histogram.csv` and `report.json`.

`gen-data` records the task dict (the config's `task` section without
`n_samples`) beside the dataset as `dataset.json`, and `train` records it
in `checkpoint.json` and in every mid-run checkpoint. The later stages
refuse a dataset without that record (`missing-file`) or with another
task, and `eval-conditionality` and `ndb` refuse a checkpoint whose
recorded task differs from the configured one, or which records none, and
also one whose networks differ from the configured ones (`task-mismatch`).

`eval-conditionality` adds to the report an `inputs` block: the
sha256 of the effective config without `out_dir`, of `dataset.csv`, of
`dataset.json`, of the `--checkpoint` file and of the package's own `*.py`
sources, and the numpy version. `out_dir` is left out so that two run
directories of one config still hold byte-identical reports. A file that
cannot be read records null. `ndb` builds the same block for its own
config and checkpoint; when `report.json` parses and records that block,
with no null in it, `ndb` writes the report's `ndb` block as `ndb.json`
without loading the dataset or the checkpoint. `eval-conditionality` ran
every check `ndb` makes on those same bytes, and NDB is a function of
them, so the numbers are the ones `ndb` would compute. In every other
case `ndb` computes them, with its own checks.

`main` first pins two glibc malloc thresholds for its own process
(`_keep_freed_memory`), so the multi-MB arrays a training step frees are
reused by the next step instead of being handed back to the kernel and
page-faulted in again. This overrides any malloc setting made through
`GLIBC_TUNABLES`; elsewhere than glibc it does nothing. Importing
`cganlab` or calling `trainer.train` leaves the allocator alone.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from .evalcond import (EvalConfig, check_ndb_settings, evaluate, generator_ndb,
                       write_histogram_csv)
from .fileio import _atomic_open
from .losses import DEFAULT_LAMBDAS, FORMULATIONS, LossSpec
from .nets import Discriminator, Generator
from .pairing import _check_pairable, load_dataset_csv, save_dataset_csv
from .tasks import TASKS, GaussModesTask, sample_dataset, task_from_dict
from .trainer import (
    CheckpointError,
    TrainConfig,
    TrainingDiverged,
    load_checkpoint,
    save_checkpoint,
    train,
)


def _keep_freed_memory() -> None:
    """Let this process reuse the memory it frees instead of faulting it in again.

    By default glibc serves arrays of 128 KB and more with mmap until it
    has freed one, then raises that threshold to its size and returns the
    heap top to the kernel whenever more than twice that is free. A step's multi-MB arrays (hidden activations,
    the backward factor, Adam temporaries) are then returned to the kernel
    after each step and faulted in again by the next one. This sets
    M_MMAP_THRESHOLD to 32 MiB and M_TRIM_THRESHOLD to 256 MiB. Both must
    be set: setting either one turns glibc's dynamic adjustment off, and
    the trim threshold alone leaves every array of 128 KB or more to mmap.
    The values override any `GLIBC_TUNABLES` malloc settings. Where
    `mallopt` is missing (not glibc, or no process-wide handle) or refuses
    (musl's stub returns 0), nothing changes and nothing is reported.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_MMAP_THRESHOLD (-3) to the cap glibc's dynamic threshold grows to
    # on 64-bit, then M_TRIM_THRESHOLD (-1), which must not be set alone
    if mallopt(-3, 32 << 20):
        mallopt(-1, 256 << 20)


class CliError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _field_defaults(cls, *skip: str) -> dict:
    return {f.name: f.default for f in dataclasses.fields(cls) if f.name not in skip}


TASK_DEFAULTS = {name: dict(cls().to_dict(), n_samples=8000) for name, cls in TASKS.items()}

MODEL_DEFAULTS = {"gen_hidden": [128, 128], "disc_hidden": [128, 128],
                  "noise_dim": 0, "gen_output_activation": "identity"}

TRAIN_DEFAULTS = _field_defaults(TrainConfig, "seed", "loss")

LOSS_DEFAULTS = _field_defaults(LossSpec, "lambdas")

EVAL_DEFAULTS = _field_defaults(EvalConfig)

RUN_DEFAULTS = {"seed": 0, "out_dir": "runs/default"}


def _fits(value, default) -> bool:
    """Whether `value` has the type of `default`.

    An int default takes an int, a float default a finite int or float,
    and neither takes a bool; a str default takes a str, and a list default
    a list whose items fit its first item.
    """
    if isinstance(value, bool):
        return isinstance(default, bool)
    if isinstance(default, float):
        # false for NaN and for ints beyond the float range, exactly
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    return isinstance(value, type(default))


def _merge_section(name: str, given: dict, defaults: dict) -> dict:
    """`defaults` updated with `given`, whose keys and value types must be those of `defaults`."""
    unknown = set(given) - set(defaults)
    if unknown:
        raise CliError("invalid-config",
                       f"unknown key(s) in section {name!r}: {sorted(unknown)}")
    for key, value in given.items():
        if not _fits(value, defaults[key]):
            raise CliError("invalid-config",
                           f"{name}.{key} must be of the type of {defaults[key]!r}, "
                           f"got {json.dumps(value)}")
    merged = copy.deepcopy(defaults)
    merged.update(given)
    return merged


class Run(NamedTuple):
    """A checked run config and the objects it describes."""

    cfg: dict  # the effective config, echoed as config.json
    task: object  # an instance of a `tasks.TASKS` class
    train: TrainConfig
    gen: Generator  # untrained, seeded from the run seed
    disc: Discriminator
    eval: EvalConfig


@contextlib.contextmanager
def _invalid(section: str):
    """Report a ValueError raised inside as `invalid-config`, naming the section."""
    try:
        yield
    except ValueError as e:
        raise CliError("invalid-config", f"{section}: {e}") from None


def load_config(path, seed_override=None, out_override=None) -> Run:
    """Parse, validate and complete a run config, and build what it describes."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise CliError("missing-file", f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise CliError("invalid-config", f"config does not parse: {e}") from None
    if not isinstance(raw, dict):
        raise CliError("invalid-config", "config must be a JSON object")

    sections = ("task", "model", "train", "loss", "eval")
    for name in sections:
        if not isinstance(raw.get(name, {}), dict):
            raise CliError("invalid-config", f"section {name!r} must be a JSON object")
    top = {k: v for k, v in raw.items() if k not in sections}
    if seed_override is not None:
        top["seed"] = seed_override
    if out_override is not None:
        top["out_dir"] = out_override
    cfg = _merge_section("top level", top, RUN_DEFAULTS)
    if cfg["seed"] < 0:
        raise CliError("invalid-config", f"seed must be non-negative, got {cfg['seed']}")

    task_type = raw.get("task", {}).get("type", "gauss_modes")
    if not isinstance(task_type, str) or task_type not in TASK_DEFAULTS:
        raise CliError("invalid-config", f"unknown task type {task_type!r}")
    formulation = raw.get("loss", {}).get("formulation", LOSS_DEFAULTS["formulation"])
    if not isinstance(formulation, str) or formulation not in FORMULATIONS:
        raise CliError("invalid-config", f"unknown loss formulation {formulation!r}")
    defaults = {"task": TASK_DEFAULTS[task_type], "model": MODEL_DEFAULTS,
                "train": TRAIN_DEFAULTS, "eval": EVAL_DEFAULTS,
                "loss": dict(LOSS_DEFAULTS, lambdas=DEFAULT_LAMBDAS[formulation])}
    for name in sections:
        cfg[name] = _merge_section(name, raw.get(name, {}), defaults[name])

    with _invalid("task"):
        task = task_from_dict({k: v for k, v in cfg["task"].items() if k != "n_samples"})
        if cfg["task"]["n_samples"] < 2:
            raise ValueError(f"n_samples must be at least 2, got {cfg['task']['n_samples']}")
    with _invalid("loss"):
        loss = LossSpec(**cfg["loss"])
    with _invalid("train"):
        tc = TrainConfig(**cfg["train"], seed=cfg["seed"], loss=loss)
    m = cfg["model"]
    with _invalid("model"):
        # the output layer is linear; the key stays while bench/workloads.py sets it
        if (activation := m["gen_output_activation"]) != "identity":
            raise ValueError(f"gen_output_activation must be 'identity', got {activation!r}")
        gen = Generator.build(task.dim_x, task.dim_y, hidden=tuple(m["gen_hidden"]),
                              noise_dim=m["noise_dim"], seed=cfg["seed"] * 2 + 1)
        disc = Discriminator.build(task.dim_x, task.dim_y, hidden=tuple(m["disc_hidden"]),
                                   seed=cfg["seed"] * 2 + 2)
    with _invalid("eval"):
        ev = EvalConfig(**cfg["eval"])
    return Run(cfg, task, tc, gen, disc, ev)


def write_json(obj, path) -> None:
    with _atomic_open(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_run_dataset(run: Run):
    """The run's dataset, which must have the task's widths, its label column or
    none, and a `dataset.json` that records the configured task dict.
    """
    path, task = os.path.join(run.cfg["out_dir"], "dataset.csv"), run.task
    if not os.path.exists(path):
        raise CliError("missing-file", f"dataset not found: {path} (run gen-data first)")
    record_path = os.path.join(run.cfg["out_dir"], "dataset.json")
    try:
        with open(record_path) as fh:
            recorded = json.load(fh)["task"]
    except FileNotFoundError:
        raise CliError("missing-file",
                       f"dataset record not found: {record_path} (run gen-data first)") from None
    except (ValueError, TypeError, KeyError):  # a record that names no task
        recorded = None
    ds = load_dataset_csv(path)
    if ds.xs.shape[1] != task.dim_x or ds.ys.shape[1] != task.dim_y:
        raise CliError("task-mismatch",
                       f"dataset dims ({ds.xs.shape[1]},{ds.ys.shape[1]}) do not match "
                       f"task ({task.dim_x},{task.dim_y})")
    if (ds.labels is not None) != isinstance(task, GaussModesTask):
        raise CliError("task-mismatch",
                       f"dataset {'has' if ds.labels is not None else 'lacks'} a label "
                       f"column, unlike a {task.to_dict()['type']} dataset")
    expected = task.to_dict()
    if recorded != expected:
        raise CliError("task-mismatch",
                       f"dataset task {json.dumps(recorded, sort_keys=True)} "
                       f"does not match configured task {json.dumps(expected, sort_keys=True)}")
    return ds


def _load_run_checkpoint(path, run: Run):
    """Load a checkpoint whose task dict and networks' specs are the run's.

    Seed, sample count and output directory are run settings and are not
    compared.
    """
    if not os.path.exists(path):
        raise CliError("missing-file", f"checkpoint not found: {path}")
    try:
        gen, disc, state, meta = load_checkpoint(path)
    except CheckpointError as e:
        raise CliError("bad-checkpoint", str(e)) from None
    expected = run.task.to_dict()
    if meta["task"] != expected:
        raise CliError("task-mismatch",
                       f"checkpoint task {json.dumps(meta['task'], sort_keys=True)} "
                       f"does not match configured task {json.dumps(expected, sort_keys=True)}")
    nets = [[g.spec.to_dict(), g.noise_dim, d.spec.to_dict()]
            for g, d in ((gen, disc), (run.gen, run.disc))]
    if nets[0] != nets[1]:
        raise CliError("task-mismatch",
                       f"checkpoint networks {json.dumps(nets[0])} do not match "
                       f"configured networks {json.dumps(nets[1])}")
    return gen, disc, state, meta


def cmd_gen_data(run: Run) -> None:
    cfg = run.cfg
    save_dataset_csv(sample_dataset(run.task, cfg["task"]["n_samples"], cfg["seed"]),
                     os.path.join(cfg["out_dir"], "dataset.csv"))
    write_json({"task": run.task.to_dict()}, os.path.join(cfg["out_dir"], "dataset.json"))
    write_json(cfg, os.path.join(cfg["out_dir"], "config.json"))


def _require_pairable(ds, ac_mode: str, *sizes: int) -> None:
    """Refuse, before any work, batch sizes at which `ds` admits no a-contrario batch."""
    try:
        for size in sizes:
            _check_pairable(ds, size, ac_mode)
    except ValueError as e:
        raise CliError("invalid-config", str(e)) from None


@contextlib.contextmanager
def _log_kept_on_divergence(path):
    """On a divergence inside, write the log of the steps before it to `path`."""
    try:
        yield
    except TrainingDiverged as e:
        e.log.to_csv(path)
        raise


def cmd_train(run: Run) -> None:
    cfg, tc = run.cfg, run.train
    ds = _load_run_dataset(run)
    _require_pairable(ds, tc.ac_mode, tc.batch_size)
    ckpt_dir = None
    if tc.checkpoint_every > 0:
        ckpt_dir = os.path.join(cfg["out_dir"], "checkpoints")
        os.makedirs(ckpt_dir, exist_ok=True)
    task_dict = run.task.to_dict()
    metrics_path = os.path.join(cfg["out_dir"], "metrics.csv")
    with _log_kept_on_divergence(metrics_path):
        log, state = train(run.gen, run.disc, ds, tc, checkpoint_dir=ckpt_dir, task=task_dict)
    log.to_csv(metrics_path)
    save_checkpoint(run.gen, run.disc, state, tc,
                    os.path.join(cfg["out_dir"], "checkpoint.json"), task=task_dict)
    write_json(cfg, os.path.join(cfg["out_dir"], "config.json"))


def _sha256(path) -> str | None:
    """Hex sha256 of a file's bytes, read in chunks; None if it cannot be read."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    except OSError:
        return None
    return digest.hexdigest()


def _sources_sha256() -> str | None:
    """sha256 over the names and digests of the package's `*.py` files, or None."""
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        names = sorted(n for n in os.listdir(here) if n.endswith(".py"))
    except OSError:  # not a directory, as inside a zip archive
        return None
    files = [[name, _sha256(os.path.join(here, name))] for name in names]
    if any(d is None for _, d in files):
        return None
    return hashlib.sha256(json.dumps(files).encode()).hexdigest()


def _inputs(run: Run, checkpoint_path) -> dict:
    """The `inputs` block of `report.json`: what its numbers were computed from."""
    cfg, out = run.cfg, run.cfg["out_dir"]
    config = json.dumps({k: v for k, v in cfg.items() if k != "out_dir"}, sort_keys=True)
    return {
        "config_sha256": hashlib.sha256(config.encode()).hexdigest(),
        "dataset_csv_sha256": _sha256(os.path.join(out, "dataset.csv")),
        "dataset_json_sha256": _sha256(os.path.join(out, "dataset.json")),
        "checkpoint_sha256": _sha256(checkpoint_path),
        "sources_sha256": _sources_sha256(),
        "numpy_version": np.__version__,
    }


def _reported_ndb(run: Run, inputs: dict) -> dict | None:
    """The `ndb` block of the run's `report.json` if that report records `inputs`."""
    if any(v is None for v in inputs.values()):
        return None
    try:
        with open(os.path.join(run.cfg["out_dir"], "report.json")) as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(report, dict) or report.get("inputs") != inputs:
        return None
    ndb = report.get("ndb")
    return ndb if isinstance(ndb, dict) else None


def cmd_eval_conditionality(run: Run, checkpoint_path) -> None:
    out, ev = run.cfg["out_dir"], run.eval
    inputs = _inputs(run, checkpoint_path)
    ds = _load_run_dataset(run)
    _require_pairable(ds, run.train.ac_mode, run.train.batch_size, ev.n_eval)
    with _invalid("eval"):  # before any work, what `generator_ndb` would refuse later
        check_ndb_settings(ds.ys, len(ds), ev.ndb_k)
    gen, disc, _, _ = _load_run_checkpoint(checkpoint_path, run)
    phase_path = os.path.join(out, "phase_metrics.csv")
    with _log_kept_on_divergence(phase_path):
        report, hist, phase_log = evaluate(gen, disc, ds, run.task, run.train, ev)
    phase_log.to_csv(phase_path)
    write_histogram_csv(hist, os.path.join(out, "histogram.csv"))
    write_json(dict(report, inputs=inputs), os.path.join(out, "report.json"))


def cmd_ndb(run: Run, checkpoint_path) -> None:
    ndb = _reported_ndb(run, _inputs(run, checkpoint_path))
    if ndb is None:
        ds = _load_run_dataset(run)
        with _invalid("eval"):
            check_ndb_settings(ds.ys, len(ds), run.eval.ndb_k)
        gen, _, _, _ = _load_run_checkpoint(checkpoint_path, run)
        ndb = generator_ndb(gen, ds, run.eval, run.train.seed).to_dict()
    write_json(ndb, os.path.join(run.cfg["out_dir"], "ndb.json"))


def _run_json(path):
    """The JSON document of a run file; one that does not parse is `bad-report`."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as e:
            raise CliError("bad-report", f"{path}: {e}") from None


def _run_field(path, doc, dotted: str, like, nullable: bool = False):
    """The value at the key path `dotted` (keys joined by dots) of a run file's `doc`.

    It must have the type of `like` (as `_fits` reads it), or be null if
    `nullable`; a nullable field also reads null where the path meets a
    null. A missing key or a value of another type is `bad-report`.
    """
    value = doc
    for key in dotted.split("."):
        if value is None and nullable:
            return None
        if not isinstance(value, dict) or key not in value:
            raise CliError("bad-report", f"{path}: missing {dotted}")
        value = value[key]
    if not (value is None and nullable or _fits(value, like)):
        raise CliError("bad-report", f"{path}: {dotted} must be of the type of {like!r}, "
                                     f"got {json.dumps(value)}")
    return value


def _sign_test(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of `wins` against `losses` (ties left out)."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def cmd_report(run_dir) -> None:
    """Consolidate per-run reports into a baseline vs a-contrario summary.

    The verdict is threshold-free: each run's `auroc.real_ac` (near 0.5
    when the discriminator ignores the condition), compared by group
    median (`acontrario_auroc_real_ac_higher`) and by an exact sign test
    over the seeds that hold exactly one run of each group
    (`auroc_real_ac_sign_test`: a win is a higher a-contrario AUROC).
    """
    if not os.path.isdir(run_dir):
        raise CliError("missing-file", f"run directory not found: {run_dir}")
    runs = []
    for name in sorted(os.listdir(run_dir)):
        sub = os.path.join(run_dir, name)
        report_path = os.path.join(sub, "report.json")
        config_path = os.path.join(sub, "config.json")
        if not (os.path.isfile(report_path) and os.path.isfile(config_path)):
            continue
        report, run_cfg = _run_json(report_path), _run_json(config_path)
        formulation = _run_field(config_path, run_cfg, "loss.formulation", "")
        if formulation not in FORMULATIONS:
            raise CliError("bad-report", f"{config_path}: unknown loss.formulation "
                                         f"{json.dumps(formulation)}")
        runs.append({
            "name": name,
            "formulation": formulation,
            "seed": _run_field(config_path, run_cfg, "seed", 0),
            "oracle_accuracy": _run_field(report_path, report, "oracle_accuracy", 0.0,
                                          nullable=True),
            "ndb_over_k": _run_field(report_path, report, "ndb.ndb_over_k", 0.0, nullable=True),
            "auroc_real_ac": _run_field(report_path, report, "auroc.real_ac", 0.0),
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
            "median_oracle_accuracy": med(rows, "oracle_accuracy"),
            "median_auroc_real_ac": med(rows, "auroc_real_ac"),
        }
    base, ac = summary["baseline"], summary["acontrario"]
    paired = []  # (baseline, a-contrario) auroc.real_ac of each seed with one run of each
    for seed in sorted({r["seed"] for r in runs}):
        b, a = ([r["auroc_real_ac"] for r in groups[g] if r["seed"] == seed]
                for g in ("baseline", "acontrario"))
        if len(b) == len(a) == 1:
            paired.append((b[0], a[0]))
    wins = sum(a > b for b, a in paired)
    losses = sum(a < b for b, a in paired)
    summary["comparison"] = {
        "acontrario_auroc_real_ac_higher":
            ac["median_auroc_real_ac"] > base["median_auroc_real_ac"],
        "auroc_real_ac_sign_test": {"seeds": len(paired), "wins": wins, "losses": losses,
                                    "ties": len(paired) - wins - losses,
                                    "p_value": _sign_test(wins, losses)},
        "oracle_accuracy_delta":
            None if ac["median_oracle_accuracy"] is None
            or base["median_oracle_accuracy"] is None
            else ac["median_oracle_accuracy"] - base["median_oracle_accuracy"],
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
    _keep_freed_memory()
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            cmd_report(args.run_dir)
        else:
            run = load_config(args.config, seed_override=args.seed, out_override=args.out)
            os.makedirs(run.cfg["out_dir"], exist_ok=True)
            if args.command == "gen-data":
                cmd_gen_data(run)
            elif args.command == "train":
                cmd_train(run)
            elif args.command == "eval-conditionality":
                cmd_eval_conditionality(run, args.checkpoint)
            elif args.command == "ndb":
                cmd_ndb(run, args.checkpoint)
    except CliError as e:
        print(f"error: {e.kind}: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
