"""Output checks of each CLI stage.

A check returns a list of problems; an empty list means the stage's
outputs are sound. Values are checked against ranges and invariants, not
pinned bit-exact, so a change that only reorders floating-point sums
still passes. The values worth watching for drift (final `d_total`,
oracle accuracy) are returned in `observed` for the run's report.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys

from workloads import expected_steps, task_dims

PAIRINGS = ("real_cond", "gen_cond", "real_ac", "gen_ac")


def _load_checkpoint_fn(root: str):
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from cganlab.trainer import load_checkpoint

    return load_checkpoint


def _finite_in_unit(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0


def check_dataset(out_dir, cfg, root, observed, oracle_floor) -> list[str]:
    path = os.path.join(out_dir, "dataset.csv")
    if not os.path.isfile(path):
        return ["dataset.csv missing"]
    dim_x, dim_y = task_dims(cfg)
    header = [f"x_{i}" for i in range(dim_x)] + [f"y_{i}" for i in range(dim_y)]
    if cfg["task"]["type"] == "gauss_modes":
        header.append("label")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    problems = []
    if not rows or rows[0] != header:
        problems.append(f"dataset.csv header {rows[0] if rows else None} != {header}")
    n = cfg["task"]["n_samples"]
    if len(rows) - 1 != n:
        problems.append(f"dataset.csv has {len(rows) - 1} rows, expected {n}")
    if any(len(r) != len(header) for r in rows[1:]):
        problems.append("dataset.csv has rows of the wrong width")
    return problems


def check_train(out_dir, cfg, root, observed, oracle_floor) -> list[str]:
    problems = []
    steps = expected_steps(cfg)
    path = os.path.join(out_dir, "metrics.csv")
    if not os.path.isfile(path):
        return ["metrics.csv missing"]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:1] != ["step"] or "d_total" not in rows[0]:
        return [f"metrics.csv header unexpected: {rows[0] if rows else None}"]
    body = rows[1:]
    if len(body) != steps:
        problems.append(f"metrics.csv has {len(body)} rows, expected {steps}")
    if [r[0] for r in body] != [str(i) for i in range(1, len(body) + 1)]:
        problems.append("metrics.csv steps are not 1..N")
    try:
        values = [float(c) for r in body for c in r]
    except ValueError as e:
        problems.append(f"metrics.csv has a non-numeric cell: {e}")
        values = []
    if any(len(r) != len(rows[0]) for r in body) or not all(map(math.isfinite, values)):
        problems.append("metrics.csv has a short or non-finite row")
    elif body:
        observed["final_d_total"] = float(body[-1][rows[0].index("d_total")])

    ckpt = os.path.join(out_dir, "checkpoint.json")
    if not os.path.isfile(ckpt):
        return problems + ["checkpoint.json missing"]
    try:
        gen, disc, state, _ = _load_checkpoint_fn(root)(ckpt)
    except (ValueError, KeyError, TypeError) as e:
        return problems + [f"checkpoint.json does not reload: {e}"]
    dim_x, dim_y = task_dims(cfg)
    noise = cfg["model"]["noise_dim"]
    if (gen.spec.widths[0] != dim_x + noise or gen.spec.widths[-1] != dim_y
            or disc.spec.widths[0] != dim_x + dim_y or disc.spec.widths[-1] != 1):
        problems.append(f"checkpoint widths {gen.spec.widths}/{disc.spec.widths} "
                        f"do not fit task dims ({dim_x},{dim_y})")
    if state.step != steps:
        problems.append(f"checkpoint step {state.step}, expected {steps}")
    every = cfg["train"]["checkpoint_every"]
    if every > 0:
        for step in range(every, steps + 1, every):
            if not os.path.isfile(os.path.join(out_dir, "checkpoints",
                                               f"step_{step:08d}.json")):
                problems.append(f"mid-run checkpoint at step {step} missing")
    return problems


def check_eval(out_dir, cfg, root, observed, oracle_floor) -> list[str]:
    problems = []
    path = os.path.join(out_dir, "report.json")
    if not os.path.isfile(path):
        return ["report.json missing"]
    with open(path) as fh:
        try:
            report = json.load(fh)
        except json.JSONDecodeError as e:
            return [f"report.json does not parse: {e}"]
    rates = report.get("classification_rates") or {}
    if sorted(rates) != sorted(PAIRINGS):
        problems.append(f"report.json pairings {sorted(rates)} != {sorted(PAIRINGS)}")
    bad = [k for k, v in rates.items() if not _finite_in_unit(v)]
    if bad:
        problems.append(f"report.json rates outside [0,1]: {bad}")
    ndb = report.get("ndb") or {}
    if not _finite_in_unit(ndb.get("ndb_over_k")):
        problems.append(f"report.json ndb_over_k {ndb.get('ndb_over_k')!r} outside [0,1]")
    acc = report.get("oracle_accuracy")
    if cfg["task"]["type"] == "gauss_modes":
        if not _finite_in_unit(acc):
            problems.append(f"report.json oracle_accuracy {acc!r} outside [0,1]")
        else:
            observed["oracle_accuracy"] = acc
            if oracle_floor is not None and acc < oracle_floor:
                problems.append(f"oracle accuracy {acc} below floor {oracle_floor}")
    elif acc is not None:
        problems.append("report.json has an oracle accuracy for a task without oracle")

    hist = os.path.join(out_dir, "histogram.csv")
    if not os.path.isfile(hist):
        return problems + ["histogram.csv missing"]
    with open(hist, newline="") as fh:
        rows = list(csv.DictReader(fh))
    n_eval = cfg["eval"]["n_eval"]
    for name in PAIRINGS:
        try:
            total = sum(int(r[f"count_{name}"]) for r in rows)
        except (KeyError, ValueError, TypeError):
            problems.append(f"histogram.csv column count_{name} missing or malformed")
            continue
        if total != n_eval:
            problems.append(f"histogram.csv count_{name} sums to {total}, expected {n_eval}")
    return problems


def check_ndb(out_dir, cfg, root, observed, oracle_floor) -> list[str]:
    path = os.path.join(out_dir, "ndb.json")
    if not os.path.isfile(path):
        return ["ndb.json missing"]
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            return [f"ndb.json does not parse: {e}"]
    problems = []
    bins = doc.get("per_bin") or []
    if len(bins) != cfg["eval"]["ndb_k"]:
        problems.append(f"ndb.json has {len(bins)} bins, expected {cfg['eval']['ndb_k']}")
    for key in ("real_proportion", "gen_proportion"):
        try:
            total = math.fsum(b[key] for b in bins)
        except (KeyError, TypeError):
            problems.append(f"ndb.json bins lack {key}")
            continue
        if not abs(total - 1.0) <= 1e-9:
            problems.append(f"ndb.json {key} sums to {total}")
    if not _finite_in_unit(doc.get("ndb_over_k")):
        problems.append(f"ndb.json ndb_over_k {doc.get('ndb_over_k')!r} outside [0,1]")
    return problems


CHECKS = {
    "gen-data": check_dataset,
    "train": check_train,
    "eval-conditionality": check_eval,
    "ndb": check_ndb,
}


def stage_problems(stage, returncode, out_dir, cfg, root, observed,
                   oracle_floor=None) -> list[str]:
    """Why one stage invocation failed; empty when it succeeded.

    A stage fails on a nonzero exit or on any failed output check.
    """
    if returncode != 0:
        return [f"exit code {returncode}"]
    return CHECKS[stage](out_dir, cfg, root, observed, oracle_floor)
