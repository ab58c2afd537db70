"""The benchmark's own tests, on tiny variants of every workload.

    python3 -m pytest -q bench/selftest.py

They start real CLI stages (about a minute in all), so they are kept
out of the repository's default test collection. Timings are never
asserted; only metric names, units, output checks and exact counts are.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import STAGES, WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def tiny(request, tmp_path_factory):
    """One untraced and two traced passes of a tiny workload, outputs kept."""
    workload = request.param
    pipeline = run.Pipeline(workload, 3, tmp_path_factory.mktemp(workload),
                            time.monotonic() + 170, tiny=True)
    plain_ops, plain = pipeline.run_pass(traced=False)
    traced_ops1, traced1 = pipeline.run_pass(traced=True)
    traced_ops2, traced2 = pipeline.run_pass(traced=True)
    return {"workload": workload, "pipeline": pipeline, "plain_ops": plain_ops,
            "plain": plain, "traced_ops": traced_ops1 + traced_ops2,
            "traced": [traced1, traced2]}


def _report(capsys, tiny, trace, ops, traced=None):
    args = argparse.Namespace(workload=tiny["workload"], seed=3, trace=trace)
    result, correct = run.report(args, ops, traced, [tiny["plain"]["wall_s"]], {"test": 1})
    return result, correct, capsys.readouterr().out


def test_passes_complete_and_pass_their_checks(tiny):
    assert tiny["plain"] is not None and None not in tiny["traced"]
    for op in tiny["plain_ops"] + tiny["traced_ops"]:
        assert not op["problems"], op


def test_every_end_to_end_metric_is_emitted_with_its_unit(tiny, capsys):
    result, correct, printed = _report(capsys, tiny, 0, tiny["plain_ops"])
    assert correct and result["failed"] == 0 and result["attempted"] == len(STAGES)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in [*expected, "error_rate"]:
        assert f"  {name} " in printed


def test_every_per_layer_metric_is_emitted_with_its_unit(tiny, capsys):
    ops = tiny["plain_ops"] + tiny["traced_ops"]
    result, correct, _ = _report(capsys, tiny, 1, ops, tiny["traced"])
    assert correct and result["attempted"] == 3 * len(STAGES)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_two_traced_runs_give_identical_counts(tiny):
    first, second = (t["layers"] for t in tiny["traced"])
    for name in layers.COUNT_METRICS:
        assert first[name] == second[name], name
    assert first["nets.disc_forward.calls_per_d_update"] >= 1
    assert first["autodiff.graph_nodes.d_update"] > first["autodiff.graph_nodes.g_update"] > 0
    assert first["trainer.adam_step.calls"] > 0
    if tiny["workload"] == "regress-hinge-ckpt":
        # the hinge generator loss bypasses losses.g_loss: a recorded zero
        assert first["losses.g_loss.calls"] == 0
        assert first["trainer.save_checkpoint.calls"] > 1


def _copy(out_dir: Path, tmp_path: Path) -> Path:
    dst = tmp_path / "copy"
    shutil.copytree(out_dir, dst)
    return dst


def _failed(pipeline, stage, out_dir) -> bool:
    problems = checks.stage_problems(stage, 0, str(out_dir), pipeline.cfg, str(run.ROOT),
                                     {}, pipeline.oracle_floor)
    return bool(problems)


def test_truncated_metrics_csv_is_a_failed_operation(tiny, tmp_path):
    pipeline = tiny["pipeline"]
    out = _copy(pipeline.out_dir, tmp_path)
    assert not _failed(pipeline, "train", out)
    text = (out / "metrics.csv").read_text()
    (out / "metrics.csv").write_text(text[: len(text) // 2])
    assert _failed(pipeline, "train", out)


def test_nan_in_report_is_a_failed_operation(tiny, tmp_path):
    pipeline = tiny["pipeline"]
    out = _copy(pipeline.out_dir, tmp_path)
    assert not _failed(pipeline, "eval-conditionality", out)
    report = json.loads((out / "report.json").read_text())
    report["classification_rates"]["real_ac"] = float("nan")
    (out / "report.json").write_text(json.dumps(report))
    assert _failed(pipeline, "eval-conditionality", out)


def test_a_failed_stage_counts_against_the_run(tiny, capsys):
    broken = dict(tiny["plain_ops"][-1], problems=["ndb.json proportions sum to 0.5"])
    result, correct, _ = _report(capsys, tiny, 0, tiny["plain_ops"] + [broken])
    assert not correct
    assert (result["attempted"], result["failed"]) == (len(STAGES) + 1, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "modes8-ac",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
