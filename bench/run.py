"""cganlab benchmark: the time a user pays for one conditionality report.

    python3 bench/run.py --workload modes8-ac --seed 1 --seconds 40 --trace 0

A pass runs the CLI pipeline gen-data -> train -> eval-conditionality ->
ndb, each stage as its own child process started as a user starts it
(`python -m cganlab.cli <stage> --config ...`), one stage at a time, with
BLAS limited to 2 threads. Every stage invocation is an operation: it
fails on a nonzero exit or a failed output check.

--trace 0 runs one pass, then keeps invoking stages in pipeline order
while each still fits in --seconds, and reports the end-to-end metrics as
per-stage medians. --trace 1 alternates untraced and traced passes (a
traced pass launches each stage through bench/tracer.py) and reports the
per-layer metrics as medians over traced passes. The last stdout line is
the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import layers
from workloads import STAGES, WORKLOADS, make_config

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"

BLAS_THREADS = "2"
# every run must exit within 180 s, whatever --seconds says
HARD_LIMIT_S = 170.0

STAGE_METRIC = {"gen-data": "setup_s", "train": "train_s",
                "eval-conditionality": "eval_s", "ndb": "ndb_s"}
# after the first pass: gen-data is the cheapest stage and its median is
# setup_s, so it runs twice per cycle and gets about twice the samples of
# the others, spread over the whole run
REPEAT_ORDER = ("gen-data", "train", "gen-data", "eval-conditionality", "ndb")
END_TO_END = [("setup_s", "s"), ("train_s", "s"), ("eval_s", "s"), ("ndb_s", "s"),
              ("pipeline_s", "s"), ("peak_rss_mb", "MB")]

PROBE = r"""
import ctypes, glob, json, os, platform
import numpy, scipy
import cganlab.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
for path in glob.glob(libs):
    get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
    if get is not None:
        get.restype = ctypes.c_int
        threads = get()
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"), "blas_threads": threads}))
"""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(argv: list[str], log_path: Path, deadline: float) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, peak RSS in MB).

    The child is killed at `deadline` (time.monotonic); its resource usage
    comes from wait4, so peak RSS is the child's own.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Pipeline:
    """One workload at one seed: its config, its output directory, its stages."""

    def __init__(self, workload: str, seed: int, run_dir: Path, deadline: float,
                 tiny: bool = False):
        self.workload = workload
        self.oracle_floor = None if tiny else WORKLOADS[workload]["oracle_floor"]
        self.deadline = deadline
        # out_dir is overridden with --out, so the config bytes depend on
        # the workload and seed only
        self.cfg = make_config(workload, seed, "bench-out", tiny=tiny)
        self.config_path = run_dir / "config.json"
        self.config_bytes = (json.dumps(self.cfg, sort_keys=True, indent=2) + "\n").encode()
        self.config_path.write_bytes(self.config_bytes)
        self.out_dir = run_dir / "out"
        self.out_dir.mkdir()

    def stage_argv(self, stage: str, spans: Path | None) -> list[str]:
        args = [stage, "--config", str(self.config_path), "--out", str(self.out_dir)]
        if stage in ("eval-conditionality", "ndb"):
            args += ["--checkpoint", str(self.out_dir / "checkpoint.json")]
        if spans is None:
            return [sys.executable, "-m", "cganlab.cli", *args]
        return [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), *args]

    def run_stage(self, stage: str, traced: bool = False) -> dict:
        """One stage invocation, timed from outside, then its output checks.

        Re-running a stage rewrites the same outputs, because config and
        seed are fixed, so any stage can run again once a pass has run.
        """
        spans = self.out_dir / f"spans-{stage}.json" if traced else None
        log = self.out_dir / f"{stage}.log"
        code, wall, rss = run_child(self.stage_argv(stage, spans), log, self.deadline)
        observed: dict = {}
        problems = checks.stage_problems(stage, code, str(self.out_dir), self.cfg, str(ROOT),
                                         observed, self.oracle_floor)
        op = {"stage": stage, "traced": traced, "wall_s": wall, "rss_mb": rss,
              "problems": problems, "observed": observed}
        if traced and not problems:
            if spans.is_file():
                op["spans"] = json.loads(spans.read_text())
            else:
                problems.append("span file missing")
        if problems:
            tail = log.read_text(errors="replace")[-2000:]
            print(f"[{self.workload}] {stage} failed: {problems}\n{tail}", file=sys.stderr)
        return op

    def run_pass(self, traced: bool) -> tuple[list[dict], dict | None]:
        """One pass of the four stages in order, stopping at the first failure.

        Returns the stage invocations and, for a complete pass, its wall
        time (plus the per-layer metrics when traced); None after a failure.
        """
        ops = []
        for stage in STAGES:
            ops.append(self.run_stage(stage, traced))
            if ops[-1]["problems"]:
                return ops, None
        summary = {"wall_s": sum(op["wall_s"] for op in ops)}
        if traced:
            docs = {op["stage"]: op.pop("spans") for op in ops}
            summary["layers"], summary["tails"] = layers.pass_metrics(docs)
        return ops, summary


def measure_end_to_end(pipeline: Pipeline, seconds: float) -> list[dict]:
    """Stage invocations in `REPEAT_ORDER` until no stage fits in `seconds`.

    The first pass runs every stage. After it a stage starts only if its
    median time so far still fits, so the end of the budget goes to the
    cheaper stages instead of idling; each stage gets at least one sample.
    """
    t0 = time.monotonic()
    ops, complete = pipeline.run_pass(traced=False)
    if complete is None:
        return ops
    walls = {op["stage"]: [op["wall_s"]] for op in ops}
    idle, turn = 0, 0
    while idle < len(REPEAT_ORDER):
        stage = REPEAT_ORDER[turn % len(REPEAT_ORDER)]
        turn += 1
        now = time.monotonic()
        if (now - t0 + statistics.median(walls[stage]) > seconds
                or now + max(walls[stage]) > pipeline.deadline):
            idle += 1
            continue
        idle = 0
        ops.append(pipeline.run_stage(stage))
        if ops[-1]["problems"]:
            break
        walls[stage].append(ops[-1]["wall_s"])
    return ops


def measure_layers(pipeline: Pipeline, seconds: float):
    """Alternate an untraced and a traced pass until the next pair would overrun.

    Returns (stage invocations, traced pass summaries, untraced pass wall times).
    """
    ops, traced, plain_walls, cycles = [], [], [], []
    t0 = time.monotonic()
    while True:
        t_cycle = time.monotonic()
        plain_ops, plain = pipeline.run_pass(traced=False)
        ops += plain_ops
        if plain is None:
            break
        traced_ops, summary = pipeline.run_pass(traced=True)
        ops += traced_ops
        if summary is None:
            break
        plain_walls.append(plain["wall_s"])
        traced.append(summary)
        cycles.append(time.monotonic() - t_cycle)
        now = time.monotonic()
        if (now - t0 + statistics.median(cycles) > seconds
                or now + max(cycles) > pipeline.deadline):
            break
    return ops, traced, plain_walls


def git_provenance() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if head.returncode != 0:
            return {"commit": None, "dirty": None}
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def probe(run_dir: Path, deadline: float) -> dict | None:
    """Import the program once in a child: warms the bytecode cache and reads
    the versions it runs with. None when the program cannot be imported."""
    code, _, _ = run_child([sys.executable, "-c", PROBE], run_dir / "probe.log", deadline)
    if code != 0:
        return None
    return json.loads((run_dir / "probe.log").read_text().strip().splitlines()[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(ops: list[dict]) -> tuple[dict, dict]:
    """Medians over untraced invocations; returns (metrics, samples per stage metric)."""
    samples = {metric: [op["wall_s"] for op in ops
                        if op["stage"] == stage and not op["traced"] and not op["problems"]]
               for stage, metric in STAGE_METRIC.items()}
    metrics = {metric: _median(values) for metric, values in samples.items()}
    metrics["pipeline_s"] = sum(metrics[m] for m in STAGE_METRIC.values())
    metrics["peak_rss_mb"] = max(
        _median([op["rss_mb"] for op in ops if op["stage"] == stage and not op["traced"]
                 and not op["problems"]]) for stage in STAGES)
    return {name: metrics[name] for name, _ in END_TO_END}, samples


def layer_metrics(traced: list[dict], plain_walls: list[float]) -> tuple[dict, dict]:
    """Medians over traced passes; returns (metrics, tail percentile of each tail metric)."""
    out = {name: _median([t["layers"][name] for t in traced if name in t["layers"]])
           for name, _ in layers.PER_LAYER}
    untraced_s = _median(plain_walls)
    traced_s = _median([t["wall_s"] for t in traced])
    out["trace.overhead_share"] = traced_s / untraced_s - 1.0 if untraced_s else 0.0
    return out, traced[0]["tails"] if traced else {}


def report(args, ops: list[dict], traced: list[dict] | None,
           plain_walls: list[float] | None, provenance: dict) -> tuple[dict, bool]:
    """Print the human-readable report; return (result object, correct).

    With args.trace the metrics are the per-layer ones from `traced`
    passes; otherwise the end-to-end ones from the untraced invocations.
    """
    failed = sum(1 for op in ops if op["problems"])
    untraced_stages = {op["stage"] for op in ops if not op["traced"] and not op["problems"]}
    correct = (failed == 0 and untraced_stages == set(STAGES)
               and (bool(traced) or not args.trace))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{len(ops)} stage invocations, {len(traced or [])} traced passes")
    if args.trace:
        metrics, tails = layer_metrics(traced or [], plain_walls or [])
        units = dict(layers.PER_LAYER)
        for name, value in metrics.items():
            note = f"  (p{tails[name]})" if tails.get(name) else ""
            print(f"  {name:45s} {value:14.6f} {units[name]}{note}")
    else:
        metrics, samples = end_to_end_metrics(ops)
        units = dict(END_TO_END)
        for name, value in metrics.items():
            values = samples.get(name)
            seen = (f"median of {len(values)}; min {min(values):.4f}, max {max(values):.4f}"
                    if values else "sum of the stage medians" if name == "pipeline_s"
                    else "largest stage median")
            print(f"  {name:12s} {value:10.4f} {units[name]:5s} ({seen})")
    print(f"  {'error_rate':12s} {failed / max(1, len(ops)):10.4f} share "
          f"({failed} failed of {len(ops)} stage invocations)")
    observed = [op["observed"] for op in ops if op["observed"]]
    print("outputs " + json.dumps(observed, sort_keys=True))
    print("provenance " + json.dumps(provenance, sort_keys=True))
    result = {"correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return result, correct


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measurement budget; no stage starts that would overrun it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    t_start = time.monotonic()
    args = parse_args(argv)
    deadline = t_start + HARD_LIMIT_S
    if not (ROOT / "src" / "cganlab" / "cli.py").is_file():
        print(f"error: program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = WORK_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        versions = probe(run_dir, deadline)
        if versions is None:
            print("error: the program does not import; see "
                  + (run_dir / "probe.log").read_text(errors="replace"), file=sys.stderr)
            return 2
        pipeline = Pipeline(args.workload, args.seed, run_dir, deadline)
        provenance = {**versions, **git_provenance(), "nproc": os.cpu_count(),
                      "workload": args.workload, "seed": args.seed,
                      "config_sha256": hashlib.sha256(pipeline.config_bytes).hexdigest()}

        if args.trace:
            ops, traced, plain_walls = measure_layers(pipeline, args.seconds)
        else:
            ops, traced, plain_walls = measure_end_to_end(pipeline, args.seconds), None, None
        result, correct = report(args, ops, traced, plain_walls, provenance)
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
