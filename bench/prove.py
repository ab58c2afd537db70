"""Run the benchmark over several seeds and record its spread and baseline.

    python3 bench/prove.py --seeds 1-10 [--workloads modes8-ac,...] [--out FILE]

For each workload, runs `bench/run.py --trace 0` once per seed (one at a
time) and, for each end-to-end metric, reports the median of the per-run
values, their quartiles (`statistics.quantiles(values, n=4)`) and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
The table and every run's values are written to FILE (default
bench/baseline.json). Each workload carries the provenance of its first
run and the config sha256 of every seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec: dict, workload: str, seed: int) -> tuple[dict, dict]:
    argv = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    provenance = next(json.loads(line.partition(" ")[2]) for line in lines
                      if line.startswith("provenance "))
    return json.loads(lines[-1]), provenance


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    p.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    table = {}
    for workload in names:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        provenances = []
        for seed in seeds:
            result, provenance = run_once(spec, workload, seed)
            provenances.append(provenance)
            if not result["correct"] or result["failed"]:
                raise RuntimeError(f"{workload} seed {seed}: {result}")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.4f}" for k, v in values.items()), flush=True)
        table[workload] = {"provenance": provenances[0], "metrics": {},
                           "config_sha256": [p["config_sha256"] for p in provenances]}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            table[workload]["metrics"][m["name"]] = {
                "median": statistics.median(vals), "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(vals), "bound": m["bound"],
                "unit": m["unit"], "values": vals,
            }

    print(f"\n{'workload':22s} {'metric':12s} {'median':>10s} {'spread':>8s} {'bound/3':>8s}")
    for workload, rows in table.items():
        for name, row in rows["metrics"].items():
            flag = "" if row["spread"] < row["bound"] / 3 else "  <-- wide"
            print(f"{workload:22s} {name:12s} {row['median']:10.4f} {row['spread']:8.4f} "
                  f"{row['bound'] / 3:8.4f}{flag}")
    doc = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": table}
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
