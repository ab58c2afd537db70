"""The benchmark's workloads: one complete cganlab config each.

Every config spells out all values the checks depend on, so a change of a
CLI default does not silently change a workload. Why each workload was
chosen is stated in BENCHMARK.json and bench/README.md. The workload seed is a
benchmark argument and is written into the config; the program sees only
the generated config.
"""

from __future__ import annotations

import copy

STAGES = ("gen-data", "train", "eval-conditionality", "ndb")

WORKLOADS = {
    "modes8-ac": {
        "config": {
            "task": {"type": "gauss_modes", "n_modes": 8, "radius": 4.0, "sigma": 0.25,
                     "n_samples": 8000},
            "model": {"gen_hidden": [128, 128], "disc_hidden": [128, 128], "noise_dim": 0,
                      "gen_output_activation": "identity"},
            "train": {"epochs": 4, "batch_size": 64, "d_steps_per_g_step": 1,
                      "checkpoint_every": 0, "ac_mode": "within_batch"},
            "loss": {"formulation": "acontrario", "lambdas": [1.0, 1.0, 1.0, 1.0]},
            "eval": {"n_eval": 4000, "n_bins": 50, "ndb_k": 20, "n_per_label": 1000,
                     "phase_epochs": 1},
        },
        # oracle accuracy was 1.0 on each of seeds 1-30 at this shape (and
        # 0.25-1.0 at 2 epochs); the floor catches a trainer that stopped
        # learning the condition without pinning the value
        "oracle_floor": 0.75,
        "tiny": {"task": {"n_samples": 640}, "model": {"gen_hidden": [16, 16],
                                                       "disc_hidden": [16, 16]},
                 "eval": {"n_eval": 320, "ndb_k": 8, "n_per_label": 50}},
    },
    "regress-hinge-ckpt": {
        "config": {
            "task": {"type": "cond_regression", "dim_x": 4, "dim_y": 2, "noise_std": 0.05,
                     "map_seed": 7, "n_samples": 8000},
            "model": {"gen_hidden": [128, 128], "disc_hidden": [128, 128], "noise_dim": 0,
                      "gen_output_activation": "identity"},
            "train": {"epochs": 1, "batch_size": 16, "d_steps_per_g_step": 2,
                      "checkpoint_every": 250, "ac_mode": "within_batch"},
            "loss": {"formulation": "hinge_acontrario"},
            "eval": {"n_eval": 4000, "n_bins": 50, "ndb_k": 20, "phase_epochs": 1},
        },
        "oracle_floor": None,
        "tiny": {"task": {"n_samples": 320}, "model": {"gen_hidden": [16, 16],
                                                       "disc_hidden": [16, 16]},
                 "train": {"checkpoint_every": 8},
                 "eval": {"n_eval": 160, "ndb_k": 8}},
    },
    "modes32-wide-classic": {
        "config": {
            "task": {"type": "gauss_modes", "n_modes": 32, "radius": 8.0, "sigma": 0.25,
                     "n_samples": 16000},
            "model": {"gen_hidden": [256, 256], "disc_hidden": [256, 256], "noise_dim": 0,
                      "gen_output_activation": "identity"},
            "train": {"epochs": 1, "batch_size": 512, "d_steps_per_g_step": 1,
                      "checkpoint_every": 0, "ac_mode": "outside_batch"},
            "loss": {"formulation": "classic", "lambdas": [1.0, 1.0, 0.0, 0.0]},
            "eval": {"n_eval": 8000, "n_bins": 50, "ndb_k": 20, "n_per_label": 1000,
                     "phase_epochs": 1},
        },
        "oracle_floor": None,
        "tiny": {"task": {"n_samples": 1280}, "model": {"gen_hidden": [16, 16],
                                                        "disc_hidden": [16, 16]},
                 "train": {"batch_size": 128},
                 "eval": {"n_eval": 320, "ndb_k": 8, "n_per_label": 20}},
    },
}


def _overlay(base: dict, patch: dict) -> dict:
    out = copy.deepcopy(base)
    for section, values in patch.items():
        out[section].update(values)
    return out


def make_config(name: str, seed: int, out_dir: str, tiny: bool = False) -> dict:
    """The full CLI config of a workload at a seed."""
    spec = WORKLOADS[name]
    cfg = _overlay(spec["config"], spec["tiny"]) if tiny else copy.deepcopy(spec["config"])
    return {"seed": seed, "out_dir": out_dir, **cfg}


def expected_steps(cfg: dict) -> int:
    """Training steps one `train` stage runs on this config."""
    return cfg["train"]["epochs"] * (cfg["task"]["n_samples"] // cfg["train"]["batch_size"])


def task_dims(cfg: dict) -> tuple[int, int]:
    task = cfg["task"]
    if task["type"] == "gauss_modes":
        return task["n_modes"], 2
    return task["dim_x"], task["dim_y"]
