"""Synthetic conditional tasks with built-in ground truth.

GaussModesTask: one-hot label -> 2-D point near one of K Gaussian modes
on a circle, kept at least 4 sigma apart, so that `evalcond.oracle_classify`
(nearest centroid) labels the data near-exactly. CondRegressionTask: a
fixed random tanh map with additive noise, whose noiseless version
`evalcond.regression_error` scores the generator against.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .pairing import ConditionalDataset


@dataclass(frozen=True)
class GaussModesTask:
    n_modes: int = 8
    radius: float = 4.0
    sigma: float = 0.25

    def __post_init__(self):
        if isinstance(self.n_modes, bool) or not isinstance(self.n_modes, int):
            raise ValueError(f"n_modes must be an int, got {self.n_modes!r}")
        if self.n_modes < 2:
            raise ValueError("need at least 2 modes")
        if not self.sigma >= 0:  # -s would draw what s draws, under another task dict
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        if not 0 < self.radius < np.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        c = self.centers()
        d = np.linalg.norm(c[:, None, :] - c[None, :, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        if d.min() <= 4.0 * self.sigma:
            raise ValueError(
                f"modes overlap: min center distance {d.min():.4f} <= 4*sigma "
                f"{4.0 * self.sigma:.4f}"
            )

    @property
    def dim_x(self) -> int:
        return self.n_modes

    @property
    def dim_y(self) -> int:
        return 2

    def centers(self) -> np.ndarray:
        angles = 2.0 * np.pi * np.arange(self.n_modes) / self.n_modes
        return self.radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)

    def to_dict(self) -> dict:
        return {"type": "gauss_modes", **asdict(self)}


@dataclass(frozen=True)
class CondRegressionTask:
    dim_x: int = 4
    dim_y: int = 2
    noise_std: float = 0.05
    map_seed: int = 7

    def __post_init__(self):
        for key in ("dim_x", "dim_y", "map_seed"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{key} must be an int, got {value!r}")
        if self.dim_x < 1 or self.dim_y < 1:
            raise ValueError(f"dim_x and dim_y must be positive, got {self.dim_x}, {self.dim_y}")
        if self.map_seed < 0:
            raise ValueError(f"map_seed must be non-negative, got {self.map_seed}")
        if not 0 <= self.noise_std < np.inf:
            raise ValueError(f"noise_std must be finite and non-negative, got {self.noise_std}")

    def weights(self) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.map_seed)
        w = rng.normal(0.0, 1.0 / np.sqrt(self.dim_x), size=(self.dim_x, self.dim_y))
        b = rng.normal(0.0, 0.1, size=self.dim_y)
        return w, b

    def clean_map(self, xs: np.ndarray) -> np.ndarray:
        w, b = self.weights()
        return np.tanh(xs @ w + b)

    def to_dict(self) -> dict:
        return {"type": "cond_regression", **asdict(self)}


TASKS = {"gauss_modes": GaussModesTask, "cond_regression": CondRegressionTask}


def task_from_dict(d: dict):
    kind = d.get("type")
    if kind not in TASKS:
        raise ValueError(f"unknown task type {kind!r}")
    return TASKS[kind](**{k: v for k, v in d.items() if k != "type"})


def sample_dataset(task, n: int, seed: int) -> ConditionalDataset:
    """Deterministic dataset draw; stratified over labels for mode tasks."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    rng = np.random.default_rng(seed)
    if isinstance(task, GaussModesTask):
        k = task.n_modes
        # n//k per label, remainder spread over the lowest label indices
        counts = np.full(k, n // k)
        counts[: n % k] += 1
        labels = np.repeat(np.arange(k), counts)
        labels = rng.permutation(labels)
        ys = task.centers()[labels] + task.sigma * rng.standard_normal((n, 2))
        xs = np.eye(k)[labels]
        return ConditionalDataset(xs=xs, ys=ys, labels=labels)
    if isinstance(task, CondRegressionTask):
        xs = rng.standard_normal((n, task.dim_x))
        noise = task.noise_std * rng.standard_normal((n, task.dim_y))
        ys = task.clean_map(xs) + noise
        return ConditionalDataset(xs=xs, ys=ys)
    raise TypeError(f"cannot sample from {type(task).__name__}")
