"""Synthetic conditional tasks with built-in ground truth.

GaussModesTask: one-hot label -> 2-D point near one of K Gaussian modes
on a circle; the nearest-centroid oracle is near-exact because the modes
are kept at least 4 sigma apart. CondRegressionTask: a fixed random
tanh map with additive noise, evaluated against its noiseless version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import Generator, gen_forward
from .pairing import ConditionalDataset


@dataclass(frozen=True)
class GaussModesTask:
    n_modes: int = 8
    radius: float = 4.0
    sigma: float = 0.25

    def __post_init__(self):
        if self.n_modes < 2:
            raise ValueError("need at least 2 modes")
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
        return {"type": "gauss_modes", "n_modes": self.n_modes,
                "radius": self.radius, "sigma": self.sigma}


@dataclass(frozen=True)
class CondRegressionTask:
    dim_x: int = 4
    dim_y: int = 2
    noise_std: float = 0.05
    map_seed: int = 7

    def weights(self) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.map_seed)
        w = rng.normal(0.0, 1.0 / np.sqrt(self.dim_x), size=(self.dim_x, self.dim_y))
        b = rng.normal(0.0, 0.1, size=self.dim_y)
        return w, b

    def clean_map(self, xs: np.ndarray) -> np.ndarray:
        w, b = self.weights()
        return np.tanh(xs @ w + b)

    def to_dict(self) -> dict:
        return {"type": "cond_regression", "dim_x": self.dim_x, "dim_y": self.dim_y,
                "noise_std": self.noise_std, "map_seed": self.map_seed}


def task_from_dict(d: dict):
    kind = d.get("type")
    if kind == "gauss_modes":
        return GaussModesTask(d["n_modes"], d["radius"], d["sigma"])
    if kind == "cond_regression":
        return CondRegressionTask(d["dim_x"], d["dim_y"], d["noise_std"], d["map_seed"])
    raise ValueError(f"unknown task type {kind!r}")


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


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared distances, accumulated one coordinate at a time.

    Equal to ``((points[:, None] - centroids[None]) ** 2).sum(-1)`` bit for
    bit up to 7 coordinates (numpy sums so short an axis in order), without
    the (n, k, d) temporary or a reduction over a tiny axis.
    """
    if points.shape[1] != centroids.shape[1]:
        raise ValueError(
            f"points have {points.shape[1]} coordinates, centroids {centroids.shape[1]}"
        )
    dist = (points[:, 0, None] - centroids[None, :, 0]) ** 2
    for j in range(1, points.shape[1]):
        dist += (points[:, j, None] - centroids[None, :, j]) ** 2
    return dist


def oracle_classify(task: GaussModesTask, ys: np.ndarray) -> np.ndarray:
    """Nearest-centroid labels; ties resolve to the lowest label index."""
    if not isinstance(task, GaussModesTask):
        raise TypeError("oracle_classify requires a GaussModesTask")
    ys = np.atleast_2d(np.asarray(ys, dtype=np.float64))
    return np.argmin(_sq_dists(ys, task.centers()), axis=1)


def regression_metrics(pred: np.ndarray, target: np.ndarray) -> dict:
    """rmse / log-rmse / abs-rel between prediction and target arrays.

    log-rmse is measured in sign(v)*log(1+|v|) space because targets may
    be negative; abs-rel guards the denominator at 1e-3.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    diff = pred - target

    def signed_log(v):
        return np.sign(v) * np.log1p(np.abs(v))

    return {
        "rmse": float(np.sqrt(np.mean(diff**2))),
        "log_rmse": float(np.sqrt(np.mean((signed_log(pred) - signed_log(target)) ** 2))),
        "abs_rel": float(np.mean(np.abs(diff) / np.maximum(np.abs(target), 1e-3))),
    }


def regression_error(task: CondRegressionTask, gen: Generator, n_eval: int,
                     seed: int = 0) -> dict:
    """Generator error against the noiseless map on a fresh condition draw."""
    if not isinstance(task, CondRegressionTask):
        raise TypeError("regression_error requires a CondRegressionTask")
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((n_eval, task.dim_x))
    z = rng.standard_normal((n_eval, gen.noise_dim)) if gen.noise_dim > 0 else None
    pred = gen_forward(gen, xs, z).values
    return regression_metrics(pred, task.clean_map(xs))
