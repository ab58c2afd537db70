"""Synthetic conditional tasks with built-in ground truth.

GaussModesTask: one-hot label -> 2-D point near one of K Gaussian modes
on a circle; the nearest-centroid oracle is near-exact because the modes
are kept at least 4 sigma apart. CondRegressionTask: a fixed random
tanh map with additive noise, evaluated against its noiseless version.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

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

_HELD_OUT_STREAM = 0x0E  # decorrelates `regression_error`'s draw from `sample_dataset`'s


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


def _nearest_centroid(points: np.ndarray, centroids: np.ndarray,
                     buffers: tuple[np.ndarray, np.ndarray] | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Index of each point's nearest centroid, and its squared distance.

    The index equals ``argmin`` over the squared distances
    ``((points[:, None] - centroids[None]) ** 2).sum(-1)``: the lowest
    index among equal distances, or the first NaN in a row that has one,
    which takes a slower path. The distances are
    those of that table bit for bit up to 7 coordinates (numpy sums so
    short an axis in order). They are accumulated one coordinate at a time
    into a (k, n) table, so each ufunc runs over n contiguous elements, not
    over k-wide rows. `buffers` are two (k, n) float arrays to compute in,
    for a caller that calls again at the same shape.
    """
    n, d = points.shape
    if d != centroids.shape[1]:
        raise ValueError(f"points have {d} coordinates, centroids {centroids.shape[1]}")
    dist, scratch = buffers if buffers is not None else (
        np.empty((centroids.shape[0], n)), np.empty((centroids.shape[0], n)))
    columns = np.ascontiguousarray(points.T)
    np.square(np.subtract(columns[0], centroids[:, 0, None], out=dist), out=dist)
    for c in range(1, d):
        np.square(np.subtract(columns[c], centroids[:, c, None], out=scratch), out=scratch)
        dist += scratch
    nearest = dist.min(axis=0)
    if np.isnan(nearest).any():
        return dist.argmin(axis=0), nearest  # argmin's rule: the first NaN wins
    return (dist == nearest).argmax(axis=0), nearest


def oracle_classify(task: GaussModesTask, ys: np.ndarray) -> np.ndarray:
    """Nearest-centroid labels; ties resolve to the lowest label index."""
    if not isinstance(task, GaussModesTask):
        raise TypeError("oracle_classify requires a GaussModesTask")
    ys = np.atleast_2d(np.asarray(ys, dtype=np.float64))
    return _nearest_centroid(ys, task.centers())[0]


def regression_metrics(pred: np.ndarray, target: np.ndarray) -> dict:
    """rmse and nrmse between prediction and target arrays.

    nrmse is rmse over the rmse of predicting each target column's mean,
    so 1.0 is no better than the mean; it is None when the target has no
    spread.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    rmse = float(np.sqrt(np.mean((pred - target) ** 2)))
    spread = float(np.sqrt(np.mean((target - target.mean(axis=0)) ** 2)))
    return {"rmse": rmse, "nrmse": rmse / spread if spread > 0 else None}


def regression_error(task: CondRegressionTask, gen: Generator, n_eval: int,
                     seed: int = 0) -> dict:
    """Generator error against the noiseless map on a fresh condition draw.

    The conditions (then the generator's noise) come from a stream of their
    own, not `sample_dataset`'s, so they are not the dataset's first rows.
    """
    if not isinstance(task, CondRegressionTask):
        raise TypeError("regression_error requires a CondRegressionTask")
    rng = np.random.default_rng([seed, _HELD_OUT_STREAM])
    xs = rng.standard_normal((n_eval, task.dim_x))
    return regression_metrics(gen_forward(gen, xs, rng, cache=False)[0], task.clean_map(xs))
