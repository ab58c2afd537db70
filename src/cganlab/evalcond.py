"""Conditionality evaluation on a frozen discriminator.

The central diagnostic is the distribution of the raw logit f(x, y) over
the four pairings: a discriminator that learned conditionality separates
real-conditional from both a-contrario pairings, one that did not scores
real-a-contrario pairs as true. Logits (not probabilities) are binned
because the sigmoid saturates and hides the mode structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .fileio import _atomic_open
from .nets import Discriminator, Generator, disc_forward, gen_forward
from .pairing import ConditionalDataset, assemble_pairings, sample_pair_batch
from .tasks import GaussModesTask, _sq_dists, oracle_classify

PAIRINGS = ("real_cond", "gen_cond", "real_ac", "gen_ac")


@dataclass
class FourWayHistogram:
    bin_edges: np.ndarray
    counts: dict[str, np.ndarray]
    n: dict[str, int]


@dataclass
class ClassificationReport:
    threshold: float
    rates: dict[str, float]  # fraction classified "true" per pairing


@dataclass
class NdbReport:
    k: int
    alpha: float
    real_proportions: np.ndarray
    gen_proportions: np.ndarray
    z_values: np.ndarray
    significant: np.ndarray
    ndb_over_k: float

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "alpha": self.alpha,
            "ndb_over_k": self.ndb_over_k,
            "per_bin": [
                {
                    "real_proportion": float(self.real_proportions[i]),
                    "gen_proportion": float(self.gen_proportions[i]),
                    "z": float(self.z_values[i]),
                    "significant": bool(self.significant[i]),
                }
                for i in range(self.k)
            ],
        }


def collect_logits(disc: Discriminator, gen_or_samples, ds: ConditionalDataset,
                   n_eval: int, seed: int = 0, ac_mode: str = "within_batch") -> dict:
    """Raw logits of the frozen discriminator over the four pairings.

    The a-contrario pairing uses the same derangement sampler as training.
    gen_or_samples is either a Generator or an array of generated rows
    aligned with the dataset.
    """
    if n_eval < 2:
        raise ValueError("n_eval must be at least 2")
    if n_eval > len(ds):
        raise ValueError(f"n_eval {n_eval} exceeds dataset size {len(ds)}")
    rng = np.random.default_rng(seed)
    batch = sample_pair_batch(ds, n_eval, rng, ac_mode)
    if isinstance(gen_or_samples, Generator):
        gen = gen_or_samples
        z = rng.standard_normal((n_eval, gen.noise_dim)) if gen.noise_dim > 0 else None
        y_g = gen_forward(gen, ds.xs[batch.idx], z).values
    else:
        samples = np.asarray(gen_or_samples, dtype=np.float64)
        if samples.shape[0] != len(ds):
            raise ValueError("generated samples must be row-aligned with the dataset")
        y_g = samples[batch.idx]
    pairs = assemble_pairings(ds, batch, y_g)
    return {
        name: disc_forward(disc, px, py).values.ravel()
        for name, (px, py) in zip(PAIRINGS, pairs)
    }


def build_histogram(logits: dict, n_bins: int = 50) -> FourWayHistogram:
    """Shared-bin histograms over all four pairings; counts are conserved."""
    arrays = [np.asarray(logits[name], dtype=np.float64) for name in PAIRINGS]
    if any(a.size == 0 for a in arrays):
        raise ValueError("all four logit arrays must be non-empty")
    lo = min(a.min() for a in arrays)
    hi = max(a.max() for a in arrays)
    if lo == hi:
        edges = np.array([lo - 0.5, hi + 0.5])
    else:
        edges = np.linspace(lo, hi, n_bins + 1)
    counts = {
        name: np.histogram(a, bins=edges)[0]
        for name, a in zip(PAIRINGS, arrays)
    }
    return FourWayHistogram(bin_edges=edges, counts=counts,
                            n={name: int(a.size) for name, a in zip(PAIRINGS, arrays)})


def classification_rates(logits: dict, threshold: float = 0.0) -> ClassificationReport:
    """Fraction of each pairing classified as true (logit above threshold)."""
    rates = {}
    for name in PAIRINGS:
        a = np.asarray(logits[name])
        if a.size == 0:
            raise ValueError(f"empty logit array for pairing {name}")
        rates[name] = float(np.mean(a > threshold))
    return ClassificationReport(threshold=threshold, rates=rates)


def oracle_accuracy(gen: Generator, task, n_per_label: int, seed: int = 0) -> float:
    """Fraction of generated samples whose oracle class matches the label."""
    if not isinstance(task, GaussModesTask):
        raise TypeError(f"task {type(task).__name__} supplies no oracle classifier")
    rng = np.random.default_rng(seed)
    k = task.n_modes
    correct = 0
    for label in range(k):
        x = np.zeros((n_per_label, k))
        x[:, label] = 1.0
        z = rng.standard_normal((n_per_label, gen.noise_dim)) if gen.noise_dim > 0 else None
        y = gen_forward(gen, x, z).values
        correct += int(np.sum(oracle_classify(task, y) == label))
    return correct / (k * n_per_label)


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator,
            iters: int = 50) -> np.ndarray:
    """Plain Lloyd iterations with greedy ++-style seeding; deterministic.

    Runs at most `iters` iterations and stops early at a fixed point: an
    iteration maps the centroids to new ones deterministically, so once it
    returns them bit-identical every later iteration would too, and the
    result equals that of all `iters` iterations.
    """
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        probs = d2 / total if total > 0 else np.full(n, 1.0 / n)
        centroids[j] = points[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    for _ in range(iters):
        previous = centroids.copy()
        dist = _sq_dists(points, centroids)
        assign = dist.argmin(axis=1)
        for j in range(k):
            members = assign == j
            if members.any():
                centroids[j] = points[members].mean(axis=0)
            else:
                # reseed an empty cluster at the worst-covered point
                centroids[j] = points[dist[np.arange(n), assign].argmax()]
        if np.array_equal(centroids, previous):
            break
    return centroids


def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return _sq_dists(points, centroids).argmin(axis=1)


def ndb_score(real_samples: np.ndarray, gen_samples: np.ndarray, k: int = 20,
              alpha: float = 0.05, seed: int = 0) -> NdbReport:
    """Number of statistically different bins, as a fraction of k.

    Bins are k-means clusters fitted on the real samples (fixed seed, at
    most 50 Lloyd iterations); each bin is tested with a pooled
    two-proportion z-test at level alpha. The two-sided critical value is
    the standard normal quantile at 1 - alpha/2, from the standard
    library's `statistics.NormalDist().inv_cdf`.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    real = np.atleast_2d(np.asarray(real_samples, dtype=np.float64))
    gen = np.atleast_2d(np.asarray(gen_samples, dtype=np.float64))
    if real.shape[0] < 10 * k or gen.shape[0] < 10 * k:
        raise ValueError(f"need at least 10*k={10 * k} samples per set")
    if np.unique(real, axis=0).shape[0] < k:
        raise ValueError(f"k={k} exceeds the number of distinct real points")

    centroids = _kmeans(real, k, np.random.default_rng(seed))
    n_r, n_g = real.shape[0], gen.shape[0]
    count_r = np.bincount(_assign(real, centroids), minlength=k).astype(float)
    count_g = np.bincount(_assign(gen, centroids), minlength=k).astype(float)
    p_r = count_r / n_r
    p_g = count_g / n_g

    pooled = (count_r + count_g) / (n_r + n_g)
    se = np.sqrt(pooled * (1.0 - pooled) * (1.0 / n_r + 1.0 / n_g))
    z = np.zeros(k)
    nonzero = se > 0
    z[nonzero] = (p_r[nonzero] - p_g[nonzero]) / se[nonzero]
    z_crit = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    significant = np.abs(z) > z_crit
    return NdbReport(k=k, alpha=alpha, real_proportions=p_r, gen_proportions=p_g,
                     z_values=z, significant=significant,
                     ndb_over_k=float(significant.sum() / k))


def write_histogram_csv(hist: FourWayHistogram, path) -> None:
    """Plot-ready CSV: one row per bin, one count column per pairing."""
    with _atomic_open(path) as fh:
        fh.write("bin_lo,bin_hi,count_real_cond,count_gen_cond,count_real_ac,count_gen_ac\n")
        for i in range(len(hist.bin_edges) - 1):
            cells = [repr(float(hist.bin_edges[i])), repr(float(hist.bin_edges[i + 1]))]
            cells += [str(int(hist.counts[name][i])) for name in PAIRINGS]
            fh.write(",".join(cells) + "\n")


def make_report(rates: ClassificationReport, oracle_acc: float | None,
                ndb: NdbReport | None) -> dict:
    """Schema of the evaluation report JSON."""
    return {
        "classification_rates": dict(sorted(rates.rates.items())),
        "threshold": rates.threshold,
        "oracle_accuracy": oracle_acc,
        "ndb": ndb.to_dict() if ndb is not None else None,
    }
