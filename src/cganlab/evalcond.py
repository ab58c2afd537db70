"""Conditionality evaluation on a frozen discriminator.

`evaluate` runs the whole evaluation of a trained pair at the settings of
an `EvalConfig`, a run config's `eval` section. After the optimal-
discriminator phase it reads the raw logit f(x, y) over the four
pairings: a discriminator that learned conditionality separates
real-conditional from both a-contrario pairings, one that did not scores
real-a-contrario pairs as true. Logits (not probabilities) are binned
because the sigmoid saturates and hides the mode structure. The report
(`report.json` adds an `inputs` block) has the keys

- `classification_rates`: per pairing, the share of logits above 0;
  kept because the benchmark's output check reads it;
- `auroc`: `auroc` of `real_cond` against each other pairing, threshold-
  free. `real_ac` near 0.5 means the discriminator ignores the condition;
- `oracle_accuracy` on mode tasks or `regression` on regression tasks,
  the other one null. `regression` is `tasks.regression_error` on
  `n_eval` conditions held out from the dataset: drawn from a stream of
  their own, not the dataset's first rows;
- `ndb`: `generator_ndb`'s report, as `NdbReport.to_dict` gives it;
- `phase`: `steps`, the number of steps the optimal-discriminator phase
  ran, and `d_total_first` and `d_total_last`, the first and last
  `d_total` of its log (`phase_metrics.csv`); 0, null and null when
  `phase_epochs` is 0.

Evaluation never backpropagates, so it keeps no activation cache: it
calls ``gen_forward``, ``disc_forward`` and ``draw_pairings`` with
``cache=False`` (`nets`), which gives the cached pass's bits. On a large
input such a pass runs its first layers in row blocks, where the cached
pass holds every layer whole. From the first layer that cannot run in
blocks on, such as the discriminator's 1-wide logit, the layers run once
over all rows, on the last blocked layer's output written whole.

NDB's bins are k-means clusters of the real samples. The fit's seeding
and Lloyd iterations, the assignment of samples to bins and the oracle
share one nearest-centroid kernel, `tasks._nearest_centroid`. They give
the bits of the textbook loop (`argmin` over a broadcast (n, k, d)
distance table, then each cluster's `mean`), which the tests keep as the
reference: each coordinate's squared difference is added in the same
order, ties and NaNs are resolved as `argmin` resolves them, and a
centroid is `np.bincount` of its members' coordinates over their count,
which sums in row order from 0.0 as `mean(axis=0)` does on C-ordered rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .fileio import _atomic_open
from .nets import Discriminator, Generator, disc_forward, gen_forward
from .pairing import PAIRINGS, ConditionalDataset, _row_keys, draw_pairings
from .tasks import GaussModesTask, _nearest_centroid, oracle_classify, regression_error
from .trainer import RunLog, TrainConfig, optimal_discriminator_phase

_NDB_STREAM = 2  # decorrelates `generator_ndb`'s noise from the other draws of the seed


@dataclass
class EvalConfig:
    """What `evaluate` computes and at what size: a run config's `eval` section."""

    n_eval: int = 4000  # pair rows of the logits, and conditions of `regression`
    n_bins: int = 50
    ndb_k: int = 20
    alpha: float = 0.05
    n_per_label: int = 1000  # generated samples per label of `oracle_accuracy`
    phase_epochs: int = 1

    def __post_init__(self):
        for key, low in (("n_eval", 2), ("n_bins", 1), ("phase_epochs", 0), ("n_per_label", 1)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be at least {low}, got {getattr(self, key)}")
        check_ndb_parameters(self.ndb_k, self.alpha)


@dataclass
class FourWayHistogram:
    bin_edges: np.ndarray
    counts: dict[str, np.ndarray]


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


def collect_logits(disc: Discriminator, gen: Generator, ds: ConditionalDataset,
                   n_eval: int, seed: int = 0, ac_mode: str = "within_batch") -> dict:
    """Raw logits of the frozen discriminator over the four pairings.

    The pairings of `n_eval` rows are drawn as a training step draws its
    own, by `pairing.draw_pairings` from the stream of `seed`.
    """
    pairs, _ = draw_pairings(ds, gen, n_eval, np.random.default_rng(seed), ac_mode, cache=False)
    return {
        name: disc_forward(disc, px, py, cache=False)[0].ravel()
        for name, (px, py) in zip(PAIRINGS, pairs)
    }


def build_histogram(logits: dict, n_bins: int = 50) -> FourWayHistogram:
    """Shared-bin histograms over all four pairings; counts are conserved."""
    if n_bins < 1:
        raise ValueError(f"n_bins must be positive, got {n_bins}")
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
    return FourWayHistogram(bin_edges=edges, counts=counts)


def auroc(pos: np.ndarray, neg: np.ndarray) -> float:
    """P(a pos score exceeds a neg score), ties counted half (Hanley & McNeil 1982).

    The Mann-Whitney U of `pos` from the ranks of both samples together,
    tied scores sharing their average rank, over len(pos) * len(neg).
    """
    scores = np.concatenate([pos, neg])
    order = np.argsort(scores, kind="stable")
    _, first, counts = np.unique(scores[order], return_index=True, return_counts=True)
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat(first + (counts + 1) / 2.0, counts)
    n_pos, n_neg = len(pos), len(neg)
    return float((ranks[:n_pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def oracle_accuracy(gen: Generator, task, n_per_label: int, seed: int = 0) -> float:
    """Fraction of generated samples whose oracle class matches the label."""
    if not isinstance(task, GaussModesTask):
        raise TypeError(f"task {type(task).__name__} supplies no oracle classifier")
    if n_per_label < 1:
        raise ValueError(f"n_per_label must be positive, got {n_per_label}")
    rng = np.random.default_rng(seed)
    k = task.n_modes
    correct = 0
    for label in range(k):
        x = np.zeros((n_per_label, k))
        x[:, label] = 1.0
        y = gen_forward(gen, x, rng, cache=False)[0]
        correct += int(np.sum(oracle_classify(task, y) == label))
    return correct / (k * n_per_label)


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator,
            iters: int = 50) -> tuple[np.ndarray, np.ndarray | None]:
    """Plain Lloyd iterations with greedy ++-style seeding; deterministic.

    Runs at most `iters` iterations and stops early at a fixed point: an
    iteration maps the centroids to new ones deterministically, so once it
    returns them unchanged every later iteration would too, and the result
    equals that of all `iters` iterations. (A centroid that only changed
    the sign of a zero counts as unchanged; no squared distance can tell.)
    Returns the centroids and, after a fixed point, the index of each
    point's nearest centroid, which the last iteration found for these very
    centroids; None when all `iters` iterations ran.
    """
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = _nearest_centroid(points, centroids[:1])[1]
    for j in range(1, k):
        total = d2.sum()
        probs = d2 / total if total > 0 else np.full(n, 1.0 / n)
        centroids[j] = points[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, _nearest_centroid(points, centroids[j:j + 1])[1])
    buffers = (np.empty((k, n)), np.empty((k, n)))
    for _ in range(iters):
        previous = centroids.copy()
        assign, nearest = _nearest_centroid(points, centroids, buffers)
        counts = np.bincount(assign, minlength=k)
        filled = counts > 0
        for c in range(points.shape[1]):
            sums = np.bincount(assign, weights=points[:, c], minlength=k)
            centroids[filled, c] = sums[filled] / counts[filled]
        if not filled.all():
            # reseed every empty cluster at the worst-covered point
            centroids[~filled] = points[nearest.argmax()]
        if np.array_equal(centroids, previous):
            return centroids, assign
    return centroids, None


def check_ndb_parameters(k: int, alpha: float) -> None:
    """Raise ValueError unless `k` bins can be tested at level `alpha`, whatever the samples."""
    if not 0.0 < alpha < 1.0 or 1.0 - alpha / 2.0 == 1.0:  # else no critical value
        raise ValueError(f"alpha must lie in (2**-53, 1), got {alpha}")
    if k < 1:
        raise ValueError(f"ndb_k must be positive, got {k}")


def check_ndb_settings(real: np.ndarray, n_gen: int, k: int, alpha: float) -> None:
    """Raise ValueError unless `ndb_score` can score `n_gen` samples against `real`."""
    check_ndb_parameters(k, alpha)
    if real.shape[0] < 10 * k or n_gen < 10 * k:
        raise ValueError(f"need at least 10*k={10 * k} samples per set")
    # more rows never hold fewer distinct ones, so k among the first 10 * k
    # settles it without keying the whole array
    if _row_keys(real[:10 * k]).max() + 1 < k and _row_keys(real).max() + 1 < k:
        raise ValueError(f"k={k} exceeds the number of distinct real points")


def ndb_score(real_samples: np.ndarray, gen_samples: np.ndarray, k: int = 20,
              alpha: float = 0.05, seed: int = 0) -> NdbReport:
    """Number of statistically different bins, as a fraction of k.

    Bins are k-means clusters fitted on the real samples (fixed seed, at
    most 50 Lloyd iterations); each bin is tested with a pooled
    two-proportion z-test at level alpha. The two-sided critical value is
    the standard normal quantile at 1 - alpha/2, from the standard
    library's `statistics.NormalDist().inv_cdf`.
    """
    real = np.atleast_2d(np.asarray(real_samples, dtype=np.float64))
    gen = np.atleast_2d(np.asarray(gen_samples, dtype=np.float64))
    check_ndb_settings(real, gen.shape[0], k, alpha)

    centroids, assign_r = _kmeans(real, k, np.random.default_rng(seed))
    if assign_r is None:
        assign_r = _nearest_centroid(real, centroids)[0]
    n_r, n_g = real.shape[0], gen.shape[0]
    count_r = np.bincount(assign_r, minlength=k).astype(float)
    count_g = np.bincount(_nearest_centroid(gen, centroids)[0], minlength=k).astype(float)
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


def generator_ndb(gen: Generator, ds: ConditionalDataset, ev: EvalConfig,
                  seed: int) -> NdbReport:
    """NDB of the generator's output over the dataset's conditions against the dataset."""
    y_g = gen_forward(gen, ds.xs, np.random.default_rng([seed, _NDB_STREAM]), cache=False)[0]
    return ndb_score(ds.ys, y_g, k=ev.ndb_k, alpha=ev.alpha, seed=seed)


def write_histogram_csv(hist: FourWayHistogram, path) -> None:
    """Plot-ready CSV: one row per bin, one count column per pairing."""
    with _atomic_open(path) as fh:
        fh.write("bin_lo,bin_hi,count_real_cond,count_gen_cond,count_real_ac,count_gen_ac\n")
        for i in range(len(hist.bin_edges) - 1):
            cells = [repr(float(hist.bin_edges[i])), repr(float(hist.bin_edges[i + 1]))]
            cells += [str(int(hist.counts[name][i])) for name in PAIRINGS]
            fh.write(",".join(cells) + "\n")


def evaluate(gen: Generator, disc: Discriminator, ds: ConditionalDataset, task,
             config: TrainConfig, ev: EvalConfig) -> tuple[dict, FourWayHistogram, RunLog]:
    """The report (as the module docstring gives it), the logit histogram and the phase log.

    Trains `disc` in place through `optimal_discriminator_phase`; every
    draw is seeded from `config.seed`.
    """
    phase_log = optimal_discriminator_phase(gen, disc, ds, config, epochs=ev.phase_epochs)
    d_totals = [row["d_total"] for row in phase_log.rows]
    logits = collect_logits(disc, gen, ds, ev.n_eval, seed=config.seed, ac_mode=config.ac_mode)
    modes = isinstance(task, GaussModesTask)
    report = {
        "classification_rates": {name: float(np.mean(logits[name] > 0)) for name in PAIRINGS},
        "auroc": {name: auroc(logits["real_cond"], logits[name]) for name in PAIRINGS[1:]},
        "oracle_accuracy":
            oracle_accuracy(gen, task, ev.n_per_label, seed=config.seed) if modes else None,
        "regression": None if modes else regression_error(task, gen, ev.n_eval, config.seed),
        "ndb": generator_ndb(gen, ds, ev, config.seed).to_dict(),
        "phase": {"steps": len(d_totals), "d_total_first": d_totals[0] if d_totals else None,
                  "d_total_last": d_totals[-1] if d_totals else None},
    }
    return report, build_histogram(logits, ev.n_bins), phase_log
