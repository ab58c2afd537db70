"""Construction of the four data pairings for conditional training.

real-conditional (x, y), generated-conditional (x, y_G), and the two
a-contrario pairings (x_tilde, y) and (x_tilde, y_G). In every a-contrario
pair x_tilde differs from x by key: by label when the data has labels, by
value otherwise.

The default `within_batch` sampler shuffles the batch's own conditions,
so x_tilde is a bijection of them. When all keys in the batch differ, the
shuffle is a uniform random derangement. When keys repeat (discrete
labels), `_keyed_derangement` repairs a uniform permutation by random
swaps. That is not uniform over the valid permutations, but the label a
row is shuffled to is close to uniform over the other labels; a test pins
it at 8 modes and batch 64. The `outside_batch` sampler draws x_tilde
from distinct rows outside the batch instead.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .fileio import _atomic_open

MAX_SAMPLER_ATTEMPTS = 10_000


@dataclass
class ConditionalDataset:
    xs: np.ndarray  # (N, dim_x)
    ys: np.ndarray  # (N, dim_y)
    labels: np.ndarray | None = None  # integer labels for oracle tasks

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=np.float64)
        self.ys = np.asarray(self.ys, dtype=np.float64)
        if self.xs.shape[0] != self.ys.shape[0]:
            raise ValueError(
                f"dataset xs/ys row counts differ: {self.xs.shape[0]} vs {self.ys.shape[0]}"
            )
        if self.xs.shape[0] < 2:
            raise ValueError("dataset needs at least 2 rows")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)

    def __len__(self):
        return self.xs.shape[0]


@dataclass
class PairBatch:
    """Batch indices plus the a-contrario re-pairing.

    ac_perm is a derangement of batch positions; ac_source_idx (set only
    by the outside-batch sampler variant) holds dataset rows to draw the
    shuffled conditions from instead: distinct rows outside the batch,
    each with a key other than that of its batch row.
    """

    idx: np.ndarray
    ac_perm: np.ndarray
    ac_source_idx: np.ndarray | None = None


def make_ac_permutation(batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random derangement of 0..batch_size-1.

    Rejection-samples uniform permutations until none has a fixed point;
    expected number of tries is e, and the result is exactly uniform over
    derangements.
    """
    if batch_size < 2:
        raise ValueError(f"no derangement exists for batch_size {batch_size}")
    positions = np.arange(batch_size)
    while True:
        perm = rng.permutation(batch_size)
        if not np.any(perm == positions):
            return perm


def _row_keys(ds: ConditionalDataset, idx: np.ndarray) -> np.ndarray:
    """Condition-identity keys: equal keys mean equal condition values."""
    if ds.labels is not None:
        return ds.labels[idx]
    _, inv = np.unique(ds.xs[idx], axis=0, return_inverse=True)
    return inv


def _keyed_derangement(keys: np.ndarray, rng: np.random.Generator,
                       source_keys: np.ndarray | None = None,
                       max_sweeps: int = 200) -> np.ndarray | None:
    """Permutation p with source_keys[p] != keys everywhere, or None.

    `source_keys` defaults to `keys`, which makes p a derangement of the
    batch by key. Whole-permutation rejection collapses once keys repeat
    (acceptance falls like exp(-expected collisions)), so colliding
    positions are repaired by random swaps instead; each sweep shrinks the
    collision set geometrically. The result is not uniform over the valid
    permutations (some are drawn over ten times as often as others), but the key
    each position maps to is close to uniform over the other keys. None
    means no valid mapping exists or the sweeps ran out.
    """
    source_keys = keys if source_keys is None else source_keys
    b = keys.shape[0]
    both = np.concatenate([keys, source_keys])
    if np.bincount(both - both.min()).max() > b:
        return None  # a key fills more than b of the 2b slots: no valid mapping
    perm = rng.permutation(b)
    for _ in range(max_sweeps):
        bad = np.nonzero(source_keys[perm] == keys)[0]
        if bad.size == 0:
            return perm
        for i in bad:
            j = int(rng.integers(b))
            perm[i], perm[j] = perm[j], perm[i]
    return None


def sample_pair_batch(
    ds: ConditionalDataset,
    batch_size: int,
    rng: np.random.Generator,
    ac_mode: str = "within_batch",
) -> PairBatch:
    """Draw a batch and its a-contrario re-pairing.

    The shuffled condition always differs from the original by value:
    batches of distinct conditions use the uniform derangement directly,
    batches with repeated conditions (discrete labels) use the swap-repair
    sampler and are redrawn when no valid mapping exists. Label batches
    are also redrawn until at least two distinct labels appear. The
    outside-batch variant draws distinct rows from outside the batch; when
    one of them shares its batch row's key, the same swap repair reassigns
    them to batch positions, and the batch is redrawn when that fails.
    """
    if ac_mode not in ("within_batch", "outside_batch"):
        raise ValueError(f"unknown ac_mode {ac_mode!r}")
    n = len(ds)
    if batch_size < 2 or batch_size > n:
        raise ValueError(f"batch_size {batch_size} invalid for dataset of {n}")

    for _ in range(MAX_SAMPLER_ATTEMPTS):
        idx = rng.choice(n, size=batch_size, replace=False)
        if ds.labels is not None and len(np.unique(ds.labels[idx])) < 2:
            continue

        if ac_mode == "outside_batch":
            outside = np.setdiff1d(np.arange(n), idx)
            if outside.size < batch_size:
                raise ValueError(
                    f"outside_batch sampler needs {batch_size} rows outside the "
                    f"batch, have {outside.size}"
                )
            src = rng.choice(outside, size=batch_size, replace=False)
            keys = _row_keys(ds, np.concatenate([idx, src]))
            if np.any(keys[batch_size:] == keys[:batch_size]):
                perm = _keyed_derangement(keys[:batch_size], rng, keys[batch_size:])
                if perm is None:
                    continue
                src = src[perm]
            return PairBatch(idx=idx, ac_perm=np.arange(batch_size), ac_source_idx=src)

        keys = _row_keys(ds, idx)
        if keys.shape[0] == np.unique(keys).shape[0]:
            return PairBatch(idx=idx, ac_perm=make_ac_permutation(batch_size, rng))
        perm = _keyed_derangement(keys, rng)
        if perm is not None:
            return PairBatch(idx=idx, ac_perm=perm)
    raise RuntimeError(
        "could not build an a-contrario batch; condition values too repetitive"
    )


def assemble_pairings(ds: ConditionalDataset, batch: PairBatch, y_g: np.ndarray):
    """Return the four (x, y) pairs for one batch.

    Order: real-conditional, generated-conditional, real-a-contrario,
    generated-a-contrario. y_g must be row-aligned with batch.idx.
    """
    y_g = np.asarray(y_g, dtype=np.float64)
    if y_g.shape[0] != batch.idx.shape[0]:
        raise ValueError(
            f"y_g rows {y_g.shape[0]} misaligned with batch size {batch.idx.shape[0]}"
        )
    x = ds.xs[batch.idx]
    y = ds.ys[batch.idx]
    if batch.ac_source_idx is not None:
        x_tilde = ds.xs[batch.ac_source_idx]
    else:
        x_tilde = x[batch.ac_perm]
    return (x, y), (x, y_g), (x_tilde, y), (x_tilde, y_g)


# -- dataset CSV format (shared with tasks and cli) ----------------------

def save_dataset_csv(ds: ConditionalDataset, path) -> None:
    """Write the dataset as CSV: a header, then one row per sample.

    Floats are written with `repr`, so they load back bit-exact; lines end
    in CRLF, as the `csv` module's default dialect writes them.
    """
    dx, dy = ds.xs.shape[1], ds.ys.shape[1]
    header = [f"x_{i}" for i in range(dx)] + [f"y_{i}" for i in range(dy)]
    rows = np.hstack([ds.xs, ds.ys]).tolist()
    lines = [",".join(map(repr, row)) for row in rows]
    if ds.labels is not None:
        header.append("label")
        lines = [f"{line},{label}" for line, label in zip(lines, ds.labels.tolist())]
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write("".join(line + "\r\n" for line in lines))


def load_dataset_csv(path) -> ConditionalDataset:
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    x_cols = [i for i, h in enumerate(header) if h.startswith("x_")]
    y_cols = [i for i, h in enumerate(header) if h.startswith("y_")]
    has_label = "label" in header
    if not x_cols or not y_cols:
        raise ValueError(f"dataset csv {path} missing x_*/y_* columns")
    if body.shape[0] == 0 or body.shape[1] != len(header):
        raise ValueError(f"dataset csv {path} has no rows of {len(header)} columns")
    labels = None
    if has_label:
        column = body[:, header.index("label")]
        labels = column.astype(np.int64)
        if not np.array_equal(labels, column):
            raise ValueError(f"dataset csv {path} has a non-integer label")
    return ConditionalDataset(xs=body[:, x_cols], ys=body[:, y_cols], labels=labels)
