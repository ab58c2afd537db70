"""Construction of the four data pairings for conditional training.

real-conditional (x, y), generated-conditional (x, y_G), and the two
a-contrario pairings (x_tilde, y) and (x_tilde, y_G). In every a-contrario
pair x_tilde differs from x by key: by label when the data has labels, by
value otherwise.

Both samplers make one draw of m distinct rows per attempt: the batch is
the first B and x_tilde comes from the last B, a pool that is the batch
itself under `within_batch` (m = B) and B further rows under
`outside_batch` (m = 2B); `PairBatch.ac_source_idx` holds these dataset
rows in both modes. The pool is mapped to batch positions so that no pair
shares a key: a within-batch pool of distinct keys by a uniform random
derangement, an outside-batch pool with no key collision as drawn, and
otherwise by `_keyed_derangement`, which repairs a uniform permutation by
random swaps. That is not uniform over the valid mappings, but the label
a row is mapped to is close to uniform over the other labels; a test pins
it at 8 modes and batch 64. In both modes a valid draw exists iff some m
rows keep each key to m // 2 of them (`_check_pairable`).

Training and evaluation draw their pairings by `draw_pairings`: from one
stream the batch, then the noise of `nets.gen_forward` on its conditions
(none at `noise_dim` 0), in `PAIRINGS` order (x, y), (x, y_G),
(x_tilde, y), (x_tilde, y_G).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .fileio import _atomic_open
from .nets import Generator, gen_forward

AC_MODES = ("within_batch", "outside_batch")
PAIRINGS = ("real_cond", "gen_cond", "real_ac", "gen_ac")  # the order of `draw_pairings`
MAX_SAMPLER_ATTEMPTS = 10_000
MAX_REPAIR_SWEEPS = 200


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Dense keys of the rows of a 2-D array.

    Equal to `np.unique(rows, axis=0, return_inverse=True)[1]`: rows are
    ranked in lexicographic order and equal rows share a rank (so 0.0 and
    -0.0 are equal; on an int64 view of float rows they differ, as the keys
    are then the rows' bits). A `lexsort` over the columns and one compare
    of adjacent sorted rows, which is much faster on wide rows than
    `np.unique`'s sort of a structured view.
    """
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.empty(rows.shape[0], dtype=np.intp)
    new[:1] = 0
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    keys = np.empty_like(new)
    keys[order] = np.cumsum(new)
    return keys


@dataclass
class ConditionalDataset:
    xs: np.ndarray  # (N, dim_x)
    ys: np.ndarray  # (N, dim_y)
    labels: np.ndarray | None = None  # integer labels for oracle tasks
    # derived dense keys: equal keys mean equal labels, or equal xs rows if unlabelled
    keys: np.ndarray = field(init=False, repr=False)
    key_counts: np.ndarray = field(init=False, repr=False)  # np.bincount(keys)

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=np.float64)
        self.ys = np.asarray(self.ys, dtype=np.float64)
        if self.xs.ndim != 2 or self.ys.ndim != 2 or self.xs.shape[0] != self.ys.shape[0]:
            raise ValueError(f"dataset xs and ys must be 2-D with equal row counts, "
                             f"got shapes {self.xs.shape} and {self.ys.shape}")
        if self.xs.shape[0] < 2:
            raise ValueError("dataset needs at least 2 rows")
        if self.labels is not None:
            given = np.asarray(self.labels)
            if given.shape != (len(self),):
                raise ValueError(f"dataset labels must have shape ({len(self)},), "
                                 f"got {given.shape}")
            self.labels = given.astype(np.int64, copy=False)
            if not np.array_equal(self.labels, given):
                raise ValueError("dataset labels must be integers")
        self.keys = _row_keys(self.xs) if self.labels is None \
            else np.unique(self.labels, return_inverse=True)[1]
        self.key_counts = np.bincount(self.keys)

    def __len__(self):
        return self.xs.shape[0]


@dataclass
class PairBatch:
    """Batch rows plus the rows their a-contrario conditions come from.

    Both are dataset rows in both modes: ac_source_idx[i] is the row whose
    condition is paired with batch row idx[i], and its key differs from
    that row's. Under `within_batch` ac_source_idx is a permutation of
    idx; under `outside_batch` it holds B further distinct rows.
    """

    idx: np.ndarray
    ac_source_idx: np.ndarray


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


def _keyed_derangement(keys: np.ndarray, rng: np.random.Generator,
                       source_keys: np.ndarray) -> np.ndarray | None:
    """Permutation p with source_keys[p] != keys everywhere, or None.

    Whole-permutation rejection collapses once keys repeat (acceptance
    falls like exp(-expected collisions)), so colliding positions are
    repaired by random swaps instead; each sweep shrinks the collision set
    geometrically. The result is not uniform over the valid permutations
    (some are drawn over ten times as often as others), but the key each
    position maps to is close to uniform over the other keys. None means
    no valid mapping exists, found without a draw, or the sweeps ran out.
    """
    b = keys.shape[0]
    if np.bincount(np.concatenate([keys, source_keys])).max() > b:
        return None  # a key fills more than b of the 2b slots: no valid mapping
    perm = rng.permutation(b)
    for _ in range(MAX_REPAIR_SWEEPS):
        bad = np.nonzero(source_keys[perm] == keys)[0]
        if bad.size == 0:
            return perm
        for i in bad:
            j = int(rng.integers(b))
            perm[i], perm[j] = perm[j], perm[i]
    return None


def _all_distinct(keys: np.ndarray) -> bool:
    """`np.unique(keys).size == keys.size` by a sort and a compare of neighbours.

    `np.unique` imports `numpy.ma` on its first call, which costs a process
    some 15 ms, and is no faster on a batch of keys.
    """
    ordered = np.sort(keys)
    return not (ordered[1:] == ordered[:-1]).any()


def _check_pairable(ds: ConditionalDataset, batch_size: int, ac_mode: str) -> int:
    """Return the draw size m, or raise ValueError when no draw of m rows pairs.

    m = B (`within_batch`) or 2B (`outside_batch`): the dataset rows of
    `idx` and `ac_source_idx` together. They admit a key-respecting
    mapping iff no key fills more than m // 2 of them, so some draw does
    iff sum_k min(count_k, m // 2) >= m over `ds.key_counts`; one rule for
    both modes, for labelled and unlabelled data, and for m > len(ds). A
    batch size below 2 is refused first: at 0 the rule would hold
    vacuously.
    """
    if batch_size < 2:
        raise ValueError(f"{ac_mode} pairing needs a batch size of at least 2, got {batch_size}")
    m = batch_size if ac_mode == "within_batch" else 2 * batch_size
    counts = ds.key_counts
    if np.minimum(counts, m // 2).sum() < m:
        raise ValueError(f"{ac_mode} pairing at batch size {batch_size}: no {m} rows hold "
                         f"each condition key at most {m // 2} times ({counts.size} keys, "
                         f"the largest on {counts.max()} of {len(ds)} rows)")
    return m


def sample_pair_batch(
    ds: ConditionalDataset,
    batch_size: int,
    rng: np.random.Generator,
    ac_mode: str = "within_batch",
) -> PairBatch:
    """Draw a batch and the dataset rows of its a-contrario conditions.

    Each attempt draws m distinct rows, m = B (`within_batch`) or 2B
    (`outside_batch`): the batch is the first B, the source pool the last
    B. The pool is mapped to batch positions so that no row gets a
    condition with its own key, and the draw is repeated when no such
    mapping exists (a key fills more than m // 2 of the rows) or the swap
    repair fails. So under `within_batch` with two labels only exactly
    balanced batches are returned. When no draw can succeed, by the
    m // 2 rule of `_check_pairable`, ValueError is raised before any
    draw. ac_source_idx holds dataset rows in both modes.
    """
    if ac_mode not in AC_MODES:
        raise ValueError(f"unknown ac_mode {ac_mode!r}")
    n = len(ds)
    m = _check_pairable(ds, batch_size, ac_mode)

    for _ in range(MAX_SAMPLER_ATTEMPTS):
        rows = rng.choice(n, size=m, replace=False)
        idx, pool = rows[:batch_size], rows[-batch_size:]
        keys, pool_keys = ds.keys[idx], ds.keys[pool]
        if m > batch_size and not np.any(keys == pool_keys):
            perm = np.arange(batch_size)
        elif m == batch_size and _all_distinct(keys):
            perm = make_ac_permutation(batch_size, rng)
        else:
            perm = _keyed_derangement(keys, rng, pool_keys)
        if perm is not None:
            return PairBatch(idx=idx, ac_source_idx=pool[perm])
    raise RuntimeError(
        "could not build an a-contrario batch; condition values too repetitive"
    )


def draw_pairings(ds: ConditionalDataset, gen: Generator, size: int,
                  rng: np.random.Generator, ac_mode: str, *, cache: bool = True):
    """The (x, y) pairings of a fresh batch in `PAIRINGS` order, and `gen_forward`'s cache.

    Draws from `rng` the batch (`sample_pair_batch`), then the generator's
    noise. `cache` is passed to `gen_forward`: evaluation, which never
    backpropagates, passes False and gets the same pairings and a None cache.
    """
    batch = sample_pair_batch(ds, size, rng, ac_mode)
    x, y, x_tilde = ds.xs[batch.idx], ds.ys[batch.idx], ds.xs[batch.ac_source_idx]
    y_g, cache = gen_forward(gen, x, rng, cache=cache)
    return ((x, y), (x, y_g), (x_tilde, y), (x_tilde, y_g)), cache


# -- dataset CSV format (`dataset.csv`: written by gen-data, read by cli) --

def save_dataset_csv(ds: ConditionalDataset, path) -> None:
    """Write the dataset as CSV: a header, then one row per sample.

    Floats are written with `repr`, so they load back bit-exact; lines end
    in CRLF, as the `csv` module's default dialect writes them. Each
    distinct condition row is formatted once: rows are keyed by their bits,
    so 0.0 and -0.0 print apart.
    """
    header = _csv_header(ds.xs.shape[1], ds.ys.shape[1], ds.labels is not None)
    keys = _row_keys(ds.xs.view(np.int64))
    rep = np.empty(keys.max() + 1, dtype=np.intp)
    rep[keys] = np.arange(keys.size)  # any row of a key: its rows share their bits
    x_text = [",".join(map(repr, row)) for row in ds.xs[rep].tolist()]
    cols = [map(x_text.__getitem__, keys.tolist())] + [map(repr, c) for c in ds.ys.T.tolist()]
    if ds.labels is not None:
        cols.append(map(str, ds.labels.tolist()))
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write("\r\n".join(map(",".join, zip(*cols))) + "\r\n")


def _csv_header(dx: int, dy: int, labelled: bool) -> list[str]:
    return [f"x_{i}" for i in range(dx)] + [f"y_{i}" for i in range(dy)] + ["label"] * labelled


def load_dataset_csv(path) -> ConditionalDataset:
    """The dataset `save_dataset_csv` wrote; a header other than the one it
    writes (`_csv_header`) raises ValueError naming the path and the header."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError(f"dataset csv {path} is empty")
        labelled = header[-1:] == ["label"]
        dx = sum(h.startswith("x_") for h in header)
        dy = len(header) - dx - labelled
        if min(dx, dy) < 1 or header != _csv_header(dx, dy, labelled):
            raise ValueError(f"dataset csv {path} has header {','.join(header)!r}, not "
                             f"x_0..x_<dx-1>,y_0..y_<dy-1>[,label]")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    if body.shape[0] == 0 or body.shape[1] != len(header):
        raise ValueError(f"dataset csv {path} has no rows of {len(header)} columns")
    labels = body[:, -1] if labelled else None
    try:
        return ConditionalDataset(xs=body[:, range(dx)], ys=body[:, range(dx, dx + dy)],
                                  labels=labels)
    except ValueError as e:
        raise ValueError(f"dataset csv {path}: {e}") from None
