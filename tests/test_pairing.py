import copy
import csv
import hashlib
import itertools
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cganlab
from cganlab.nets import Generator, gen_forward
from cganlab.pairing import (
    AC_MODES,
    PAIRINGS,
    ConditionalDataset,
    _check_pairable,
    _row_keys,
    PairBatch,
    draw_pairings,
    load_dataset_csv,
    make_ac_permutation,
    sample_pair_batch,
    save_dataset_csv,
)
from cganlab.tasks import CondRegressionTask, GaussModesTask, sample_dataset


def brute_force_derangements(n):
    return [p for p in itertools.permutations(range(n)) if all(p[i] != i for i in range(n))]


def test_b2_unique_derangement():
    rng = np.random.default_rng(0)
    for _ in range(20):
        np.testing.assert_array_equal(make_ac_permutation(2, rng), [1, 0])


def test_b3_only_the_two_cycles():
    valid = {p for p in brute_force_derangements(3)}
    rng = np.random.default_rng(1)
    seen = {tuple(make_ac_permutation(3, rng)) for _ in range(200)}
    assert seen == valid


@pytest.mark.parametrize("b", [2, 3, 4])
def test_derangement_uniform_and_fixed_point_free(b):
    valid = brute_force_derangements(b)
    rng = np.random.default_rng(42)
    n_draws = 100_000
    counts = {p: 0 for p in valid}
    for _ in range(n_draws):
        perm = tuple(make_ac_permutation(b, rng))
        assert all(perm[i] != i for i in range(b))
        counts[perm] += 1
    target = 1.0 / len(valid)
    for p, c in counts.items():
        assert abs(c / n_draws - target) < 0.01


def test_batch_size_one_rejected():
    with pytest.raises(ValueError):
        make_ac_permutation(1, np.random.default_rng(0))


def _toy_dataset(n=20, dx=3, dy=2, seed=0):
    rng = np.random.default_rng(seed)
    return ConditionalDataset(xs=rng.standard_normal((n, dx)),
                              ys=rng.standard_normal((n, dy)))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(ac_mode=st.sampled_from(AC_MODES), noise_dim=st.sampled_from([0, 2]),
       size=st.sampled_from([2, 5, 8]), seed=st.integers(0, 2**32 - 1))
def test_draw_pairings_definitions(ac_mode, noise_dim, size, seed):
    # the batch, then the generator's noise, from one stream, as the two calls draw them
    ds = _toy_dataset()
    gen = Generator.build(3, 2, hidden=(4,), noise_dim=noise_dim, seed=1)
    rng = np.random.default_rng(seed)
    ref = copy.deepcopy(rng)
    pairs, cache = draw_pairings(ds, gen, size, rng, ac_mode)
    batch = sample_pair_batch(ds, size, ref, ac_mode)
    x, y, xt = ds.xs[batch.idx], ds.ys[batch.idx], ds.xs[batch.ac_source_idx]
    y_g, ref_cache = gen_forward(gen, x, ref)
    assert len(pairs) == len(PAIRINGS)
    for got, want in zip(pairs, [(x, y), (x, y_g), (xt, y), (xt, y_g)]):
        assert all(_same_bits(a, b) for a, b in zip(got, want, strict=True))
    assert rng.bit_generator.state == ref.bit_generator.state
    assert len(cache) == len(ref_cache) and all(map(_same_bits, cache, ref_cache))
    # evaluation's cache-free draw: the same pairings and stream, no cache
    rng_free = np.random.default_rng(seed)
    pairs_free, none = draw_pairings(ds, gen, size, rng_free, ac_mode, cache=False)
    assert none is None
    for got, want in zip(pairs_free, pairs, strict=True):
        assert all(_same_bits(a, b) for a, b in zip(got, want, strict=True))
    assert rng_free.bit_generator.state == rng.bit_generator.state


def test_shuffled_condition_always_differs():
    ds = _toy_dataset()
    rng = np.random.default_rng(5)
    for _ in range(50):
        batch = sample_pair_batch(ds, 8, rng)
        assert not np.any(np.all(ds.xs[batch.ac_source_idx] == ds.xs[batch.idx], axis=1))


def test_b2_swap():
    ds = ConditionalDataset(xs=np.array([[1.0], [2.0]]), ys=np.array([[0.1], [0.2]]))
    batch = PairBatch(idx=np.array([0, 1]), ac_source_idx=np.array([1, 0]))
    np.testing.assert_array_equal(ds.xs[batch.ac_source_idx], ds.xs[batch.idx][::-1])


def test_label_batches_avoid_same_label_mapping():
    # heavy label duplication: the value-level constraint must still hold
    ds = sample_dataset(GaussModesTask(), 800, seed=2)
    rng = np.random.default_rng(6)
    for _ in range(30):
        batch = sample_pair_batch(ds, 64, rng)
        lab = ds.labels[batch.idx]
        assert np.all(ds.labels[batch.ac_source_idx] != lab)
        assert len(np.unique(lab)) >= 2
        assert len(np.unique(batch.idx)) == 64
        np.testing.assert_array_equal(np.sort(batch.ac_source_idx), np.sort(batch.idx))


def test_large_grouped_batch_feasible():
    # whole-permutation rejection would never terminate at this size
    ds = sample_dataset(GaussModesTask(), 4000, seed=3)
    rng = np.random.default_rng(7)
    batch = sample_pair_batch(ds, 4000, rng)
    assert np.all(ds.labels[batch.ac_source_idx] != ds.labels[batch.idx])


def test_two_labels_give_only_balanced_batches():
    # a key-derangement of a batch exists only when no label fills more than half
    ds = sample_dataset(GaussModesTask(n_modes=2), 800, seed=4)
    rng = np.random.default_rng(10)
    for _ in range(20):
        batch = sample_pair_batch(ds, 64, rng)
        assert np.bincount(ds.labels[batch.idx]).tolist() == [32, 32]


def _refused_before_any_draw(ds, batch_size, ac_mode):
    rng = np.random.default_rng(11)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=ac_mode):
        sample_pair_batch(ds, batch_size, rng, ac_mode)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("labels, batch_size, labelled", [
    (np.repeat([0, 1], 200), 3, True),           # two labels, odd batch
    (np.repeat([0, 1, 2], [1, 2, 97]), 8, True),  # 1 + 2 + 4 rows: too few beside label 2
    (np.repeat([0, 1], 200), 3, False),          # two condition values, no labels
    (np.repeat([0, 1], 200), 401, True),         # a batch of more rows than exist
], ids=["two_labels_odd_batch", "dominant_label", "two_values_unlabelled_odd_batch",
        "batch_over_the_rows"])
def test_impossible_within_batch_refused_at_once(labels, batch_size, labelled):
    ds = ConditionalDataset(xs=np.eye(3)[labels], ys=np.zeros((labels.size, 1)),
                            labels=labels if labelled else None)
    _refused_before_any_draw(ds, batch_size, "within_batch")


@pytest.mark.parametrize("labels, batch_size", [
    (np.arange(20), 11),                # 22 rows needed, 20 exist
    (np.repeat([0, 1], [35, 5]), 10),   # 20 rows with at most 10 of label 0: only 15
    (np.arange(20), 21),                # a batch of more rows than exist
], ids=["batch_over_half_the_rows", "dominant_label", "batch_over_the_rows"])
def test_impossible_outside_batch_refused_at_once(labels, batch_size):
    ds = ConditionalDataset(xs=np.eye(20)[labels], ys=np.zeros((labels.size, 1)), labels=labels)
    _refused_before_any_draw(ds, batch_size, "outside_batch")


@pytest.mark.parametrize("ac_mode", ["within_batch", "outside_batch"])
@pytest.mark.parametrize("batch_size", [0, 1])
def test_pairable_check_refuses_batch_below_two(batch_size, ac_mode):
    # at 0 the key rule holds vacuously (0 rows needed, 0 found)
    with pytest.raises(ValueError, match="at least 2"):
        _check_pairable(_toy_dataset(n=40), batch_size, ac_mode)


def test_outside_batch_mode():
    ds = _toy_dataset(n=40)
    rng = np.random.default_rng(8)
    batch = sample_pair_batch(ds, 10, rng, ac_mode="outside_batch")
    assert batch.ac_source_idx is not None
    assert not np.intersect1d(batch.idx, batch.ac_source_idx).size


def test_outside_batch_row_inclusion_uniform():
    # batch and pool are a uniformly random ordered pair of disjoint row sets,
    # so every row is a batch row, and a source row, in B/n of the draws
    labels = np.repeat(np.arange(4), [10, 15, 20, 15])
    ds = ConditionalDataset(xs=np.eye(4)[labels], ys=np.zeros((60, 1)), labels=labels)
    rng = np.random.default_rng(14)
    n_draws, batch_size = 3000, 10
    in_batch, in_source = np.zeros(60), np.zeros(60)
    for _ in range(n_draws):
        batch = sample_pair_batch(ds, batch_size, rng, "outside_batch")
        in_batch[batch.idx] += 1
        in_source[batch.ac_source_idx] += 1
    p = batch_size / len(ds)
    sd = np.sqrt(n_draws * p * (1 - p))
    assert np.all(np.abs(in_batch - n_draws * p) < 6 * sd)
    assert np.all(np.abs(in_source - n_draws * p) < 6 * sd)


def _stream_digest(ds, batch_size, seed, n_draws=200):
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for _ in range(n_draws):
        batch = sample_pair_batch(ds, batch_size, rng)
        h.update(batch.idx.tobytes())
        h.update(batch.ac_source_idx.tobytes())
    return h.hexdigest()


def test_within_batch_stream_pinned():
    # The within-batch draw consumes the generator as the sampler always
    # has: these digests of 200 draws were recorded before the two modes
    # shared one draw, so training runs stay bit-identical across it.
    gauss = sample_dataset(GaussModesTask(), 800, seed=2)
    assert _stream_digest(gauss, 64, 21) == \
        "e1a035f9519e15252d7047e4b1d5697362069353d1c12e1736a2b6a07e10696e"
    unlabelled = ConditionalDataset(xs=gauss.xs, ys=gauss.ys)  # keys by one-hot row
    assert _stream_digest(unlabelled, 64, 21) == \
        "e1a035f9519e15252d7047e4b1d5697362069353d1c12e1736a2b6a07e10696e"
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 6, 300)
    repeated = ConditionalDataset(xs=rng.standard_normal((6, 2))[keys], ys=np.zeros((300, 1)))
    assert _stream_digest(repeated, 16, 22) == \
        "2c278aed5b091bd3f439ec9638375fa5d23b465d7058a09491775ecd63ddeb71"
    regression = sample_dataset(CondRegressionTask(), 300, seed=3)  # distinct conditions
    assert _stream_digest(regression, 16, 23) == \
        "7ac8c5fb1cece07c16e08f957ec57ce35ed2c49ee733c567b5136a22ccd1f317"


def test_a_batch_and_a_step_load_neither_numpy_ma_nor_scipy():
    # np.unique imports numpy.ma on its first call, some 15 ms per process
    code = """
import sys
import numpy as np
from cganlab.nets import Discriminator, Generator
from cganlab.pairing import sample_pair_batch
from cganlab.tasks import GaussModesTask, sample_dataset
from cganlab.trainer import TrainConfig, train
ds = sample_dataset(GaussModesTask(), 64, seed=0)
sample_pair_batch(ds, 64, np.random.default_rng(0))
gen, disc = Generator.build(8, 2, hidden=(8,), seed=1), Discriminator.build(8, 2, hidden=(8,), seed=2)
log, _ = train(gen, disc, ds, TrainConfig(epochs=1, batch_size=64))
assert len(log.rows) == 1
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith(("numpy.ma.", "scipy"))))
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cganlab.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def _collect_ac_pairs(ds, n_pairs, batch_size, rng, ac_mode="within_batch"):
    xt_rows, y_rows = [], []
    while len(xt_rows) * batch_size < n_pairs:
        batch = sample_pair_batch(ds, batch_size, rng, ac_mode)
        xt_rows.append(ds.xs[batch.ac_source_idx])
        y_rows.append(ds.ys[batch.idx])
    return np.concatenate(xt_rows), np.concatenate(y_rows)


def _assert_decorrelated_up_to_exclusion_bias(ac_mode, seed):
    # independence surrogate. The x_tilde != x exclusion leaves exactly one
    # unavoidable dependence: conditioned on x_tilde = k the target's own
    # label is never k, so E[y | x_tilde=k] = -c_k / (K-1) and
    # corr(x_tilde_k, y_j) -> -c_kj / ((K-1) K sigma_x sigma_y). The sample
    # correlation must match that closed form and nothing more.
    task = GaussModesTask()
    ds = sample_dataset(task, 2000, seed=11)
    xt, y = _collect_ac_pairs(ds, 10_000, 50, np.random.default_rng(seed), ac_mode)
    k = task.n_modes
    centers = task.centers()
    sigma_x = np.sqrt((1 / k) * (1 - 1 / k))
    sigma_y = np.sqrt((centers**2).mean(axis=0) + task.sigma**2)
    for i in range(k):
        for j in range(2):
            corr = np.corrcoef(xt[:, i], y[:, j])[0, 1]
            predicted = -centers[i, j] / ((k - 1) * k * sigma_x * sigma_y[j])
            assert abs(corr - predicted) < 0.03


def test_shuffled_conditions_decorrelate_up_to_exclusion_bias():
    _assert_decorrelated_up_to_exclusion_bias("within_batch", seed=12)


def test_outside_batch_conditions_fully_independent():
    # outside-batch pairs share no row with the batch and no key with their
    # target row, so apart from that same-key exclusion they are independent:
    # the same closed form as the within-batch shuffle, and nothing more
    _assert_decorrelated_up_to_exclusion_bias("outside_batch", seed=13)


def test_keyed_derangement_label_marginal_near_uniform():
    # The swap-repair sampler is not uniform over valid permutations, but the
    # label a row is shuffled to is close to uniform over the 7 other labels.
    # Band: 1/7 +- 0.0175, about six binomial standard deviations for one cell
    # at 2000 batches of 64; measured 0.137-0.149 at this seed.
    ds = sample_dataset(GaussModesTask(), 8000, seed=1)
    rng = np.random.default_rng(1)
    counts = np.zeros((8, 8))
    for _ in range(2000):
        batch = sample_pair_batch(ds, 64, rng)
        np.add.at(counts, (ds.labels[batch.idx], ds.labels[batch.ac_source_idx]), 1)
    share = counts / counts.sum(axis=1, keepdims=True)
    assert np.all(np.diag(share) == 0.0)
    off_diagonal = share[~np.eye(8, dtype=bool)]
    assert np.all(np.abs(off_diagonal - 1 / 7) < 0.0175)


@st.composite
def _keyed_datasets(draw):
    """Small datasets whose condition keys repeat: labels, or repeated x rows."""
    k = draw(st.integers(2, 5))
    per_key = draw(st.integers(4, 12))
    keys = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(
        np.repeat(np.arange(k), per_key))
    ys = np.arange(keys.size, dtype=float)[:, None]
    if draw(st.booleans()):
        return ConditionalDataset(xs=np.eye(k)[keys], ys=ys, labels=keys)
    pool = draw(hnp.arrays(np.float64, (k, 2), elements=st.integers(-3, 3).map(float),
                           unique=True))
    return ConditionalDataset(xs=pool[keys], ys=ys)


@settings(max_examples=80, deadline=None)
@given(ds=_keyed_datasets(), data=st.data(), ac_mode=st.sampled_from(
    ["within_batch", "outside_batch"]), seed=st.integers(0, 2**32 - 1))
def test_no_acontrario_pair_shares_a_key(ds, data, ac_mode, seed):
    batch_size = data.draw(st.integers(2, len(ds) // 2))
    m = batch_size if ac_mode == "within_batch" else 2 * batch_size
    counts = np.unique(ds.xs, axis=0, return_counts=True)[1]
    rng = np.random.default_rng(seed)
    if np.minimum(counts, m // 2).sum() < m:
        # no m rows keep each key to half of them: e.g. two keys, odd batch
        before = rng.bit_generator.state
        with pytest.raises(ValueError):
            sample_pair_batch(ds, batch_size, rng, ac_mode)
        assert rng.bit_generator.state == before
        return
    batch = sample_pair_batch(ds, batch_size, rng, ac_mode)
    src = batch.ac_source_idx
    if ds.labels is not None:
        assert not np.any(ds.labels[src] == ds.labels[batch.idx])
    assert not np.any(np.all(ds.xs[src] == ds.xs[batch.idx], axis=1))
    assert np.unique(src).size == batch_size
    if ac_mode == "outside_batch":
        assert not np.intersect1d(src, batch.idx).size
    else:
        np.testing.assert_array_equal(np.sort(src), np.sort(batch.idx))


def test_dataset_csv_round_trip_bitwise(tmp_path):
    ds = sample_dataset(GaussModesTask(), 100, seed=13)
    path = tmp_path / "ds.csv"
    save_dataset_csv(ds, path)
    back = load_dataset_csv(path)
    assert back.xs.tobytes() == ds.xs.tobytes()
    assert back.ys.tobytes() == ds.ys.tobytes()
    np.testing.assert_array_equal(back.labels, ds.labels)
    save_dataset_csv(back, tmp_path / "ds2.csv")
    assert (tmp_path / "ds.csv").read_bytes() == (tmp_path / "ds2.csv").read_bytes()


@pytest.mark.parametrize("task", [GaussModesTask(), CondRegressionTask()],
                         ids=["labelled", "unlabelled"])
def test_loaded_dataset_counts_its_keys_once(tmp_path, task):
    # the sampler's pairability rule reads these counts on every draw
    save_dataset_csv(sample_dataset(task, 300, seed=5), tmp_path / "ds.csv")
    ds = load_dataset_csv(tmp_path / "ds.csv")
    assert ds.key_counts.tobytes() == np.bincount(ds.keys).tobytes()
    assert ds.key_counts.sum() == len(ds)


def _csv_writer_reference(ds, path):
    """The dataset writer as it was before it built lines itself: csv.writer rows."""
    dx, dy = ds.xs.shape[1], ds.ys.shape[1]
    header = [f"x_{i}" for i in range(dx)] + [f"y_{i}" for i in range(dy)]
    if ds.labels is not None:
        header.append("label")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(ds)):
            row = [repr(float(v)) for v in ds.xs[i]] + [repr(float(v)) for v in ds.ys[i]]
            if ds.labels is not None:
                row.append(str(int(ds.labels[i])))
            writer.writerow(row)


EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.797e308, -1.797e308,
            1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]


def _assert_csv_bytes_match_csv_writer(ds, tmp):
    new, ref = Path(tmp) / "new.csv", Path(tmp) / "ref.csv"
    save_dataset_csv(ds, new)
    _csv_writer_reference(ds, ref)
    assert new.read_bytes() == ref.read_bytes()


# the first two ids are labelled and unlabelled Gauss-modes data
@pytest.mark.parametrize("dataset, labelled", [
    ("gauss_modes", True), ("gauss_modes", False), ("cond_regression", False),
    ("signed_zero_x", False),
], ids=["True", "False", "cond_regression", "signed_zero_x"])
def test_dataset_csv_bytes_match_csv_writer(tmp_path, dataset, labelled):
    if dataset == "signed_zero_x":
        # equal as values but not as bits: each row must print its own sign
        ds = ConditionalDataset(xs=[[0.0], [-0.0], [0.0], [-0.0]], ys=np.zeros((4, 1)))
    else:
        task = GaussModesTask() if dataset == "gauss_modes" else CondRegressionTask()
        ds = sample_dataset(task, 200, seed=5)
    ys = ds.ys.copy()
    ys.ravel()[: len(EXTREMES)] = EXTREMES[: ys.size]
    ds = ConditionalDataset(xs=ds.xs, ys=ys, labels=ds.labels if labelled else None)
    _assert_csv_bytes_match_csv_writer(ds, tmp_path)


# bit patterns the writer must keep apart or print specially: signed zeros,
# NaN, the infinities and subnormals
_SPECIAL = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324,
            1e-310, -2.2250738585072009e-308, 1.0, -1.0]
_pooled_value = st.one_of(st.sampled_from(_SPECIAL), st.floats())


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_distinct=st.integers(1, 4), n=st.integers(2, 24),
       dx=st.integers(1, 3), dy=st.integers(1, 2), labelled=st.booleans())
def test_dataset_csv_bytes_with_repeated_conditions_match_csv_writer(
        data, n_distinct, n, dx, dy, labelled):
    # conditions from a small pool, so keys repeat; the pool holds each row
    # again with its zeros' signs flipped, which must not share a key
    pool = data.draw(hnp.arrays(np.float64, (n_distinct, dx), elements=_pooled_value))
    pool = np.concatenate([pool, np.where(pool == 0.0, -pool, pool)])
    xs = pool[data.draw(hnp.arrays(np.intp, n, elements=st.integers(0, len(pool) - 1)))]
    ys = data.draw(hnp.arrays(np.float64, (n, dy), elements=_pooled_value))
    labels = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 10**6))) \
        if labelled else None
    with tempfile.TemporaryDirectory() as tmp:
        _assert_csv_bytes_match_csv_writer(ConditionalDataset(xs=xs, ys=ys, labels=labels), tmp)


def test_dataset_csv_writer_peak_memory_below_four_file_sizes(tmp_path):
    # 16,000 rows on 32 one-hot conditions: formatting every row peaks at
    # about 10 file sizes, formatting each distinct condition once at under 3
    ds = sample_dataset(GaussModesTask(n_modes=32, radius=8.0), 16000, 3)
    tracemalloc.start()
    try:
        save_dataset_csv(ds, tmp_path / "ds.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * (tmp_path / "ds.csv").stat().st_size


_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EXTREMES))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 12), dx=st.integers(1, 3), dy=st.integers(1, 3),
       labelled=st.booleans())
def test_dataset_csv_round_trip_bit_exact_property(data, n, dx, dy, labelled):
    xs = data.draw(hnp.arrays(np.float64, (n, dx), elements=_finite))
    ys = data.draw(hnp.arrays(np.float64, (n, dy), elements=_finite))
    labels = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 10**6))) \
        if labelled else None
    ds = ConditionalDataset(xs=xs, ys=ys, labels=labels)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.csv"
        save_dataset_csv(ds, path)
        back = load_dataset_csv(path)
    assert back.xs.tobytes() == xs.tobytes()
    assert back.ys.tobytes() == ys.tobytes()
    if labelled:
        assert back.labels.dtype == np.int64
        np.testing.assert_array_equal(back.labels, labels)
    else:
        assert back.labels is None


@pytest.mark.parametrize("body", [
    "",
    "1.0,2.0,3\r\n1.0,2.0\r\n",
    "1.0,2.0,3\r\n1.0,2.0,abc\r\n",
    "1.0,2.0,3\r\n1.0,2.0,2.5\r\n",
], ids=["header_only", "ragged", "text_cell", "fractional_label"])
def test_malformed_dataset_csv_rejected(tmp_path, body):
    path = tmp_path / "ds.csv"
    path.write_bytes(("x_0,y_0,label\r\n" + body).encode())
    with pytest.raises(ValueError), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt: "input contained no data"
        load_dataset_csv(path)


def test_empty_dataset_csv_rejected(tmp_path):
    # not even a header: the malformed bodies above all follow one
    path = tmp_path / "ds.csv"
    path.write_bytes(b"")
    with pytest.raises(ValueError, match="ds.csv"):
        load_dataset_csv(path)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), width=st.integers(1, 40), n_distinct=st.integers(1, 12),
       n=st.integers(2, 60))
def test_row_keys_equal_unique_inverse(data, width, n_distinct, n):
    # few distinct rows, so rows repeat; signed zeros must share a key
    values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                       st.floats(allow_nan=False, allow_infinity=False))
    pool = data.draw(hnp.arrays(np.float64, (n_distinct, width), elements=values))
    rows = pool[data.draw(hnp.arrays(np.intp, n, elements=st.integers(0, n_distinct - 1)))]
    expected = np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)
    np.testing.assert_array_equal(_row_keys(rows), expected)
    np.testing.assert_array_equal(ConditionalDataset(xs=rows, ys=np.zeros((n, 1))).keys,
                                  expected)


def test_dataset_invariants():
    with pytest.raises(ValueError):
        ConditionalDataset(xs=np.ones((3, 2)), ys=np.ones((4, 2)))
    with pytest.raises(ValueError):
        ConditionalDataset(xs=np.ones((1, 2)), ys=np.ones((1, 2)))


_FOUR = np.arange(4)


@pytest.mark.parametrize("xs, ys, labels, message", [
    (np.eye(4), np.ones((4, 2)), np.tile(_FOUR, 2), r"labels must have shape \(4,\), got \(8,\)"),
    (np.eye(4)[np.tile(_FOUR, 2)], np.ones((8, 2)), _FOUR,
     r"labels must have shape \(8,\), got \(4,\)"),
    (np.eye(4), np.ones((4, 2)), _FOUR[:, None], r"labels must have shape \(4,\), got \(4, 1\)"),
    (np.eye(4), np.ones((4, 2)), [0.5, 1.7, 2.0, 3.0], "labels must be integers"),
    (np.eye(4), np.ones(4), _FOUR, r"got shapes \(4, 4\) and \(4,\)"),
    (np.eye(4), np.ones((4, 2, 1)), _FOUR, r"got shapes \(4, 4\) and \(4, 2, 1\)"),
    (np.ones(4), np.ones((4, 2)), None, r"got shapes \(4,\) and \(4, 2\)"),
], ids=["more_labels_than_rows", "fewer_labels_than_rows", "labels_2d", "labels_fractional",
        "ys_1d", "ys_3d", "xs_1d"])
def test_dataset_refuses_arrays_that_break_later(xs, ys, labels, message):
    # each of these was accepted and failed in the sampler, in np.bincount,
    # or, for fractional labels, was truncated to other labels
    with pytest.raises(ValueError, match=message):
        ConditionalDataset(xs=xs, ys=ys, labels=labels)


def test_csv_with_a_fractional_label_refused(tmp_path):
    path = tmp_path / "dataset.csv"
    path.write_text("x_0,y_0,label\r\n0.0,1.0,0\r\n1.0,2.0,0.5\r\n")
    message = f"dataset csv {path}: dataset labels must be integers"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_dataset_csv(path)
