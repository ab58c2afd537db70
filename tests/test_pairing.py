import csv
import itertools
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cganlab.pairing import (
    ConditionalDataset,
    PairBatch,
    assemble_pairings,
    load_dataset_csv,
    make_ac_permutation,
    sample_pair_batch,
    save_dataset_csv,
)
from cganlab.tasks import GaussModesTask, sample_dataset


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


def test_assemble_pairings_definitions():
    ds = _toy_dataset()
    rng = np.random.default_rng(3)
    batch = sample_pair_batch(ds, 6, rng)
    y_g = np.random.default_rng(4).standard_normal((6, 2))
    (x, y), (x2, y_g2), (xt, y3), (xt2, y_g3) = assemble_pairings(ds, batch, y_g)
    np.testing.assert_array_equal(x, ds.xs[batch.idx])
    np.testing.assert_array_equal(y, ds.ys[batch.idx])
    np.testing.assert_array_equal(x2, x)
    np.testing.assert_array_equal(y_g2, y_g)
    np.testing.assert_array_equal(xt, ds.xs[batch.idx[batch.ac_perm]])
    np.testing.assert_array_equal(y3, y)
    np.testing.assert_array_equal(xt2, xt)
    np.testing.assert_array_equal(y_g3, y_g)


def test_shuffled_condition_always_differs():
    ds = _toy_dataset()
    rng = np.random.default_rng(5)
    for _ in range(50):
        batch = sample_pair_batch(ds, 8, rng)
        (x, _), _, (xt, _), _ = assemble_pairings(ds, batch, np.zeros((8, 2)))
        assert not np.any(np.all(xt == x, axis=1))


def test_b2_swap():
    ds = ConditionalDataset(xs=np.array([[1.0], [2.0]]), ys=np.array([[0.1], [0.2]]))
    batch = PairBatch(idx=np.array([0, 1]), ac_perm=np.array([1, 0]))
    (x, _), _, (xt, _), _ = assemble_pairings(ds, batch, np.zeros((2, 1)))
    np.testing.assert_array_equal(xt, x[::-1])


def test_label_batches_avoid_same_label_mapping():
    # heavy label duplication: the value-level constraint must still hold
    ds = sample_dataset(GaussModesTask(), 800, seed=2)
    rng = np.random.default_rng(6)
    for _ in range(30):
        batch = sample_pair_batch(ds, 64, rng)
        lab = ds.labels[batch.idx]
        assert np.all(lab[batch.ac_perm] != lab)
        assert len(np.unique(lab)) >= 2
        assert len(np.unique(batch.idx)) == 64


def test_large_grouped_batch_feasible():
    # whole-permutation rejection would never terminate at this size
    ds = sample_dataset(GaussModesTask(), 4000, seed=3)
    rng = np.random.default_rng(7)
    batch = sample_pair_batch(ds, 4000, rng)
    lab = ds.labels[batch.idx]
    assert np.all(lab[batch.ac_perm] != lab)


def test_outside_batch_mode():
    ds = _toy_dataset(n=40)
    rng = np.random.default_rng(8)
    batch = sample_pair_batch(ds, 10, rng, ac_mode="outside_batch")
    assert batch.ac_source_idx is not None
    assert not np.intersect1d(batch.idx, batch.ac_source_idx).size
    (x, _), _, (xt, _), _ = assemble_pairings(ds, batch, np.zeros((10, 2)))
    np.testing.assert_array_equal(xt, ds.xs[batch.ac_source_idx])


def test_misaligned_y_g_rejected():
    ds = _toy_dataset()
    batch = sample_pair_batch(ds, 6, np.random.default_rng(9))
    with pytest.raises(ValueError):
        assemble_pairings(ds, batch, np.zeros((5, 2)))


def _collect_ac_pairs(ds, n_pairs, batch_size, rng, ac_mode="within_batch"):
    xt_rows, y_rows = [], []
    while len(xt_rows) * batch_size < n_pairs:
        batch = sample_pair_batch(ds, batch_size, rng, ac_mode)
        (_, y), _, (xt, _), _ = assemble_pairings(ds, batch, np.zeros((batch_size, 2)))
        xt_rows.append(xt)
        y_rows.append(y)
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
        lab = ds.labels[batch.idx]
        np.add.at(counts, (lab, lab[batch.ac_perm]), 1)
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
    n_keys = np.unique(ds.xs, axis=0).shape[0]
    # with two keys, an odd batch has no key-derangement of itself at all
    assume(not (ac_mode == "within_batch" and n_keys == 2 and batch_size % 2))
    batch = sample_pair_batch(ds, batch_size, np.random.default_rng(seed), ac_mode)
    src = batch.idx[batch.ac_perm] if batch.ac_source_idx is None else batch.ac_source_idx
    if ds.labels is not None:
        assert not np.any(ds.labels[src] == ds.labels[batch.idx])
    assert not np.any(np.all(ds.xs[src] == ds.xs[batch.idx], axis=1))
    if ac_mode == "outside_batch":
        assert np.unique(src).size == batch_size
        assert not np.intersect1d(src, batch.idx).size


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


@pytest.mark.parametrize("labelled", [True, False])
def test_dataset_csv_bytes_match_csv_writer(tmp_path, labelled):
    ds = sample_dataset(GaussModesTask(), 200, seed=5)
    ys = ds.ys.copy()
    ys.ravel()[: len(EXTREMES)] = EXTREMES
    ds = ConditionalDataset(xs=ds.xs, ys=ys, labels=ds.labels if labelled else None)
    save_dataset_csv(ds, tmp_path / "new.csv")
    _csv_writer_reference(ds, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


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


def test_dataset_invariants():
    with pytest.raises(ValueError):
        ConditionalDataset(xs=np.ones((3, 2)), ys=np.ones((4, 2)))
    with pytest.raises(ValueError):
        ConditionalDataset(xs=np.ones((1, 2)), ys=np.ones((1, 2)))
