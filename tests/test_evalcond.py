import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cganlab import cli, evalcond
from cganlab.evalcond import (
    PAIRINGS,
    EvalConfig,
    _kmeans,
    _nearest_centroid,
    auroc,
    build_histogram,
    check_ndb_settings,
    collect_logits,
    ndb_score,
    oracle_accuracy,
    oracle_classify,
    regression_error,
    regression_metrics,
    write_histogram_csv,
)
from cganlab.nets import Discriminator, Generator, MlpSpec
from cganlab.pairing import _row_keys
from cganlab.tasks import CondRegressionTask, GaussModesTask, sample_dataset
from cganlab.trainer import TrainConfig


def setup_eval(seed=0, n=400):
    task = GaussModesTask()
    ds = sample_dataset(task, n, seed)
    gen = Generator.build(task.dim_x, task.dim_y, hidden=(16, 16), seed=seed + 1)
    disc = Discriminator.build(task.dim_x, task.dim_y, hidden=(16, 16), seed=seed + 2)
    return task, ds, gen, disc


def centroid_generator(task):
    # one-hot label in, exact mode centroid out: leaky-relu passes the
    # positive 2*e_k activation, and 2 * (c/2) is exact in floats
    spec = MlpSpec((task.n_modes, task.n_modes, 2))
    gen = Generator(spec, np.zeros(spec.n_params))
    gen.params[0][:] = 2.0 * np.eye(task.n_modes)
    gen.params[2][:] = task.centers() / 2.0
    return gen


# -- collect_logits ------------------------------------------------------

def test_zero_discriminator_gives_all_zero_logits():
    task, ds, gen, disc = setup_eval()
    disc.flat[:] = 0.0
    logits = collect_logits(disc, gen, ds, 100, seed=0)
    for name in PAIRINGS:
        np.testing.assert_array_equal(logits[name], np.zeros(100))


def test_collect_logits_deterministic():
    task, ds, gen, disc = setup_eval()
    a = collect_logits(disc, gen, ds, 100, seed=3)
    b = collect_logits(disc, gen, ds, 100, seed=3)
    for name in PAIRINGS:
        assert a[name].tobytes() == b[name].tobytes()


def test_real_cond_matches_independent_recomputation():
    # recompute f(x, y) with a bare numpy forward pass, no autodiff
    task, ds, gen, disc = setup_eval()
    n_eval = len(ds)
    logits = collect_logits(disc, gen, ds, n_eval, seed=1)

    rng = np.random.default_rng(1)
    idx = np.sort(rng.choice(len(ds), n_eval, replace=False))  # n_eval == N
    h = np.concatenate([ds.xs[idx], ds.ys[idx]], axis=1)
    ws = disc.params
    for i in range(0, len(ws) - 2, 2):
        h = h @ ws[i] + ws[i + 1]
        h = np.where(h > 0, h, 0.2 * h)
    expected = (h @ ws[-2] + ws[-1]).ravel()

    np.testing.assert_allclose(np.sort(logits["real_cond"]), np.sort(expected), rtol=1e-10)


def test_collect_logits_bounds():
    task, ds, gen, disc = setup_eval()
    with pytest.raises(ValueError):
        collect_logits(disc, gen, ds, 1, seed=0)
    with pytest.raises(ValueError):
        collect_logits(disc, gen, ds, len(ds) + 1, seed=0)


# -- histograms ----------------------------------------------------------

def test_histogram_degenerate_single_value():
    logits = {name: np.zeros(40) for name in PAIRINGS}
    hist = build_histogram(logits, n_bins=50)
    assert len(hist.bin_edges) == 2
    assert hist.bin_edges[1] - hist.bin_edges[0] == 1.0
    for name in PAIRINGS:
        assert hist.counts[name].sum() == 40


def test_histogram_conserves_counts_with_shared_edges():
    rng = np.random.default_rng(4)
    logits = {name: rng.normal(i, 1.0, 300 + 10 * i) for i, name in enumerate(PAIRINGS)}
    hist = build_histogram(logits, n_bins=25)
    for i, name in enumerate(PAIRINGS):
        assert hist.counts[name].sum() == 300 + 10 * i
    lo = min(a.min() for a in logits.values())
    hi = max(a.max() for a in logits.values())
    assert hist.bin_edges[0] == lo and hist.bin_edges[-1] == hi


def test_histogram_uniform_counts_within_binomial_band():
    # binomial oracle: each of 10 bins holds Binomial(N, 0.1) samples
    n = 100_000
    rng = np.random.default_rng(5)
    u = rng.uniform(0.0, 1.0, n)
    logits = {name: u for name in PAIRINGS}
    hist = build_histogram(logits, n_bins=10)
    sigma = np.sqrt(n * 0.1 * 0.9)
    for c in hist.counts["real_cond"]:
        assert abs(c - n / 10) <= 3 * sigma


def test_histogram_csv_layout(tmp_path):
    rng = np.random.default_rng(6)
    logits = {name: rng.normal(0, 1, 100) for name in PAIRINGS}
    hist = build_histogram(logits, n_bins=10)
    path = tmp_path / "hist.csv"
    write_histogram_csv(hist, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count_real_cond,count_gen_cond,count_real_ac,count_gen_ac"
    assert len(lines) == 11


# -- classification rates ------------------------------------------------

def test_zero_discriminator_rates_and_aurocs():
    # every logit is 0: none lies above the threshold 0, and every pair of
    # pairings ties, so each AUROC counts all its pairs half
    task, ds, gen, disc = setup_eval()
    disc.flat[:] = 0.0
    ev = EvalConfig(n_eval=200, ndb_k=4, n_per_label=20, phase_epochs=0)
    report, _, _ = evalcond.evaluate(gen, disc, ds, task, TrainConfig(batch_size=50), ev)
    assert report["classification_rates"] == {name: 0.0 for name in PAIRINGS}
    assert report["auroc"] == {name: 0.5 for name in PAIRINGS[1:]}


# -- auroc ---------------------------------------------------------------

def test_auroc_counts_ties_half():
    assert auroc(np.array([1.0]), np.array([1.0])) == 0.5
    assert auroc(np.array([2.0, 3.0]), np.array([1.0])) == 1.0
    # of the 4 pairs one ties and none is won
    assert auroc(np.array([1.0, 2.0]), np.array([2.0, 3.0])) == 0.125
    assert auroc(np.array([0.0]), np.array([-0.0])) == 0.5


# few distinct values, so most pairs tie; -0.0 and 0.0 must tie too
_SCORES = st.lists(st.sampled_from([-math.inf, -1.0, -0.0, 0.0, 0.5, 1.0, math.inf])
                   | st.floats(allow_nan=False), min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(pos=_SCORES, neg=_SCORES)
def test_auroc_is_the_mean_over_all_pairs(pos, neg):
    p, n = np.array(pos)[:, None], np.array(neg)[None, :]
    assert auroc(np.array(pos), np.array(neg)) == np.mean((p > n) + 0.5 * (p == n))


# -- eval config ---------------------------------------------------------

@pytest.mark.parametrize("values, message, cli_message", [
    ({"ndb_k": 0}, "ndb_k must be at least 1, got 0", None),
    ({"n_bins": 0}, "n_bins must be at least 1, got 0", None),
    ({"n_per_label": 0}, "n_per_label must be at least 1, got 0", None),
    ({"phase_epochs": -1}, "phase_epochs must be at least 0, got -1", None),
    ({"n_eval": 0}, "n_eval must be at least 2, got 0", None),
    # the other range checks come before NDB's bin count, n_eval first
    ({"ndb_k": 0, "n_bins": 0, "n_eval": 1}, "n_eval must be at least 2, got 1", None),
    ({"ndb_k": 0, "n_per_label": 0}, "n_per_label must be at least 1, got 0", None),
    # a bool or a float count: the CLI refuses its type before EvalConfig sees it
    ({"n_bins": True}, "n_bins must be an int, got True",
     "eval.n_bins must be of the type of 50, got true"),
    ({"phase_epochs": True}, "phase_epochs must be an int, got True",
     "eval.phase_epochs must be of the type of 1, got true"),
    ({"n_per_label": True}, "n_per_label must be an int, got True",
     "eval.n_per_label must be of the type of 1000, got true"),
    ({"n_eval": 2.5}, "n_eval must be an int, got 2.5",
     "eval.n_eval must be of the type of 4000, got 2.5"),
    ({"ndb_k": 20.0}, "ndb_k must be an int, got 20.0",
     "eval.ndb_k must be of the type of 20, got 20.0"),
], ids=["ndb_k_zero", "n_bins_zero", "n_per_label_zero", "phase_epochs_negative", "n_eval_zero",
        "n_eval_first", "ranges_before_ndb", "bool_n_bins", "bool_phase_epochs",
        "bool_n_per_label", "float_n_eval", "float_ndb_k"])
def test_eval_config_refuses_what_the_cli_refuses(tmp_path, values, message, cli_message):
    # ndb_k above a tenth of the dataset's rows needs the dataset: the
    # stages refuse it through check_ndb_settings
    with pytest.raises(ValueError) as refused:
        EvalConfig(**values)
    assert str(refused.value) == message
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"eval": values}))
    with pytest.raises(cli.CliError) as e:
        cli.load_config(p)
    assert (e.value.kind, str(e.value)) == ("invalid-config", cli_message or f"eval: {message}")


# -- oracle, nearest centroid and regression error -----------------------

def test_oracle_fixed_points():
    task = GaussModesTask()
    labels = oracle_classify(task, task.centers())
    np.testing.assert_array_equal(labels, np.arange(8))
    assert oracle_classify(task, task.centers()[3:4])[0] == 3


def test_oracle_tie_breaks_to_lowest_index():
    # mirrored centers (+1, 0) / (-1, 0) make the tie exact in floats
    task = GaussModesTask(n_modes=2, radius=1.0, sigma=0.1)
    assert oracle_classify(task, np.array([[0.0, 0.5]]))[0] == 0


def test_oracle_matches_brute_force_distance_table():
    task = GaussModesTask()
    rng = np.random.default_rng(3)
    ys = rng.uniform(-6, 6, (10_000, 2))
    fast = oracle_classify(task, ys)
    centers = task.centers()
    for i in range(0, 10_000, 117):  # spot-check a deterministic stride
        dists = [float(np.sum((ys[i] - c) ** 2)) for c in centers]
        assert fast[i] == int(np.argmin(dists))
    slow = np.array([min(range(8), key=lambda k: float(np.sum((y - centers[k]) ** 2)))
                     for y in ys])
    np.testing.assert_array_equal(fast, slow)


# few distinct values, so points repeat, sit on centroids and tie exactly
_COORDS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]) | st.floats(-4.0, 4.0)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_nearest_centroid_equals_argmin_over_broadcast_table(data):
    d = data.draw(st.integers(1, 7), label="d")
    rows = st.lists(_COORDS, min_size=d, max_size=d)
    centroids = np.array(data.draw(st.lists(rows, min_size=1, max_size=6), label="centroids"))
    points = data.draw(st.lists(rows, min_size=1, max_size=12), label="points")
    points += [list(centroids[i]) for i in data.draw(
        st.lists(st.integers(0, len(centroids) - 1), max_size=3), label="on centroids")]
    points = np.array(points)
    for array in (points, centroids):
        nan_row = data.draw(st.none() | st.integers(0, len(array) - 1), label="nan row")
        if nan_row is not None:
            array[nan_row, data.draw(st.integers(0, d - 1))] = np.nan
    table = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
    buffers = (np.empty((len(centroids), len(points))), np.empty((len(centroids), len(points))))

    assign, nearest = _nearest_centroid(points, centroids, buffers)
    np.testing.assert_array_equal(assign, table.argmin(axis=1))
    assert buffers[0].T.tobytes() == table.tobytes()
    np.testing.assert_array_equal(nearest, table.min(axis=1))


def test_nearest_centroid_refuses_other_dimensions():
    with pytest.raises(ValueError, match="coordinates"):
        _nearest_centroid(np.zeros((3, 2)), np.zeros((2, 3)))


def test_real_data_oracle_accuracy_near_one():
    # 4-sigma mode separation keeps the nearest-centroid oracle near-exact
    task = GaussModesTask()
    ds = sample_dataset(task, 8000, seed=4)
    acc = np.mean(oracle_classify(task, ds.ys) == ds.labels)
    assert acc >= 0.999


def test_regression_metrics_identity_is_zero():
    target = np.random.default_rng(6).standard_normal((50, 2))
    m = regression_metrics(target, target)
    assert m["rmse"] == 0.0 and m["nrmse"] == 0.0


def test_regression_rmse_hand_value():
    # zero prediction against constant [3, 4]: sqrt((9 + 16) / 2)
    m = regression_metrics(np.zeros((1, 2)), np.array([[3.0, 4.0]]))
    assert abs(m["rmse"] - 3.535534) < 1e-6
    assert m["nrmse"] is None  # one row: the target has no spread


def test_regression_metrics_match_one_pass_recomputation():
    rng = np.random.default_rng(7)
    pred = rng.standard_normal((300, 2))
    target = rng.standard_normal((300, 2))
    m = regression_metrics(pred, target)

    # independent scalar-loop recomputation
    se = spread = 0.0
    n = 0
    for j in range(2):
        mean = sum(target[i, j] for i in range(300)) / 300
        for i in range(300):
            p, t = pred[i, j], target[i, j]
            se += (p - t) ** 2
            spread += (t - mean) ** 2
            n += 1
    assert abs(m["rmse"] - np.sqrt(se / n)) < 1e-10
    assert abs(m["nrmse"] - np.sqrt(se / spread)) < 1e-10


def test_regression_error_runs_against_generator():
    task = CondRegressionTask()
    gen = Generator.build(task.dim_x, task.dim_y, hidden=(8,), seed=0)
    m = regression_error(task, gen, 500, seed=1)
    assert set(m) == {"rmse", "nrmse"}
    assert all(np.isfinite(v) for v in m.values())
    with pytest.raises(TypeError):
        regression_error(GaussModesTask(), gen, 10)


def test_regression_error_scores_conditions_the_dataset_does_not_hold(monkeypatch):
    # its conditions once were sample_dataset's first n_eval rows at the same seed
    task = CondRegressionTask()
    gen = Generator.build(task.dim_x, task.dim_y, hidden=(8,), noise_dim=1, seed=0)
    seen = []
    real_forward = evalcond.gen_forward

    def spy(gen_, x, rng=None, **kwargs):
        seen.append(x)
        return real_forward(gen_, x, rng, **kwargs)

    monkeypatch.setattr(evalcond, "gen_forward", spy)
    regression_error(task, gen, 500, seed=3)
    (xs,) = seen
    assert xs.shape == (500, task.dim_x)
    dataset_rows = {row.tobytes() for row in sample_dataset(task, 2000, seed=3).xs}
    assert not dataset_rows & {row.tobytes() for row in xs}


# -- oracle accuracy -----------------------------------------------------

def test_centroid_generator_scores_one():
    task = GaussModesTask()
    assert oracle_accuracy(centroid_generator(task), task, 50, seed=0) == 1.0


def test_condition_blind_generator_scores_chance():
    task = GaussModesTask()
    spec = MlpSpec((task.n_modes, task.n_modes, 2))
    gen = Generator(spec, np.zeros(spec.n_params))
    gen.params[-1][:] = task.centers()[0]  # constant output at centroid 0
    assert oracle_accuracy(gen, task, 50, seed=0) == 1.0 / task.n_modes


def test_random_generator_matches_independent_monte_carlo():
    task = GaussModesTask()
    gen = Generator.build(task.dim_x, task.dim_y, noise_dim=2, seed=8)
    acc = oracle_accuracy(gen, task, 400, seed=9)

    # independent recomputation: same draw protocol, bare numpy forward
    rng = np.random.default_rng(9)
    correct = 0
    for label in range(task.n_modes):
        x = np.zeros((400, task.n_modes))
        x[:, label] = 1.0
        z = rng.standard_normal((400, 2))
        h = np.concatenate([x, z], axis=1)
        for i in range(0, len(gen.params) - 2, 2):
            h = h @ gen.params[i] + gen.params[i + 1]
            h = np.where(h > 0, h, 0.2 * h)
        y = h @ gen.params[-2] + gen.params[-1]
        correct += int(np.sum(oracle_classify(task, y) == label))
    assert abs(acc - correct / (task.n_modes * 400)) < 1e-12


def test_task_without_oracle_rejected():
    gen = Generator.build(4, 2, seed=0)
    with pytest.raises(TypeError):
        oracle_accuracy(gen, CondRegressionTask(), 10)


# -- ndb -----------------------------------------------------------------

def test_ndb_identical_sets_score_zero():
    rng = np.random.default_rng(10)
    real = rng.standard_normal((400, 2))
    report = ndb_score(real, real.copy(), k=8, seed=0)
    assert report.ndb_over_k == 0.0
    assert not report.significant.any()


def test_ndb_disjoint_far_clusters_score_one():
    # two-proportion test by hand: every bin is (0.5 vs 1.0) or (0.5 vs 0)
    rng = np.random.default_rng(11)
    real = rng.normal(0.0, 0.5, (200, 2))
    gen = rng.normal(50.0, 0.5, (200, 2))
    report = ndb_score(real, gen, k=2, seed=0)
    assert report.ndb_over_k == 1.0


def test_ndb_collapsed_generator_on_modes_task():
    task = GaussModesTask()
    ds = sample_dataset(task, 2000, seed=12)
    collapsed = np.tile(task.centers()[0], (2000, 1))
    report = ndb_score(ds.ys, collapsed, k=8, seed=0)
    assert report.ndb_over_k >= 0.75


def test_ndb_equal_distribution_false_positive_rate():
    # with real == gen in distribution the per-bin test fires at ~0.05, its level
    rng = np.random.default_rng(13)
    scores = []
    for _ in range(100):
        real = rng.standard_normal((250, 2))
        gen = rng.standard_normal((250, 2))
        scores.append(ndb_score(real, gen, k=5, seed=0).ndb_over_k)
    assert np.mean(scores) <= 2 * 0.05


def test_ndb_report_consistency_and_dict():
    rng = np.random.default_rng(14)
    real = rng.standard_normal((300, 2))
    gen = rng.standard_normal((300, 2)) + 0.5
    report = ndb_score(real, gen, k=6, seed=1)
    assert report.ndb_over_k == report.significant.sum() / 6
    d = report.to_dict()
    assert d["k"] == 6 and len(d["per_bin"]) == 6
    assert abs(sum(b["real_proportion"] for b in d["per_bin"]) - 1.0) < 1e-12


def test_ndb_preconditions():
    rng = np.random.default_rng(15)
    small = rng.standard_normal((30, 2))
    big = rng.standard_normal((400, 2))
    with pytest.raises(ValueError, match="10\\*k"):
        ndb_score(small, big, k=8)
    dup = np.tile(np.arange(3.0)[:, None], (100, 2))
    with pytest.raises(ValueError, match="distinct"):
        ndb_score(dup, big, k=8)
    with pytest.raises(ValueError, match="ndb_k must be at least 1, got 0"):
        ndb_score(big, big, k=0)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_distinct_points_check_matches_full_array_rule(data):
    # few distinct rows (signed zeros equal, a row with a NaN distinct from
    # every row), the prefix drawn from fewer of them than the rest
    k = data.draw(st.integers(1, 6))
    pool = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 2 * k)),
                                             data.draw(st.integers(1, 3))),
                                elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, np.nan])))
    in_prefix = data.draw(st.integers(1, len(pool)))
    picks = np.concatenate([
        data.draw(hnp.arrays(np.intp, 10 * k, elements=st.integers(0, in_prefix - 1))),
        data.draw(hnp.arrays(np.intp, data.draw(st.integers(0, 30)),
                             elements=st.integers(0, len(pool) - 1)))])
    real = pool[picks]
    rows_keyed = []

    def spy(rows):
        rows_keyed.append(rows.shape[0])
        return _row_keys(rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evalcond, "_row_keys", spy)
        try:
            check_ndb_settings(real, 10 * k, k)
            refused = False
        except ValueError as e:
            assert str(e) == f"k={k} exceeds the number of distinct real points"
            refused = True
    assert refused == (_row_keys(real).max() + 1 < k)
    if _row_keys(real[:10 * k]).max() + 1 >= k:  # the prefix settles it
        assert max(rows_keyed) <= 10 * k


def test_ndb_critical_value_matches_scipy_norm_ppf():
    # the two-sided critical value at level 0.05
    from scipy import stats

    z_crit = stats.norm.ppf(0.975)
    assert abs(evalcond._NDB_Z_CRIT - z_crit) <= 1e-12
    rng = np.random.default_rng(17)
    real = rng.standard_normal((600, 2))
    for shift in (0.0, 0.2, 0.5):
        gen = rng.standard_normal((600, 2)) * 1.3 + shift
        report = ndb_score(real, gen, k=12, seed=2)
        np.testing.assert_array_equal(report.significant, np.abs(report.z_values) > z_crit)


def _kmeans_fixed_iterations(points, k, rng, iters=50):
    """Lloyd's loop as it was before the fixed-point stop: always `iters`
    passes over the broadcast distance table. Also returns how many times
    a cluster came up empty and was reseeded."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        probs = d2 / total if total > 0 else np.full(n, 1.0 / n)
        centroids[j] = points[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    reseeds = 0
    for _ in range(iters):
        dist = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
        assign = dist.argmin(axis=1)
        for j in range(k):
            members = assign == j
            if members.any():
                centroids[j] = points[members].mean(axis=0)
            else:
                reseeds += 1
                centroids[j] = points[dist[np.arange(n), assign].argmax()]
    return centroids, reseeds


@pytest.mark.parametrize("case", ["modes8", "modes32", "empty_cluster", "cond_regression",
                                  "modes8_k50"])
def test_kmeans_equals_fixed_iteration_loop(case):
    if case == "modes8":
        points, k = sample_dataset(GaussModesTask(), 4000, seed=21).ys, 20
    elif case == "modes32":
        task = GaussModesTask(n_modes=32, radius=8.0)
        points, k = sample_dataset(task, 8000, seed=22).ys, 20
    elif case == "cond_regression":
        # the regression workload's data: k-means seed 1 is still moving
        # after 50 iterations, seeds 0 and 2 stop at a fixed point
        points, k = sample_dataset(CondRegressionTask(), 8000, seed=3).ys, 20
    elif case == "modes8_k50":
        points, k = sample_dataset(GaussModesTask(), 4000, seed=21).ys, 50
    else:
        # three distinct points and five clusters: seeding has to place
        # centroids on duplicates, so some cluster is empty every pass
        points, k = np.repeat(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]]), 40, axis=0), 5
    stops = []
    for seed in (0, 1, 2):
        expected, reseeds = _kmeans_fixed_iterations(points, k, np.random.default_rng(seed))
        got, assign = _kmeans(points, k, np.random.default_rng(seed))
        assert got.tobytes() == expected.tobytes(), (case, seed)
        if assign is not None:
            table = ((points[:, None, :] - expected[None, :, :]) ** 2).sum(axis=-1)
            np.testing.assert_array_equal(assign, table.argmin(axis=1))
        stops.append(assign is not None)
        if case == "empty_cluster":
            assert reseeds > 0
    if case == "cond_regression":
        assert stops == [True, False, True]


def test_phase_block_without_a_phase():
    # the steps run and the first and last d_total: test_cli checks them against
    # phase_metrics.csv; with no phase there is no d_total to report
    task, ds, gen, disc = setup_eval()
    ev = EvalConfig(n_eval=200, ndb_k=4, n_per_label=20, phase_epochs=0)
    report, _, phase_log = evalcond.evaluate(gen, disc, ds, task, TrainConfig(batch_size=50), ev)
    assert phase_log.rows == []
    assert report["phase"] == {"steps": 0, "d_total_first": None, "d_total_last": None}
