import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cganlab import tasks
from cganlab.nets import Generator, MlpSpec, init_params
from cganlab.pairing import save_dataset_csv
from cganlab.tasks import (
    CondRegressionTask,
    GaussModesTask,
    _nearest_centroid,
    oracle_classify,
    regression_error,
    regression_metrics,
    sample_dataset,
    task_from_dict,
)


def test_sampling_deterministic_to_the_byte(tmp_path):
    task = GaussModesTask()
    for name in ("a.csv", "b.csv"):
        save_dataset_csv(sample_dataset(task, 500, seed=9), tmp_path / name)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_stratified_label_counts():
    ds = sample_dataset(GaussModesTask(), 8000, seed=0)
    counts = np.bincount(ds.labels, minlength=8)
    np.testing.assert_array_equal(counts, np.full(8, 1000))
    # remainder spreads over the lowest labels
    ds2 = sample_dataset(GaussModesTask(), 8003, seed=0)
    counts2 = np.bincount(ds2.labels, minlength=8)
    np.testing.assert_array_equal(counts2, [1001, 1001, 1001, 1000, 1000, 1000, 1000, 1000])


def test_per_mode_means_near_centers():
    task = GaussModesTask()
    ds = sample_dataset(task, 8000, seed=1)
    centers = task.centers()
    bound = 3 * task.sigma / np.sqrt(1000)
    for k in range(8):
        mean_k = ds.ys[ds.labels == k].mean(axis=0)
        assert np.all(np.abs(mean_k - centers[k]) < bound)


def test_one_hot_encoding():
    task = GaussModesTask()
    ds = sample_dataset(task, 100, seed=2)
    np.testing.assert_array_equal(ds.xs, np.eye(8)[ds.labels])


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


def test_overlapping_modes_rejected():
    with pytest.raises(ValueError, match="overlap"):
        GaussModesTask(n_modes=8, radius=4.0, sigma=0.8)


@pytest.mark.parametrize("task, field, value, message", [
    (GaussModesTask, "sigma", -0.25, "sigma must be non-negative, got -0.25"),
    (GaussModesTask, "sigma", float("nan"), "sigma must be non-negative, got nan"),
    (GaussModesTask, "radius", -4.0, "radius must be positive, got -4.0"),
    (GaussModesTask, "radius", 0.0, "radius must be positive, got 0.0"),
    (CondRegressionTask, "noise_std", -0.05, "noise_std must be non-negative, got -0.05"),
], ids=["negative_sigma", "nan_sigma", "negative_radius", "zero_radius", "negative_noise_std"])
def test_impossible_noise_or_radius_refused(task, field, value, message):
    # a noise scale only multiplies a standard normal, so -s would draw the
    # data s draws while recording another task
    with pytest.raises(ValueError, match=message):
        task(**{field: value})


def test_zero_noise_allowed():
    modes = GaussModesTask(sigma=0.0)
    ds = sample_dataset(modes, 16, seed=0)
    np.testing.assert_array_equal(ds.ys, modes.centers()[ds.labels])
    regression = CondRegressionTask(noise_std=0.0)
    ds = sample_dataset(regression, 16, seed=0)
    np.testing.assert_array_equal(ds.ys, regression.clean_map(ds.xs))


def test_regression_dataset_reproducible_map():
    task = CondRegressionTask(dim_x=4, dim_y=2, map_seed=11)
    w1, b1 = task.weights()
    w2, b2 = CondRegressionTask(dim_x=4, dim_y=2, map_seed=11).weights()
    assert w1.tobytes() == w2.tobytes() and b1.tobytes() == b2.tobytes()
    ds = sample_dataset(task, 400, seed=5)
    assert ds.labels is None
    assert ds.ys.shape == (400, 2)


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


def test_task_dict_round_trip():
    for task in (GaussModesTask(5, 3.0, 0.2), CondRegressionTask(3, 1, 0.1, 2)):
        assert task_from_dict(task.to_dict()) == task
    with pytest.raises(ValueError):
        task_from_dict({"type": "images"})


def test_regression_error_scores_conditions_the_dataset_does_not_hold(monkeypatch):
    # its conditions once were sample_dataset's first n_eval rows at the same seed
    task = CondRegressionTask()
    gen = Generator.build(task.dim_x, task.dim_y, hidden=(8,), noise_dim=1, seed=0)
    seen = []
    real_forward = tasks.gen_forward

    def spy(gen_, x, rng=None, **kwargs):
        seen.append(x)
        return real_forward(gen_, x, rng, **kwargs)

    monkeypatch.setattr(tasks, "gen_forward", spy)
    regression_error(task, gen, 500, seed=3)
    (xs,) = seen
    assert xs.shape == (500, task.dim_x)
    dataset_rows = {row.tobytes() for row in sample_dataset(task, 2000, seed=3).xs}
    assert not dataset_rows & {row.tobytes() for row in xs}
