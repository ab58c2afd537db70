import math

import numpy as np
import pytest

from cganlab.pairing import save_dataset_csv
from cganlab.tasks import CondRegressionTask, GaussModesTask, sample_dataset, task_from_dict


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


def test_overlapping_modes_rejected():
    with pytest.raises(ValueError, match="overlap"):
        GaussModesTask(n_modes=8, radius=4.0, sigma=0.8)


@pytest.mark.parametrize("task, field, value, message", [
    (GaussModesTask, "sigma", -0.25, "sigma must be non-negative, got -0.25"),
    (GaussModesTask, "sigma", float("nan"), "sigma must be non-negative, got nan"),
    (GaussModesTask, "radius", -4.0, "radius must be positive and finite, got -4.0"),
    (GaussModesTask, "radius", 0.0, "radius must be positive and finite, got 0.0"),
    (GaussModesTask, "radius", math.inf, "radius must be positive and finite, got inf"),
    (CondRegressionTask, "noise_std", -0.05,
     "noise_std must be finite and non-negative, got -0.05"),
    (CondRegressionTask, "noise_std", math.inf,
     "noise_std must be finite and non-negative, got inf"),
], ids=["negative_sigma", "nan_sigma", "negative_radius", "zero_radius", "infinite_radius",
        "negative_noise_std", "infinite_noise_std"])
def test_impossible_noise_or_radius_refused(task, field, value, message):
    # a noise scale only multiplies a standard normal, so -s would draw the
    # data s draws while recording another task
    with pytest.raises(ValueError, match=message):
        task(**{field: value})


@pytest.mark.parametrize("task, field, value", [
    (GaussModesTask, "n_modes", True),
    (GaussModesTask, "n_modes", 8.0),
    (CondRegressionTask, "dim_x", 4.0),
    (CondRegressionTask, "dim_y", True),
    (CondRegressionTask, "map_seed", True),
    (CondRegressionTask, "map_seed", 7.5),
], ids=["bool_n_modes", "float_n_modes", "float_dim_x", "bool_dim_y", "bool_map_seed",
        "fraction_map_seed"])
def test_count_that_is_not_an_int_refused(task, field, value):
    # a bool would be recorded as `true` in the task dict, and a float would
    # build the task and fail later inside numpy
    with pytest.raises(ValueError, match=f"^{field} must be an int, got {value!r}$"):
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


def test_task_dict_round_trip():
    for task in (GaussModesTask(5, 3.0, 0.2), CondRegressionTask(3, 1, 0.1, 2)):
        assert task_from_dict(task.to_dict()) == task
    with pytest.raises(ValueError):
        task_from_dict({"type": "images"})
