import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cganlab.losses import (
    DEFAULT_LAMBDAS,
    FORMULATIONS,
    LossSpec,
    d_loss_total,
    g_loss,
)

from finite_differences import central_differences

LN2 = math.log(2.0)

CLASSIC = LossSpec("classic", (1, 1, 0, 0))
ACONTRARIO = LossSpec("acontrario", (1, 1, 1, 1))


def t(values):
    return np.asarray(values, dtype=float)


def stack(*pairings):
    """Logits of several pairings, one list of rows each, stacked as D returns them."""
    return np.concatenate([np.asarray(p, dtype=float) for p in pairings])[:, None]


def logit(p):
    return math.log(p / (1.0 - p))


def softplus(v):
    return np.logaddexp(0.0, v)


def test_classic_symmetry_point():
    bd, _ = d_loss_total(stack([0.0], [0.0]), CLASSIC, stack([0.0], [0.0]))
    assert abs(bd.d_total - 2 * LN2) < 1e-15
    for term in (bd.d_real_cond, bd.d_gen_cond, bd.d_real_ac, bd.d_gen_ac):
        assert abs(term - LN2) < 1e-15


def test_classic_perfect_discriminator_limit():
    bd, _ = d_loss_total(stack([40.0], [-40.0]), CLASSIC, stack([0.0], [0.0]))
    assert 0.0 < bd.d_total < 1e-17


def test_classic_two_element_batch_value():
    # batch means of -log p_real and -log(1 - p_fake), evaluated by hand:
    # -(ln .9 + ln .8)/2 - (ln .9 + ln .7)/2
    expected = -(math.log(0.9) + math.log(0.8)) / 2 - (math.log(0.9) + math.log(0.7)) / 2
    real, fake = [logit(0.9), logit(0.8)], [logit(0.1), logit(0.3)]
    bd, _ = d_loss_total(stack(real, fake), CLASSIC, stack([0.0, 0.0], [0.0, 0.0]))
    assert abs(bd.d_total - expected) < 1e-12
    assert abs(expected - 0.3952703) < 1e-6


def test_acontrario_rejected_limit():
    bd, _ = d_loss_total(stack([0.0], [0.0], [-40.0], [-40.0]), ACONTRARIO)
    assert 0.0 < bd.d_real_ac + bd.d_gen_ac < 1e-17


def test_acontrario_symmetry_point():
    bd, _ = d_loss_total(stack([5.0], [-5.0], [0.0], [0.0]), ACONTRARIO)
    assert abs(bd.d_real_ac + bd.d_gen_ac - 2 * LN2) < 1e-15


def test_acontrario_confident_mistake_cost():
    bd, _ = d_loss_total(stack([0.0], [0.0], [logit(0.99)], [-40.0]), ACONTRARIO)
    assert abs(bd.d_real_ac + bd.d_gen_ac - (-math.log(0.01))) < 1e-12


def test_total_strategy1_all_half():
    bd, _ = d_loss_total(stack([0.0], [0.0], [0.0], [0.0]), ACONTRARIO)
    assert abs(bd.d_total - 4 * LN2) < 1e-15


def test_total_matches_weighted_sum_of_components():
    rng = np.random.default_rng(0)
    logits = [rng.normal(0, 2, 8) for _ in range(4)]
    spec = LossSpec("acontrario", (1.0, 0.33, 0.33, 0.33))
    bd, _ = d_loss_total(stack(*logits), spec)
    weighted = (1.0 * bd.d_real_cond + 0.33 * bd.d_gen_cond
                + 0.33 * bd.d_real_ac + 0.33 * bd.d_gen_ac)
    assert abs(bd.d_total - weighted) < 1e-12
    by_hand = [softplus(-logits[0]).mean()] + [softplus(v).mean() for v in logits[1:]]
    np.testing.assert_allclose(
        [bd.d_real_cond, bd.d_gen_cond, bd.d_real_ac, bd.d_gen_ac], by_hand, rtol=1e-14)


def test_total_classic_spec_reduces_to_classic():
    # the classic total is the two conditional terms, whatever the a-contrario logits
    rng = np.random.default_rng(1)
    active = stack(rng.normal(0, 2, 5), rng.normal(0, 2, 5))
    bd, grad = d_loss_total(active, CLASSIC, stack(rng.normal(0, 2, 5), rng.normal(0, 2, 5)))
    other, other_grad = d_loss_total(active, CLASSIC,
                                     stack(rng.normal(0, 9, 5), rng.normal(0, 9, 5)))
    assert bd.d_total == other.d_total
    assert grad.tobytes() == other_grad.tobytes()
    assert abs(bd.d_total - (bd.d_real_cond + bd.d_gen_cond)) < 1e-14


def test_zero_lambda_terms_logged_but_not_differentiated():
    # lambda4 = 0 (strategy 3): the gen-ac pairing must not reach the gradient
    active = np.array([[0.8], [0.9], [0.2], [0.1], [0.3], [0.2]])
    spec = LossSpec("acontrario", (0.5, 0.5, 0.5, 0.0))
    bd, grad = d_loss_total(active, spec, np.array([[0.1], [0.4]]))
    assert bd.d_gen_ac > 0.0  # still logged
    assert grad.shape == active.shape  # one gradient row per active logit only
    _, moved = d_loss_total(active, spec, np.array([[9.0], [-9.0]]))
    assert moved.tobytes() == grad.tobytes()


def test_gradient_signs():
    for spec, l_real in itertools.product([CLASSIC, LossSpec("hinge_classic", (1, 1, 0, 0))],
                                          (-0.5, 0.0, 0.5)):
        _, grad = d_loss_total(np.array([[l_real], [0.0]]), spec, stack([0.0], [0.0]))
        assert grad[0, 0] < 0  # push the real logit up
        assert grad[1, 0] > 0  # push the generated logit down

        ac = LossSpec(spec.formulation.replace("classic", "acontrario"), (1, 1, 1, 1))
        _, grad = d_loss_total(np.array([[0.0], [0.0], [l_real], [0.0]]), ac)
        assert grad[2, 0] > 0 and grad[3, 0] > 0  # both a-contrario pairings pushed down


def test_batch_permutation_invariance():
    rng = np.random.default_rng(2)
    real, fake = rng.normal(0, 2, 16), rng.normal(0, 2, 16)
    perm = rng.permutation(16)
    logged = stack(np.zeros(16), np.zeros(16))
    a = d_loss_total(stack(real, fake), CLASSIC, logged)[0].d_total
    b = d_loss_total(stack(real[perm], fake[perm]), CLASSIC, logged)[0].d_total
    assert abs(a - b) < 1e-12


def test_losses_finite_under_saturation():
    for spec in (ACONTRARIO, LossSpec("hinge_acontrario", (1, 1, 1, 1))):
        logits = np.array([[-1e4], [1e4], [1e4], [-1e4], [1e4], [1e4], [1e4], [1e4]])
        bd, grad = d_loss_total(logits, spec)
        assert np.isfinite(bd.d_total) and bd.d_total > 1e4
        assert np.all(np.isfinite(grad))
    for spec in (LossSpec(), LossSpec("hinge_classic")):
        values, g_logit, _ = g_loss(np.array([[-1e4], [1e4]]), spec)
        assert all(np.isfinite(v) for v in values.values())
        assert np.all(np.isfinite(g_logit))


def test_saturated_d_terms_have_exact_gradients():
    # a sigmoid clamped in a log reads 27.631 here with a zero gradient
    lam = (0.5, 0.25, 0.0, 0.0)
    b = 4
    logits = np.concatenate([np.full(b, -40.0), np.full(b, 40.0)])[:, None]
    bd, grad = d_loss_total(logits, LossSpec("classic", lam), stack(np.zeros(b), np.zeros(b)))
    assert bd.d_real_cond == 40.0 and bd.d_gen_cond == 40.0
    grad = grad.ravel()
    np.testing.assert_allclose(grad[:b], -lam[0] / b, rtol=1e-15)
    np.testing.assert_allclose(grad[b:], lam[1] / b, rtol=1e-15)


def test_saturated_non_saturating_g_loss_exact():
    b = 4
    values, g_logit, _ = g_loss(np.full((b, 1), -40.0), LossSpec())
    assert values["g_adv"] == 40.0
    np.testing.assert_allclose(g_logit, -1.0 / b, rtol=1e-15)


def test_g_loss_symmetry_point_both_modes():
    # at D = 0.5 the non-saturating loss is ln 2 and the hinge one 0
    nonsat, g_logit, _ = g_loss(t([[0.0]]), LossSpec())
    assert abs(nonsat["g_total"] - LN2) < 1e-15 and g_logit[0, 0] == -0.5
    hinge, g_logit, _ = g_loss(t([[0.0]]), LossSpec("hinge_classic"))
    assert hinge["g_total"] == 0.0 and g_logit[0, 0] == -1.0


def test_recon_zero_at_identity():
    values, _, _ = g_loss(t([[0.0]]), LossSpec(recon_weight=5.0), t([[1.0, 2.0]]),
                          t([[1.0, 2.0]]))
    assert values["g_recon"] == 0.0


def test_recon_mean_absolute_deviation_by_hand():
    # |0-3| and |0-4| average to 3.5
    values, _, _ = g_loss(t([[0.0]]), LossSpec(recon_weight=1.0), t([[0.0, 0.0]]),
                          t([[3.0, 4.0]]))
    assert abs(values["g_recon"] - 3.5) < 1e-12
    assert abs(values["g_total"] - (LN2 + 3.5)) < 1e-9


def test_l1_loss_subgradient_flows():
    _, _, g_y = g_loss(t([[0.0]]), LossSpec(recon_weight=1.0), t([[0.0, 5.0]]),
                       t([[3.0, 4.0]]))
    np.testing.assert_allclose(g_y, np.array([[-0.5, 0.5]]))
    _, _, none = g_loss(t([[0.0]]), LossSpec(), t([[0.0, 5.0]]), t([[3.0, 4.0]]))
    assert none is None  # no L1 term, no gradient w.r.t. the generated rows


def test_hinge_margins_met_gives_zero():
    spec = LossSpec("hinge_acontrario", (1, 1, 1, 1))
    d, _ = d_loss_total(stack([1.0], [-1.0], [-1.0], [-1.0]), spec)
    g, _, _ = g_loss(t([[2.0], [-2.0]]), spec)
    assert d.d_total == 0.0
    assert g["g_total"] == 0.0  # mean of +-2 is 0


def test_hinge_all_zero_logits_term_by_term():
    # each of the four terms contributes max(0, 1 - 0) = 1
    bd, _ = d_loss_total(stack([0.0], [0.0], [0.0], [0.0]),
                         LossSpec("hinge_acontrario", (1, 1, 1, 1)))
    assert bd.d_total == 4.0
    assert (bd.d_real_cond, bd.d_gen_cond, bd.d_real_ac, bd.d_gen_ac) == (1.0, 1.0, 1.0, 1.0)


def test_hinge_matches_total_with_unit_lambdas():
    rng = np.random.default_rng(3)
    logits = [rng.normal(0, 2, 6) for _ in range(4)]
    by_hand = np.maximum(0.0, 1.0 - logits[0]).mean() + sum(
        np.maximum(0.0, 1.0 + v).mean() for v in logits[1:])
    bd, _ = d_loss_total(stack(*logits), LossSpec("hinge_acontrario", (1, 1, 1, 1)))
    assert abs(by_hand - bd.d_total) < 1e-12


def test_hinge_ac_logits_at_margin_reduce_to_classic_hinge():
    rng = np.random.default_rng(4)
    lr, lg = rng.normal(0, 2, 6), rng.normal(0, 2, 6)
    at_margin = np.full(6, -1.0)
    full, _ = d_loss_total(stack(lr, lg, at_margin, at_margin),
                           LossSpec("hinge_acontrario", (1, 1, 1, 1)))
    classic, _ = d_loss_total(stack(lr, lg), LossSpec("hinge_classic", (1, 1, 0, 0)),
                              stack(at_margin, at_margin))
    assert abs(full.d_total - classic.d_total) < 1e-12


def test_hinge_g_loss_is_minus_the_mean_logit():
    for formulation, lam in (("hinge_classic", (1, 1, 0, 0)), ("hinge_acontrario", (1, 1, 1, 1))):
        spec = LossSpec(formulation, lam)
        values, g_logit, _ = g_loss(t([[3.0], [-1.0]]), spec)
        assert values["g_adv"] == -1.0
        np.testing.assert_array_equal(g_logit, [[-0.5], [-0.5]])


def test_stacked_rows_must_match_the_lambdas():
    with pytest.raises(ValueError):
        d_loss_total(stack([0.0, 0.0], [0.0]), CLASSIC, stack([0.0], [0.0]))
    with pytest.raises(ValueError):
        d_loss_total(stack([0.0], [0.0]), CLASSIC)  # zero-lambda pairings missing


def test_spec_validation():
    with pytest.raises(ValueError):
        LossSpec("classic", (1, 1, 0.5, 0))  # classic must zero the ac lambdas
    with pytest.raises(ValueError):
        LossSpec("acontrario", (0, 0, 0, 0))  # all-zero weights
    with pytest.raises(ValueError):
        LossSpec("acontrario", (1, 1, -0.1, 1))  # negative weight
    with pytest.raises(ValueError):
        LossSpec("wasserstein", (1, 1, 1, 1))
    with pytest.raises(ValueError):
        LossSpec("classic", (1, 1, 0, 0), recon_weight=-1.0)


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_unset_lambdas_take_the_formulation_default(formulation):
    # LossSpec("acontrario") weighs all four terms, as the CLI's default does
    assert LossSpec(formulation).lambdas == tuple(DEFAULT_LAMBDAS[formulation])


# -- property tests: returned gradients against central finite differences --

# away from the hinge's kink at s*l = 1 and L1's at y_g = y by far more than the step
_logits = st.floats(-6.0, 6.0).filter(lambda v: abs(abs(v) - 1.0) > 1e-3)
_SPECS = [
    LossSpec("classic", (1.0, 0.5, 0.0, 0.0)),
    LossSpec("acontrario", (1.0, 0.7, 0.3, 0.0)),
    LossSpec("acontrario", (0.0, 1.0, 0.0, 2.0)),
    LossSpec("acontrario", (1.0, 1.0, 1.0, 1.0)),
    LossSpec("hinge_classic", (1.0, 2.0, 0.0, 0.0)),
    LossSpec("hinge_acontrario", (0.5, 1.0, 0.0, 1.5)),
    LossSpec("hinge_acontrario", (1.0, 1.0, 1.0, 1.0)),
]


@pytest.mark.parametrize("spec", _SPECS, ids=lambda s: "-".join(
    [s.formulation] + [f"{v:g}" for v in s.lambdas]))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), b=st.integers(1, 4))
def test_d_loss_gradient_matches_finite_differences(spec, data, b):
    n_active = sum(lam > 0 for lam in spec.lambdas)
    logits = data.draw(hnp.arrays(np.float64, (n_active * b, 1), elements=_logits))
    logged = data.draw(hnp.arrays(np.float64, ((4 - n_active) * b, 1), elements=_logits))
    logged = logged if logged.size else None
    _, grad = d_loss_total(logits, spec, logged)
    numeric = central_differences(lambda: d_loss_total(logits, spec, logged)[0].d_total, logits)
    np.testing.assert_allclose(grad, numeric, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("recon_weight", [0.0, 0.7])
@pytest.mark.parametrize("formulation", ["classic", "hinge_classic"],
                         ids=["non_saturating", "hinge"])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), b=st.integers(1, 4), dim_y=st.integers(1, 3))
def test_g_loss_gradients_match_finite_differences(formulation, recon_weight, data, b, dim_y):
    spec = LossSpec(formulation, (1, 1, 0, 0), recon_weight=recon_weight)
    logit = data.draw(hnp.arrays(np.float64, (b, 1), elements=_logits))
    y_true = data.draw(hnp.arrays(np.float64, (b, dim_y), elements=st.floats(-3.0, 3.0)))
    offset = data.draw(hnp.arrays(np.float64, (b, dim_y), elements=st.floats(-2.0, 2.0).filter(
        lambda v: abs(v) > 1e-3)))
    y_g = y_true + offset
    _, g_logit, g_y = g_loss(logit, spec, y_g, y_true)
    numeric = central_differences(lambda: g_loss(logit, spec, y_g, y_true)[0]["g_total"], logit)
    np.testing.assert_allclose(g_logit, numeric, rtol=1e-5, atol=1e-8)
    numeric = central_differences(lambda: g_loss(logit, spec, y_g, y_true)[0]["g_total"], y_g)
    if recon_weight == 0:
        assert g_y is None and not np.any(numeric)
    else:
        np.testing.assert_allclose(g_y, numeric, rtol=1e-5, atol=1e-8)
