import itertools
import math

import numpy as np
import pytest

from cganlab.autodiff import Graph, Tensor, backward
from cganlab.losses import LossSpec, d_loss_total, g_loss, l1_loss

LN2 = math.log(2.0)

CLASSIC = LossSpec("classic", (1, 1, 0, 0))
ACONTRARIO = LossSpec("acontrario", (1, 1, 1, 1))


def t(values):
    return Tensor(np.asarray(values, dtype=float))


def stack(*pairings):
    """Logits of several pairings, one list of rows each, stacked as D returns them."""
    return t(np.concatenate([np.asarray(p, dtype=float) for p in pairings])[:, None])


def logit(p):
    return math.log(p / (1.0 - p))


def softplus(v):
    return np.logaddexp(0.0, v)


def test_classic_symmetry_point():
    total, bd = d_loss_total(stack([0.0], [0.0]), CLASSIC, stack([0.0], [0.0]))
    assert abs(float(total.values) - 2 * LN2) < 1e-15
    for term in (bd.d_real_cond, bd.d_gen_cond, bd.d_real_ac, bd.d_gen_ac):
        assert abs(term - LN2) < 1e-15


def test_classic_perfect_discriminator_limit():
    total, _ = d_loss_total(stack([40.0], [-40.0]), CLASSIC, stack([0.0], [0.0]))
    assert 0.0 < float(total.values) < 1e-17


def test_classic_two_element_batch_value():
    # batch means of -log p_real and -log(1 - p_fake), evaluated by hand:
    # -(ln .9 + ln .8)/2 - (ln .9 + ln .7)/2
    expected = -(math.log(0.9) + math.log(0.8)) / 2 - (math.log(0.9) + math.log(0.7)) / 2
    real, fake = [logit(0.9), logit(0.8)], [logit(0.1), logit(0.3)]
    total, _ = d_loss_total(stack(real, fake), CLASSIC, stack([0.0, 0.0], [0.0, 0.0]))
    assert abs(float(total.values) - expected) < 1e-12
    assert abs(expected - 0.3952703) < 1e-6


def test_acontrario_rejected_limit():
    _, bd = d_loss_total(stack([0.0], [0.0], [-40.0], [-40.0]), ACONTRARIO)
    assert 0.0 < bd.d_real_ac + bd.d_gen_ac < 1e-17


def test_acontrario_symmetry_point():
    _, bd = d_loss_total(stack([5.0], [-5.0], [0.0], [0.0]), ACONTRARIO)
    assert abs(bd.d_real_ac + bd.d_gen_ac - 2 * LN2) < 1e-15


def test_acontrario_confident_mistake_cost():
    _, bd = d_loss_total(stack([0.0], [0.0], [logit(0.99)], [-40.0]), ACONTRARIO)
    assert abs(bd.d_real_ac + bd.d_gen_ac - (-math.log(0.01))) < 1e-12


def test_total_strategy1_all_half():
    total, bd = d_loss_total(stack([0.0], [0.0], [0.0], [0.0]), ACONTRARIO)
    assert abs(float(total.values) - 4 * LN2) < 1e-15
    assert abs(bd.d_total - 4 * LN2) < 1e-15


def test_total_matches_weighted_sum_of_components():
    rng = np.random.default_rng(0)
    logits = [rng.normal(0, 2, 8) for _ in range(4)]
    spec = LossSpec("acontrario", (1.0, 0.33, 0.33, 0.33))
    total, bd = d_loss_total(stack(*logits), spec)
    weighted = (1.0 * bd.d_real_cond + 0.33 * bd.d_gen_cond
                + 0.33 * bd.d_real_ac + 0.33 * bd.d_gen_ac)
    assert abs(bd.d_total - weighted) < 1e-12
    assert abs(float(total.values) - weighted) < 1e-12
    by_hand = [softplus(-logits[0]).mean()] + [softplus(v).mean() for v in logits[1:]]
    np.testing.assert_allclose(
        [bd.d_real_cond, bd.d_gen_cond, bd.d_real_ac, bd.d_gen_ac], by_hand, rtol=1e-14)


def test_total_classic_spec_reduces_to_classic():
    # the classic total is the two conditional terms, whatever the a-contrario logits
    rng = np.random.default_rng(1)
    active = stack(rng.normal(0, 2, 5), rng.normal(0, 2, 5))
    total, bd = d_loss_total(active, CLASSIC, stack(rng.normal(0, 2, 5), rng.normal(0, 2, 5)))
    other, _ = d_loss_total(active, CLASSIC, stack(rng.normal(0, 9, 5), rng.normal(0, 9, 5)))
    assert float(total.values) == float(other.values)
    assert abs(float(total.values) - (bd.d_real_cond + bd.d_gen_cond)) < 1e-14


def test_zero_lambda_terms_logged_but_not_differentiated():
    # lambda4 = 0 (strategy 3): the gen-ac pairing must not reach the gradient
    g = Graph()
    active_leaf = g.leaf(np.array([[0.8], [0.9], [0.2], [0.1], [0.3], [0.2]]))
    ga_leaf = g.leaf(np.array([[0.1], [0.4]]))
    spec = LossSpec("acontrario", (0.5, 0.5, 0.5, 0.0))
    total, bd = d_loss_total(active_leaf, spec, ga_leaf)
    assert bd.d_gen_ac > 0.0  # still logged
    table = backward(total)
    assert active_leaf.node_id in table
    assert ga_leaf.node_id not in table  # no gradient path


def test_gradient_signs():
    for spec, l_real in itertools.product([CLASSIC, LossSpec("hinge_classic", (1, 1, 0, 0))],
                                          (-0.5, 0.0, 0.5)):
        g = Graph()
        logits = g.leaf(np.array([[l_real], [0.0]]))
        total, _ = d_loss_total(logits, spec, stack([0.0], [0.0]))
        grad = backward(total)[logits.node_id]
        assert grad[0, 0] < 0  # push the real logit up
        assert grad[1, 0] > 0  # push the generated logit down

        g = Graph()
        logits = g.leaf(np.array([[0.0], [0.0], [l_real], [0.0]]))
        ac = LossSpec(spec.formulation.replace("classic", "acontrario"), (1, 1, 1, 1))
        total, _ = d_loss_total(logits, ac)
        grad = backward(total)[logits.node_id]
        assert grad[2, 0] > 0 and grad[3, 0] > 0  # both a-contrario pairings pushed down


def test_batch_permutation_invariance():
    rng = np.random.default_rng(2)
    real, fake = rng.normal(0, 2, 16), rng.normal(0, 2, 16)
    perm = rng.permutation(16)
    logged = stack(np.zeros(16), np.zeros(16))
    a = float(d_loss_total(stack(real, fake), CLASSIC, logged)[0].values)
    b = float(d_loss_total(stack(real[perm], fake[perm]), CLASSIC, logged)[0].values)
    assert abs(a - b) < 1e-12


def test_losses_finite_under_saturation():
    for spec in (ACONTRARIO, LossSpec("hinge_acontrario", (1, 1, 1, 1))):
        g = Graph()
        logits = g.leaf(np.array([[-1e4], [1e4], [1e4], [-1e4], [1e4], [1e4], [1e4], [1e4]]))
        total, bd = d_loss_total(logits, spec)
        assert np.isfinite(bd.d_total) and bd.d_total > 1e4
        assert np.all(np.isfinite(backward(total)[logits.node_id]))


def test_saturated_d_terms_have_exact_gradients():
    # a sigmoid clamped in a log reads 27.631 here with a zero gradient
    lam = (0.5, 0.25, 0.0, 0.0)
    b = 4
    g = Graph()
    logits = g.leaf(np.concatenate([np.full(b, -40.0), np.full(b, 40.0)])[:, None])
    total, bd = d_loss_total(logits, LossSpec("classic", lam), stack(np.zeros(b), np.zeros(b)))
    assert bd.d_real_cond == 40.0 and bd.d_gen_cond == 40.0
    grad = backward(total)[logits.node_id].ravel()
    np.testing.assert_allclose(grad[:b], -lam[0] / b, rtol=1e-15)
    np.testing.assert_allclose(grad[b:], lam[1] / b, rtol=1e-15)


def test_saturated_non_saturating_g_loss_exact():
    b = 4
    g = Graph()
    logit_gen = g.leaf(np.full((b, 1), -40.0))
    total, adv, _ = g_loss(logit_gen, LossSpec())
    assert adv == 40.0
    np.testing.assert_allclose(backward(total)[logit_gen.node_id], -1.0 / b, rtol=1e-15)


def test_g_loss_symmetry_point_both_modes():
    minmax, adv, _ = g_loss(t([[0.0]]), LossSpec(gen_loss_mode="minmax"))
    assert abs(float(minmax.values) + LN2) < 1e-15
    nonsat, adv, _ = g_loss(t([[0.0]]), LossSpec(gen_loss_mode="non_saturating"))
    assert abs(float(nonsat.values) - LN2) < 1e-15


def test_recon_zero_at_identity():
    total, adv, recon = g_loss(t([[0.0]]), LossSpec(recon_weight=5.0), t([[1.0, 2.0]]),
                               t([[1.0, 2.0]]))
    assert recon == 0.0


def test_recon_mean_absolute_deviation_by_hand():
    # |0-3| and |0-4| average to 3.5
    total, adv, recon = g_loss(t([[0.0]]), LossSpec(recon_weight=1.0), t([[0.0, 0.0]]),
                               t([[3.0, 4.0]]))
    assert abs(recon - 3.5) < 1e-12
    assert abs(float(total.values) - (LN2 + 3.5)) < 1e-9


def test_l1_loss_subgradient_flows():
    g = Graph()
    y = g.leaf(np.array([[0.0, 5.0]]))
    table = backward(l1_loss(y, Tensor(np.array([[3.0, 4.0]]))))
    np.testing.assert_allclose(table[y.node_id], np.array([[-0.5, 0.5]]))


def test_hinge_margins_met_gives_zero():
    spec = LossSpec("hinge_acontrario", (1, 1, 1, 1))
    d, _ = d_loss_total(stack([1.0], [-1.0], [-1.0], [-1.0]), spec)
    g, _, _ = g_loss(t([[2.0], [-2.0]]), spec)
    assert float(d.values) == 0.0
    assert float(g.values) == 0.0  # mean of +-2 is 0


def test_hinge_all_zero_logits_term_by_term():
    # each of the four terms contributes max(0, 1 - 0) = 1
    d, bd = d_loss_total(stack([0.0], [0.0], [0.0], [0.0]),
                         LossSpec("hinge_acontrario", (1, 1, 1, 1)))
    assert float(d.values) == 4.0
    assert (bd.d_real_cond, bd.d_gen_cond, bd.d_real_ac, bd.d_gen_ac) == (1.0, 1.0, 1.0, 1.0)


def test_hinge_matches_total_with_unit_lambdas():
    rng = np.random.default_rng(3)
    logits = [rng.normal(0, 2, 6) for _ in range(4)]
    by_hand = np.maximum(0.0, 1.0 - logits[0]).mean() + sum(
        np.maximum(0.0, 1.0 + v).mean() for v in logits[1:])
    total, _ = d_loss_total(stack(*logits), LossSpec("hinge_acontrario", (1, 1, 1, 1)))
    assert abs(by_hand - float(total.values)) < 1e-12


def test_hinge_ac_logits_at_margin_reduce_to_classic_hinge():
    rng = np.random.default_rng(4)
    lr, lg = rng.normal(0, 2, 6), rng.normal(0, 2, 6)
    at_margin = np.full(6, -1.0)
    full, _ = d_loss_total(stack(lr, lg, at_margin, at_margin),
                           LossSpec("hinge_acontrario", (1, 1, 1, 1)))
    classic, _ = d_loss_total(stack(lr, lg), LossSpec("hinge_classic", (1, 1, 0, 0)),
                              stack(at_margin, at_margin))
    assert abs(float(full.values) - float(classic.values)) < 1e-12


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
        LossSpec("classic", (1, 1, 0, 0), gen_loss_mode="bogus")
    with pytest.raises(ValueError):
        LossSpec("classic", (1, 1, 0, 0), recon_weight=-1.0)
