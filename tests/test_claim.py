"""The paper's claim, end to end through the library.

After training on 8 Gaussian modes, a discriminator trained with the
classic loss barely tells real data under its own condition (`real_cond`)
from real data under a shuffled one (`real_ac`), while one trained with
the a-contrario loss does. The measure is the AUROC of the two pairings'
logits after the optimal-discriminator phase: 0.5 means the condition is
ignored. Seeds 1-3 read 0.583, 0.554 and 0.588 (classic) against 0.790,
0.860 and 0.911 (a-contrario), so one bound of 0.7 separates the groups.
"""

import numpy as np
import pytest

from cganlab.evalcond import collect_logits
from cganlab.losses import LossSpec
from cganlab.nets import Discriminator, Generator
from cganlab.tasks import GaussModesTask, sample_dataset
from cganlab.trainer import TrainConfig, optimal_discriminator_phase, train

BOUND = 0.7


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


def condition_auroc(loss: LossSpec, seed: int) -> float:
    """AUROC(real_cond, real_ac) of a 64x64 discriminator after 4 epochs and the phase."""
    task = GaussModesTask(n_modes=8)
    ds = sample_dataset(task, 4000, seed)
    # seeded as cli.load_config seeds them
    gen = Generator.build(task.dim_x, task.dim_y, hidden=(64, 64), seed=2 * seed + 1)
    disc = Discriminator.build(task.dim_x, task.dim_y, hidden=(64, 64), seed=2 * seed + 2)
    config = TrainConfig(epochs=4, batch_size=64, seed=seed, loss=loss)
    train(gen, disc, ds, config)
    optimal_discriminator_phase(gen, disc, ds, config, epochs=1)
    logits = collect_logits(disc, gen, ds, 1000, seed=seed)
    return auroc(logits["real_cond"], logits["real_ac"])


def test_auroc_counts_ties_half():
    assert auroc(np.array([1.0]), np.array([1.0])) == 0.5
    assert auroc(np.array([2.0, 3.0]), np.array([1.0])) == 1.0
    # of the 4 pairs one ties and none is won
    assert auroc(np.array([1.0, 2.0]), np.array([2.0, 3.0])) == 0.125


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_acontrario_discriminator_reads_the_condition(seed):
    classic = condition_auroc(LossSpec("classic"), seed)
    acontrario = condition_auroc(LossSpec("acontrario"), seed)
    assert classic < BOUND < acontrario, (classic, acontrario)
