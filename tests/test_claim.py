"""The paper's claim, end to end through the library.

After training on 8 Gaussian modes, a discriminator trained with the
classic loss barely tells real data under its own condition (`real_cond`)
from real data under a shuffled one (`real_ac`), while one trained with
the a-contrario loss does. The measure is the AUROC of the two pairings'
logits after the optimal-discriminator phase, read from the report that
`evalcond.evaluate` gives `report.json`: 0.5 means the condition is
ignored. Seeds 1-3 read 0.583, 0.554 and 0.588 (classic) against 0.790,
0.860 and 0.911 (a-contrario), so one bound of 0.7 separates the groups.
"""

import pytest

from cganlab.evalcond import EvalConfig, evaluate
from cganlab.losses import LossSpec
from cganlab.nets import Discriminator, Generator
from cganlab.tasks import GaussModesTask, sample_dataset
from cganlab.trainer import TrainConfig, train

BOUND = 0.7


def condition_auroc(loss: LossSpec, seed: int) -> float:
    """The report's AUROC(real_cond, real_ac) of a 64x64 pair after 4 epochs and the phase."""
    task = GaussModesTask(n_modes=8)
    ds = sample_dataset(task, 4000, seed)
    # seeded as cli.load_config seeds them
    gen = Generator.build(task.dim_x, task.dim_y, hidden=(64, 64), seed=2 * seed + 1)
    disc = Discriminator.build(task.dim_x, task.dim_y, hidden=(64, 64), seed=2 * seed + 2)
    config = TrainConfig(epochs=4, batch_size=64, seed=seed, loss=loss)
    train(gen, disc, ds, config)
    report, _, _ = evaluate(gen, disc, ds, task, config, EvalConfig(n_eval=1000))
    return report["auroc"]["real_ac"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_acontrario_discriminator_reads_the_condition(seed):
    classic = condition_auroc(LossSpec("classic"), seed)
    acontrario = condition_auroc(LossSpec("acontrario"), seed)
    assert classic < BOUND < acontrario, (classic, acontrario)
