"""Central finite differences, the reference the gradient tests compare against."""

import numpy as np


def central_differences(loss, a, step=1e-6):
    """d loss() / d a, perturbing `a` in place one element at a time.

    `loss` takes no arguments and must read `a`; every element is restored.
    """
    numeric = np.zeros_like(a)
    for ix in np.ndindex(a.shape):
        orig = a[ix]
        a[ix] = orig + step
        up = loss()
        a[ix] = orig - step
        dn = loss()
        a[ix] = orig
        numeric[ix] = (up - dn) / (2 * step)
    return numeric
