"""Generator and discriminator MLPs with early-fusion conditioning.

The discriminator returns the raw logit ``f(x, y)`` of a plain MLP over
the concatenation of condition and data; ``D(x, y) = sigmoid(f(x, y))`` is
never formed, because the losses and the conditionality histograms all
work on the logit. Both networks keep
their parameters as bare float64 arrays; a forward pass either wraps them
as constants (evaluation) or receives graph-bound leaves from the trainer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, Tensor

OUTPUT_ACTIVATIONS = ("identity", "tanh", "sigmoid", "softmax")

WEIGHT_INIT_STD = 0.02  # weights ~ N(0, 0.02^2), biases zero


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths plus activations; at least one hidden layer."""

    widths: tuple[int, ...]
    hidden_slope: float = 0.2
    output_activation: str = "identity"

    def __post_init__(self):
        if len(self.widths) < 3:
            raise ValueError(f"MlpSpec needs at least one hidden layer, got widths {self.widths}")
        if any(w <= 0 for w in self.widths):
            raise ValueError(f"MlpSpec widths must be positive, got {self.widths}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown output activation {self.output_activation!r}")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))

    def to_dict(self) -> dict:
        return {
            "widths": list(self.widths),
            "hidden_slope": self.hidden_slope,
            "output_activation": self.output_activation,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MlpSpec":
        return cls(tuple(d["widths"]), d["hidden_slope"], d["output_activation"])


def param_count(spec: MlpSpec) -> int:
    w = spec.widths
    return sum(w[i] * w[i + 1] + w[i + 1] for i in range(len(w) - 1))


def init_params(spec: MlpSpec, seed: int) -> list[np.ndarray]:
    """Weights from N(0, 0.02^2), biases zero; reproducible from seed."""
    rng = np.random.default_rng(seed)
    params = []
    for w_in, w_out in zip(spec.widths[:-1], spec.widths[1:]):
        params.append(rng.normal(0.0, WEIGHT_INIT_STD, size=(w_in, w_out)))
        params.append(np.zeros(w_out))
    return params


@dataclass
class Generator:
    """Maps condition x (optionally with noise z) to a generated y."""

    spec: MlpSpec
    params: list[np.ndarray]
    noise_dim: int = 0

    @classmethod
    def build(cls, dim_x, dim_y, hidden=(128, 128), noise_dim=0,
              output_activation="identity", seed=0) -> "Generator":
        spec = MlpSpec((dim_x + noise_dim, *hidden, dim_y),
                       output_activation=output_activation)
        return cls(spec, init_params(spec, seed), noise_dim)


@dataclass
class Discriminator:
    """Early-fusion discriminator; final width must be 1 (scalar logit)."""

    spec: MlpSpec
    params: list[np.ndarray]

    def __post_init__(self):
        if self.spec.widths[-1] != 1:
            raise ValueError(f"discriminator output width must be 1, got {self.spec.widths[-1]}")

    @classmethod
    def build(cls, dim_x, dim_y, hidden=(128, 128), seed=0) -> "Discriminator":
        spec = MlpSpec((dim_x + dim_y, *hidden, 1))
        return cls(spec, init_params(spec, seed))


def bind_params(net, graph: Graph) -> list[Tensor]:
    """Register a network's parameters as leaves on a graph."""
    return [graph.leaf(p) for p in net.params]


def _mlp_apply(spec: MlpSpec, params: list[Tensor], h: Tensor) -> Tensor:
    n_layers = len(spec.widths) - 1
    for i in range(n_layers):
        h = h @ params[2 * i] + params[2 * i + 1]
        if i < n_layers - 1:
            h = h.leaky_relu(spec.hidden_slope)
    if spec.output_activation == "tanh":
        h = h.tanh()
    elif spec.output_activation == "sigmoid":
        h = h.sigmoid()
    elif spec.output_activation == "softmax":
        h = h.softmax()
    return h


def gen_forward(gen: Generator, x, z=None, params=None) -> Tensor:
    """Generator forward pass; z is required iff noise_dim > 0."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    if gen.noise_dim > 0:
        if z is None:
            raise ValueError("generator has noise_dim > 0 but no z was supplied")
        z = z if isinstance(z, Tensor) else Tensor(z)
        h = ad.concat([x, z], axis=1)
    else:
        if z is not None:
            raise ValueError("generator has noise_dim == 0 but z was supplied")
        h = x
    if h.shape[1] != gen.spec.widths[0]:
        raise ad.ShapeMismatch(
            f"gen_forward: input dim {h.shape[1]} != spec input {gen.spec.widths[0]}"
        )
    ps = params if params is not None else [Tensor(p) for p in gen.params]
    return _mlp_apply(gen.spec, ps, h)


def disc_forward(disc: Discriminator, x, y, params=None) -> Tensor:
    """The raw logit f(x, y), one row per sample."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    y = y if isinstance(y, Tensor) else Tensor(y)
    if x.shape[0] != y.shape[0]:
        raise ad.ShapeMismatch(
            f"disc_forward: batch sizes {x.shape[0]} and {y.shape[0]} differ"
        )
    h = ad.concat([x, y], axis=1)
    if h.shape[1] != disc.spec.widths[0]:
        raise ad.ShapeMismatch(
            f"disc_forward: fused dim {h.shape[1]} != spec input {disc.spec.widths[0]}"
        )
    ps = params if params is not None else [Tensor(p) for p in disc.params]
    return _mlp_apply(disc.spec, ps, h)


def params_to_jsonable(params: list[np.ndarray]) -> list[dict]:
    return [{"shape": list(p.shape), "data": p.ravel().tolist()} for p in params]


def params_from_jsonable(entries: list[dict]) -> list[np.ndarray]:
    return [
        np.array(e["data"], dtype=np.float64).reshape(e["shape"]) for e in entries
    ]
