"""Generator and discriminator MLPs with early-fusion conditioning.

`gen_forward` and `disc_forward` are the only way to run a network, in
training and in evaluation alike: they own the input layouts, ``[x | z]``
for the generator and ``[x | y]`` for the discriminator (condition
columns first), and `gen_forward` draws the generator's noise ``z`` from
the caller's random stream. Both return `mlp_forward`'s output and cache,
so a caller that backpropagates uses the very pass it scored. A caller
that never backpropagates, evaluation, passes ``cache=False`` and gets
the same output bit for bit and None for the cache, from a pass that
keeps at most one full-size hidden activation (below).

The discriminator returns the raw logit ``f(x, y)`` of a plain MLP over
the concatenation of condition and data; ``D(x, y) = sigmoid(f(x, y))`` is
never formed, because the losses and the conditionality histograms all
work on the logit. An MLP is affine layers with leaky-ReLU between them
and an identity or tanh output, so its gradient is closed form:
`mlp_forward` keeps each layer's input, and `mlp_backward` turns the
gradient w.r.t. the output into parameter and input gradients.

The hidden leaky-ReLU of slope s, 0 <= s <= 1, is applied without a
data-dependent branch, and both passes give the same bits as
``np.where(h > 0, h, s * h)`` forward and ``g * np.where(out > 0, 1.0, s)``
backward. ``s * h`` lies between 0 and ``h``, so ``max(h, s * h)`` is
``h`` where ``h > 0`` and ``s * h`` elsewhere. At ``h = +0.0`` and
``-0.0`` both operands are that same zero, and a NaN propagates. Only
``h = +inf`` at s = 0 differs (``0 * inf`` is NaN, which ``max``
returns), and a run that reaches it has diverged. (A signaling NaN,
which no arithmetic makes, comes back as it is, where ``np.where`` gives
it quieted.)

An array of at most `_BLOCK` elements takes the one call
``np.maximum(h, s * h, out=h)``. A larger one is done in blocks of at
most `_BLOCK` elements of its flat view, each multiplied by s into one
reused scratch array and then maxed into place, so no full-size ``s * h``
is allocated (one hidden activation fewer at the peak of a large forward
pass). The bits do not change: the select is elementwise, and every
element still goes through the same two ufuncs on the same operands.
Block sizes from 4k to 128k elements were timed on a 2-core Xeon VM; 16k
to 64k were fastest on every shape, and 32k took (16000, 256) from 13.4
to 6.2 ms and (2048, 256) from 1.13 to 0.73 ms. The backward factor is
read from the table ``[s, 1.0]`` at the uint8 view of the mask
``out > 0``, so each element of ``g`` is multiplied by exactly ``s`` or
``1.0``; the product is taken in place on the fresh ``g`` of the layer
above (``g *= factor.take(...)``), which rounds as ``g * factor[...]``.

The cache-free pass (`_forward_uncached`) runs an input of at least
4,096 rows, twice `_ROWS`, through the hidden layers in row blocks of
equal size to within a row. This rests on how OpenBLAS's dgemm rounds,
measured with scipy-openblas 0.3.31 on a 2-core AVX-512 Xeon VM, 1 and 2
threads. A hidden layer's product gives each row the same bits however
many rows share it when it is at least 8 columns wide and the blocks hold
at least 7 rows (inputs of 4,096 to 16,000 rows, 1 to 256 columns, C- or
Fortran-ordered, blocks of 7 to 4,095 rows). So a network with a hidden
layer narrower than `_MIN_BLOCKED_WIDTH` = 8, or an input of fewer than
4,096 rows, takes `mlp_forward` and drops its cache. A product at most 4
wide follows one sharp rule: OpenBLAS runs a product of M * N * K at most
`_SMALL_GEMM` = 100^3 through its small-matrix kernel, whose bits change
with the row count. An (n, k) @ (k, w) product in row blocks matched the
whole product bit for bit exactly when every block held more than
10^6 / (k * w) rows (k from 16 to 256, w from 2 to 4, 8,000 to 64,000
rows): at (k, w) = (256, 2) blocks of 1,953 rows differ and 1,954 match,
at (128, 2) 3,906 differ and 3,907 match, at (128, 4) 1,953 differ and
1,954 match.

So when the output is at least 2 wide and the input holds at least 2
blocks of r = max(`_ROWS`, 10^6 // (k * w) + 1) rows, it runs in n // r
blocks, each of at least r rows, and each block writes its rows of the
(n, w) output with ``np.matmul(..., out=)``; no array holds a whole
hidden layer. A 16,000-row pass through two 256-wide hidden layers and a
2-wide output takes 7 blocks of 2,285 or 2,286 rows and holds two 4.7 MB
blocks where the cached pass holds two 32.8 MB activations; 8,000 rows
through 128-wide layers take 2 blocks of 4,000. Otherwise the input runs
in n // `_ROWS` blocks of 2,048 to 3,072 rows, the last hidden layer is
written whole, and the output layer runs once over all rows, as in
`mlp_forward`. That covers a 1-wide output, the discriminator's, which
numpy runs through gemv: gemv's bits depend on how the rows are split,
and it touches no pack buffer. An all-rows (16000, 256) @ (256, 2)
dgemm with 2 BLAS threads touches about 28 MB of OpenBLAS's pack buffer
(a fresh process's RSS rose 31.4 MB across it, and 0.3 MB with 1
thread), so blocking the output layer, and dropping the whole last hidden
layer with it, took `modes32-wide-classic`'s peak RSS from 121.6 to 79.7
MB (median of 10 `bench/run.py` runs).

A network stores one float64 vector, `flat`, and nothing
else that changes: its `params` are reshaped views of it, in the order
W0, b0, W1, b1, ..., built once when the network is made (`_unpack`).
A copy or an unpickled network is made through its constructor, so it
builds its views from its own vector. `_pack` is the only way a list of
arrays becomes such a vector. The Adam moments and the gradient buffer
of `trainer.AdamState` are vectors laid out the same way, so the
optimizer updates one whole vector per call. `mlp_backward` writes the
weight gradients with ``np.matmul(..., out=)`` and the bias gradients
with ``np.sum(..., axis=0, out=)`` into views of such a buffer: the same
BLAS call and the same row-by-row sum as without ``out``.

Checkpoints store `flat` and each Adam moment as one string, the base64
of the vector's little-endian float64 bytes (`encode_vector`); the spec
fixes the layout, so no shapes are stored.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field

import numpy as np

OUTPUT_ACTIVATIONS = ("identity", "tanh")

WEIGHT_INIT_STD = 0.02  # weights ~ N(0, 0.02^2), biases zero

# elements per block of the hidden activation: a block and its scratch
# take 512 KB, which stays in a 2 MB per-core L2 (module docstring)
_BLOCK = 32_768
# rows per block of the cache-free pass's hidden layers, and the narrowest
# hidden layer whose product keeps its bits in such blocks (module docstring)
_ROWS = 2_048
_MIN_BLOCKED_WIDTH = 8
# OpenBLAS's small-matrix cut-off: a product of M * N * K at most this many
# multiply-adds takes a kernel whose bits change with the row count, one
# above it keeps its bits in row blocks (module docstring)
_SMALL_GEMM = 100 ** 3


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths plus activations; at least one hidden layer.

    Each width is a positive integer, a Python or numpy one; a float or a
    bool is refused, not rounded. The leaky-ReLU slope must lie in [0, 1],
    so that a hidden unit's output is positive exactly where its
    pre-activation is, and is ``max(h, slope * h)``.
    """

    widths: tuple[int, ...]
    hidden_slope: float = 0.2
    output_activation: str = "identity"

    def __post_init__(self):
        if len(self.widths) < 3:
            raise ValueError(f"MlpSpec needs at least one hidden layer, got widths {self.widths}")
        if any(isinstance(w, bool) or not isinstance(w, (int, np.integer)) or w <= 0
               for w in self.widths):
            raise ValueError(f"MlpSpec widths must be positive integers, got {self.widths}")
        if not 0 <= self.hidden_slope <= 1:
            raise ValueError(f"hidden_slope must lie in [0, 1], got {self.hidden_slope}")
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

    def param_shapes(self) -> list[tuple[int, ...]]:
        """Shapes of W0, b0, W1, b1, ...: (w_in, w_out), then (w_out,), per layer."""
        return [shape for w_in, w_out in zip(self.widths[:-1], self.widths[1:])
                for shape in ((w_in, w_out), (w_out,))]

    @property
    def n_params(self) -> int:
        """Length of a network's `flat`: the elements of all `param_shapes()`."""
        return sum(math.prod(s) for s in self.param_shapes())


def init_params(spec: MlpSpec, seed: int) -> list[np.ndarray]:
    """Weights from N(0, 0.02^2), biases zero; reproducible from seed."""
    rng = np.random.default_rng(seed)
    params = []
    for w_in, w_out in zip(spec.widths[:-1], spec.widths[1:]):
        params.append(rng.normal(0.0, WEIGHT_INIT_STD, size=(w_in, w_out)))
        params.append(np.zeros(w_out))
    return params


def _pack(arrays: list[np.ndarray], spec: MlpSpec, what: str) -> np.ndarray:
    """`arrays`, one of each of `spec.param_shapes()` in order, copied into one new
    float64 vector; raises ValueError, naming a misfit as `what`[i], when they do not fit."""
    shapes = spec.param_shapes()
    if len(arrays) != len(shapes):
        raise ValueError(f"{what}: {len(arrays)} arrays, expected {len(shapes)}")
    for i, (a, shape) in enumerate(zip(arrays, shapes)):
        if np.shape(a) != shape:
            raise ValueError(f"{what}[{i}] has shape {list(np.shape(a))}, "
                             f"expected {list(shape)}")
    return np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)


def _unpack(flat: np.ndarray, spec: MlpSpec) -> list[np.ndarray]:
    """Views of `flat` shaped as `spec.param_shapes()`, in order.

    Raises ValueError unless `flat` is a float64 vector of exactly as many
    elements as the shapes hold.
    """
    shapes = spec.param_shapes()
    sizes = [math.prod(s) for s in shapes]
    n = sum(sizes)
    if not (isinstance(flat, np.ndarray) and flat.dtype == np.float64 and flat.shape == (n,)):
        got = f"{flat.dtype} {list(flat.shape)}" if isinstance(flat, np.ndarray) \
            else type(flat).__name__
        raise ValueError(f"parameters must be a float64 vector of {n} elements, got {got}")
    views, start = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views


@dataclass(frozen=True, eq=False)
class Generator:
    """Maps condition x (optionally with noise z) to a generated y.

    `flat` holds the parameters as one float64 vector of the spec's
    parameter count, and `params` its views (module docstring); the
    network changes only through writes into them. `noise_dim` must be a
    non-negative int (not a float or a bool). Anything else raises
    ValueError.
    """

    spec: MlpSpec
    flat: np.ndarray
    noise_dim: int = 0
    params: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if isinstance(self.noise_dim, bool) or not isinstance(self.noise_dim, int) \
                or self.noise_dim < 0:
            raise ValueError(f"noise_dim must be a non-negative int, got {self.noise_dim!r}")
        object.__setattr__(self, "params", _unpack(self.flat, self.spec))

    def __reduce__(self):
        return type(self), (self.spec, self.flat, self.noise_dim)

    @classmethod
    def build(cls, dim_x, dim_y, hidden=(128, 128), noise_dim=0,
              output_activation="identity", seed=0) -> "Generator":
        spec = MlpSpec((dim_x + noise_dim, *hidden, dim_y),
                       output_activation=output_activation)
        return cls(spec, _pack(init_params(spec, seed), spec, "generator params"), noise_dim)


@dataclass(frozen=True, eq=False)
class Discriminator:
    """Early-fusion discriminator; final width must be 1 (scalar logit).

    `flat` and `params` are laid out as the generator's are.
    """

    spec: MlpSpec
    flat: np.ndarray
    params: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if self.spec.widths[-1] != 1:
            raise ValueError(f"discriminator output width must be 1, got {self.spec.widths[-1]}")
        object.__setattr__(self, "params", _unpack(self.flat, self.spec))

    def __reduce__(self):
        return type(self), (self.spec, self.flat)

    @classmethod
    def build(cls, dim_x, dim_y, hidden=(128, 128), seed=0) -> "Discriminator":
        spec = MlpSpec((dim_x + dim_y, *hidden, 1))
        return cls(spec, _pack(init_params(spec, seed), spec, "discriminator params"))


def _leaky_relu_inplace(h: np.ndarray, slope: float) -> None:
    """h <- max(h, slope * h), which for 0 <= slope <= 1 and finite h is
    np.where(h > 0, h, slope * h) bit for bit (module docstring).

    An array of more than `_BLOCK` elements is done in blocks of its flat
    view through one scratch array, so no full-size ``slope * h`` is made.
    """
    if h.size <= _BLOCK:
        np.maximum(h, slope * h, out=h)
        return
    flat = h.reshape(-1, copy=False)  # a view, or ValueError: never a copy
    scratch = np.empty(_BLOCK)
    for start in range(0, flat.size, _BLOCK):
        block = flat[start:start + _BLOCK]
        times_slope = scratch[:block.size]
        np.multiply(slope, block, out=times_slope)
        np.maximum(block, times_slope, out=block)


def mlp_forward(spec: MlpSpec, params: list[np.ndarray],
                h: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Output of the MLP on rows `h`, and the cache `mlp_backward` needs.

    The cache holds each layer's input, then the output.
    """
    n_layers = len(spec.widths) - 1
    cache = []
    for i in range(n_layers):
        cache.append(h)
        h = h @ params[2 * i]
        h += params[2 * i + 1]
        if i < n_layers - 1:
            _leaky_relu_inplace(h, spec.hidden_slope)
    if spec.output_activation == "tanh":
        h = np.tanh(h)
    cache.append(h)
    return h, cache


def mlp_backward(spec: MlpSpec, params: list[np.ndarray], cache: list[np.ndarray],
                 g_out: np.ndarray, *, grads_out: list[np.ndarray] | None = None,
                 input_grad: bool = True) -> tuple[list[np.ndarray] | None, np.ndarray | None]:
    """Gradients of a loss from its gradient `g_out` w.r.t. the MLP output.

    Writes the parameter gradients into `grads_out`, arrays shaped like
    `params` (such as the views of a `trainer.AdamState.grads` vector), or
    computes none when it is None. Returns (`grads_out`, gradient w.r.t.
    the input rows); the second is None, and not computed, when
    `input_grad` is false. A hidden unit passes the gradient where its
    output is positive and scales it by the slope elsewhere.
    """
    out = cache[-1]
    g = g_out
    if spec.output_activation == "tanh":
        g = g * (1.0 - out * out)
    factor = np.array([spec.hidden_slope, 1.0])
    n_layers = len(spec.widths) - 1
    for i in reversed(range(n_layers)):
        if i < n_layers - 1:  # g is the fresh product of the layer above
            g *= factor.take((cache[i + 1] > 0).view(np.uint8))
        if grads_out is not None:
            np.matmul(cache[i].T, g, out=grads_out[2 * i])
            np.sum(g, axis=0, out=grads_out[2 * i + 1])
        if i > 0 or input_grad:
            g = g @ params[2 * i].T
    return grads_out, g if input_grad else None


def _forward_uncached(spec: MlpSpec, params: list[np.ndarray], h: np.ndarray) -> np.ndarray:
    """`mlp_forward`'s output on rows `h`, bit for bit, without its cache.

    At least 2 * `_ROWS` rows through hidden layers all at least
    `_MIN_BLOCKED_WIDTH` wide run the hidden layers in row blocks of equal
    size to within a row, and the output layer too when it is at least 2
    wide and at least 2 blocks each make a product above `_SMALL_GEMM`.
    Only the last layer run in blocks is written whole; an output layer
    not run in blocks runs once over all rows (module docstring). Any
    other input is `mlp_forward`'s pass.
    """
    n = h.shape[0]
    if n < 2 * _ROWS or min(spec.widths[1:-1]) < _MIN_BLOCKED_WIDTH:
        return mlp_forward(spec, params, h)[0]
    k, w = spec.widths[-2:]
    rows = max(_ROWS, _SMALL_GEMM // (k * w) + 1)
    blocked_output = w > 1 and n // rows >= 2
    n_hidden = len(spec.widths) - 2
    n_blocked = n_hidden + blocked_output  # the layers that run in row blocks
    n_blocks = n // (rows if blocked_output else _ROWS)
    written = np.empty((n, spec.widths[n_blocked]))  # the last of them, whole
    bounds = [i * n // n_blocks for i in range(n_blocks + 1)]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        a = h[start:stop]
        for i in range(n_blocked):
            a = np.matmul(a, params[2 * i], out=written[start:stop] if i == n_blocked - 1 else None)
            a += params[2 * i + 1]
            if i < n_hidden:
                _leaky_relu_inplace(a, spec.hidden_slope)
    out = written if blocked_output else written @ params[-2] + params[-1]
    return np.tanh(out) if spec.output_activation == "tanh" else out


def gen_forward(gen: Generator, x, rng=None, *,
                cache: bool = True) -> tuple[np.ndarray, list[np.ndarray] | None]:
    """Generator output on rows ``[x | z]``, and its `mlp_forward` cache.

    The noise is drawn here, ``z = rng.standard_normal((len(x), noise_dim))``;
    `rng` is required when noise_dim > 0 and unused at 0. With `cache`
    false the cache is None and the same output comes from the cache-free
    pass (module docstring), for callers that never backpropagate.
    """
    h = np.asarray(x, dtype=np.float64)
    if gen.noise_dim > 0:
        if rng is None:
            raise ValueError("generator has noise_dim > 0 but no rng was supplied")
        h = np.concatenate([h, rng.standard_normal((len(h), gen.noise_dim))], axis=1)
    if h.shape[1] != gen.spec.widths[0]:
        raise ValueError(f"gen_forward: input dim {h.shape[1]} != spec input {gen.spec.widths[0]}")
    if not cache:
        return _forward_uncached(gen.spec, gen.params, h), None
    return mlp_forward(gen.spec, gen.params, h)


def disc_forward(disc: Discriminator, x, y, *,
                 cache: bool = True) -> tuple[np.ndarray, list[np.ndarray] | None]:
    """The raw logit f(x, y) on rows ``[x | y]``, one per sample, and its cache.

    With `cache` false the cache is None, as in `gen_forward`.
    """
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"disc_forward: batch sizes {x.shape[0]} and {y.shape[0]} differ")
    h = np.concatenate([x, y], axis=1)
    if h.shape[1] != disc.spec.widths[0]:
        raise ValueError(f"disc_forward: fused dim {h.shape[1]} != spec input "
                         f"{disc.spec.widths[0]}")
    if not cache:
        return _forward_uncached(disc.spec, disc.params, h), None
    return mlp_forward(disc.spec, disc.params, h)


def encode_vector(flat: np.ndarray) -> str:
    """The base64 of the vector's little-endian float64 bytes."""
    return base64.b64encode(flat.astype("<f8", copy=False).tobytes()).decode("ascii")


def decode_vector(data, size: int, what: str) -> np.ndarray:
    """A writable float64 vector back from `encode_vector`'s string.

    Raises ValueError, naming the vector as `what`, when `data` is not
    base64 or does not hold exactly `size` float64s.
    """
    try:
        raw = base64.b64decode(data, validate=True)
    except (TypeError, ValueError) as err:  # binascii.Error is a ValueError
        raise ValueError(f"{what} is not base64: {err}") from None
    if len(raw) != 8 * size:
        raise ValueError(f"{what} holds {len(raw)} bytes, expected {8 * size} "
                         f"({size} float64s)")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)
