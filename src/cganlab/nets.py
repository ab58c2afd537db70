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
and a linear output, so its gradient is closed form: `mlp_forward` keeps
each layer's input, and `mlp_backward` turns the gradient w.r.t. the
output into parameter and input gradients.

The hidden leaky-ReLU has slope `HIDDEN_SLOPE` = 0.2 and no
data-dependent branch; both passes give the same bits as
``np.where(h > 0, h, 0.2 * h)`` forward and ``g * np.where(out > 0, 1.0,
0.2)`` backward. ``0.2 * h`` lies between 0 and ``h``, so ``max(h, 0.2 *
h)`` is ``h`` where ``h > 0`` and ``0.2 * h`` elsewhere. At a zero or
an infinity of either sign both operands are ``h``, and a NaN propagates;
only a signaling NaN, which no arithmetic makes, comes back as it is,
where ``np.where`` gives it quieted.

An array of at most `_BLOCK` elements takes the one call
``np.maximum(h, 0.2 * h, out=h)``. A larger one is done in blocks of at
most `_BLOCK` elements of its flat view, each multiplied by 0.2 into one
reused scratch array and then maxed into place, so no full-size ``0.2 * h``
is allocated (one hidden activation fewer at the peak of a large forward
pass). The bits do not change: the select is elementwise, and every
element still goes through the same two ufuncs on the same operands.
Block sizes from 4k to 128k elements were timed on a 2-core Xeon VM; 16k
to 64k were fastest on every shape, and 32k took (16000, 256) from 13.4
to 6.2 ms and (2048, 256) from 1.13 to 0.73 ms. The backward factor is
read from the table `_SLOPE_FACTORS`, ``[0.2, 1.0]``, at the uint8 view
of the mask ``out > 0``, so each element of ``g`` is multiplied by
exactly 0.2 or 1.0, in place on the fresh ``g`` of the layer above
(``g *= _SLOPE_FACTORS.take(...)`` rounds as ``g * _SLOPE_FACTORS[...]``).

The cache-free pass (`_forward_uncached`) runs its first layers in row
blocks, so that no array holds a whole hidden layer. That rests on how
OpenBLAS's dgemm rounds (scipy-openblas 0.3.31, 2-core AVX-512 Xeon VM,
1 and 2 threads): an (n, k) @ (k, w) product in row blocks gives each
row the whole product's bits when
- w >= `_MIN_BLOCKED_WIDTH` = 8 and each block holds at least 7 rows
  (4,096 to 16,000 rows, 1 to 256 columns, C or Fortran order, blocks of
  7 to 4,095 rows);
- 2 <= w <= 7 and each block's product is above OpenBLAS's small-matrix
  cut-off, rows * k * w > `_SMALL_GEMM` = 100^3. At or below it a kernel
  whose bits change with the row count runs, and the boundary is sharp:
  at (k, w) = (256, 2) blocks of 1,953 rows differ and 1,954 match, at
  (128, 2) 3,906 differ and 3,907 match, at (128, 4) 1,953 differ and
  1,954 match (k from 16 to 256, w from 2 to 4, 8,000 to 64,000 rows;
  w from 5 to 7 at k = 128 in the tests).
A 1-wide product, such as the discriminator's logit, runs through gemv,
whose bits change with the split, and is never blocked. The pass walks
the layers from the first, raising the block size r from `_ROWS` =
2,048 to each layer's bound, and stops at the first layer that admits
no blocks or leaves fewer than 2 blocks of r rows. The layers before it
run in n // r blocks of equal size to within a row, the last of them
writing its rows of one array with ``np.matmul(..., out=)``; the rest
run once over all rows. 16,000 rows through two 256-wide hidden layers
and a 2-wide output take 7 blocks of 2,285 or 2,286 rows: two 4.7 MB
blocks where the cached pass holds two 32.8 MB activations, and no
all-rows (16000, 256) @ (256, 2) product, whose dgemm with 2 threads
touches about 28 MB of OpenBLAS's pack buffer.

A network stores one float64 vector, `flat`, and nothing else that
changes: its `params` are reshaped views of it, in the order W0, b0,
W1, b1, ..., built once when the network is made (`_unpack`). A copy or
an unpickled network is made through its constructor, so it builds its
views from its own vector. The Adam moments and the gradient buffer of
`trainer.AdamState` are vectors laid out the same way, so the optimizer
updates one whole vector per call. `mlp_backward` writes the weight
gradients with ``np.matmul(..., out=)`` and the bias gradients with
``np.sum(..., axis=0, out=)`` into views of such a buffer: the same
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

WEIGHT_INIT_STD = 0.02  # weights ~ N(0, 0.02^2), biases zero
# pix2pix's hidden leaky-ReLU slope (Isola et al. 2017, arXiv 1611.07004), which
# these conditional networks follow; `mlp_backward` reads it from the table
HIDDEN_SLOPE = 0.2
_SLOPE_FACTORS = np.array([HIDDEN_SLOPE, 1.0])

# elements per block of the hidden activation: a block and its scratch
# take 512 KB, which stays in a 2 MB per-core L2 (module docstring)
_BLOCK = 32_768
# the fewest rows per block of the cache-free pass, and the narrowest layer
# whose product keeps its bits in such blocks however small (module docstring)
_ROWS = 2_048
_MIN_BLOCKED_WIDTH = 8
# OpenBLAS's small-matrix cut-off: a product of M * N * K at most this many
# multiply-adds takes a kernel whose bits change with the row count, one
# above it keeps its bits in row blocks (module docstring)
_SMALL_GEMM = 100 ** 3


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths, input first and output last; at least one hidden layer.

    Each width is a positive integer, a Python or numpy one; a float or a
    bool is refused, not rounded. Every hidden layer is a leaky-ReLU of
    slope `HIDDEN_SLOPE`, and the output layer is linear.
    """

    widths: tuple[int, ...]

    def __post_init__(self):
        if len(self.widths) < 3:
            raise ValueError(f"MlpSpec needs at least one hidden layer, got widths {self.widths}")
        if any(isinstance(w, bool) or not isinstance(w, (int, np.integer)) or w <= 0
               for w in self.widths):
            raise ValueError(f"MlpSpec widths must be positive integers, got {self.widths}")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))

    def to_dict(self) -> dict:
        return {"widths": list(self.widths)}

    @classmethod
    def from_dict(cls, d: dict) -> "MlpSpec":
        """The spec back from `to_dict`; any other key raises ValueError naming it."""
        unknown = sorted(set(d) - {"widths"})
        if unknown:
            raise ValueError(f"unknown MlpSpec keys {unknown}")
        return cls(tuple(d["widths"]))

    def param_shapes(self) -> list[tuple[int, ...]]:
        """Shapes of W0, b0, W1, b1, ...: (w_in, w_out), then (w_out,), per layer."""
        return [shape for w_in, w_out in zip(self.widths[:-1], self.widths[1:])
                for shape in ((w_in, w_out), (w_out,))]

    @property
    def n_params(self) -> int:
        """Length of a network's `flat`: the elements of all `param_shapes()`."""
        return sum(math.prod(s) for s in self.param_shapes())


def init_params(spec: MlpSpec, seed: int) -> np.ndarray:
    """A new network's `flat` from seed: weights N(0, 0.02^2) in order, biases zero."""
    rng = np.random.default_rng(seed)
    flat = np.zeros(spec.n_params)
    for weight in _unpack(flat, spec)[::2]:
        weight[...] = rng.normal(0.0, WEIGHT_INIT_STD, size=weight.shape)
    return flat


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
    def build(cls, dim_x, dim_y, hidden=(128, 128), noise_dim=0, seed=0) -> "Generator":
        spec = MlpSpec((dim_x + noise_dim, *hidden, dim_y))
        return cls(spec, init_params(spec, seed), noise_dim)


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
        return cls(spec, init_params(spec, seed))


def _leaky_relu_inplace(h: np.ndarray) -> None:
    """h <- max(h, HIDDEN_SLOPE * h): np.where(h > 0, h, HIDDEN_SLOPE * h)
    bit for bit (module docstring).

    An array of more than `_BLOCK` elements is done in blocks of its flat
    view through one scratch array, so no full-size ``0.2 * h`` is made.
    """
    if h.size <= _BLOCK:
        np.maximum(h, HIDDEN_SLOPE * h, out=h)
        return
    flat = h.reshape(-1, copy=False)  # a view, or ValueError: never a copy
    scratch = np.empty(_BLOCK)
    for start in range(0, flat.size, _BLOCK):
        block = flat[start:start + _BLOCK]
        times_slope = scratch[:block.size]
        np.multiply(HIDDEN_SLOPE, block, out=times_slope)
        np.maximum(block, times_slope, out=block)


def _layer(spec: MlpSpec, params: list[np.ndarray], i: int, a: np.ndarray,
           out: np.ndarray | None = None) -> np.ndarray:
    """Layer i on rows `a`: ``a @ W_i + b_i``, written into `out` when given,
    then the leaky-ReLU unless i is the output layer."""
    h = np.matmul(a, params[2 * i], out=out)
    h += params[2 * i + 1]
    if i < len(spec.widths) - 2:
        _leaky_relu_inplace(h)
    return h


def mlp_forward(spec: MlpSpec, params: list[np.ndarray],
                h: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Output of the MLP on rows `h`, and the cache `mlp_backward` needs.

    The cache holds each layer's input, `h` first, and not the output.
    """
    cache = []
    for i in range(len(spec.widths) - 1):
        cache.append(h)
        h = _layer(spec, params, i, h)
    return h, cache


def mlp_backward(spec: MlpSpec, params: list[np.ndarray], cache: list[np.ndarray],
                 g_out: np.ndarray, *, grads_out: list[np.ndarray] | None = None,
                 input_grad: bool = True) -> tuple[list[np.ndarray] | None, np.ndarray | None]:
    """Gradients of a loss from its gradient `g_out` w.r.t. the MLP output.

    `cache` is `mlp_forward`'s, each layer's input; the output layer is
    linear. Writes the parameter gradients into `grads_out`, arrays shaped
    like `params` (such as the views of a `trainer.AdamState.grads`
    vector), or computes none when it is None. Returns (`grads_out`,
    gradient w.r.t. the input rows); the second is None, and not computed,
    when `input_grad` is false. A hidden unit passes the gradient where its
    output is positive and scales it by `HIDDEN_SLOPE` elsewhere.
    """
    g = g_out
    n_layers = len(spec.widths) - 1
    for i in reversed(range(n_layers)):
        if i < n_layers - 1:  # g is the fresh product of the layer above
            g *= _SLOPE_FACTORS.take((cache[i + 1] > 0).view(np.uint8))
        if grads_out is not None:
            np.matmul(cache[i].T, g, out=grads_out[2 * i])
            np.sum(g, axis=0, out=grads_out[2 * i + 1])
        if i > 0 or input_grad:
            g = g @ params[2 * i].T
    return grads_out, g if input_grad else None


def _forward_uncached(spec: MlpSpec, params: list[np.ndarray], h: np.ndarray) -> np.ndarray:
    """`mlp_forward`'s output on rows `h`, bit for bit, without its cache.

    The first layers that may run in row blocks do so, the last writing
    its rows of one array; the rest run once over all rows (module docstring).
    """
    n, n_layers = h.shape[0], len(spec.widths) - 1
    rows, n_blocked = _ROWS, 0
    for k, w in zip(spec.widths[:-1], spec.widths[1:]):
        r = rows if w >= _MIN_BLOCKED_WIDTH else max(rows, _SMALL_GEMM // (k * w) + 1)
        if w == 1 or n // r < 2:
            break
        rows, n_blocked = r, n_blocked + 1
    out = h
    if n_blocked:
        out = np.empty((n, spec.widths[n_blocked]))
        n_blocks = n // rows
        bounds = [i * n // n_blocks for i in range(n_blocks + 1)]
        for start, stop in zip(bounds[:-1], bounds[1:]):
            a = h[start:stop]
            for i in range(n_blocked):
                a = _layer(spec, params, i, a, out[start:stop] if i == n_blocked - 1 else None)
    for i in range(n_blocked, n_layers):
        out = _layer(spec, params, i, out)
    return out


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
