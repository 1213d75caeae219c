"""Dense feed-forward networks with hand-written backprop, plus Adam.

Everything runs in float64. Networks are small (at most 4 weight layers),
so explicit gradients are preferred over a general autodiff graph: the
gradient of every loss in the package can be checked against finite
differences.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError, ShapeError

# Probabilities are clamped into this range before any logarithm.
PROB_EPS = 1e-7
# Adam's decay rates of the first and second moments, and its epsilon.
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.5, 0.99, 1e-8

_ACTIVATIONS = ("identity", "relu", "sigmoid")


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths (input first) and one activation tag per weight layer."""

    widths: tuple
    activations: tuple

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ShapeError("an MLP needs at least an input and an output width")
        if any(w < 1 for w in self.widths):
            raise ShapeError(f"all widths must be >= 1, got {self.widths}")
        if len(self.activations) != len(self.widths) - 1:
            raise ShapeError(
                f"{len(self.widths) - 1} weight layers but "
                f"{len(self.activations)} activations"
            )
        for a in self.activations:
            if a not in _ACTIVATIONS:
                raise ShapeError(f"unknown activation {a!r}")

    @property
    def n_layers(self):
        return len(self.widths) - 1

    @cached_property
    def layout(self):
        """(start, stop, shape) of each parameter block, weights then bias
        per layer, as offsets into the flat parameter vector."""
        layout, start = [], 0
        for fan_in, fan_out in zip(self.widths[:-1], self.widths[1:]):
            for shape in ((fan_in, fan_out), (fan_out,)):
                stop = start + math.prod(shape)
                layout.append((start, stop, shape))
                start = stop
        return tuple(layout)

    @cached_property
    def size(self):
        """Length of the flat parameter vector."""
        return self.layout[-1][1]


class MlpParams:
    """Weights (fan_in x fan_out) and biases, one pair per layer.

    Every block is a reshaped view into one contiguous float64 vector,
    ``flat``, laid out as w0, b0, w1, b1, ..., so a single ufunc call updates
    a whole network. Assign into a block in place (``w[...] = value``):
    rebinding a list entry detaches it from ``flat``.
    """

    def __init__(self, flat, layout):
        """Parameters viewing ``flat`` (not a copy) in the given layout."""
        self.flat = flat
        blocks = [flat[start:stop].reshape(shape) for start, stop, shape in layout]
        self.weights = blocks[0::2]
        self.biases = blocks[1::2]


def init_mlp(spec, rng, flat=None):
    """Glorot-uniform weights, zero biases, written into ``flat`` (a vector
    of ``spec.size``, by default a fresh one)."""
    params = MlpParams(np.empty(spec.size) if flat is None else flat, spec.layout)
    for w, b in zip(params.weights, params.biases):
        fan_in, fan_out = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        b[...] = 0.0
    return params


def _act(name, z):
    """The activation of the pre-activation ``z``; relu overwrites ``z``."""
    if name == "identity":
        return z
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    # exp(-z) overflows to inf for z below about -709, and 1/(1 + inf) is
    # exactly the 0 the sigmoid should give there
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def mlp_forward(params, spec, x):
    """Forward pass. Returns (output, cache); the cache, which feeds
    mlp_backward, is the list of layer activations, input first. Backward
    reads no pre-activation: relu(z) > 0 exactly where z > 0."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"input must be 2-D (batch, features), got ndim={x.ndim}")
    if x.shape[1] != spec.widths[0]:
        raise ShapeError(
            f"input has {x.shape[1]} columns, network expects {spec.widths[0]}"
        )
    cache = [x]
    for w, b, act in zip(params.weights, params.biases, spec.activations):
        z = cache[-1] @ w
        z += b
        cache.append(_act(act, z))
    return cache[-1], cache


def mlp_backward(params, spec, cache, grad_out, out=None, *,
                 input_grad=True, param_grad=True):
    """Backprop. Returns (parameter gradient vector, gradient w.r.t. input).

    ``cache`` is mlp_forward's list of activations. The parameter gradient
    is laid out like ``params.flat`` and written into ``out`` (a vector of
    ``spec.size``, such as a slice of a larger one) when it is given and
    returned as ``out``, else into a fresh vector. To sum two passes, add
    the returned vectors.

    ``input_grad=False`` skips the first layer's product with its weights
    and returns None for the input gradient; ``param_grad=False`` skips
    every weight and bias product, ignores ``out`` and returns None for the
    parameter gradient. What is computed is bitwise what the full call
    returns.
    """
    if tuple(a.shape[1] for a in cache) != spec.widths:
        raise ShapeError("cache does not match this network")
    grad_out = np.asarray(grad_out, dtype=float)
    if grad_out.shape != cache[-1].shape:
        raise ShapeError(
            f"output gradient shape {grad_out.shape} does not match "
            f"forward output {cache[-1].shape}"
        )
    if out is not None and out.shape != (spec.size,):
        raise ShapeError(f"gradient buffer of shape {out.shape}, "
                         f"network has {spec.size} parameters")
    if not param_grad:
        out = None
    elif out is None:
        out = np.empty(spec.size)
    delta = grad_out
    for layer in range(spec.n_layers - 1, -1, -1):
        act, a = spec.activations[layer], cache[layer + 1]
        if act == "relu":
            delta = np.multiply(delta, a > 0.0)
        elif act == "sigmoid":
            delta = delta * (a * (1.0 - a))
        if param_grad:
            (w0, w1, shape), (b0, b1, _) = spec.layout[2 * layer:2 * layer + 2]
            np.matmul(cache[layer].T, delta, out=out[w0:w1].reshape(shape))
            np.add.reduce(delta, 0, out=out[b0:b1])
        if layer or input_grad:
            delta = delta @ params.weights[layer].T
    return out, delta if input_grad else None


def clamp_prob(p):
    """Keep probabilities away from 0/1 before taking logs: the values of
    ``np.clip(p, PROB_EPS, 1 - PROB_EPS)``, NaN kept, without its wrapper."""
    return np.minimum(np.maximum(p, PROB_EPS), 1.0 - PROB_EPS)


def clamp_prob_masked(p):
    """Clamped probabilities and a float mask, 1 where ``p`` was already in
    range: a clamped entry is constant in ``p``, so its gradient is zero."""
    return clamp_prob(p), ((p > PROB_EPS) & (p < 1.0 - PROB_EPS)).astype(float)


def binary_log_likelihood(p_pos, p_neg, weight):
    """The clamped binary log-likelihood of rows labelled 1 and 0, from
    their raw probabilities: (sum log p_pos, sum log(1 - p_neg)) and the
    gradients of -weight times each, -weight/p_pos and weight/(1 - p_neg),
    zero where a probability was clamped."""
    p, in_pos = clamp_prob_masked(p_pos)
    q, in_neg = clamp_prob_masked(p_neg)
    q = 1.0 - q
    return (np.add.reduce(np.log(p), None), np.add.reduce(np.log(q), None),
            -weight / p * in_pos, weight / q * in_neg)


@dataclass
class AdamState:
    """Adam moments of one parameter vector, allocated on the first step."""

    learning_rate: float = 1e-4
    step: int = 0
    m: np.ndarray = None
    v: np.ndarray = None


# Adam runs over a long vector in slices of this many elements. Each
# operation streams whole arrays, so over the reconciler's embedder (a
# quarter-million parameters on six views) a single pass keeps missing the
# cache and maps a fresh page-faulted scratch vector on every call. Slices
# of 256 KiB per array were the fastest when chosen; a later sweep timed
# 8192 to 65536 elements alike. A step with a full gradient over the
# embedder's 256,800 parameters took 1.8-2.8 ms over several timeit runs
# (best of 7-15; 2-core x86-64 VM, Python 3.11, numpy 2.4.6, one BLAS
# thread), which is as far as that VM drifts.
ADAM_CHUNK = 1 << 15
# The largest gradient entry whose square is finite in float64.
GRAD_LIMIT = math.sqrt(np.finfo(float).max)


def _adam_runs(size, zero):
    """(start, stop, has_grad) runs that cover [0, size), adjacent runs of
    one kind merged; ``zero`` is a sorted list of (start, stop) ranges whose
    gradient is zero."""
    runs, pos = [], 0
    for start, stop in [*zero, (size, size)]:
        for lo, hi, has_grad in ((pos, start, True), (start, stop, False)):
            if lo == hi:
                continue
            if runs and runs[-1][1] == lo and runs[-1][2] == has_grad:
                lo = runs.pop()[0]
            runs.append((lo, hi, has_grad))
        pos = stop
    return runs


def adam_step(state, params, grads, zero=()):
    """One bias-corrected Adam update, applied in place to ``params``.

    ``params`` and ``grads`` are vectors of one shape, normally a net's
    ``params.flat`` and a gradient in the same layout. The update is
    p -= lr*m_hat/(sqrt(v_hat) + eps) with m_hat = m/(1-b1^t) and
    v_hat = v/(1-b2^t), applied in the folded form of Section 2 of Kingma &
    Ba (arXiv 1412.6980): p -= a_t*m/(sqrt(v) + eps_t), with the per-step
    scalars a_t = lr*sqrt(1-b2^t)/(1-b1^t) and eps_t = eps*sqrt(1-b2^t).
    The paper keeps a constant epsilon in the folded form, which shifts its
    meaning; eps_t keeps the update algebraically the one above, so only
    rounding differs. Every operation is elementwise, so a whole vector at
    once gives, bit for bit, what each block updated on its own would give.
    A gradient entry that is not finite or above sqrt(float64 max), whose
    square would send v to inf, raises NumericalError naming its index
    before anything is changed.

    ``zero`` names slices of the vector (steps of 1, not overlapping) whose
    gradient entries are all exactly zero. On a vector longer than
    ``ADAM_CHUNK`` only the finiteness check reads them: there the moments
    only decay, and the five passes that read the gradient are skipped. A
    shorter vector takes the plain path, where the extra runs would cost
    more than the skipped passes save. Adding (1-b1)*0 to m and
    (1-b2)*0*0 to v changes no value, at most the sign of a zero, and no
    update reads that sign: init_mlp writes no -0, and p - x is -0 only
    for p = -0, so p - 0 and p - (-0) are both bitwise p. So the
    parameters come out bitwise, and the moments as numbers, as from the
    call without ``zero``.
    """
    if params.ndim != 1 or params.shape != grads.shape:
        raise ShapeError(f"parameters of shape {params.shape} vs "
                         f"gradients of shape {grads.shape}; both must be "
                         "vectors of one length")
    if zero:
        zero = sorted((sl.start, sl.stop) for sl in zero)
        edges = [0, *(i for bounds in zero for i in bounds), params.size]
        if any(a > b for a, b in zip(edges, edges[1:])):
            raise ShapeError(f"zero slices {zero} overlap or leave a vector "
                             f"of {params.size}")
    # a finite sum of squares clears every entry; else scan them exactly
    with np.errstate(over="ignore"):
        squares = np.dot(grads, grads)
    if not math.isfinite(squares):
        bad = ~(np.abs(grads) <= GRAD_LIMIT)
        if bad.any():
            raise NumericalError("gradient not finite or above sqrt(float64 "
                                 f"max) at index {int(np.argmax(bad))}")
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
    elif state.m.shape != params.shape:
        raise ShapeError(f"Adam state holds {state.m.size} moments, "
                         f"parameters have {params.size}")
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    root = math.sqrt(1.0 - b2 ** t)
    step_size = state.learning_rate * root / (1.0 - b1 ** t)
    eps = ADAM_EPSILON * root
    # on 9,760 parameters a call took 57 us plain and 68-79 us split into
    # two or three runs (timeit, best of 7, on the VM named above)
    runs = (_adam_runs(params.size, zero)
            if zero and params.size > ADAM_CHUNK else [(0, params.size, True)])
    for lo, hi, has_grad in runs:
        for start in range(lo, hi, ADAM_CHUNK):
            chunk = slice(start, min(start + ADAM_CHUNK, hi))
            p, m, v = params[chunk], state.m[chunk], state.v[chunk]
            if has_grad:
                # twelve passes over one scratch vector
                g = grads[chunk]
                scratch = np.multiply(1.0 - b1, g)
                m *= b1
                m += scratch
                np.multiply(1.0 - b2, g, out=scratch)
                scratch *= g
                v *= b2
                v += scratch
                np.sqrt(v, out=scratch)
            else:
                # seven: the five that read the gradient are skipped
                m *= b1
                v *= b2
                scratch = np.sqrt(v)
            scratch += eps
            np.divide(m, scratch, out=scratch)
            scratch *= step_size
            p -= scratch


@dataclass
class Net:
    """An MLP together with its spec; the unit everything else composes."""

    spec: MlpSpec
    params: MlpParams

    def forward(self, x):
        return mlp_forward(self.params, self.spec, x)

    def backward(self, cache, grad_out, out=None, *, input_grad=True,
                 param_grad=True):
        return mlp_backward(self.params, self.spec, cache, grad_out, out,
                            input_grad=input_grad, param_grad=param_grad)


def make_net(widths, activations, rng):
    spec = MlpSpec(tuple(widths), tuple(activations))
    return Net(spec, init_mlp(spec, rng))
