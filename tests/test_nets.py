import math
import warnings

import numpy as np
import pytest

from mvclust.errors import NumericalError, ShapeError
from mvclust.nets import (ADAM_CHUNK, PROB_EPS, AdamState, MlpParams, MlpSpec,
                          adam_step, clamp_prob, init_mlp, make_net,
                          mlp_backward, mlp_forward)

from conftest import assert_grads_close, numerical_grads, rel_err


def identity_net(width):
    spec = MlpSpec((width, width), ("identity",))
    params = MlpParams(np.concatenate([np.eye(width).ravel(), np.zeros(width)]),
                       spec.layout)
    return params, spec


def blocks(params):
    """The weight and bias views of ``params`` in layout order."""
    return [a for pair in zip(params.weights, params.biases) for a in pair]


def test_identity_network_returns_input(rng):
    params, spec = identity_net(4)
    x = rng.normal(size=(6, 4))
    out, _ = mlp_forward(params, spec, x)
    np.testing.assert_array_equal(out, x)


def test_sigmoid_at_zero_is_half(rng):
    spec = MlpSpec((3, 1), ("sigmoid",))
    params = MlpParams(np.zeros(spec.size), spec.layout)
    out, _ = mlp_forward(params, spec, rng.normal(size=(5, 3)))
    np.testing.assert_allclose(out, 0.5)


def test_sigmoid_far_below_zero_is_exactly_zero_without_a_warning():
    spec = MlpSpec((1, 1), ("sigmoid",))
    params = MlpParams(np.array([1.0, 0.0]), spec.layout)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # exp(1000) overflows
        out, _ = mlp_forward(params, spec, np.array([[-1000.0], [0.0]]))
    assert out.ravel().tolist() == [0.0, 0.5]


def straightline_forward(params, spec, x):
    # naive per-sample, per-unit re-implementation
    def act(name, v):
        if name == "identity":
            return v
        if name == "relu":
            return v if v > 0 else 0.0
        return 1.0 / (1.0 + np.exp(-v))

    out = []
    for row in x:
        a = list(row)
        for w, b, name in zip(params.weights, params.biases, spec.activations):
            nxt = []
            for j in range(w.shape[1]):
                z = b[j]
                for i in range(w.shape[0]):
                    z += a[i] * w[i, j]
                nxt.append(act(name, z))
            a = nxt
        out.append(a)
    return np.array(out)


def test_forward_matches_straightline_reimplementation(rng):
    net = make_net([3, 5, 4, 2], ["relu", "sigmoid", "sigmoid"], rng)
    x = rng.normal(size=(7, 3))
    out, _ = net.forward(x)
    ref = straightline_forward(net.params, net.spec, x)
    assert rel_err(out, ref) < 1e-12


def test_shape_mismatch_rejected(rng):
    net = make_net([3, 2], ["identity"], rng)
    with pytest.raises(ShapeError, match="columns"):
        net.forward(rng.normal(size=(4, 5)))


def test_zero_output_gradient_gives_zero_param_gradients(rng):
    net = make_net([3, 4, 2], ["relu", "identity"], rng)
    out, cache = net.forward(rng.normal(size=(5, 3)))
    grads, gin = net.backward(cache, np.zeros_like(out))
    np.testing.assert_array_equal(grads, 0.0)
    np.testing.assert_array_equal(gin, 0.0)


def test_linear_layer_quadratic_loss_closed_form(rng):
    # loss (Wx+b-y)^2 on a single-output linear net: grad_W = 2(Wx+b-y)x^T
    net = make_net([3, 1], ["identity"], rng)
    x = rng.normal(size=(1, 3))
    y = rng.normal()
    out, cache = net.forward(x)
    resid = out[0, 0] - y
    flat, _ = net.backward(cache, np.array([[2.0 * resid]]))
    grads = MlpParams(flat, net.spec.layout)
    np.testing.assert_allclose(grads.weights[0], 2.0 * resid * x.T)
    np.testing.assert_allclose(grads.biases[0], 2.0 * resid)


def test_backward_matches_finite_differences(rng):
    net = make_net([4, 6, 5, 3], ["sigmoid", "relu", "sigmoid"], rng)
    x = rng.normal(size=(3, 4))
    target = rng.normal(size=(3, 3))

    def loss():
        out, _ = net.forward(x)
        return float(((out - target) ** 2).sum())

    out, cache = net.forward(x)
    grads, _ = net.backward(cache, 2.0 * (out - target))
    assert_grads_close([grads], numerical_grads(loss, [net.params.flat]))


def test_stale_cache_rejected(rng):
    net_a = make_net([3, 4, 2], ["relu", "identity"], rng)
    net_b = make_net([3, 5, 2], ["relu", "identity"], rng)
    _, cache = net_a.forward(rng.normal(size=(2, 3)))
    with pytest.raises(ShapeError):
        net_b.backward(cache, np.zeros((2, 2)))


def test_adam_zero_gradient_keeps_params(rng):
    params = rng.normal(size=8)
    before = params.copy()
    state = AdamState(learning_rate=0.1)
    adam_step(state, params, np.zeros_like(params))
    assert state.step == 1
    np.testing.assert_array_equal(params, before)


def test_adam_single_step_magnitude():
    # bias-corrected moments cancel on the first step: |update| ~ lr
    lr = 0.01
    params = np.array([1.0])
    state = AdamState(learning_rate=lr)
    adam_step(state, params, np.array([2.5]))
    assert abs((1.0 - params[0]) - lr) < 1e-6


def test_adam_converges_on_quadratic():
    w = np.array([0.0])
    state = AdamState(learning_rate=0.05)
    for _ in range(200):
        adam_step(state, w, 2.0 * (w - 3.0))
    assert abs(w[0] - 3.0) < 0.1


def test_adam_rejects_non_finite_gradient():
    state = AdamState()
    params = np.zeros(4)
    with pytest.raises(NumericalError, match="index 3"):
        adam_step(state, params, np.array([0.0, 0.0, 1.0, np.nan]))
    assert state.step == 0 and state.m is None
    np.testing.assert_array_equal(params, 0.0)


def test_adam_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        adam_step(AdamState(), np.zeros(4), np.zeros(3))
    with pytest.raises(ShapeError):
        adam_step(AdamState(), np.zeros((2, 2)), np.zeros((2, 2)))
    state = AdamState()
    adam_step(state, np.zeros(4), np.ones(4))
    with pytest.raises(ShapeError):
        adam_step(state, np.zeros(5), np.ones(5))


def _reference_adam(state, params, grads):
    # the folded update applied one parameter block at a time
    if not state["m"]:
        state["m"] = [np.zeros_like(p) for p in params]
        state["v"] = [np.zeros_like(p) for p in params]
    state["step"] += 1
    t = state["step"]
    b1, b2, lr, eps = 0.5, 0.99, 1e-2, 1e-8
    root = np.sqrt(1.0 - b2 ** t)
    step_size = lr * root / (1.0 - b1 ** t)
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= step_size * (m / (np.sqrt(v) + eps * root))


def test_adam_on_flat_vector_matches_per_block_reference_bytewise():
    net = make_net([5, 7, 3, 2], ["relu", "sigmoid", "identity"],
                   np.random.default_rng(4))
    ref = MlpParams(net.params.flat.copy(), net.spec.layout)
    state = AdamState(learning_rate=1e-2)
    ref_state = {"step": 0, "m": None, "v": None}
    x = np.random.default_rng(5).normal(size=(9, 5))
    y = np.random.default_rng(6).normal(size=(9, 2))
    for _ in range(5):
        out, cache = net.forward(x)
        grads, _ = net.backward(cache, out - y)
        adam_step(state, net.params.flat, grads)
        _reference_adam(ref_state, blocks(ref),
                        blocks(MlpParams(grads, net.spec.layout)))
        assert net.params.flat.tobytes() == ref.flat.tobytes()
    assert net.params.flat.tobytes() != make_net(
        [5, 7, 3, 2], ["relu", "sigmoid", "identity"],
        np.random.default_rng(4)).params.flat.tobytes()


def test_adam_over_several_chunks_matches_per_block_reference_bytewise():
    rng = np.random.default_rng(8)
    size = 2 * ADAM_CHUNK + 7
    params = rng.normal(size=size)
    ref = [params[:1000].copy(), params[1000:].copy()]
    state = AdamState(learning_rate=1e-2)
    ref_state = {"step": 0, "m": None, "v": None}
    for _ in range(5):
        grads = rng.normal(size=size)
        adam_step(state, params, grads)
        _reference_adam(ref_state, ref, [grads[:1000], grads[1000:]])
    assert params.tobytes() == np.concatenate(ref).tobytes()


def _textbook_adam(state, grads, lr):
    # the update with both bias-corrected moments, as Adam is usually written:
    # the form adam_step used before it folded the corrections into lr and eps
    b1, b2, eps = 0.5, 0.99, 1e-8
    state["step"] += 1
    t = state["step"]
    state["m"] = b1 * state["m"] + (1.0 - b1) * grads
    state["v"] = b2 * state["v"] + (1.0 - b2) * grads * grads
    m_hat = state["m"] / (1.0 - b1 ** t)
    v_hat = state["v"] / (1.0 - b2 ** t)
    return lr * m_hat / (np.sqrt(v_hat) + eps)


def test_folded_adam_tracks_the_textbook_update():
    # The folded step lr*sqrt(1-b2^t)/(1-b1^t) * m / (sqrt(v) + eps*sqrt(1-b2^t))
    # is the textbook update rewritten, so the two differ by rounding only.
    # Every term is positive, so nothing cancels: the textbook side is within
    # 5.5 units of 2^-53 of the exact update, the folded side within 8, and
    # 16 units bound their relative difference, entry by entry, every step.
    rng = np.random.default_rng(21)
    n, lr = 64, 1e-3
    scale = np.logspace(-12, 3, n)                  # gradient magnitudes
    scale[:2] = 0.0                                 # two entries never move
    state = AdamState(learning_rate=lr)
    ref = {"step": 0, "m": np.zeros(n), "v": np.zeros(n)}
    bound = 16 * np.finfo(float).eps / 2
    for step in range(250):
        grads = scale * rng.normal(size=n)
        if step % 50 == 0:
            grads[:] = 0.0                          # an all-zero gradient
        params = np.zeros(n)
        adam_step(state, params, grads)
        want = _textbook_adam(ref, grads, lr)
        np.testing.assert_array_equal(state.m, ref["m"])
        np.testing.assert_array_equal(state.v, ref["v"])
        # where the textbook update is 0, the folded one must be exactly 0
        assert np.all(np.abs(-params - want) <= bound * np.abs(want))


def test_adam_finiteness_check_is_exact():
    limit = math.sqrt(np.finfo(float).max)
    # entries whose squares are finite pass, though the sum of the squares
    # overflows, and the second moment stays finite
    state = AdamState(learning_rate=1e-2)
    params = np.ones(3)
    adam_step(state, params, np.array([limit, -limit, 0.0]))
    assert state.step == 1 and np.isfinite(state.v).all()
    assert params[0] < 1.0 < params[1] and params[2] == 1.0
    # an entry whose square overflows would send v to inf and freeze it
    above = np.nextafter(limit, np.inf)
    for grads, index in ((np.array([1e308, 1e308, 0.0]), 0),
                         (np.array([0.0, -above, above]), 1),
                         (np.array([np.inf, -np.inf, 0.0]), 0),
                         (np.array([1.0, 2.0, np.nan]), 2)):
        before = (params.copy(), state.m.copy(), state.v.copy())
        with pytest.raises(NumericalError, match=f"index {index}$"):
            adam_step(state, params, grads)
        assert state.step == 1
        for now, then in zip((params, state.m, state.v), before):
            assert now.tobytes() == then.tobytes()
    state = AdamState()
    params = np.zeros(5)
    with pytest.raises(NumericalError, match="index 2$"):
        adam_step(state, params, np.array([1.0, 2.0, np.nan, 3.0, 4.0]))
    assert state.step == 0 and state.m is None and state.v is None
    np.testing.assert_array_equal(params, 0.0)


def test_adam_with_zero_slices_is_the_plain_call():
    # on slices named zero the moments only decay; params match bytewise
    # the call without them, the moments as numbers
    rng = np.random.default_rng(31)
    size = 2 * ADAM_CHUNK + 100
    always = slice(100, ADAM_CHUNK + 50)               # crosses a chunk edge
    back = slice(ADAM_CHUNK + 50, ADAM_CHUNK + 300)    # zero, live, zero
    tiny = slice(2 * ADAM_CHUNK - 10, 2 * ADAM_CHUNK + 20)
    zero_at = [(always, back, tiny), (always,), (always, back, tiny),
               (always, back, tiny), (back, tiny, always)]
    params = rng.normal(size=size)
    params[tiny.start + 3] = 0.0       # so that a step of ~1e-194 shows
    ref, start = params.copy(), params.copy()
    state, ref_state = AdamState(learning_rate=1e-2), AdamState(learning_rate=1e-2)
    for step, zero in enumerate(zero_at):
        grads = rng.normal(size=size)
        if step == 1:
            grads[tiny] = 0.0
            grads[tiny.start + 3] = 1e-200     # its square underflows to 0
            assert grads[tiny.start + 3] ** 2 == 0.0
        for sl in zero:
            grads[sl] = 0.0
        if step == 3:
            # a NaN outside the zero slices changes nothing
            bad = grads.copy()
            bad[ADAM_CHUNK + 400] = np.nan
            before = [a.tobytes() for a in (params, state.m, state.v)]
            with pytest.raises(NumericalError, match=f"index {ADAM_CHUNK + 400}$"):
                adam_step(state, params, bad, zero=zero)
            assert state.step == 3
            assert [a.tobytes() for a in (params, state.m, state.v)] == before
        adam_step(state, params, grads, zero=zero)
        adam_step(ref_state, ref, grads)
        assert params.tobytes() == ref.tobytes()
        np.testing.assert_array_equal(state.m, ref_state.m)
        np.testing.assert_array_equal(state.v, ref_state.v)
    # the 1e-200 entry left v at 0 but not m, so its parameter kept moving
    assert (state.v[tiny] == 0.0).all() and state.m[tiny.start + 3] != 0.0
    assert params[tiny.start + 3] != 0.0
    # a slice zero since the first step has m = v = 0 and never moves
    assert params[always].tobytes() == start[always].tobytes()


def test_adam_rejects_overlapping_or_outside_zero_slices():
    for zero in ((slice(0, 5), slice(4, 8)), (slice(6, 11),), (slice(-1, 3),)):
        state, params = AdamState(), np.ones(10)
        with pytest.raises(ShapeError):
            adam_step(state, params, np.ones(10), zero=zero)
        assert state.m is None and (params == 1.0).all()


def test_blocks_are_views_of_the_flat_vector():
    spec = MlpSpec((4, 3, 2), ("relu", "identity"))
    params = init_mlp(spec, np.random.default_rng(0))
    assert params.flat.shape == (spec.size,) == (4 * 3 + 3 + 3 * 2 + 2,)
    views = blocks(params)
    assert [b.shape for b in views] == [(4, 3), (3,), (3, 2), (2,)]
    for block in views:
        assert np.shares_memory(block, params.flat)
    params.flat[:] = np.arange(spec.size)
    np.testing.assert_array_equal(params.weights[0].ravel(), np.arange(12))
    np.testing.assert_array_equal(params.biases[1], [21.0, 22.0])


def test_backward_writes_into_a_given_buffer(rng):
    net = make_net([3, 4, 2], ["sigmoid", "identity"], rng)
    x = rng.normal(size=(5, 3))
    out, cache = net.forward(x)
    fresh, _ = net.backward(cache, out)
    buffer = rng.normal(size=net.spec.size + 4)
    neighbours = buffer[[0, 1, -2, -1]].copy()
    target = buffer[2:-2]
    grads, _ = net.backward(cache, out, target)
    assert grads is target
    assert target.tobytes() == fresh.tobytes()
    np.testing.assert_array_equal(buffer[[0, 1, -2, -1]], neighbours)
    with pytest.raises(ShapeError):
        net.backward(cache, out, np.zeros(net.spec.size - 1))


@pytest.mark.parametrize("act", ["identity", "relu", "sigmoid"])
@pytest.mark.parametrize("prefilled", [False, True])
def test_flagged_backward_returns_the_full_calls_part_bytewise(act, prefilled):
    rng = np.random.default_rng(3)
    net = make_net([4, 6, 5, 3], [act, act, act], rng)
    x = rng.normal(size=(7, 4))
    out, cache = net.forward(x)
    grad_out = rng.normal(size=out.shape)
    start = rng.normal(size=net.spec.size)

    def buffer():
        return start.copy() if prefilled else None

    full_params, full_input = net.backward(cache, grad_out, buffer())
    params_only, no_input = net.backward(cache, grad_out, buffer(),
                                         input_grad=False)
    no_params, input_only = net.backward(cache, grad_out, buffer(),
                                         param_grad=False)
    assert no_input is None and no_params is None
    assert params_only.tobytes() == full_params.tobytes()
    assert input_only.tobytes() == full_input.tobytes()
    # a given buffer is written, whatever it held
    assert net.backward(cache, grad_out)[0].tobytes() == full_params.tobytes()
    if act == "relu":                               # the mask is not all ones
        assert (cache[1] <= 0.0).any()


def test_clamp_prob_is_bitwise_np_clip():
    p = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, PROB_EPS,
                  1.0 - PROB_EPS, np.nextafter(PROB_EPS, 0.0),
                  np.nextafter(1.0 - PROB_EPS, 2.0), 0.5, -3.0, 7.0])
    p = np.concatenate([p, np.random.default_rng(0).uniform(-0.1, 1.1, 50)])
    want = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    for shape in ((p.size,), (p.size, 1)):
        assert clamp_prob(p.reshape(shape)).tobytes() == want.tobytes()
    assert np.isnan(clamp_prob(np.nan))


def test_seeded_init_is_deterministic():
    a = init_mlp(MlpSpec((4, 3), ("relu",)), np.random.default_rng(9))
    b = init_mlp(MlpSpec((4, 3), ("relu",)), np.random.default_rng(9))
    np.testing.assert_array_equal(a.weights[0], b.weights[0])


def test_training_trajectory_deterministic(rng):
    def trajectory(seed):
        gen = np.random.default_rng(seed)
        net = make_net([3, 4, 1], ["sigmoid", "identity"], gen)
        state = AdamState(learning_rate=1e-2)
        x = np.random.default_rng(1).normal(size=(8, 3))
        y = np.random.default_rng(2).normal(size=(8, 1))
        for _ in range(20):
            out, cache = net.forward(x)
            grads, _ = net.backward(cache, 2.0 * (out - y) / len(x))
            adam_step(state, net.params.flat, grads)
        return net.params.flat.copy()

    np.testing.assert_array_equal(trajectory(5), trajectory(5))


def test_spec_validation():
    with pytest.raises(ShapeError):
        MlpSpec((3,), ())
    with pytest.raises(ShapeError):
        MlpSpec((3, 2), ("relu", "relu"))
    for unknown in ("softplus", "tanh"):
        with pytest.raises(ShapeError, match="unknown activation"):
            MlpSpec((3, 2), (unknown,))
