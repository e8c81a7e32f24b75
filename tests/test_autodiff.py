"""Reverse-mode autodiff tests: every op checked against central finite
differences, plus the masked softmax semantics the policy relies on, and
oracles for the backward fast paths (one-GEMM weight gradients, copied-in
first gradients, constant inputs that build no graph, the direct softmax
and the fused layer norm against the graphs of elementwise ops they
replace)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridquake.policy.autodiff as ad
from gridquake.errors import InternalError


def fd_grad(fn, x, eps=1e-6):
    """Central finite differences of a scalar-valued fn at x."""
    g = np.zeros_like(x, dtype=float)
    flat = g.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + eps
        hi = fn(x)
        xf[i] = orig - eps
        lo = fn(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2 * eps)
    return g


def check_op(build, x0, rtol=1e-6):
    """build(tensor) -> scalar Tensor; compares backward to FD."""
    t = ad.Tensor(x0.copy(), requires_grad=True)
    out = build(t)
    out.backward()
    got = t.grad.copy()

    def scalar(x):
        return build(ad.Tensor(x.copy())).item()

    want = fd_grad(scalar, x0.copy())
    np.testing.assert_allclose(got, want, rtol=rtol, atol=1e-8)


def test_add_mul_chain():
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(3, 4))
    check_op(lambda t: ((t * 2.0 + 1.0) * t).sum(), x0)


def test_broadcast_add_unbroadcasts_grads():
    rng = np.random.default_rng(1)
    a0 = rng.normal(size=(3, 1))
    b = ad.Tensor(rng.normal(size=(3, 4)))
    check_op(lambda t: (t + b).sum(), a0)
    t = ad.Tensor(a0.copy(), requires_grad=True)
    (t + b).sum().backward()
    assert t.grad.shape == (3, 1)
    np.testing.assert_allclose(t.grad, np.full((3, 1), 4.0))


def test_matmul_both_sides():
    rng = np.random.default_rng(2)
    a0 = rng.normal(size=(4, 3))
    w = ad.Tensor(rng.normal(size=(3, 5)))
    check_op(lambda t: (t @ w).sum(), a0)
    w0 = rng.normal(size=(3, 5))
    a = ad.Tensor(rng.normal(size=(4, 3)))
    check_op(lambda t: (a @ t * 0.5).sum(), w0)


def test_batched_matmul():
    rng = np.random.default_rng(3)
    a0 = rng.normal(size=(2, 3, 4))
    b = ad.Tensor(rng.normal(size=(2, 4, 3)))
    check_op(lambda t: (t @ b).sum(), a0)


@settings(max_examples=60, deadline=None)
@given(batch=st.lists(st.integers(1, 4), min_size=0, max_size=3),
       m=st.integers(1, 5), k=st.integers(1, 6), n=st.integers(1, 6),
       seed=st.integers(0, 2**16))
def test_weight_gradient_matches_einsum(batch, m, k, n, seed):
    """x (..., m, k) @ W (k, n): both gradients are one GEMM over all rows;
    an einsum over the batch axes is the reference."""
    rng = np.random.default_rng(seed)
    x = ad.Tensor(rng.normal(size=(*batch, m, k)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(k, n)), requires_grad=True)
    g = rng.normal(size=(*batch, m, n))
    ((x @ w) * g).sum().backward()
    b = "abc"[:len(batch)]
    np.testing.assert_allclose(
        w.grad, np.einsum(f"{b}mk,{b}mn->kn", x.data, g), rtol=1e-12,
        atol=1e-12)
    np.testing.assert_allclose(
        x.grad, np.einsum(f"{b}mn,kn->{b}mk", g, w.data), rtol=1e-12,
        atol=1e-12)
    assert w.grad.shape == (k, n) and x.grad.shape == x.shape


def test_first_gradient_is_a_copy_not_an_alias():
    # add hands the same upstream array to both operands, and reshape
    # hands on a view of it; each leaf must own its gradient
    rng = np.random.default_rng(12)
    a = ad.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    mid = a + b
    flat = mid.reshape((6,))
    (flat * np.arange(6.0)).sum().backward()
    assert not np.shares_memory(a.grad, b.grad)
    assert not np.shares_memory(a.grad, mid.grad)
    assert not np.shares_memory(mid.grad, flat.grad)
    a.grad += 1.0
    np.testing.assert_array_equal(b.grad, np.arange(6.0).reshape(2, 3))
    np.testing.assert_array_equal(mid.grad, np.arange(6.0).reshape(2, 3))


def test_constant_inputs_record_no_graph():
    rng = np.random.default_rng(13)
    x = ad.Tensor(rng.normal(size=(2, 3, 4)))
    w = ad.Tensor(rng.normal(size=(4, 5)))
    out = ad.log_softmax(((x @ w).tanh() + 1.0) * 2.0)
    assert not out.requires_grad
    assert out._parents == () and out._backward is None


def test_tanh_exp_log():
    rng = np.random.default_rng(4)
    x0 = rng.uniform(0.5, 2.0, size=(6,))
    check_op(lambda t: t.tanh().sum(), x0)
    check_op(lambda t: t.exp().sum(), x0)


def test_pow_div_neg_sub():
    rng = np.random.default_rng(5)
    x0 = rng.uniform(0.5, 1.5, size=(5,))
    other = ad.Tensor(rng.uniform(0.5, 1.5, size=(5,)))
    check_op(lambda t: (t ** 3).sum(), x0)
    check_op(lambda t: (other * t ** -1.0).sum(), x0)
    check_op(lambda t: (-t - other).sum(), x0)


def test_mean_and_axis_sum():
    rng = np.random.default_rng(6)
    x0 = rng.normal(size=(3, 4))
    check_op(lambda t: t.mean().sum(), x0)
    check_op(lambda t: t.sum(axis=0).mean(), x0)
    check_op(lambda t: (t.sum(axis=-1, keepdims=True) * t).sum(), x0)


def test_reshape_swap_getitem():
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(2, 3, 4))
    check_op(lambda t: t.reshape((6, 4)).sum(), x0)
    check_op(lambda t: t.swapaxes(-1, -2).tanh().sum(), x0)
    check_op(lambda t: (t.swapaxes(-3, -2) * np.arange(12.0).reshape(3, 2, 2)
                        ).sum(), x0[..., :2])


def test_broadcast_to_sums_gradient_back():
    rng = np.random.default_rng(15)
    x0 = rng.normal(size=(3, 4))
    other = ad.Tensor(rng.normal(size=(2, 3, 4)))
    check_op(lambda t: (ad.broadcast_to(t, (2, 3, 4)) * other).tanh().sum(),
             x0)


def test_concat_routes_grads():
    rng = np.random.default_rng(8)
    x0 = rng.normal(size=(2, 3))
    other = ad.Tensor(rng.normal(size=(2, 2)))
    check_op(lambda t: ad.concat([t, other], axis=1).tanh().sum(), x0)


def test_take_along_last():
    rng = np.random.default_rng(9)
    x0 = rng.normal(size=(4, 6))
    idx = np.array([[1], [0], [5], [2]])
    check_op(lambda t: ad.take_along_last(t, idx).sum(), x0)
    # repeated indices must accumulate
    x1 = rng.normal(size=(2, 3))
    idx2 = np.array([[1, 1], [0, 2]])
    check_op(lambda t: ad.take_along_last(t, idx2).sum(), x1)


def test_where_const():
    rng = np.random.default_rng(10)
    x0 = rng.normal(size=(3, 4))
    mask = rng.random((3, 4)) > 0.5
    check_op(lambda t: ad.where_const(mask, t * 2.0, 0.5).sum(), x0)
    t = ad.Tensor(x0.copy(), requires_grad=True)
    ad.where_const(mask, t, -1.0).sum().backward()
    assert np.all(t.grad[~mask] == 0.0)
    assert np.all(t.grad[mask] == 1.0)


def test_log_softmax_masked_semantics():
    rng = np.random.default_rng(11)
    scores = rng.normal(size=(2, 5))
    mask = np.array([[True, True, False, True, False],
                     [False, True, True, True, True]])
    t = ad.Tensor(scores.copy(), requires_grad=True)
    lp = ad.log_softmax(t, mask)
    assert np.all(np.isneginf(lp.data[~mask]))
    probs = np.exp(lp.data[mask])
    # each row's allowed probabilities sum to 1
    assert np.sum(probs[:3]) == pytest.approx(1.0)
    assert np.sum(probs[3:]) == pytest.approx(1.0)
    # gradient: only allowed entries participate
    picked = ad.take_along_last(lp, np.array([[0], [1]]))
    picked.sum().backward()
    assert np.all(t.grad[~mask] == 0.0)

    def scalar(x):
        lpx = ad.log_softmax(ad.Tensor(x.copy()), mask)
        return ad.take_along_last(lpx, np.array([[0], [1]])).sum().item()

    want = fd_grad(scalar, scores.copy())
    np.testing.assert_allclose(t.grad, want, rtol=1e-6, atol=1e-8)


def reference_log_softmax(x, mask):
    """The masked log-softmax written out with an explicit all-true mask
    and a np.where around every step."""
    mask = np.broadcast_to(np.ones(x.shape, dtype=bool) if mask is None
                           else np.asarray(mask, dtype=bool), x.shape)
    neg = np.where(mask, x, -np.inf)
    m = np.max(neg, axis=-1, keepdims=True)
    z = np.where(mask, x - m, -np.inf)
    ez = np.where(mask, np.exp(np.where(mask, x - m, 0.0)), 0.0)
    denom = ez.sum(axis=-1, keepdims=True)
    return np.where(mask, z - np.log(denom), -np.inf)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 5), cols=st.integers(1, 9),
       seed=st.integers(0, 2**16), masked=st.booleans())
def test_log_softmax_is_bit_identical_to_reference(rows, cols, seed, masked):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=5.0, size=(rows, cols))
    mask = None
    if masked:
        mask = rng.random((rows, cols)) < 0.6
        mask[np.arange(rows), rng.integers(cols, size=rows)] = True
    want = reference_log_softmax(x, mask)
    for requires_grad in (False, True):
        got = ad.log_softmax(ad.Tensor(x, requires_grad=requires_grad), mask)
        np.testing.assert_array_equal(got.data, want)


def test_log_softmax_fully_masked_row_raises():
    t = ad.Tensor(np.zeros((1, 3)))
    with pytest.raises(InternalError):
        ad.log_softmax(t, np.array([[False, False, False]]))


def test_softmax_exact_zero_on_masked():
    t = ad.Tensor(np.array([[5.0, 1.0, -2.0]]))
    mask = np.array([[True, False, True]])
    p = ad.softmax(t, mask)
    assert p.data[0, 1] == 0.0
    assert p.data.sum() == pytest.approx(1.0)
    with pytest.raises(InternalError):
        ad.softmax(t, np.array([[False, False, False]]))


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       seed=st.integers(0, 2**16), masked=st.booleans())
def test_softmax_matches_the_log_softmax_graph(shape, seed, masked):
    """The direct softmax against exp(log_softmax): masked entries are
    exactly 0.0 in both value and gradient, and the gradient agrees with
    the composed graph to 1e-12."""
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=3.0, size=shape)
    mask = None
    if masked:
        mask = rng.random(shape) < 0.6
        mask[..., 0] = True
    w = rng.normal(size=shape)
    got_t = ad.Tensor(x.copy(), requires_grad=True)
    want_t = ad.Tensor(x.copy(), requires_grad=True)
    got = ad.softmax(got_t, mask)
    want = ad.log_softmax(want_t, mask).exp()
    (got * w).tanh().sum().backward()
    (want * w).tanh().sum().backward()
    np.testing.assert_allclose(got.data, want.data, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(got_t.grad, want_t.grad, rtol=1e-12,
                               atol=1e-12 * np.abs(want_t.grad).max())
    if masked:
        assert np.all(got.data[~mask] == 0.0)
        assert np.all(got_t.grad[~mask] == 0.0)
    check_op(lambda t: (ad.softmax(t, mask) * w).tanh().sum(), x)


def composed_layer_norm(x, g, b):
    """Layer norm as a graph of the elementwise ops."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc * (var + 1e-5) ** -0.5 * g + b


@settings(max_examples=60, deadline=None)
@given(lead=st.lists(st.integers(1, 4), min_size=0, max_size=3),
       d=st.integers(1, 9), seed=st.integers(0, 2**16),
       spread=st.sampled_from([1e-3, 1.0, 50.0]))
def test_layer_norm_matches_the_composed_graph(lead, d, seed, spread):
    """The fused op's forward is the composed graph's bit for bit, and its
    analytic gradients for x, g and b agree with that graph to 1e-12. The
    x-gradient is a difference of terms as large as inv * |w * g|, and
    both graphs round at that size, so that is the scale of its bound."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(scale=spread, size=(*lead, d)) + rng.normal()
    g0, b0 = rng.normal(size=d), rng.normal(size=d)
    w = rng.normal(size=(*lead, d))
    outs = []
    for fn in (ad.layer_norm, composed_layer_norm):
        ts = [ad.Tensor(a.copy(), requires_grad=True) for a in (x0, g0, b0)]
        out = fn(*ts)
        (out * w).sum().backward()
        outs.append((out.data, [t.grad for t in ts]))
    (got, got_g), (want, want_g) = outs
    np.testing.assert_array_equal(got, want)
    inv = (x0.var(axis=-1, keepdims=True) + 1e-5) ** -0.5
    scales = (np.abs(inv * w * g0).max(), np.abs(w).max(), np.abs(w).max())
    for name, a, b, scale in zip("xgb", got_g, want_g, scales):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * scale,
                                   err_msg=name)
    const = ad.layer_norm(ad.Tensor(x0), ad.Tensor(g0), ad.Tensor(b0))
    np.testing.assert_array_equal(const.data, want)
    assert const._parents == () and const._backward is None


def test_layer_norm_gradients_match_central_differences():
    rng = np.random.default_rng(16)
    x0 = rng.normal(size=(2, 3, 5))
    g0, b0 = rng.normal(size=5), rng.normal(size=5)
    w = rng.normal(size=(2, 3, 5))
    g, b = ad.Tensor(g0), ad.Tensor(b0)
    x = ad.Tensor(x0)
    check_op(lambda t: (ad.layer_norm(t, g, b) * w).tanh().sum(), x0)
    check_op(lambda t: (ad.layer_norm(x, t, b) * w).tanh().sum(), g0)
    check_op(lambda t: (ad.layer_norm(x, g, t) * w).tanh().sum(), b0)


def test_backward_accumulates_through_shared_nodes():
    x0 = np.array([1.5])
    t = ad.Tensor(x0.copy(), requires_grad=True)
    y = t * t  # t used twice
    y.sum().backward()
    assert t.grad[0] == pytest.approx(3.0)


def test_adam_first_step_matches_hand_formula():
    # one Adam step from zero moments: delta = lr * g / (|g| + eps-ish)
    w = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = ad.Adam({"w": w}, lr=0.01)
    w.grad = np.array([0.3, -0.7])
    opt.step()
    m_hat = np.array([0.3, -0.7])  # bias-corrected first moment equals g
    v_hat = np.array([0.09, 0.49])
    want = np.array([1.0, -2.0]) - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(w.data, want, rtol=1e-12)


def test_adam_zero_grad_clears():
    w = ad.Tensor(np.ones(3), requires_grad=True)
    opt = ad.Adam({"w": w}, lr=0.1)
    w.grad = np.ones(3)
    opt.zero_grad()
    assert w.grad is None  # accumulation re-creates the buffer on demand


def test_adam_steps_in_place_match_the_formula_bit_for_bit():
    rng = np.random.default_rng(7)
    w = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    opt = ad.Adam({"w": w}, lr=0.01)
    m_buf, v_buf = opt.m["w"], opt.v["w"]
    want, m, v = w.data.copy(), np.zeros((4, 3)), np.zeros((4, 3))
    b1, b2, eps = ad.BETA1, ad.BETA2, ad.EPS
    for t in range(1, 6):
        g = rng.normal(size=(4, 3))
        w.grad = g
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g ** 2
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        want -= 0.01 * mhat / (np.sqrt(vhat) + eps)
        assert np.array_equal(w.data, want), t
        assert np.array_equal(opt.m["w"], m) and np.array_equal(opt.v["w"], v)
    assert opt.m["w"] is m_buf and opt.v["w"] is v_buf
