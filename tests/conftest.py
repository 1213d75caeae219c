import numpy as np
import pytest


def rel_err(a, b):
    """Max elementwise relative error with a unit floor on the denominator."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def numerical_grads(loss_fn, blocks, h=1e-5):
    """Central finite differences of a scalar loss over a list of arrays."""
    grads = []
    for block in blocks:
        g = np.zeros_like(block)
        flat = block.ravel()
        gflat = g.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_fn()
            flat[idx] = orig - h
            down = loss_fn()
            flat[idx] = orig
            gflat[idx] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, tol=1e-4):
    assert len(analytic) == len(numeric)
    worst = max(rel_err(a, n) for a, n in zip(analytic, numeric))
    assert worst < tol, f"max relative gradient error {worst:.3e} >= {tol}"


def embed_rows(model, key, x):
    """Rows ``x`` through one reconciler head (a view index or a view-index
    pair) and then the trunk: the embeddings and (head cache, trunk cache)."""
    head = model.pair_heads[key] if isinstance(key, tuple) else model.view_heads[key]
    h, c_head = head.forward(np.atleast_2d(x))
    e, c_trunk = model.trunk.forward(h)
    return e, (c_head, c_trunk)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
