import os

import numpy as np
import pytest
from hypothesis import settings

# CI runs every hypothesis test on its fixed examples, without time limits,
# so a run's outcome does not depend on the runner's speed or luck
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


def finite_difference_grads(fn, tensors, step=1e-4):
    """Central finite differences of a scalar-Tensor-producing fn w.r.t. the
    data of each tensor in `tensors`. Independent of the autodiff tape."""
    out = []
    for t in tensors:
        g = np.zeros_like(t.data)
        it = np.nditer(t.data, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = t.data[i]
            t.data[i] = orig + step
            lp = float(fn().data)
            t.data[i] = orig - step
            lm = float(fn().data)
            t.data[i] = orig
            g[i] = (lp - lm) / (2 * step)
        out.append(g)
    return out


def assert_grads_match(fn, tensors, rel_tol=1e-4, step=1e-4):
    loss = fn()
    for t in tensors:
        t.zero_grad()
    loss = fn()
    loss.backward()
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
        for t in tensors
    ]
    for t in tensors:
        t.zero_grad()
    numeric = finite_difference_grads(fn, tensors, step)
    for a, n in zip(analytic, numeric):
        denom = np.maximum(1.0, np.abs(n))
        np.testing.assert_array_less(np.abs(a - n) / denom, rel_tol)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
