"""Gradient-accumulation ownership contract.

:meth:`Tensor._accumulate`'s ``owned`` fast path adopts a freshly computed
gradient without a defensive copy.  That is only sound if it never adopts
an array someone else still references; these are its aliasing
regressions.
"""

import numpy as np

from repro.autograd.tensor import Tensor


class TestAccumulateOwnership:
    def test_shared_upstream_grad_is_not_adopted(self):
        # c = a + b passes the SAME incoming gradient array through to
        # both parents.  If either adopted it as owned, the other's
        # accumulation (or a later in-place add) would corrupt it.
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        (a + b).backward(np.full((3, 2), 5.0))
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, np.full((3, 2), 5.0))

    def test_seed_gradient_is_copied(self):
        x = Tensor(np.zeros(4), requires_grad=True)
        seed = np.ones(4)
        (x * 1.0 + x).backward(seed)
        seed[:] = -7.0  # caller mutates their seed afterwards
        np.testing.assert_array_equal(x.grad, np.full(4, 2.0))

    def test_diamond_accumulation(self):
        # d = a*a + a exercises both accumulate branches (first-touch
        # adoption, then +=): d' = 2a + 1.
        data = np.linspace(-1.0, 2.0, 6).reshape(2, 3)
        a = Tensor(data, requires_grad=True)
        ((a * a + a).sum()).backward()
        np.testing.assert_allclose(a.grad, 2.0 * data + 1.0, rtol=0, atol=1e-12)
        assert not np.shares_memory(a.grad, a.data)
