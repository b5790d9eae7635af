import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdharm import jets
from sdharm.errors import SingularEvaluationError

from _fieldgen import random_field, random_point


def test_seed_coordinate():
    j = jets.seed((2.0, 3.0), 0)
    assert j.value == 2.0
    assert np.allclose(j.grad, [1.0, 0.0])
    assert np.allclose(j.hess, 0.0)


def test_seed_third_axis():
    j = jets.seed((0.0, 0.0, 0.0), 2)
    assert j.value == 0.0
    assert np.allclose(j.grad, [0.0, 0.0, 1.0])


def test_seed_axis_out_of_range():
    with pytest.raises(ValueError):
        jets.seed((1.0, 2.0), 2)


def test_square_of_seed():
    x = jets.seed((5.0,), 0)
    sq = x * x
    assert sq.value == 25.0
    assert np.allclose(sq.grad, [10.0])
    assert np.allclose(sq.hess, [[2.0]])


def test_mul_seeds_at_two():
    x = jets.seed((2.0,), 0)
    p = x * x
    assert (p.value, p.grad[0], p.hess[0, 0]) == (4.0, 4.0, 2.0)


def test_mul_by_an_array_of_one_number_per_point():
    """A batch jet times an array of one number per point scales each point's
    jet; an array of any other shape is not a number and raises."""
    pts = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    x = jets.seed(pts, 0)
    k = np.array([2.0, -1.0, 0.5])
    p = x * k
    for i in range(3):
        one = jets.seed(pts[i], 0) * float(k[i])
        assert p.value[i] == one.value
        assert np.array_equal(p.grad[:, i], one.grad)
    with pytest.raises(TypeError):
        jets.seed((1.0, 2.0, 3.0), 0) * k
    with pytest.raises(TypeError):
        x * np.array([1.0, 2.0])


def test_reciprocal_jet():
    x = jets.seed((2.0,), 0)
    r = 1.0 / x
    assert r.value == 0.5
    assert np.allclose(r.grad, [-0.25])
    assert np.allclose(r.hess, [[0.25]])


def test_div_by_zero_value_raises():
    x = jets.seed((0.0,), 0)
    with pytest.raises(SingularEvaluationError):
        1.0 / x


def test_additive_inverse_is_zero_jet():
    x = jets.seed((1.3, -0.4), 1)
    z = (x * x + 2.0) + (-(x * x + 2.0))
    assert z.value == 0.0
    assert np.allclose(z.grad, 0.0)
    assert np.allclose(z.hess, 0.0)


def test_exp_at_zero():
    j = jets.exp(jets.seed((0.0,), 0))
    assert np.allclose([j.value, j.grad[0], j.hess[0, 0]], [1.0, 1.0, 1.0])


def test_sqrt_at_four():
    j = jets.sqrt(jets.seed((4.0,), 0))
    assert np.allclose([j.value, j.grad[0], j.hess[0, 0]], [2.0, 0.25, -1.0 / 32.0])


def test_sin_at_zero():
    j = jets.sin(jets.seed((0.0,), 0))
    assert np.allclose([j.value, j.grad[0], j.hess[0, 0]], [0.0, 1.0, 0.0])


def test_log_domain_violation():
    with pytest.raises(SingularEvaluationError):
        jets.log(jets.seed((-1.0,), 0))


@pytest.mark.parametrize("point", [(1.0,), [(1.0,), (1e3,)]], ids=["point", "batch"])
@pytest.mark.parametrize("op, name", [(lambda x: jets.exp(800.0 * x), "exp"),
                                      (lambda x: jets.powc(1e200 * x, 2), "pow")])
def test_a_value_beyond_the_float_range_is_a_singular_evaluation(op, name, point):
    """Python's exp and ** raise OverflowError there, which no caller catches."""
    with pytest.raises(SingularEvaluationError, match=f"^{name} overflows"):
        op(jets.seed(point, 0))


def test_deriv_order_tracking():
    x = jets.seed((1.0, 2.0), 0)
    y = jets.seed((1.0, 2.0), 1)
    f = x * x * y
    d0 = f.deriv(0)
    assert d0.order == 1
    assert d0.value == pytest.approx(2.0 * 1.0 * 2.0)
    assert np.allclose(d0.grad, [4.0, 2.0])
    d00 = d0.deriv(0)
    assert d00.order == 0
    with pytest.raises(SingularEvaluationError):
        d00.grad
    with pytest.raises(SingularEvaluationError):
        d0.hess


def test_fd_oracle_quadratic():
    g, H = jets.fd_oracle(lambda p: p[0] ** 2, (2.0,))
    assert abs(g[0] - 4.0) < 1e-7
    assert abs(H[0, 0] - 2.0) < 1e-4


def test_fd_oracle_sincos():
    g, _ = jets.fd_oracle(lambda p: math.sin(p[0]) * math.cos(p[1]), (0.0, 0.0))
    assert np.allclose(g, [1.0, 0.0], atol=1e-9)


def _rel(a, b):
    return np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(a)))


@pytest.mark.parametrize("dim", [3, 4])
def test_jets_match_fd_on_random_compositions(dim):
    rng = np.random.default_rng(20240 + dim)
    checked = 0
    while checked < 60:
        f = random_field(rng, dim)
        pt = random_point(rng, dim)
        j = f(jets.seed_all(pt))
        if not j.is_finite() or abs(j.value) > 1e3:
            continue
        fg, fH = jets.fd_oracle(lambda p: float(f(list(p))), pt)
        assert _rel(j.grad, fg) < 1e-6
        assert _rel(j.hess, fH) < 1e-6
        checked += 1


@settings(max_examples=60, deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_mul_commutes_and_associates(a, b, c):
    pt = (0.3, -0.7)
    x, y = jets.seed_all(pt)
    ja = jets.sin(x) + a
    jb = jets.cos(y) + b
    jc = x * y + c
    ab = ja * jb
    ba = jb * ja
    assert abs(ab.value - ba.value) < 1e-12
    assert np.max(np.abs(ab.grad - ba.grad)) < 1e-12
    assert np.max(np.abs(ab.hess - ba.hess)) < 1e-12
    lhs = (ja * jb) * jc
    rhs = ja * (jb * jc)
    assert abs(lhs.value - rhs.value) < 1e-12
    assert np.max(np.abs(lhs.grad - rhs.grad)) < 1e-12
    assert np.max(np.abs(lhs.hess - rhs.hess)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(0.2, 2.0), st.floats(-1.2, 1.2))
def test_hessian_always_symmetric(scale, shift):
    pt = (shift, 0.5, -0.25)
    c = jets.seed_all(pt)
    j = jets.exp(jets.sin(scale * c[0] * c[1])) / (1.5 + jets.cos(c[2]))
    assert np.max(np.abs(j.hess - j.hess.T)) == 0.0


def test_thousand_field_battery_is_fast():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    n = 0
    while n < 1000:
        dim = 3 if n % 2 else 4
        f = random_field(rng, dim)
        pt = random_point(rng, dim)
        j = f(jets.seed_all(pt))
        if not j.is_finite():
            continue
        n += 1
    assert time.perf_counter() - t0 < 5.0


def test_singular_error_carries_point_through_fields():
    from sdharm import geometry as geo
    ch = geo.Chart(("x", "y"), (-2, -2), (2, 2))
    f = geo.ScalarField(ch, lambda c: 1.0 / c[0], "inv_x")
    with pytest.raises(SingularEvaluationError) as err:
        f.jet((0.0, 1.0))
    assert err.value.point == (0.0, 1.0)
