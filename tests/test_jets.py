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


# -- the separate value/gradient/Hessian formulas that the packed jet replaced,
# as an oracle: each operation must give their results bit for bit ----------

def _jet(value, grad, hess):
    """A jet of the given value, gradient and Hessian (of any symmetry)."""
    d = len(grad)
    return jets.Jet(value, np.concatenate([grad, hess.reshape((d * d,) + grad.shape[1:])]))


def _each(f, v):
    """f at a float, or at each point of a batch."""
    return f(v) if type(v) is float else np.array([f(t) for t in v.tolist()])


def _o_chain(x, f, fp, fpp):
    v, g, H = x
    outer = g[:, None] * g
    return f, fp * g, fp * H + fpp * outer


def _o_mul(x, y):
    (v, g, H), (w, e, E) = x, y
    cross = g[:, None] * e
    return v * w, v * e + w * g, v * E + w * H + cross + cross.swapaxes(0, 1)


def _o_const(x, c):
    """The constant c shaped like x, as ``Jet.coerce`` built it."""
    v, g, H = x
    return (c if type(v) is float else np.full(v.shape, c)), np.zeros(g.shape), np.zeros(H.shape)


def _o_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _o_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def _o_neg(x):
    return tuple(-a for a in x)


def _o_scale(x, c):
    return tuple(a * c for a in x)


def _o_recip(x):
    r = 1.0 / x[0]
    return _o_chain(x, r, -r * r, 2.0 * r * r * r)


def _o_powc(x, p):
    v = x[0]
    if p == int(p):
        n = int(p)
        return _o_chain(x, _each(lambda t: t ** n, v),
                        n * _each(lambda t: t ** (n - 1), v) if n != 0 else 0.0,
                        n * (n - 1) * _each(lambda t: t ** (n - 2), v) if n not in (0, 1) else 0.0)
    f = _each(lambda t: t ** p, v)
    return _o_chain(x, f, p * f / v, p * (p - 1.0) * f / (v * v))


def _o_exp(x):
    f = _each(math.exp, x[0])
    return _o_chain(x, f, f, f)


def _o_sin(x):
    s, c = _each(math.sin, x[0]), _each(math.cos, x[0])
    return _o_chain(x, s, c, -s)


def _o_cos(x):
    s, c = _each(math.sin, x[0]), _each(math.cos, x[0])
    return _o_chain(x, c, -s, -c)


def _o_sqrt(x):
    r = _each(math.sqrt, x[0])
    return _o_chain(x, r, 0.5 / r, -0.25 / (r * x[0]))


_C = 1.7
# (new operation on jets, the old formulas on (value, grad, hess) triples)
_OPS = {
    "add": (lambda a, b: a + b, _o_add),
    "sub": (lambda a, b: a - b, _o_sub),
    "mul": (lambda a, b: a * b, _o_mul),
    "div": (lambda a, b: a / b, lambda x, y: _o_mul(x, _o_recip(y))),
    "add_number": (lambda a, b: a + _C, lambda x, y: _o_add(x, _o_const(x, _C))),
    "radd_number": (lambda a, b: _C + a, lambda x, y: _o_add(x, _o_const(x, _C))),
    "sub_number": (lambda a, b: a - _C, lambda x, y: _o_sub(x, _o_const(x, _C))),
    "rsub_number": (lambda a, b: _C - a, lambda x, y: _o_add(_o_neg(x), _o_const(x, _C))),
    "mul_number": (lambda a, b: a * _C, lambda x, y: _o_scale(x, _C)),
    "rmul_number": (lambda a, b: _C * a, lambda x, y: _o_scale(x, _C)),
    "div_number": (lambda a, b: a / _C, lambda x, y: _o_scale(x, 1.0 / _C)),
    "rdiv_number": (lambda a, b: _C / a, lambda x, y: _o_scale(_o_recip(x), _C)),
    "neg": (lambda a, b: -a, lambda x, y: _o_neg(x)),
    "reciprocal": (lambda a, b: a.reciprocal(), lambda x, y: _o_recip(x)),
    "exp": (lambda a, b: jets.exp(a), lambda x, y: _o_exp(x)),
    "log": (lambda a, b: jets.log(a),
            lambda x, y: _o_chain(x, _each(math.log, x[0]), 1.0 / x[0], -1.0 / (x[0] * x[0]))),
    "sin": (lambda a, b: jets.sin(a), lambda x, y: _o_sin(x)),
    "cos": (lambda a, b: jets.cos(a), lambda x, y: _o_cos(x)),
    "sqrt": (lambda a, b: jets.sqrt(a), lambda x, y: _o_sqrt(x)),
    **{f"powc({p})": (lambda a, b, p=p: jets.powc(a, p), lambda x, y, p=p: _o_powc(x, p))
       for p in (3, 2, 1, 0, -2, 0.5, 2.5)},
}


def _triple(rng, batch, d=3):
    """(value, grad, hess) of a generic jet: a value in [0.5, 2], an
    asymmetric Hessian, and a negative zero in each, whose sign the rules keep
    as the old formulas did."""
    grad, hess = rng.normal(size=(d,) + batch), rng.normal(size=(d, d) + batch)
    grad[1], hess[2, 0] = -0.0, -0.0
    return (float(rng.uniform(0.5, 2.0)) if not batch else rng.uniform(0.5, 2.0, batch),
            grad, hess)


def _bits(x):
    x = np.asarray(x, dtype=float)
    return x.shape, x.tobytes()


@pytest.mark.parametrize("batch", [(), (4,)], ids=["point", "batch"])
@pytest.mark.parametrize("op", sorted(_OPS))
def test_every_op_equals_the_separate_array_formulas_bit_for_bit(op, batch):
    """The packed rules do the old gradient and Hessian formulas' IEEE
    operations in their order, and leave their operands as they were."""
    new, old = _OPS[op]
    rng = np.random.default_rng(sorted(_OPS).index(op))
    x, y = _triple(rng, batch), _triple(rng, batch)
    a, b = _jet(*x), _jet(*y)
    out = new(a, b)
    assert (out.order, type(out.value)) == (2, type(x[0]))
    for got, want in zip((out.value, out.grad, out.hess), old(x, y)):
        assert _bits(got) == _bits(want), op
    for j, t in ((a, x), (b, y)):
        assert [_bits(u) for u in (j.value, j.grad, j.hess)] == [_bits(u) for u in t]


@pytest.mark.parametrize("batch", [(), (4,)], ids=["point", "batch"])
def test_deriv_equals_the_separate_array_formulas_bit_for_bit(batch):
    """deriv(axis) is (grad[axis], hess[axis]) one order lower: the Hessian's
    row, not its column (the test Hessian is asymmetric)."""
    x = _triple(np.random.default_rng(5), batch)
    j = _jet(*x)
    for axis in range(3):
        out = j.deriv(axis)
        assert out.order == 1
        assert _bits(out.value) == _bits(x[1][axis])
        assert _bits(out.grad) == _bits(x[2][axis])


def test_stack_and_arrays_lay_the_jets_out_by_component():
    """``stack`` puts jets on component axes, where products act entry by
    entry; ``dim`` adds leading coordinates with zero derivatives.
    ``arrays`` reads the component axes first, the derivatives after."""
    pts = np.array([[0.3, 0.5, 0.7], [0.2, -0.4, 1.1]])
    for at in (tuple(pts[0]), pts):
        c = jets.seed_all(at)
        js = [jets.sin(c[0] * c[1]), c[2] * c[2], jets.exp(c[1]), 1.0 + 0.0 * c[0]]
        v, g, h = jets.arrays(js, (2, 2))
        for k, j in enumerate(js):
            a, b = divmod(k, 2)
            assert [_bits(x) for x in (v[a, b], g[a, b], h[a, b])] == \
                [_bits(x) for x in (j.value, j.grad, j.hess)]
        assert all(x.flags.c_contiguous for x in (v, g, h))
        sq = jets.stack(js, (2, 2)) * jets.stack(js[::-1], (2, 2))
        for k, j in enumerate(js):
            want = j * js[::-1][k]
            a, b = divmod(k, 2)
            assert _bits(sq.value[a, b]) == _bits(want.value)
            assert _bits(sq.hess[:, :, a, b]) == _bits(want.hess)
        lifted = jets.stack(js, (4,), dim=5)
        assert lifted.dim == 5
        assert not lifted.grad[:2].any() and not lifted.hess[:2].any() \
            and not lifted.hess[:, :2].any()
        assert _bits(lifted.hess[2:, 2:, 0]) == _bits(js[0].hess)


def test_arrays_checks_the_carried_order():
    j = jets.seed((1.0, 2.0), 0) * jets.seed((1.0, 2.0), 1)
    assert len(jets.arrays([j.deriv(0)], order=1)) == 2
    with pytest.raises(SingularEvaluationError, match="Hessian"):
        jets.arrays([j, j.deriv(0)])
    with pytest.raises(SingularEvaluationError, match="gradient"):
        jets.arrays([j.deriv(0).deriv(1)], order=1)


def _catalog_closures():
    """The closure of every catalog field, and the metric of every fibration
    family, with its chart."""
    from sdharm import cli, constructions as con
    out = {}
    for name in con.catalog_names():
        obj = con.catalog(name)
        for i, field in enumerate(obj if isinstance(obj, tuple) else (obj,)):
            out[f"{name}.{i}"] = field
    for family, spec in {
            "type1": {"base": {"name": "flat3_spherical"}, "construction": {
                "family": "type1", "params": {"u": {"name": "gh_potential"},
                                              "A": {"name": "dirac_A"}}}},
            "type2": {"base": {"name": "flat3"}, "construction": {
                "family": "type2", "params": {"f": {"name": "fibre_exp",
                                                    "params": {"rate": 3.0}}}}},
            "type3": {"base": {"name": "flat3"}, "construction": {
                "family": "type3", "params": {"A": {"name": "trkalian"}}}},
            "type4": {"base": {"name": "berger_s3"}, "construction": {
                "family": "type4", "params": {"alpha": {"name": "berger_lee"}, "c": 1.2}}},
            "bryant": {"base": {"name": "flat3"}, "construction": {
                "family": "bryant", "params": {"A": {"name": "trkalian"}}}}}.items():
        scene = dict(schema=1, samples={"random": {"count": 1, "seed": 0}}, **spec)
        out[f"{family}.g"] = cli.ResolvedScene(cli.validate_scene(scene)).fm.g
    return out


@pytest.mark.parametrize("batch", [False, True], ids=["point", "batch"])
def test_no_op_writes_into_a_jet_it_did_not_create(monkeypatch, batch):
    """Every jet made while evaluating each catalog field and fibration metric
    keeps, to the end of the evaluation, the arrays it was built with (the
    seeds among them), and its packed derivatives are C-contiguous, so the
    rules' in-place Hessian updates write through their reshaped views."""
    made = []
    init = jets.Jet.__init__

    def recording_init(self, value, d, order=2):
        init(self, value, d, order)
        made.append((self, np.copy(self.value), d.copy()))

    monkeypatch.setattr(jets.Jet, "__init__", recording_init)
    for name, field in _catalog_closures().items():
        lo, hi = np.asarray(field.chart.lo), np.asarray(field.chart.hi)
        pts = lo + (hi - lo) * np.array([[0.31, 0.42, 0.53, 0.64], [0.6, 0.3, 0.7, 0.45]])[
            :, :len(lo)]
        made.clear()
        field.fn(jets.seed_all(pts if batch else tuple(pts[0])))
        assert len(made) > len(lo), name
        for j, value, d in made:
            assert j._d.flags.c_contiguous, name
            assert _bits(j.value) == _bits(value) and _bits(j._d) == _bits(d), name
