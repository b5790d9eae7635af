"""Exact forward-mode differentiation to second order.

A :class:`Jet` carries a scalar value together with its gradient and Hessian
with respect to the chart coordinates, propagated through arithmetic by
truncated Taylor composition.  Every elementary operation is exact to order
two, so a closed-form field evaluated on seeded coordinates yields machine-
precision first and second derivatives in one pass.

Jets track how many derivative orders are still trustworthy: differentiating
a jet (``deriv``) shifts grad->value and hess->grad and drops the order by
one.  Consuming more orders than a jet carries raises immediately instead of
silently propagating garbage.

A jet packs its derivatives into one array of ``d + d*d`` rows, the gradient
and then the row-major Hessian; ``grad`` and ``hess`` are views of it.  Each
rule below is one or two numpy calls over the whole array, doing the separate
gradient and Hessian formulas' operations in their order (vector forward
mode, Griewank & Walther, *Evaluating Derivatives*, ch. 3 and 13).

A jet may carry N points at once.  The batch axis comes last: value ``(N,)``,
grad ``(d, N)``, hess ``(d, d, N)``, so every product and chain rule
broadcasts unchanged.  Seeding an ``(N, d)`` array of points gives batch
jets; a single point gives the scalar jets, with a float value.  Each entry
of a batch jet equals, bit for bit, the jet of its point alone.  A domain
test fails the whole batch if it fails at any point.  ``stack`` puts jets on
component axes before the batch axis, where the rules act entry by entry, and
``arrays`` reads jets out as plain arrays: no other module reads the packing.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularEvaluationError

__all__ = [
    "Jet",
    "seed",
    "seed_all",
    "constant",
    "stack",
    "arrays",
    "exp",
    "log",
    "sin",
    "cos",
    "sqrt",
    "powc",
    "everywhere",
    "anywhere",
    "fd_gradient",
    "fd_hessian",
    "fd_oracle",
]


class Jet:
    """Truncated order-2 Taylor data of a scalar at a point, or at each point
    of a batch (the module docstring gives the layout).

    ``order`` is the number of derivative levels that are valid: 2 for a
    freshly seeded coordinate, 1 after one ``deriv``, 0 after two.  The hess
    rows of an order-1 jet are allocated but meaningless; reading them raises.
    """

    __slots__ = ("value", "_d", "order")

    def __init__(self, value, d, order=2):
        # a float, or a batch's array; the exact type test is the cheap one
        if type(value) is not float and not isinstance(value, np.ndarray):
            value = float(value)
        self.value = value
        self._d = d
        self.order = order

    @property
    def dim(self):
        return math.isqrt(len(self._d))          # d*d <= d + d*d < (d+1)**2

    @property
    def grad(self):
        if self.order < 1:
            raise SingularEvaluationError("jet gradient consumed beyond carried order")
        return self._d[:self.dim]

    @property
    def hess(self):
        if self.order < 2:
            raise SingularEvaluationError("jet Hessian consumed beyond carried order")
        return _hess_rows(self._d, self.dim)

    # -- composition helpers -------------------------------------------------

    def coerce(self, other):
        """``other`` as a jet: itself, or the constant shaped like this jet."""
        if isinstance(other, Jet):
            return other
        value = float(other)
        if type(self.value) is not float:       # one value per point of the batch
            value = np.full(self.value.shape, value)
        return Jet(value, np.zeros(self._d.shape), self.order)

    def deriv(self, axis):
        """Partial derivative along ``axis`` as a jet one order lower."""
        if self.order < 1:
            raise SingularEvaluationError("cannot differentiate an order-0 jet")
        d = self.dim
        out = np.zeros(self._d.shape)
        out[:d] = self._d[d + axis * d:2 * d + axis * d]     # row ``axis`` of the Hessian
        return Jet(self._d[axis], out, self.order - 1)

    def is_finite(self):
        v, rows = self.value, len(self._d) if self.order >= 2 else self.dim * self.order
        return bool((math.isfinite(v) if type(v) is float else np.isfinite(v).all())
                    and np.isfinite(self._d[:rows]).all())

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.value + other.value, self._d + other._d, min(self.order, other.order))
        return Jet(self.value + float(other), self._d + 0.0, self.order)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.value, -self._d, self.order)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.value - other.value, self._d - other._d, min(self.order, other.order))
        return Jet(self.value - float(other), self._d - 0.0, self.order)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product with a jet, a number, or (for a batch) an array of one
        number per point, of the shape of ``value``."""
        if not isinstance(other, Jet):
            per_point = isinstance(other, np.ndarray) and other.shape == np.shape(self.value)
            c = other if per_point else float(other)
            return Jet(self.value * c, self._d * c, self.order)
        v, w, D, E = self.value, other.value, self._d, other._d
        d = math.isqrt(len(D))
        out = v * E + w * D
        cross = D[:d, None] * E[:d]
        hess = out[d:].reshape(cross.shape)         # a view, as in _hess_rows
        hess += cross
        hess += cross.swapaxes(0, 1)
        return Jet(v * w, out, min(self.order, other.order))

    __rmul__ = __mul__

    def reciprocal(self):
        if not everywhere(self.value != 0.0):
            raise SingularEvaluationError("division by jet with zero value")
        v = 1.0 / self.value
        return _chain(self, v, -v * v, 2.0 * v * v * v)

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / float(other))
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, p):
        return powc(self, p)

    def __repr__(self):
        return f"Jet({self.value!r}, grad={self._d[:self.dim]!r}, order={self.order})"


def _hess_rows(D, d):
    """The Hessian rows of packed derivatives ``D`` as a ``(d, d, ...)`` view:
    every jet's ``D`` is C-contiguous, so an in-place update writes through."""
    return D[d:].reshape((d, d) + D.shape[1:])


def constant(value, dim, order=2):
    """Jet of a constant scalar on a ``dim``-dimensional chart."""
    return Jet(value, np.zeros(dim + dim * dim), order)


def seed(point, axis):
    """Jet of the coordinate function ``x^axis`` at ``point``, or a batch jet
    at the rows of an ``(N, d)`` array of points."""
    coords = seed_all(point)
    if not 0 <= axis < len(coords):
        raise ValueError(f"axis {axis} out of range for a {len(coords)}-dimensional point")
    return coords[axis]


def seed_all(point):
    """All coordinate jets at ``point`` (or an ``(N, d)`` batch of points),
    ready to feed into a field closure; their derivatives are the rows of one
    zero block."""
    point = np.asarray(point, dtype=float)
    d, batch = point.shape[-1], point.shape[:-1]
    n = d + d * d
    block = np.zeros((d, n) + batch)
    block.reshape((d * n,) + batch)[::n + 1] = 1.0          # block[a, a] = 1
    values = [point[..., a] for a in range(d)] if batch else point.tolist()
    return [Jet(v, D) for v, D in zip(values, block)]


def stack(js, shape, dim=None):
    """One jet of the jets ``js`` (of one chart and batch) on the component
    axes ``shape``, which jets of equal component rank broadcast; grad is
    ``(d,) + shape + batch``.  With ``dim``, the jets are lifted to the last
    coordinates of a ``dim``-chart, with zero derivatives along the others."""
    D = np.stack([j._d for j in js], 1)
    d, batch = math.isqrt(len(D)), D.shape[2:]
    value = np.array([j.value for j in js]).reshape(shape + batch)
    if dim is not None:
        lead, lifted = dim - d, np.zeros((dim + dim * dim,) + D.shape[1:])
        lifted[lead:dim] = D[:d]
        _hess_rows(lifted, dim)[lead:, lead:] = _hess_rows(D, d)
        D = lifted
    return Jet(value, D.reshape((len(D),) + shape + batch), min(j.order for j in js))


def arrays(js, shape=None, order=2):
    """(value, grad, hess) of the jets ``js`` (of one chart and one batch) as
    C-contiguous arrays: the component axes ``shape`` (default
    ``(len(js),)``) first, then the derivative axes, then a batch's point
    axis.  ``order=1`` leaves out hess."""
    low = min([j.order for j in js])
    if low < order:
        raise SingularEvaluationError(
            f"jet {'gradient' if low < 1 else 'Hessian'} consumed beyond carried order")
    d, batch = math.isqrt(len(js[0]._d)), js[0]._d.shape[1:]
    shape = (len(js),) if shape is None else shape
    out = (np.array([j.value for j in js]).reshape(shape + batch),
           np.array([j._d[:d] for j in js]).reshape(shape + (d,) + batch))
    if order == 2:
        out += (np.array([j._d[d:] for j in js]).reshape(shape + (d, d) + batch),)
    return out


def _map(f, x):
    """f at a float, or at each point of a batch.  A batch calls the same
    scalar function point by point, as numpy's own exp, log and power round
    differently in the last bit: so a batch jet carries exactly the values,
    gradients and Hessians of its points evaluated one at a time.  A value
    beyond the float range is a singular evaluation."""
    try:
        if type(x) is float:
            return f(x)
        return np.fromiter(map(f, x.tolist()), float, x.size)
    except OverflowError:
        raise SingularEvaluationError(f"{f.__name__} overflows (arg {x!r})") from None


def _pow(x, e):
    """x ** e at a float, or at each point of a batch (as ``_map``)."""
    def pow(t):
        return t ** e
    return _map(pow, x)


def everywhere(cond):
    """Whether a test on a jet value holds: at the point, or at every point
    of a batch (a bool array)."""
    return cond if type(cond) is bool else cond.all()


def anywhere(cond):
    """Whether a test on a jet value holds at the point, or at some point of a
    batch."""
    return cond if type(cond) is bool else cond.any()


def _chain(a, f, fp, fpp):
    """Order-2 chain rule f(a) given f, f', f'' at a.value."""
    D = a._d
    d = math.isqrt(len(D))
    g = D[:d]
    out = fp * D
    hess = _hess_rows(out, d)
    hess += fpp * (g[:, None] * g)
    return Jet(f, out, a.order)


def _domain(cond, name, a):
    if not everywhere(cond):
        raise SingularEvaluationError(f"{name} evaluated outside its domain (arg {a.value!r})"
                                      if isinstance(a, Jet) else f"{name} domain violation")


def exp(a):
    if not isinstance(a, Jet):
        return math.exp(a)
    v = _map(math.exp, a.value)
    return _chain(a, v, v, v)


def log(a):
    if not isinstance(a, Jet):
        return math.log(a)
    _domain(a.value > 0.0, "log", a)
    v = a.value
    return _chain(a, _map(math.log, v), 1.0 / v, -1.0 / (v * v))


def sin(a):
    if not isinstance(a, Jet):
        return math.sin(a)
    s, c = _map(math.sin, a.value), _map(math.cos, a.value)
    return _chain(a, s, c, -s)


def cos(a):
    if not isinstance(a, Jet):
        return math.cos(a)
    s, c = _map(math.sin, a.value), _map(math.cos, a.value)
    return _chain(a, c, -s, -c)


def sqrt(a):
    if not isinstance(a, Jet):
        return math.sqrt(a)
    _domain(a.value > 0.0, "sqrt", a)
    r = _map(math.sqrt, a.value)
    return _chain(a, r, 0.5 / r, -0.25 / (r * a.value))


def powc(a, p):
    """a**p for a constant real exponent p."""
    if not isinstance(a, Jet):
        return float(a) ** p
    p = float(p)
    v = a.value
    if p == int(p) and (everywhere(v != 0.0) or p >= 2):
        pi = int(p)
        f = _pow(v, pi)
        fp = pi * _pow(v, pi - 1) if pi != 0 else 0.0
        fpp = pi * (pi - 1) * _pow(v, pi - 2) if pi not in (0, 1) else 0.0
        return _chain(a, f, fp, fpp)
    _domain(v > 0.0, "pow", a)
    f = _pow(v, p)
    return _chain(a, f, p * f / v, p * (p - 1.0) * f / (v * v))


# -- independent finite-difference oracle ------------------------------------

def fd_gradient(f, point, step=1e-4, richardson=False):
    """Central-difference gradient of a float-valued field.

    ``richardson=True`` adds one level of Richardson extrapolation
    (default off).
    """
    point = np.asarray(point, dtype=float)
    d = point.shape[0]

    def grad_at(h):
        g = np.zeros(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            g[i] = (f(point + e) - f(point - e)) / (2.0 * h)
        return g

    g = grad_at(step)
    if richardson:
        g = (4.0 * grad_at(step / 2.0) - g) / 3.0
    if not np.all(np.isfinite(g)):
        raise SingularEvaluationError("finite-difference stencil hit a non-finite value",
                                      point=point)
    return g


def fd_hessian(f, point, step=1e-4, richardson=False):
    """Central-difference Hessian (symmetric by construction)."""
    point = np.asarray(point, dtype=float)
    d = point.shape[0]

    def hess_at(h):
        H = np.zeros((d, d))
        f0 = f(point)
        for i in range(d):
            ei = np.zeros(d)
            ei[i] = h
            H[i, i] = (f(point + ei) - 2.0 * f0 + f(point - ei)) / (h * h)
            for j in range(i + 1, d):
                ej = np.zeros(d)
                ej[j] = h
                val = (f(point + ei + ej) - f(point + ei - ej)
                       - f(point - ei + ej) + f(point - ei - ej)) / (4.0 * h * h)
                H[i, j] = H[j, i] = val
        return H

    H = hess_at(step)
    if richardson:
        H = (4.0 * hess_at(step / 2.0) - H) / 3.0
    if not np.all(np.isfinite(H)):
        raise SingularEvaluationError("finite-difference stencil hit a non-finite value",
                                      point=point)
    return H


def fd_oracle(f, point, step=1e-4, richardson=False):
    """(gradient, Hessian) of a scalar field by central differences only.

    Independent of the jet engine: ``f`` is called on plain float tuples.
    """
    return (fd_gradient(f, point, step, richardson),
            fd_hessian(f, point, step, richardson))
