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

A jet may carry N points at once (vector forward mode, Griewank & Walther,
*Evaluating Derivatives*, ch. 3).  The batch axis comes last: value ``(N,)``,
grad ``(d, N)``, hess ``(d, d, N)``, so every product and chain rule below
broadcasts unchanged.  Seeding an ``(N, d)`` array of points gives batch
jets; a single point gives the scalar jets, with a float value.  Each entry
of a batch jet equals, bit for bit, the jet of its point alone.  A domain
test fails the whole batch if it fails at any point.
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
    array of an order-1 jet is allocated but meaningless; reading it raises.
    """

    __slots__ = ("value", "_grad", "_hess", "order")

    def __init__(self, value, grad, hess, order=2):
        # a float, or a batch's array; the exact type test is the cheap one
        if type(value) is not float and not isinstance(value, np.ndarray):
            value = float(value)
        self.value = value
        self._grad = np.asarray(grad, dtype=float)
        self._hess = np.asarray(hess, dtype=float)
        self.order = order

    @property
    def dim(self):
        return self._grad.shape[0]

    @property
    def grad(self):
        if self.order < 1:
            raise SingularEvaluationError("jet gradient consumed beyond carried order")
        return self._grad

    @property
    def hess(self):
        if self.order < 2:
            raise SingularEvaluationError("jet Hessian consumed beyond carried order")
        return self._hess

    # -- composition helpers -------------------------------------------------

    def coerce(self, other):
        """``other`` as a jet: itself, or the constant shaped like this jet."""
        if isinstance(other, Jet):
            return other
        value = float(other)
        if type(self.value) is not float:       # one value per point of the batch
            value = np.full(self.value.shape, value)
        return Jet(value, np.zeros(self._grad.shape), np.zeros(self._hess.shape), self.order)

    def deriv(self, axis):
        """Partial derivative along ``axis`` as a jet one order lower."""
        if self.order < 1:
            raise SingularEvaluationError("cannot differentiate an order-0 jet")
        return Jet(self._grad[axis], self._hess[axis], np.zeros(self._hess.shape),
                   self.order - 1)

    def is_finite(self):
        v = self.value
        if not (math.isfinite(v) if type(v) is float else np.isfinite(v).all()):
            return False
        if self.order >= 1 and not np.all(np.isfinite(self._grad)):
            return False
        if self.order >= 2 and not np.all(np.isfinite(self._hess)):
            return False
        return True

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        o = self.coerce(other)
        return Jet(self.value + o.value, self._grad + o._grad, self._hess + o._hess,
                   min(self.order, o.order))

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.value, -self._grad, -self._hess, self.order)

    def __sub__(self, other):
        o = self.coerce(other)
        return Jet(self.value - o.value, self._grad - o._grad, self._hess - o._hess,
                   min(self.order, o.order))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product with a jet, a number, or (for a batch) an array of one
        number per point, of the shape of ``value``."""
        if not isinstance(other, Jet):
            per_point = isinstance(other, np.ndarray) and other.shape == np.shape(self.value)
            c = other if per_point else float(other)
            return Jet(self.value * c, self._grad * c, self._hess * c, self.order)
        cross = self._grad[:, None] * other._grad
        return Jet(
            self.value * other.value,
            self.value * other._grad + other.value * self._grad,
            self.value * other._hess + other.value * self._hess + cross + cross.swapaxes(0, 1),
            min(self.order, other.order),
        )

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
        return f"Jet({self.value!r}, grad={self._grad!r}, order={self.order})"


def constant(value, dim, order=2):
    """Jet of a constant scalar on a ``dim``-dimensional chart."""
    return Jet(value, np.zeros(dim), np.zeros((dim, dim)), order)


def seed(point, axis):
    """Jet of the coordinate function ``x^axis`` at ``point``, or a batch jet
    at the rows of an ``(N, d)`` array of points."""
    point = np.asarray(point, dtype=float)
    d = point.shape[-1]
    if not 0 <= axis < d:
        raise ValueError(f"axis {axis} out of range for a {d}-dimensional point")
    batch = point.shape[:-1]
    g = np.zeros((d,) + batch)
    g[axis] = 1.0
    value = point[..., axis] if batch else float(point[axis])
    return Jet(value, g, np.zeros((d, d) + batch))


def seed_all(point):
    """All coordinate jets at ``point`` (or an ``(N, d)`` batch of points),
    ready to feed into a field closure."""
    point = np.asarray(point, dtype=float)
    return [seed(point, a) for a in range(point.shape[-1])]


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
    g = a._grad
    outer = g[:, None] * g
    return Jet(f, fp * g, fp * a._hess + fpp * outer, a.order)


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
