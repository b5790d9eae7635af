"""Independent oracles the tests hold the package to: the finite-difference
derivatives of a scalar field, and the integrability form's cross-check
against the connection form."""

import numpy as np

from sdharm.errors import SingularEvaluationError


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


# -- structural cross-check of the fibration context ---------------------------

def integrability_consistency(setup, point):
    """|| I - lam * dtheta restricted to the lifts ||, a structural cross-check."""
    ctx = setup.ctx(point)
    lam = ctx.lam_inv_sq ** -0.5
    return float(np.max(np.abs(ctx.integrability[1:, 1:] - lam * ctx.lifted_dtheta)))
