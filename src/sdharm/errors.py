"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for all evaluation failures in this package.  The message
    names ``point``, the evaluation point that failed if known, so that batch
    drivers can report which sample broke, and then the subclass's ``note``."""

    def __init__(self, message="", point=None, note=""):
        self.point = None if point is None else tuple(point)
        super().__init__(message + ("" if point is None else f" at point {self.point}") + note)


class SingularEvaluationError(GeometryError):
    """A field produced a non-finite value or hit a function-domain violation."""


class DegenerateMetricError(GeometryError):
    """Metric is singular or not positive definite at an evaluated point."""

    def __init__(self, message, point=None, det=None):
        self.det = det
        super().__init__(message, point, "" if det is None else f" (det g = {det:.6g})")


class DimensionError(GeometryError):
    """Operation invoked on a chart of unsupported dimension."""


class DomainError(GeometryError):
    """Point or parameter outside the declared domain of a chart or family."""


class NotHorizontallyConformalError(GeometryError):
    """Horizontal conformality certificate failed: dphi . dphi* deviates from a multiple of h^-1."""

    def __init__(self, message, point=None, anisotropy=None):
        self.anisotropy = anisotropy
        super().__init__(message, point,
                         "" if anisotropy is None else f" (anisotropy {anisotropy:.3g})")


def isolate(items, evaluate):
    """(results, failures): ``evaluate(items)``, a list of one result per item
    of a non-empty list; if that raises a GeometryError, each half isolated the
    same way, down to one-item evaluations, so k failing items of N cost at most
    2k ceil(log2 N) + 1 evaluations (Dorfman, Ann. Math. Statist. 14 (1943) 436).
    An item that fails alone has the result None and its (index, error) in
    ``failures``, in index order; a half's error has its batch's as context."""
    try:
        return evaluate(items), []
    except GeometryError as exc:
        if len(items) == 1:
            return [None], [(0, exc)]
        mid = len(items) // 2
        left, right = isolate(items[:mid], evaluate), isolate(items[mid:], evaluate)
    return left[0] + right[0], left[1] + [(mid + i, e) for i, e in right[1]]
