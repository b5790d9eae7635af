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
