"""Construction and pointwise numerical verification of self-dual metric
fibrations on coordinate charts, built on exact second-order jets."""

__version__ = "0.1.0"

from .jets import Jet, seed, seed_all, constant                             # noqa: F401
from .geometry import (                                                     # noqa: F401
    Chart,
    ScalarField,
    OneFormField,
    TwoFormField,
    MetricField,
    CurvatureReport,
    curvature_report,
    riemann,
    weyl,
    hodge_star,
    sd_asd_split,
    exterior_derivative,
    sectional_curvature,
)
from .weyl3 import (                                                         # noqa: F401
    HeldBase,
    einstein_weyl_residual,
    beltrami_residual,
    generalized_beltrami_residual,
    monopole_residual,
    closure_residual,
)
from .constructions import (                                                 # noqa: F401
    FibrationMetric,
    bryant_metric,
    jones_tod_metric,
    type2_warped,
    type3_metric,
    type4_metric,
    catalog,
)
from .morphism import (                                                      # noqa: F401
    SubmersionSetup,
    dilation,
    fundamental_eq_residual,
    twistorial_basic_residual,
    twistorial_sd_residual,
    monopole_eq_residual,
    pullback_sd_residual,
    classify_type,
)
