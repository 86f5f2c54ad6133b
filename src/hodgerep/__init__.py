"""Exact-arithmetic classifier for weight-1 and CY3-type Lie algebra Hodge representations."""

from .classify import (
    ReconciliationReport,
    SearchConfig,
    enumerate_level,
    verify_paper,
)
from .errors import (
    ConsistencyError,
    HodgeRepError,
    InvalidTypeError,
    NonDominantError,
    ResourceLimitError,
    ShapeError,
)
from .hodgecore import (
    EigenDecomp,
    FactorSpec,
    GradingElement,
    HodgeTuple,
    HodgeVector,
    center_charge,
    extremal_dim_is_one,
    hodge_vector,
    level,
    real_form,
    reality_type,
)
from .products import convolve_eigen, tensor_reality
from .repweights import WeightSystem, weight_system, weyl_dim
from .rootdata import (
    LieType,
    RootSystemData,
    dual_weight,
    mu_plus_mu_star_closed_form,
    root_system,
)

__version__ = "0.1.0"
