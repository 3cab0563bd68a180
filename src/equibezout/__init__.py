"""Exact C2-equivariant cohomology of complex projective spaces.

Burnside-ring coefficient cohomology of X(p, q) with its preferred basis,
Euler classes of sums of equivariant line bundles computed two independent
ways, the constant-Z and Borel coefficient variants, and a CLI wrapping
the whole thing.  Everything is exact integer arithmetic.
"""

from .euler import (
    BundleSum,
    DegreeTriple,
    EulerReport,
    LineBundle,
    O,
    bezout_report,
    classify_line,
    context_check,
    degrees,
    euler_closed,
    euler_line,
    euler_product,
    ranks,
    recover_degrees,
    require_context,
    xO,
)
from .grading import (
    PiBDegree,
    RankTriple,
    euler_grading,
    recover_ranks,
)
from .hscalar import (
    HElement,
    h_fixed,
    h_rho,
    in_Ie,
    in_T,
)
from .parsing import (
    parse_bundles,
    parse_grading,
    parse_module_element,
    parse_scalar,
)
from .projmod import (
    BasisMonomial,
    ModuleElement,
    NoneqPoly,
    ProjSpace,
    UnsupportedProductError,
    basis,
    coeff_vector,
    gen_mul,
    in_tildeT,
    mod_fixed,
    mod_mul,
    mod_rho,
)
from .variants import (
    BorelElement,
    ZHElement,
    borel_euler_closed,
    borel_map,
    compare,
    z_euler_closed,
    z_fixed,
    z_map,
)
from .verify import run_verify

__version__ = "0.1.0"
