"""Length geometry of matrix Banach-Lie groups at desk scale.

Subpackages: ``algebra`` (Banach algebras and exp/log), ``explength``
(length brackets and estimators), ``circle`` (abelian unitary lengths via
quotient norms), ``schatten`` (p-Schatten unitary groups), ``elementary``
(elementary groups and the factorization invariant), ``coarse`` (sampled
spaces and coarse fits), ``oracles`` (brute-force references), ``cli``
(experiment runner).
"""

from .algebra import (
    AlgebraElement,
    BanachAlgebra,
    GroupElement,
    MatrixOverAlgebra,
    NumericFailureError,
    SpectrumOnCutError,
    function_algebra,
    mat_exp,
    mat_log,
    matrix_algebra,
    scalar_complex,
    scalar_real,
)
from .circle import (
    CircleFunction,
    DiscretizedSpace,
    RealLift,
    SamplingConditionError,
    WindingError,
    cel,
    identity_component_check,
    quotient_norm,
    unwrap,
)
from .coarse import (
    CoarseMapSample,
    SampledSpace,
    fit_coarse_moduli,
    fit_quasi_isometry,
)
from .elementary import (
    ElementaryGenerator,
    bracket_identities_check,
    elementary_product,
    hs_determinant,
    traceless_decompose,
    unboundedness_witness,
)
from .explength import (
    ElBracket,
    EstimateBudget,
    FactorizationCertificate,
    NoFactorizationError,
    el_estimate,
    el_exact_positive_diagonal,
    el_exact_unitary,
    el_lower_bound,
    rel_estimate,
    trotter_check,
)
from .schatten import (
    PUnitary,
    SchattenContext,
    coarse_proper_chain,
    geodesic_chain,
    haagerup_witness,
    p_norm,
    sandwich_check,
)

__version__ = "0.1.0"
