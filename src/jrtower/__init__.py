"""Exact verification pipeline for Julia Robinson numbers of radical towers.

The objects: for an integer nu >= 2, the tower x_1 = sqrt(nu),
x_{k+1} = sqrt(nu + x_k) and the ring of algebraic integers it
generates. The pipeline certifies, entirely in exact integer
arithmetic, the hypotheses under which the ring's Julia Robinson
number is strictly between 4 and infinity or is an unattained 4.
"""

from .errors import (
    CertificateFailure,
    InvariantFailure,
    PreconditionError,
    ResourceLimitError,
)
from .factor import (
    EFFORT_DEFAULT,
    EFFORT_PRESETS,
    EFFORT_QUICK,
    EFFORT_THOROUGH,
    Effort,
    Factorization,
    factorize,
)
from .orbit import (
    ITERATE_CAP,
    SEQUENCE_CAP,
    OrbitSequence,
    Strictness,
    TowerParams,
    ValuationProfile,
    constant_terms,
    iterate_poly,
    orbit_mod_p,
    tower_params,
    tower_strict,
    valuation_profile,
)
from .discriminant import (
    RESULTANT_CAP,
    DiscriminantReport,
    disc_resultant_oracle,
    disc_xn,
    discriminant_report,
    norm_sequence,
)
from .residue import (
    PEPIN_CAP,
    FermatNumber,
    ResidueCertificate,
    fermat_mod_pattern,
    fermat_number,
    jacobi,
    known_fermat_primes,
    nonresidue_37_check,
    pepin_test,
    residue_certificate,
)
from .squareclasses import (
    SqrtMembership,
    Sqrt2Certificate,
    SubfieldLattice,
    TwoIndependence,
    contains_sqrt,
    quadratic_subfields,
    sqrt2_free_certificate,
    two_independent,
)
from .wreath import (
    DEPTH_CAP,
    TreeAutomorphism,
    agemo_rank,
    closure_order,
    count_index2_subgroups,
    leaf_permutation,
    minimal_generators,
)
from .verdict import (
    COS_M_CAP,
    NESTED_RADICAL_CAP,
    ConstructibilityDecomposition,
    FermatObstruction,
    QuadraticSurd,
    VerdictReport,
    alpha_surd,
    constructible_order,
    cos_minpoly,
    fermat_obstruction,
    hypothesis_check,
    jr_verdict,
    nested_radical_check,
    window_elements_deg2,
)

__version__ = "0.1.0"
