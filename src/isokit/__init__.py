"""isokit: reverse-isodiametric normalization of 3D convex bodies.

A small numeric/exact toolkit around one pipeline: given a convex polytope
K in R^3, find a volume-preserving linear map T such that

    vol(T K) >= (sqrt(2) / 12) * diam(T K)^3,

together with the contact-point decomposition that certifies the bound,
lemma-level verification harnesses for the underlying optimization
problem, and exact lattice-width corollaries (vol(K) >= w(K)^3 / 12 for
lattice-point-free widths).
"""

from .errors import (
    DegenerateInput,
    InvariantError,
    IsokitError,
    NoConvergence,
    NoDecomposition,
    PreconditionError,
)
from .geom import Polytope, float_hull, points_from_json, volume
from .mvee import Ellipsoid, mvee_centered
from .john import (
    IDQ_LOWER_BOUND,
    WITNESS_LOWER_BOUND,
    JohnDecomposition,
    NormalizationResult,
    john_weights,
    normalize,
    witness_triple,
)
from .admissible import (
    CEILING,
    HEAVY_PAIRS,
    NINE_SIXTEENTHS,
    PAIRS,
    AdmissibleSet,
    check_relations,
    five_square_max,
    from_contact_vectors,
    g_map,
    lambda_pair_products,
    objective,
    omega_contains,
    pair_pos,
    peculiar_forced,
    peculiar_from,
    peculiar_sweep,
    relation_residuals,
    sample_lambda,
)
from .bounds import (
    LIGHT_PAIRS,
    drop_patterns,
    grid_verify_all,
    pair_drop_sum,
    triple_drop_sum,
    weighted_sum,
    zero_lambda_drop,
)
from .certifier import (
    ZERO_WEIGHT_CEILING,
    CeilingCertificate,
    certify_random,
    witness_value,
)
from .lattice import (
    WidthResult,
    lattice_width,
    verify_width_volume_corollary,
    width_in_direction,
)

__version__ = "0.1.0"
