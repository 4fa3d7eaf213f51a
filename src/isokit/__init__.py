"""isokit: reverse-isodiametric normalization of 3D convex bodies.

A small numeric/exact toolkit around one pipeline: given a convex polytope
K in R^3, find a volume-preserving linear map T such that

    vol(T K) >= (sqrt(2) / 12) * diam(T K)^3,

together with the contact-point decomposition that certifies the bound,
lemma-level verification harnesses for the underlying optimization
problem, and exact lattice-width corollaries (vol(K) >= w(K)^3 / 12 for
lattice-point-free widths).

ISOKIT_THREADS caps BLAS parallelism: when set, the standard
thread-count variables are exported here, before numpy first loads.
"""

import os as _os

_threads = _os.environ.get("ISOKIT_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os

from .errors import (
    DegenerateInput,
    InfeasibleMagnitudes,
    InvariantError,
    IsokitError,
    NoConvergence,
    NoDecomposition,
    NotFullDimensional,
    PreconditionError,
    SingularLattice,
    SingularPoint,
)
from .geom import (
    Polytope,
    diameter,
    difference_body,
    polytope_from_json,
    polytope_to_json,
    simplex_volume_lower_bound,
    volume,
)
from .mvee import Ellipsoid, mvee_centered
from .john import (
    IDQ_LOWER_BOUND,
    WITNESS_LOWER_BOUND,
    JohnDecomposition,
    NormalizationResult,
    john_weights,
    normalize,
    transform_to_ball,
    witness_triple,
)
from .admissible import (
    NINE_SIXTEENTHS,
    PAIRS,
    AdmissibleSet,
    LambdaVector,
    check_relations,
    f_eval,
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
    sample_omega,
)
from .bounds import (
    HEAVY_PAIRS,
    LIGHT_PAIRS,
    PAIR_DROP_BOUND,
    TRIPLE_DROP_BOUND,
    WEIGHTED_BOUND,
    ZERO_DROP_BOUND,
    drop_patterns,
    grid_verify_all,
    ignore_term_bound,
    pair_drop_sum,
    triple_drop_sum,
    weighted_sum,
    zero_lambda_drop,
)
from .certifier import (
    CEILING,
    ZERO_WEIGHT_CEILING,
    CeilingCertificate,
    certify_random,
    maximize_objective,
    witness_value,
)
from .lattice import (
    LatticeBasis,
    LatticeDirection,
    WidthResult,
    density,
    is_nonseparable_unit_lattice,
    is_nonseparable_width,
    lattice_width,
    verify_width_volume_corollary,
    width_in_direction,
)

__version__ = "0.1.0"
