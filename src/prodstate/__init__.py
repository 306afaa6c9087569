"""Desk-scale toolkit for learning the closest product state to an unknown state."""

from .cover import (
    DESK_OVERRIDES,
    Cover,
    CoverOverrides,
    CoverParams,
    build_cover,
    estimate_opt,
)
from .discrete import DiscreteClass, class_fidelity_census, discrete_learn, member_vector
from .errors import PromiseViolationError, ResourceBudgetError
from .hardness import (
    Tensor4,
    clique_tensor,
    opt_sandwich_check,
    random_isometry_embed,
    recover_clique_number,
    spectral_norm_oracle,
    tensor_to_state,
)
from .instances import (
    Graph,
    clique_number,
    planted_mixture,
    planted_opt,
    random_mixed,
)
from .localopt import high_fidelity_learn
from .mps import (
    MatrixProductState,
    mps_learn,
    mps_to_state,
    state_to_mps,
)
from .oracle import StateOracle, estimate_fidelity, subnormalized_tomography, subspace_tomography
from .polyopt import OptDomain, PolySystem, evaluate_poly, solve_constrained
from .states import (
    DEFAULT_ATOL,
    Z_MAX,
    ProductParams,
    QuantumState,
    fidelity,
    haar_product_params,
    product_state_vector,
    recenter_unitaries,
    tangent_distance,
)

__all__ = [
    "Cover",
    "CoverOverrides",
    "CoverParams",
    "DEFAULT_ATOL",
    "DESK_OVERRIDES",
    "DiscreteClass",
    "Graph",
    "MatrixProductState",
    "OptDomain",
    "PolySystem",
    "ProductParams",
    "PromiseViolationError",
    "QuantumState",
    "ResourceBudgetError",
    "StateOracle",
    "Tensor4",
    "Z_MAX",
    "build_cover",
    "class_fidelity_census",
    "clique_number",
    "clique_tensor",
    "discrete_learn",
    "estimate_fidelity",
    "estimate_opt",
    "evaluate_poly",
    "fidelity",
    "haar_product_params",
    "high_fidelity_learn",
    "member_vector",
    "mps_learn",
    "mps_to_state",
    "opt_sandwich_check",
    "planted_mixture",
    "planted_opt",
    "product_state_vector",
    "random_isometry_embed",
    "random_mixed",
    "recenter_unitaries",
    "recover_clique_number",
    "solve_constrained",
    "spectral_norm_oracle",
    "state_to_mps",
    "subnormalized_tomography",
    "subspace_tomography",
    "tangent_distance",
    "tensor_to_state",
]
