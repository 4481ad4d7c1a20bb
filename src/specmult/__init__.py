"""Joint spectral multipliers on truncated eigen-systems.

Finite models for multiplier calculus: Hermite/Ornstein-Uhlenbeck and
torus eigen-systems, Mellin-transform tooling with Marcinkiewicz norms
and decay fits, Littlewood-Paley square functions with exact L2
constants, Laplace-transform-type multipliers with their Mehler-kernel
realizations, local/global operator splits with kernel-estimate audits,
and a fibered Calderon-Zygmund decomposition.
"""

from .dyadic import (
    CZResult,
    DyadicCube,
    DyadicSystem,
    cz_decompose,
    dyadic_average,
    dyadic_maximal,
    dyadic_system,
    weak_quasinorm,
)
from .multipliers import (
    ATLViolation,
    BUILTIN_MULTIPLIERS,
    DecayProfile,
    DecayReport,
    DyadicRange,
    LogGrid,
    MarcOrder,
    MellinTailError,
    builtin_multiplier,
    decay_check,
    default_t_grid,
    marcinkiewicz_seminorm,
    mellin_on_grid,
    phi_star,
    required_order,
    rotate_multiplier,
    square_constant,
    square_function,
    square_function_params,
    worst_case_order,
)
from .ouhermite import (
    apply_semigroup_kernel,
    hermite_basis,
    lebesgue_weights,
    mehler_kernel,
    ou_system,
)
from .products import (
    HeatKernelModel,
    KappaSpec,
    ProductGrid,
    apply_T_split,
    cz_growth_check,
    cz_smooth_check,
    di_bound_ratio,
    di_integral,
    euclidean_heat_model,
    in_local_region,
    kappa_imag,
    kappa_indicator,
    kappa_one,
    kernel_Ktilde,
    local_mask,
    m_kappa,
    multiplier_from_kappa,
    product_grid,
    smallest_log_constant,
    torus_heat_model,
    torus_system,
)
from .spectral import (
    EvaluationError,
    GridFunction,
    MultiplierSpec,
    SpectralSystem,
    apply_multiplier,
    decompose,
    reconstruct,
    tensor,
)

__version__ = "0.1.0"
