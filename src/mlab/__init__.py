"""Spectral toolbox for multilinear Fourier multipliers on the torus.

Layers, bottom up: ``grid`` (fields, spectra, exact dyadic dilation),
``spaces`` (Lebesgue/Bessel/Sobolev quadrature norms), ``symbols``
(multiplier symbols), ``decomp`` (dyadic partition of unity and separable
expansions), ``operators`` (direct and separable application,
derivative-transferred pairings), ``polyfield`` and ``determinants`` (exact
polynomial identities, determinant routes), ``harness`` and ``cli`` (seeded
experiments and reporting).
"""

from .errors import (
    BudgetExceededError,
    FrequencyOverflowError,
    GridMismatchError,
    MlabError,
    SchemaValidationError,
    UncoveredSpectrumError,
)
from .grid import (
    Field,
    GridSpec,
    Spectrum,
    coeff_at,
    dealiased_product,
    dft_forward,
    dft_inverse,
    dilate_dyadic,
    field_from_modes,
    pair,
    product_on_grid,
    regrid_field,
    regrid_spectrum,
    spectral_derivative,
    spectrum_from_modes,
    support,
)
from .spaces import (
    bessel_norm,
    bessel_potential,
    grad_sup_norms,
    holder_conjugate,
    lp_norm,
    sobolev_wkp_norm,
)
from .symbols import (
    SymbolSpec,
    det_symbol,
    dot_symbol,
    evaluate,
    normalized_power_symbol,
    one_symbol,
    power_symbol,
    product_symbol,
    resolve_symbol,
    riesz_factor,
)
from .decomp import (
    AnnulusGrid,
    DyadicPartition,
    SeparableExpansion,
    build_annulus_grid,
    localize,
    partition_for_grid,
    psi_profile,
    separable_expand,
)
from .operators import (
    OperatorSpec,
    Separable,
    apply_direct,
    apply_direct_family,
    apply_operator,
    apply_separable,
    enumeration_budget,
    pair_with_transfer,
)
from .polyfield import PolyField, perm_sign, poly_const, poly_det, poly_var, poly_zero
from .determinants import (
    DetReport,
    cofactor_matrix,
    hessian_det_fourier,
    hessian_det_pointwise,
    jacobian_det_fourier,
    jacobian_det_pointwise,
    jacobian_matrix,
    random_poly,
    run_identity_suite,
    second_cofactor,
    symbolic_baer_jerison_check,
    symbolic_detPtau_check,
    symbolic_detPtau_average_check,
    symbolic_hessian2d_check,
    symbolic_piola_check,
)
from .harness import (
    ExperimentConfig,
    ReportRecord,
    boundedness_scan,
    hessian_estimate,
    jacobian_estimate,
    random_field,
    random_spectrum,
    thm3_estimate_ratio,
    write_records,
)
from .schemas import (
    CONFIG_SCHEMA,
    RECORD_SCHEMA,
    validate_config,
    validate_record,
    write_schema_files,
)

__version__ = "0.1.0"
