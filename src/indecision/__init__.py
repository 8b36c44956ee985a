"""Indecision-breaking on agent-option influence networks.

A numpy library for simulating value-formation dynamics on the all-to-all
m x n agent-option grid and for the exact combinatorics of the synchrony
patterns (balanced colorings, axial patterns, orbital versus exotic) that
organize its bifurcations.
"""

from .model import (
    NetworkShape, GainParams, CriticalCoefficients, SigmoidParams, ModelConfig,
    IrrepDecomposition, ThresholdInfo,
    vector_field, jacobian, interaction_matrix, interaction_matrix_det,
    coefficients_from_gains, gains_from_coefficients, analytic_eigenvalues,
    bifurcation_threshold, irrep_project, as_state,
)
from .integrate import (
    IntegratorConfig, Trajectory, EquilibriumResult,
    spectral_bound, random_near_origin, integrate, integrate_batch,
    trajectory_to_csv,
)
from .patterns import (
    Coloring, PatternClass, PatternReport, AmbiguousQuantizationError,
    quantize_to_coloring, classify_state, zero_sum_report, match_axial,
)
from .colorings import (
    NotBalancedError, CatalogTooLargeError, LatinRectangleBlock, RectangleTiling,
    AxialColoring, AxialCatalog, IsotropyReport, StablePolynomialMap,
    SynthesisReport,
    is_balanced, balance_witness, is_latin_rectangle, tiling_decomposition,
    dim_Vd_intersection, dissensus_intersection_basis, is_axial_Vd,
    canonical_form, enumerate_axial, isotropy_subgroup,
    classify_orbital_exotic, column_pair_multiplicities, column_type_counts,
    exotic_sufficient_4xn, axial_values,
    synthesize_stable_admissible, all_colorings,
)
from .experiments import (
    Scenario, RunReport, BUILTIN_SCENARIOS,
    get_scenario, run_scenario, sweep_lambda, catalog_rows, write_heatmap_svg,
)

__version__ = "0.1.0"
