"""Exact p-adic local densities, Eisenstein coefficient data, and the
intersection ledger of the modular curve X0(N).

Everything is exact: integers, `fractions.Fraction`, polynomials and
rational functions over Q, and linear combinations of a fixed set of
transcendental symbols.  No floating point is used anywhere.
"""

from swb.analytic import (
    a_p_function,
    beta_p_function,
    check_level_lowering,
    check_singular_relation,
    eis0_derivative,
    fundamental_disc_split,
    g_p_function,
)
from swb.counting import Budget, BudgetExceeded, EngineUnsupported, count_reps
from swb.density import (
    check_difference_formula,
    check_functional_equation,
    check_stabilization_source,
    check_stabilization_target,
    interpolate_density_polynomial,
    local_density,
    pden_rank1_closed,
    primitive_density,
)
from swb.geometry import (
    a_N,
    atkin_lehner_pullback,
    check_hodge_difference,
    delta_self_pairing,
    div_delta_section,
    geometric_t0_side,
    intersection_pairing,
    special_fiber,
    xhat_self_intersection,
)
from swb.lattice import (
    QuadLattice,
    delta_lattice,
    diagonal_lattice,
    direct_sum,
    hyperbolic_lattice,
    invariants,
    jordan_form,
    parse_lattice,
    plane_lattice,
    twisted_hyperbolic,
    zero_lattice,
)
from swb.padic import INFINITY, hilbert_symbol, quad_residue_symbol, valuation
from swb.symbolic import Symbol, SymbolicNumber, symbolic_reduce

__all__ = [
    "Budget",
    "BudgetExceeded",
    "EngineUnsupported",
    "INFINITY",
    "QuadLattice",
    "Symbol",
    "SymbolicNumber",
    "a_N",
    "a_p_function",
    "atkin_lehner_pullback",
    "beta_p_function",
    "check_difference_formula",
    "check_functional_equation",
    "check_hodge_difference",
    "check_level_lowering",
    "check_singular_relation",
    "check_stabilization_source",
    "check_stabilization_target",
    "count_reps",
    "delta_lattice",
    "delta_self_pairing",
    "diagonal_lattice",
    "direct_sum",
    "div_delta_section",
    "eis0_derivative",
    "fundamental_disc_split",
    "g_p_function",
    "geometric_t0_side",
    "hilbert_symbol",
    "hyperbolic_lattice",
    "interpolate_density_polynomial",
    "intersection_pairing",
    "invariants",
    "jordan_form",
    "local_density",
    "parse_lattice",
    "pden_rank1_closed",
    "plane_lattice",
    "primitive_density",
    "quad_residue_symbol",
    "special_fiber",
    "symbolic_reduce",
    "twisted_hyperbolic",
    "valuation",
    "xhat_self_intersection",
    "zero_lattice",
]

__version__ = "0.1.0"
