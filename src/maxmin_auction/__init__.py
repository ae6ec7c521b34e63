"""Maxmin auction design from means and support bounds.

Computes worst-case optimal deterministic auctions when only the means of
bidders' valuations and an upper bound on their support are known, evaluates
any deterministic dominant-strategy mechanism's revenue guarantee by linear
programming, and constructs a dominating linear score auction for any
feasible mechanism.
"""

from .core import (DiscreteDistribution, GridMechanism, Instance,
                   LinearScoreAuction, check_feasible, corner_hitting,
                   grid_from_lsa, revenue)
from .dual import (lsa2_asym_guarantee, lsa2_asym_lagrangian, lsa_guarantee,
                   lsa_lagrangian)
from .errors import (BoundaryError, DomainError, FeasibilityError,
                     InfeasibleError, NumericalError, RegimeError, SizeError,
                     UnboundedError)
from .improve import (AffineThresholds, dominating_lsa, grand_case_split,
                      lagrangian_on_grid, least_fixed_point, tilde_transform)
from .nature import (DualCertificate, WorstCaseType, breakpoint_coords,
                     dual_value, lower_revenue_table, lsa2_dual_multipliers,
                     lsa2_guarantee, mechanism_guarantee, wcdistr2_classify,
                     wcdistr2_construct, worst_case_lp)
from .optset import member
from .solve import (Asym2Solution, OptimalSolution, Regime, ReserveSet,
                    asymmetric2_solve, optimal_lambda, optimal_reserves,
                    regime, reserve_is_optimal, symmetric_reserve_set)

__version__ = "0.1.0"

__all__ = [
    "AffineThresholds", "Asym2Solution", "BoundaryError",
    "DiscreteDistribution", "DomainError", "DualCertificate",
    "FeasibilityError", "GridMechanism", "InfeasibleError", "Instance",
    "LinearScoreAuction", "NumericalError", "OptimalSolution", "Regime",
    "RegimeError", "ReserveSet", "SizeError", "UnboundedError",
    "WorstCaseType", "asymmetric2_solve", "breakpoint_coords",
    "check_feasible", "corner_hitting",
    "dominating_lsa", "dual_value", "grand_case_split", "grid_from_lsa",
    "lagrangian_on_grid", "least_fixed_point", "lower_revenue_table",
    "lsa2_asym_guarantee", "lsa2_asym_lagrangian", "lsa2_dual_multipliers",
    "lsa2_guarantee", "lsa_guarantee", "lsa_lagrangian",
    "mechanism_guarantee", "member", "optimal_lambda", "optimal_reserves",
    "regime", "reserve_is_optimal", "revenue", "symmetric_reserve_set",
    "tilde_transform", "wcdistr2_classify", "wcdistr2_construct",
    "worst_case_lp",
]
