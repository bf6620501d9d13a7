"""Shared definitions of the LP layer under the branch-and-bound search.

Every node LP -- the revised simplex (:mod:`repro.milp.revised`), the
persistent HiGHS instance and its ``linprog`` fallback
(:mod:`repro.milp.node_lp`) and the cut loop (:mod:`repro.milp.cuts`)
-- reports an :class:`LPResult` and shares the tolerances and pricing
rule names below.  Problems are always in the bounded form::

    min  c . x
    s.t. A_ub x <= b_ub
         A_eq x  = b_eq
         lower <= x <= upper   (entries may be +/- inf)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Pivot tolerance: entries smaller than this are treated as zero.
PIVOT_TOL = 1e-9
#: Optimality tolerance on reduced costs.
COST_TOL = 1e-9
#: Feasibility tolerance on phase-1 objective.
FEAS_TOL = 1e-7

#: Entering-column rules shared by every simplex-backed solve.
PRICING_DANTZIG = "dantzig"
PRICING_BLAND = "bland"


@dataclass
class LPResult:
    """Outcome of an LP solve."""

    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration_limit"
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    iterations: int = 0
    #: Largest RHS infeasibility drift observed during pivoting that
    #: exceeded ``FEAS_TOL`` (0.0 when the solve stayed numerically
    #: clean).  Anything larger than the tolerance is surfaced here
    #: instead of being silently masked.
    rhs_violation: float = 0.0

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"

    @property
    def numerically_clean(self) -> bool:
        """No infeasibility drift beyond ``FEAS_TOL`` was observed.

        The numerics governor treats an unclean LP as a reason to
        distrust (and re-certify) everything derived from its basis.
        """
        return self.rhs_violation == 0.0
