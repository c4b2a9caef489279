"""Closed-form cost models (Section VI-A) and machine calibration.

The paper evaluates at scales (2 GB files, n = 100,000–1,000,000 blocks)
that a pure-Python testbed cannot time directly in reasonable wall-clock.
The reproduction therefore follows the paper's own methodology: per-block /
per-operation costs are *measured*, totals are *computed* from the closed
forms of Section VI-A — which is sound because every total in the paper is
linear in n.  :mod:`repro.analysis.calibrate` measures the unit costs;
:mod:`repro.analysis.cost_model` holds the formulas for Table I, the
communication/storage curves of Figure 6, Table II, and Table III.
"""

from repro.analysis.calibrate import UnitCosts, calibrate
from repro.analysis.cost_model import (
    PAPER_DATA_BYTES,
    CostModel,
    SchemeCosts,
    table1_exp_pair_counts,
)

__all__ = [
    "UnitCosts",
    "calibrate",
    "CostModel",
    "SchemeCosts",
    "table1_exp_pair_counts",
    "PAPER_DATA_BYTES",
]
