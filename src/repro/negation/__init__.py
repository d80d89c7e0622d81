"""Negation (§7): well-founded and Fitting three-valued semantics.

Stratified negation needs no module of its own: a condition may read an
IDB of a lower stratum (``¬D(X)``), and ``solve()``'s SCC scheduler
publishes each frozen stratum for it (:mod:`repro.core.scheduler`).
"""

from ..core.scheduler import StratificationError
from .fitting import (
    agrees_with_well_founded,
    fitting_fixpoint,
    fitting_operator,
    win_move_datalogo,
)
from .wellfounded import (
    GroundNormalProgram,
    NormalRule,
    WellFoundedModel,
    alternating_fixpoint,
    win_move_program,
)

__all__ = [
    "GroundNormalProgram",
    "NormalRule",
    "StratificationError",
    "WellFoundedModel",
    "agrees_with_well_founded",
    "alternating_fixpoint",
    "fitting_fixpoint",
    "fitting_operator",
    "win_move_datalogo",
    "win_move_program",
]
