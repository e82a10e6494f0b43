"""Exponential-utility portfolio optimization with jump signals.

Solves the investor's problem when the risky asset jumps and a signal
reveals part of each jump before it hits: builds the BSDE-with-jumps
drivers for the three information scenarios, solves the BSDE backward in
time by regression Monte Carlo, extracts the optimal trading strategy,
and measures the economic value of the signal as a function of the
information cutoff.
"""

from .levy_model import (
    LevyMarketSpec,
    NoSignal,
    HideSmall,
    HideLarge,
    SignalScenario,
    DiscreteJumpGrid,
    build_grid,
)
from .drivers import (
    DriverContext,
    driver_f_batch,
    penalized_driver_fm_batch,
    driver_bounds,
    local_lipschitz_constant,
    fm_exact_threshold,
)
from .simulate import (
    TimeGrid,
    payoff_put,
    payoff_digital,
    payoff_terminal,
    wealth_step,
)
from .bsde_solver import (
    BasisPartition,
    CellIndex,
    simulate_cells,
    StepRecord,
    BackwardSolution,
    solve,
    value_and_strategy,
    constant_driver,
)

__version__ = "0.1.0"
