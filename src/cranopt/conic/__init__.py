from .solver import ConicProblem, SolveReport, SolverError, solve
from .build import build_power_min_socp, build_wmmse_step_socp, extract_beamformers

__all__ = [
    "ConicProblem",
    "SolveReport",
    "SolverError",
    "solve",
    "build_power_min_socp",
    "build_wmmse_step_socp",
    "extract_beamformers",
]
