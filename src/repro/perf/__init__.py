"""Performance model: cycle costs and TSC sampling."""

from repro.perf.costs import CostModel, DEFAULT_COSTS
from repro.perf.sampling import DetourSampler, DetourTrace

__all__ = [
    "CostModel",
    "DEFAULT_COSTS",
    "DetourSampler",
    "DetourTrace",
]
