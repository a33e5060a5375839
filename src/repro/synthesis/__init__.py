"""Synthesis strategies: structure builders, NPN cost DB, strategy library."""

from .factoring import (
    SYNTHESIS_METHODS,
    build_from_cubes,
    build_from_dsd,
    build_shannon,
    replay_plan,
    synthesis_plan,
    synthesis_plan_stats,
    synthesize_tt,
)
from .npn_db import NpnCostCache
from .exact import build_exact, exact_gate_count, exact_synthesize
from .strategies import (
    AREA_STRATEGY,
    LEVEL_STRATEGY,
    StrategyLibrary,
    SynthesisStrategy,
    synthesize_candidates,
)

__all__ = [
    "SYNTHESIS_METHODS",
    "build_from_cubes",
    "build_from_dsd",
    "build_shannon",
    "synthesize_tt",
    "synthesis_plan",
    "replay_plan",
    "synthesis_plan_stats",
    "NpnCostCache",
    "build_exact",
    "exact_gate_count",
    "exact_synthesize",
    "SynthesisStrategy",
    "StrategyLibrary",
    "LEVEL_STRATEGY",
    "AREA_STRATEGY",
    "synthesize_candidates",
]
