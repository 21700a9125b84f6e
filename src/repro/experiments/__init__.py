"""Experiment harness: one driver per paper figure/table.

Every driver exposes ``run(preset=...) -> report`` returning a
structured report object whose ``render()`` prints the same rows/series
the paper reports, plus a module-level ``main()`` for CLI use.  The
``"bench"`` preset is CPU-sized (reduced resolution / population /
horizon); ``"paper"`` matches the paper's §IV-A.2 settings and is
correspondingly slow on a pure-numpy substrate.
"""

from repro.experiments.config import (
    PRESETS,
    SAMPLER_NAMES,
    ScenarioConfig,
    make_sampler,
)

__all__ = [
    "PRESETS",
    "SAMPLER_NAMES",
    "ScenarioConfig",
    "make_sampler",
    "ComparisonReport",
    "build_scenario",
    "run_comparison",
    "run_single",
]

#: Re-exported from :mod:`repro.experiments.runner`, resolved on first
#: access (PEP 562).  An eager import here would load ``runner`` before
#: ``python -m repro.experiments.runner`` executes it, and runpy warns
#: about exactly that.
_RUNNER_EXPORTS = frozenset(
    {"ComparisonReport", "build_scenario", "run_comparison", "run_single"}
)


def __getattr__(name: str):
    if name in _RUNNER_EXPORTS:
        from repro.experiments import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
