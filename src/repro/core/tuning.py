"""Automatic Hermes parameter tuning (the paper's stated future work).

§3.3 and §6 of the paper leave "(automatic) optimal parameter
configuration" as future work and supply only rules of thumb.  This
module implements the straightforward version: a seeded grid search over
``HermesParams`` overrides, scoring each candidate by mean FCT on a
user-supplied scenario.

The search is deliberately simple — the scenario runs are the expensive
part, and the paper's own sensitivity analysis (Fig. 19) shows the FCT
surface is flat near the recommended settings, so a coarse grid finds
the plateau reliably.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.result import ExperimentResult
from repro.experiments.runner import run_experiment


@dataclass
class TuningCandidate:
    """One evaluated grid point."""

    overrides: Dict[str, Any]
    score: float
    results: List[ExperimentResult] = field(default_factory=list)


@dataclass
class TuningOutcome:
    """Grid-search outcome, best first."""

    candidates: List[TuningCandidate]

    @property
    def best(self) -> TuningCandidate:
        return self.candidates[0]

    def table_rows(self) -> List[List[Any]]:
        """Rows of (override-summary, score) for reporting."""
        rows = []
        for candidate in self.candidates:
            summary = ", ".join(
                f"{key}={value}" for key, value in candidate.overrides.items()
            )
            rows.append([summary or "(defaults)", candidate.score])
        return rows


def mean_fct_score(results: Sequence[ExperimentResult]) -> float:
    """Default objective: average FCT across seeds, charging unfinished
    flows the full run length (a tuner must never learn to strand flows)."""
    return sum(r.mean_fct_ms_with_penalty() for r in results) / len(results)


def tune_hermes(
    base_config: ExperimentConfig,
    grid: Dict[str, Sequence[Any]],
    seeds: Sequence[int] = (1,),
    score: Callable[[Sequence[ExperimentResult]], float] = mean_fct_score,
    keep_results: bool = False,
) -> TuningOutcome:
    """Grid-search Hermes overrides on a scenario.

    Args:
        base_config: the scenario; its ``lb`` must be ``"hermes"`` and
            its ``hermes_overrides`` form the baseline each grid point
            extends.
        grid: mapping of ``HermesParams`` field name to candidate values.
        seeds: evaluated per candidate; the score averages over them.
        score: objective over the per-seed results (lower is better).
        keep_results: retain the raw results on each candidate.

    Returns:
        Candidates sorted best-first.
    """
    if base_config.lb != "hermes":
        raise ValueError("tuning targets Hermes; config.lb must be 'hermes'")
    if not grid:
        raise ValueError("empty tuning grid")
    keys = sorted(grid)
    candidates: List[TuningCandidate] = []
    for values in itertools.product(*(grid[key] for key in keys)):
        overrides = dict(base_config.hermes_overrides)
        overrides.update(dict(zip(keys, values)))
        results = [
            run_experiment(
                replace(base_config, seed=seed, hermes_overrides=overrides)
            )
            for seed in seeds
        ]
        candidates.append(
            TuningCandidate(
                overrides=dict(zip(keys, values)),
                score=score(results),
                results=list(results) if keep_results else [],
            )
        )
    candidates.sort(key=lambda c: c.score)
    return TuningOutcome(candidates)
