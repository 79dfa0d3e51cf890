"""Escape-rate experiments and bound checks built on the core engine.

escape_sweep runs the n-particle experiment for a list of n values and
reports escape rates against the harmonic escape probability; it is the only
sweep loop.  Every run settles on the round kernel, invariant checks and
per-round observers (the CLI's trace) included: both go through one
experiment.InvariantTracker per n.  theorem_check reads one
escape_sweep and asserts the facts the minimizing configuration guarantees:
conserved quantity constant, and escaped fraction at or above the escape
probability once every particle has moved (the gap rate - alpha is
nonnegative).  The lower bound is checked at settle: survivors never
increase during a run, so the settled rate is the minimum of survivors/n
over every t >= n.  Whether the gaps fall as n grows is reported, not
asserted: it is no theorem, and on path(5) the gap rises from n = 4 to 5.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidParameter
from .graphs import Graph, RotorMechanism
from .harmonic import HarmonicProfile, solve_harmonic
from .weights import (
    RotorConfig,
    WeightTable,
    _random_configs,
    min_weight_config,
    weight_table,
)
from .experiment import (
    _TRIAL_ELEMENTS,
    DEFAULT_MAX_STEPS,
    ExperimentState,
    InvariantTracker,
    RoundMoves,
    init_experiment,
    run_until_settled,
    settle_trials,
)


@dataclass
class EscapeReport:
    """Escape rates of one configuration across particle counts."""
    graph: str
    mechanism: str
    config: str
    alpha: float
    n_values: list[int]
    rates: list[float]
    gaps: list[float]
    steps: list[int]
    max_invariant_dev: Optional[float]


@dataclass
class EnsembleSummary:
    """Escape rates of many random configurations at a fixed particle count."""
    graph: str
    mechanism: str
    n: int
    trials: int
    alpha: float
    rates: list[float]
    min_rate: float
    max_rate: float
    mean_rate: float
    stderr: float
    frac_at_alpha: float
    eps: float


@dataclass
class BoundViolation:
    n: int
    t: int
    kind: str
    value: float
    bound: float


@dataclass
class TheoremCheckResult:
    """One theorem_check sweep.  ok covers the invariant and the lower bound;
    gaps_monotone_ok and the gap-increase violations are observations only."""

    alpha: float
    n_values: list[int]
    rates: list[float]
    gaps: list[float]
    max_invariant_dev: float
    invariant_ok: bool
    lower_bound_ok: bool
    gaps_monotone_ok: bool
    violations: list[BoundViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.invariant_ok and self.lower_bound_ok


def escape_sweep(
    graph: Graph,
    mechanism: RotorMechanism,
    config: Optional[RotorConfig],
    n_values: Sequence[int],
    *,
    profile: Optional[HarmonicProfile] = None,
    wt: Optional[WeightTable] = None,
    check_invariant: bool = False,
    max_steps: int = DEFAULT_MAX_STEPS,
    observer: Optional[Callable[[ExperimentState, RoundMoves], None]] = None,
) -> EscapeReport:
    """Run the experiment for each n and report escape rates and gaps.

    profile and wt, if given, are the graph's solve and the mechanism's
    weight table, reused instead of built again.  config None means the
    min-weight configuration of that table.  Every run settles on the round
    kernel, through run_until_settled.  With check_invariant the conserved
    quantity is checked throughout the run (see InvariantTracker) and the
    worst absolute deviation from n*v(origin) is reported.  observer, if
    given, is called once per round with the state and the round's
    RoundMoves, whose invariant holds the conserved quantity after every
    move; those values also feed the reported deviation, which then covers
    every move.
    """
    if not n_values:
        raise InvalidParameter("n_values must be non-empty")
    if any(n < 1 for n in n_values):
        raise InvalidParameter("all particle counts must be >= 1")
    profile = solve_harmonic(graph) if profile is None else profile
    wt = weight_table(graph, mechanism, profile) if wt is None else wt
    alpha = profile.escape_probability
    if config is None:
        config = min_weight_config(graph, wt)
        config_name = "min-weight"
    else:
        config_name = "min-weight" if config == min_weight_config(graph, wt) else "custom"

    rates: list[float] = []
    gaps: list[float] = []
    steps: list[int] = []
    worst: Optional[float] = None

    for n in n_values:
        state = init_experiment(graph, mechanism, config, n)
        tracker = None
        if observer is not None or check_invariant:
            tracker = InvariantTracker(state, profile, wt, observer)
        run_until_settled(state, max_steps=max_steps,
                          on_round=None if tracker is None else tracker.on_round)
        if check_invariant:
            dev = tracker.finish()
            worst = dev if worst is None else max(worst, dev)
        rate = state.survivors / n
        rates.append(rate)
        gaps.append(rate - alpha)
        steps.append(state.t)

    return EscapeReport(
        graph=graph.describe(),
        mechanism=mechanism.describe(),
        config=config_name,
        alpha=alpha,
        n_values=list(n_values),
        rates=rates,
        gaps=gaps,
        steps=steps,
        max_invariant_dev=worst,
    )


ENSEMBLE_EPS = 0.05  # frac_at_alpha counts the rates within this of alpha


def random_ensemble(
    graph: Graph,
    mechanism: RotorMechanism,
    n: int,
    trials: int,
    seed: int,
    *,
    profile: Optional[HarmonicProfile] = None,
) -> EnsembleSummary:
    """Escape rates at fixed n of random_config(graph, seed + k), k < trials, settled together."""
    if trials < 1:
        raise InvalidParameter(f"trials must be >= 1, got {trials}")
    alpha = (solve_harmonic(graph) if profile is None else profile).escape_probability
    group = max(1, _TRIAL_ELEMENTS // graph.num_vertices)  # configs drawn in one stream call
    configs = (config for k in range(seed, seed + trials, group)
               for config in _random_configs(graph, range(k, min(k + group, seed + trials))))
    rates = [s / n for s in settle_trials(graph, mechanism, configs, n)]

    arr = np.asarray(rates)
    return EnsembleSummary(
        graph=graph.describe(), mechanism=mechanism.describe(), n=n, trials=trials,
        alpha=alpha, rates=rates, min_rate=float(arr.min()), max_rate=float(arr.max()),
        mean_rate=float(arr.mean()),
        stderr=float(arr.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0,
        frac_at_alpha=float(np.mean(np.abs(arr - alpha) <= ENSEMBLE_EPS)), eps=ENSEMBLE_EPS,
    )


INVARIANT_TOL = 1e-8  # relative deviation of the conserved quantity from n*v(origin)
BOUND_SLACK = 1e-9  # roundoff allowed below the escape probability


def _verdicts(rep: EscapeReport, v_origin: float) -> tuple[float, list[float]]:
    """The two guarantees of one sweep, as deviations that theorem_check and verify both read.

    Invariant: the sweep's worst deviation (0.0 if it was not checked) over
    the smallest n's target n*v(origin), never over less than 1; it holds
    within INVARIANT_TOL.  Lower bound: per n, alpha - rate where the rate
    lies below alpha - BOUND_SLACK, else 0.0.
    """
    scale = max(1.0, min(rep.n_values) * v_origin)
    shortfalls = [rep.alpha - r if r < rep.alpha - BOUND_SLACK else 0.0 for r in rep.rates]
    return (rep.max_invariant_dev or 0.0) / scale, shortfalls


def theorem_check(
    graph: Graph,
    mechanism: RotorMechanism,
    n_values: Sequence[int],
    *,
    config: Optional[RotorConfig] = None,
    profile: Optional[HarmonicProfile] = None,
    wt: Optional[WeightTable] = None,
) -> TheoremCheckResult:
    """Verify the guarantees of the minimizing configuration across one checked escape_sweep.

    _verdicts decides both.  One lower-bound violation is recorded per n with
    a shortfall, at its settle time t; an invariant failure is one violation
    at the smallest n with t = -1.  Across n, each rise of the final gap is
    recorded as a gap-increase violation and clears gaps_monotone_ok, but
    leaves ok alone: no theorem makes the gaps non-increasing, and on path(5)
    the gap rises from n = 4 to 5.  A custom config exercises the same checks
    without the guarantees; violations are then expected and recorded, not
    raised.  profile and wt, if given, are passed on to escape_sweep.
    """
    profile = solve_harmonic(graph) if profile is None else profile
    rep = escape_sweep(
        graph, mechanism, config, n_values, profile=profile, wt=wt, check_invariant=True
    )
    alpha, gaps = rep.alpha, rep.gaps
    max_dev, shortfalls = _verdicts(rep, float(profile.voltage[graph.origin]))
    violations = [
        BoundViolation(n, t, "lower-bound", rate, alpha)
        for n, t, rate, short in zip(rep.n_values, rep.steps, rep.rates, shortfalls) if short
    ]
    lower_ok = not violations
    inv_ok = max_dev <= INVARIANT_TOL
    if not inv_ok:
        violations.append(BoundViolation(min(n_values), -1, "invariant", max_dev, INVARIANT_TOL))
        warnings.warn(f"conserved quantity deviated beyond {INVARIANT_TOL:g}", RuntimeWarning)
    rises = [BoundViolation(n_values[k + 1], -1, "gap-increase", gaps[k + 1], gaps[k])
             for k in range(len(gaps) - 1) if gaps[k + 1] > gaps[k] + BOUND_SLACK]

    return TheoremCheckResult(
        alpha=alpha, n_values=rep.n_values, rates=rep.rates, gaps=gaps, max_invariant_dev=max_dev,
        invariant_ok=inv_ok, lower_bound_ok=lower_ok, gaps_monotone_ok=not rises,
        violations=violations + rises,
    )
