"""Escape-rate experiments and bound checks built on the core engine.

escape_sweep runs the n-particle experiment for a list of n values and
reports escape rates against the harmonic escape probability; it is the only
sweep loop.  Every run settles on the round kernel, invariant checks and
per-round observers (the CLI's trace) included.  theorem_check reads one
escape_sweep and asserts the facts the minimizing configuration guarantees:
conserved quantity constant, escaped fraction at or above the escape
probability once every particle has moved, and final gaps nonnegative and
non-increasing in n.  The lower bound is
checked at settle: survivors never increase during a run, so the settled
rate is the minimum of survivors/n over every t >= n.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvalidParameter
from .graphs import Graph, RotorMechanism
from .harmonic import DEFAULT_WALK_CAP, HarmonicProfile, _walk_steps, solve_harmonic
from .rng import philox_generator
from .weights import (
    RotorConfig,
    WeightTable,
    min_weight_config,
    random_config,
    weight_table,
)
from .experiment import (
    DEFAULT_MAX_STEPS,
    ExperimentState,
    ParticleStatus,
    RoundInvariants,
    compute_invariant,
    init_experiment,
    run_until_settled,
)

logger = logging.getLogger(__name__)

# up to this many (particles x vertices) the conserved quantity is checked
# after every move; above it, about once per round
_EVENT_CHECK_BUDGET = 10**6


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
    runtime_s: float


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
    alpha: float
    n_values: list[int]
    rates: list[float]
    gaps: list[float]
    max_invariant_dev: float
    invariant_ok: bool
    lower_bound_ok: bool
    gaps_nonneg_ok: bool
    gaps_monotone_ok: bool
    violations: list[BoundViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.invariant_ok
            and self.lower_bound_ok
            and self.gaps_nonneg_ok
            and self.gaps_monotone_ok
        )


class InvariantTracker:
    """Tracks the worst deviation of the conserved quantity during a run.

    compute_invariant samples the state at construction and in finish();
    in between, on_round takes each round the kernel moves (the arguments
    of the run_until_settled on_round hook) and evaluates its moves with
    experiment.RoundInvariants, bit for bit compute_invariant's values.
    Built at any t, on a resumed state too, it sees every later move, so
    RoundInvariants' precondition holds (see there).
    It evaluates every move when every_move is set or the problem is within
    _EVENT_CHECK_BUDGET (particles x vertices); above it, about once per
    round: the first move whose t reaches the next check, which is then that
    t + n.  The target value is n * v(origin), fixed at construction.
    """

    def __init__(self, state: ExperimentState, profile: HarmonicProfile, wt: WeightTable,
                 every_move: bool = False):
        self._state = state
        self._profile = profile
        self._wt = wt
        self._rounds = RoundInvariants(state, profile, wt)
        self.target = float(state.n * profile.voltage[state.graph.origin])
        self.every_move = every_move or state.n * state.graph.num_vertices <= _EVENT_CHECK_BUDGET
        self.max_dev = 0.0
        self.sample()
        self._next_check = state.t + state.n

    def _fold(self, values) -> None:
        dev = float(np.abs(values - self.target).max())
        if dev > self.max_dev:
            self.max_dev = dev

    def sample(self) -> float:
        """Recompute the conserved quantity, fold in its deviation, and return it."""
        value = compute_invariant(self._state, self._profile, self._wt)
        self._fold(value)
        return value

    def on_round(self, movers, turns, source, target, taken, arrived) -> np.ndarray:
        """Fold in the round's evaluated moves and return their values (every move's if every_move)."""
        first, stop = 0, movers.size
        if not self.every_move:
            # t after a move is its turn + 1
            first = int(np.searchsorted(turns, self._next_check - 1))
            stop = min(first + 1, stop)
            if first < stop:
                self._next_check = int(turns[first]) + 1 + self._state.n
        values = self._rounds(movers, turns, source, target, taken, first, stop)
        if values.size:
            self._fold(values)
        return values

    def finish(self) -> float:
        """Force one last sample and return the worst deviation seen."""
        self.sample()
        return self.max_dev


class RoundMoves(NamedTuple):
    """The moves of one round in turn order, as parallel arrays."""

    t: np.ndarray          # the turn of each move (t before it)
    mover: np.ndarray
    source: np.ndarray     # the vertex the mover left
    target: np.ndarray     # the vertex it reached
    status: np.ndarray     # its status on arrival
    survivors: np.ndarray  # survivors after the move
    invariant: np.ndarray  # the conserved quantity after the move


def _observed_rounds(state: ExperimentState, tracker: InvariantTracker,
                     observer: Callable[[ExperimentState, RoundMoves], None]):
    """A round hook that hands each round's moves, with their invariants, to observer."""
    survivors = state.survivors

    def on_round(movers, turns, source, target, taken, arrived):
        nonlocal survivors
        invariant = tracker.on_round(movers, turns, source, target, taken, arrived)
        left = survivors - np.cumsum(arrived == ParticleStatus.RETURNED)
        survivors = int(left[-1])
        observer(state, RoundMoves(turns, movers, source, target, arrived, left, invariant))

    return on_round


def escape_sweep(
    graph: Graph,
    mechanism: RotorMechanism,
    config: Optional[RotorConfig],
    n_values: Sequence[int],
    *,
    profile: Optional[HarmonicProfile] = None,
    check_invariant: bool = False,
    max_steps: int = DEFAULT_MAX_STEPS,
    observer: Optional[Callable[[ExperimentState, RoundMoves], None]] = None,
) -> EscapeReport:
    """Run the experiment for each n and report escape rates and gaps.

    config None means the min-weight configuration, built from the sweep's
    own weight table.  Every run settles on the round kernel, through
    run_until_settled.  With check_invariant the conserved quantity is
    checked throughout the run (see InvariantTracker) and the worst absolute
    deviation from n*v(origin) is reported.  observer, if given, is called
    once per round with the state and the round's RoundMoves, whose
    invariant holds the conserved quantity after every move; those values
    also feed the reported deviation, which then covers every move.
    """
    if not n_values:
        raise InvalidParameter("n_values must be non-empty")
    if any(n < 1 for n in n_values):
        raise InvalidParameter("all particle counts must be >= 1")
    t0 = time.perf_counter()
    if profile is None:
        profile = solve_harmonic(graph)
    wt = weight_table(graph, mechanism, profile)
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
        on_round = None
        if observer is not None or check_invariant:
            tracker = InvariantTracker(state, profile, wt, every_move=observer is not None)
            on_round = tracker.on_round
            if observer is not None:
                on_round = _observed_rounds(state, tracker, observer)

        run_until_settled(state, max_steps=max_steps, on_round=on_round)
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
        runtime_s=time.perf_counter() - t0,
    )


def srw_escape_mc(
    graph: Graph,
    walks: int,
    seed: int,
    *,
    max_steps: int = DEFAULT_WALK_CAP,
) -> tuple[float, float]:
    """Monte Carlo estimate of the simple-random-walk escape probability.

    Fraction of walks from the origin that reach a sink before returning to
    the origin.  Returns (estimate, standard error).  Walk i draws from
    Philox stream i // 4096.  Walks run on mc_green's step kernel, stopped at
    sinks and at the origin: AbortedMaxSteps only if one outlives max_steps.
    """
    if walks < 1:
        raise InvalidParameter(f"walks must be >= 1, got {walks}")
    stop = graph.is_sink.copy()
    stop[graph.origin] = True

    escaped = 0
    chunk = 4096
    for start in range(0, walks, chunk):
        rng = philox_generator(seed, stream=start // chunk)
        for nxt, _, _ in _walk_steps(graph, min(chunk, walks - start), rng, stop, max_steps):
            escaped += int(np.count_nonzero(graph.is_sink[nxt]))

    p = escaped / walks
    stderr = float(np.sqrt(p * (1.0 - p) / walks))
    return p, stderr


def random_ensemble(
    graph: Graph,
    mechanism: RotorMechanism,
    n: int,
    trials: int,
    seed: int,
    *,
    profile: Optional[HarmonicProfile] = None,
    eps: float = 0.05,
) -> EnsembleSummary:
    """Escape rates of `trials` uniformly random configurations at fixed n."""
    if trials < 1:
        raise InvalidParameter(f"trials must be >= 1, got {trials}")
    if profile is None:
        profile = solve_harmonic(graph)
    alpha = profile.escape_probability

    rates = []
    for k in range(trials):
        cfg = random_config(graph, seed + k)
        state = init_experiment(graph, mechanism, cfg, n)
        run_until_settled(state)
        rates.append(state.survivors / n)

    arr = np.asarray(rates)
    stderr = float(arr.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return EnsembleSummary(
        graph=graph.describe(),
        mechanism=mechanism.describe(),
        n=n,
        trials=trials,
        alpha=alpha,
        rates=rates,
        min_rate=float(arr.min()),
        max_rate=float(arr.max()),
        mean_rate=float(arr.mean()),
        stderr=stderr,
        frac_at_alpha=float(np.mean(np.abs(arr - alpha) <= eps)),
        eps=eps,
    )


def theorem_check(
    graph: Graph,
    mechanism: RotorMechanism,
    n_values: Sequence[int],
    *,
    config: Optional[RotorConfig] = None,
    profile: Optional[HarmonicProfile] = None,
    invariant_tol: float = 1e-8,
    bound_slack: float = 1e-9,
) -> TheoremCheckResult:
    """Verify the guarantees of the minimizing configuration across one sweep.

    Reads a single escape_sweep with invariant checks.  Lower bound: survivors
    never increase during a run, so the settled rate is the minimum of
    survivors/n over every t >= n; one lower-bound violation is recorded per n
    whose settled rate is below escape probability minus bound_slack, at its
    settle time t.  Invariant: the sweep's worst absolute deviation, divided by
    the smallest n's target n*v(origin) (never looser than a per-n scale), must
    stay within invariant_tol; a failure is one violation at the smallest n
    with t = -1.  Across n: final gaps are nonnegative and non-increasing.  A
    custom config exercises the same checks without the guarantees;
    violations are then expected and are recorded rather than raised.
    profile, if given, is the graph's solve, reused instead of solving again.
    """
    profile = solve_harmonic(graph) if profile is None else profile
    rep = escape_sweep(
        graph, mechanism, config, n_values, profile=profile, check_invariant=True
    )
    alpha = rep.alpha
    gaps = rep.gaps
    violations = [
        BoundViolation(n, t, "lower-bound", rate, alpha)
        for n, t, rate in zip(rep.n_values, rep.steps, rep.rates)
        if rate < alpha - bound_slack
    ]
    lower_ok = not violations
    scale = max(1.0, min(n_values) * float(profile.voltage[graph.origin]))
    max_dev = rep.max_invariant_dev / scale
    inv_ok = max_dev <= invariant_tol
    if not inv_ok:
        violations.append(BoundViolation(min(n_values), -1, "invariant", max_dev, invariant_tol))
        logger.warning("conserved quantity deviated beyond %g", invariant_tol)

    gaps_nonneg = all(gp >= -bound_slack for gp in gaps)
    monotone = all(gaps[k + 1] <= gaps[k] + bound_slack for k in range(len(gaps) - 1))
    if not gaps_nonneg:
        for n, gp in zip(n_values, gaps):
            if gp < -bound_slack:
                violations.append(BoundViolation(n, -1, "gap-negative", gp, 0.0))
    if not monotone:
        for k in range(len(gaps) - 1):
            if gaps[k + 1] > gaps[k] + bound_slack:
                violations.append(
                    BoundViolation(n_values[k + 1], -1, "gap-increase", gaps[k + 1], gaps[k])
                )

    return TheoremCheckResult(
        alpha=alpha,
        n_values=rep.n_values,
        rates=rep.rates,
        gaps=gaps,
        max_invariant_dev=max_dev,
        invariant_ok=inv_ok,
        lower_bound_ok=lower_ok,
        gaps_nonneg_ok=gaps_nonneg,
        gaps_monotone_ok=monotone,
        violations=violations,
    )
