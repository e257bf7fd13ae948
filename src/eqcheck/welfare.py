"""Social-welfare queries over equilibria of weight games.

Thresholds ride on the existential driver: the utilitarian sum becomes one
extra cycle-average dimension (the per-state sum of all players' weights,
shifted by the threshold), and the egalitarian minimum either lifts every
player's payoff floor (lower bounds) or forces one player's average under
the threshold, one disjunct per player (upper bounds).  The aggregate
dimension carries no deviation constraints of its own: it never influences
transitions, so no player can move it unilaterally.

Optima are bracketed by bisection on threshold queries; the bracket width
halves exactly each round, reaching tolerance eps after
ceil(log2((b - a) / eps)) threshold calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import punish_mp as pm
from .engine import Specification, Verdict, _e_nash_mp, e_nash_mp
from .model import Game, Lasso, Weights, mp_payoff


class NoEquilibriumError(ValueError):
    """Optimization is meaningless when no equilibrium satisfies the spec."""


def usw(lasso: Lasso, weights: Weights) -> Fraction:
    """Utilitarian social welfare: sum of the players' cycle averages."""
    return sum((mp_payoff(lasso, weights, p) for p in weights.table), Fraction(0))


def esw(lasso: Lasso, weights: Weights) -> Fraction:
    """Egalitarian social welfare: the worst-off player's cycle average."""
    return min(mp_payoff(lasso, weights, p) for p in weights.table)


@dataclass(frozen=True)
class WelfareQuery:
    measure: str      # "usw" | "esw"
    direction: str    # "ge" | "le"
    threshold: Fraction
    spec: Specification

    def __post_init__(self):
        if self.measure not in ("usw", "esw"):
            raise ValueError(f"unknown welfare measure {self.measure!r}")
        if self.direction not in ("ge", "le"):
            raise ValueError(f"unknown direction {self.direction!r}")


@dataclass(frozen=True)
class WelfareBounds:
    lo: Fraction
    hi: Fraction


def welfare_bounds(game: Game, measure: str) -> WelfareBounds:
    """Achievable range: sums of per-player extremes for the utilitarian
    measure, the worst player's extremes for the egalitarian one."""
    arena = game.arena
    mins = {i: min(game.weights.of(i, s) for s in arena.states) for i in arena.players}
    maxs = {i: max(game.weights.of(i, s) for s in arena.states) for i in arena.players}
    if measure == "usw":
        return WelfareBounds(Fraction(sum(mins.values())), Fraction(sum(maxs.values())))
    return WelfareBounds(Fraction(min(mins.values())), Fraction(min(maxs.values())))


def _sum_weights(game: Game) -> dict:
    return {
        s: sum(game.weights.of(i, s) for i in game.arena.players)
        for s in game.arena.states
    }


def welfare_threshold(game: Game, query: WelfareQuery) -> Verdict:
    """Is there an equilibrium run satisfying the spec whose welfare clears
    the threshold?  Thresholds outside the achievable range short-circuit."""
    if not game.is_mp:
        raise ValueError("welfare queries need a mean-payoff game")
    return _threshold(game, query)


def _threshold(game: Game, query: WelfareQuery, punish=None) -> Verdict:
    """`welfare_threshold`; the players' punishment values `punish` are
    computed here unless the caller already has them."""
    t = Fraction(query.threshold)
    bounds = welfare_bounds(game, query.measure)
    if query.direction == "ge" and t > bounds.hi:
        return Verdict(False, None, {"bound_shortcut": "above-max"})
    if query.direction == "le" and t < bounds.lo:
        return Verdict(False, None, {"bound_shortcut": "below-min"})
    if punish is None:
        punish = {i: pm.punish_values(game, i) for i in game.arena.players}

    def nash(extra_dims=(), floor=None):
        return _e_nash_mp(game, query.spec, punish, extra_dims, floor)

    if (query.direction == "ge" and t <= bounds.lo
            or query.direction == "le" and t >= bounds.hi):
        return nash()

    if query.measure == "usw":
        sums = _sum_weights(game)
        if query.direction == "ge":
            extra = ({s: Fraction(v) for s, v in sums.items()}, t)
        else:
            extra = ({s: Fraction(-v) for s, v in sums.items()}, -t)
        return nash(extra_dims=(extra,))

    if query.direction == "ge":
        return nash(floor={i: t for i in game.arena.players})

    # egalitarian upper bound: some player's average must stay under t
    examined = 0
    for designated in game.arena.players:
        weights_d = {s: Fraction(-game.weights.of(designated, s))
                     for s in game.arena.states}
        verdict = nash(extra_dims=((weights_d, -t),))
        examined += verdict.diagnostics.get("candidates_examined", 0)
        if verdict.answer:
            diagnostics = dict(verdict.diagnostics)
            diagnostics["candidates_examined"] = examined
            diagnostics["designated_player"] = designated
            return Verdict(True, verdict.witness, diagnostics)
    return Verdict(False, None, {"candidates_examined": examined})


@dataclass(frozen=True)
class WelfareOptimum:
    value: Fraction
    iterations: int
    bracket: tuple[Fraction, Fraction]


def approx_opt_welfare(game: Game, spec: Specification, measure: str,
                       mode: str, eps) -> Fraction:
    """A value within eps of the best (mode max) or worst (mode min)
    welfare over equilibria satisfying the spec."""
    return approx_opt_welfare_trace(game, spec, measure, mode, eps).value


def approx_opt_welfare_trace(game: Game, spec: Specification, measure: str,
                             mode: str, eps) -> WelfareOptimum:
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("tolerance must be positive")
    if mode not in ("max", "min"):
        raise ValueError(f"unknown mode {mode!r}")
    exists = e_nash_mp(game, spec)
    if not exists.answer:
        raise NoEquilibriumError("no equilibrium satisfies the specification")
    punish = exists.witness.punish_values
    bounds = welfare_bounds(game, measure)
    lo, hi = bounds.lo, bounds.hi
    direction = "ge" if mode == "max" else "le"
    rounds = 0
    while hi - lo > eps:
        rounds += 1
        mid = (lo + hi) / 2
        query = WelfareQuery(measure=measure, direction=direction,
                             threshold=mid, spec=spec)
        answer = _threshold(game, query, punish).answer
        if mode == "max":
            # keep the highest threshold known achievable in lo
            if answer:
                lo = mid
            else:
                hi = mid
        else:
            # keep the lowest threshold known achievable in hi
            if answer:
                hi = mid
            else:
                lo = mid
    value = lo if mode == "max" else hi
    return WelfareOptimum(value, rounds, (lo, hi))
