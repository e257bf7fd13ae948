"""Query drivers: existential / universal equilibrium checking, equilibrium
existence, and synthesis of witnessing strategy profiles.

For goal games the existential driver builds one Streett product per query
whose nodes carry the set of players exposed so far (see `lasso_search`):
every exposed player must win, so a run of the product is an equilibrium
outcome.  For weight games it enumerates threshold vectors in a fixed
deterministic order, restricts the arena so every on-path step is
deviation-proof for the candidate, and searches the restriction for a
witness lasso, stopping at the first vector whose search succeeds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from . import buchi, lp
from . import punish_gr1 as pg
from . import punish_mp as pm
from .formula import (
    Formula, Gr1Formula, GR1_TRUE, atoms_of, gr1_to_ltl, lasso_satisfies,
    negate_to_ltl, nnf, to_str,
)
from .lasso_search import (
    build_streett_product, project_lasso, restrict_gr1, restrict_mp,
    streett_nonempty,
)
from .lp import WitnessGapError
from .model import (
    Game, Lasso, StrategyProfile, TransducerStrategy, canonical, gr1_payoff,
    mp_payoff, validate_lasso, winners_losers,
)


@dataclass(frozen=True)
class Specification:
    kind: str            # "gr1" | "ltl"
    gr1: Optional[Gr1Formula] = None
    ltl: Optional[Formula] = None

    def __post_init__(self):
        if self.kind not in ("gr1", "ltl"):
            raise ValueError(f"unknown specification kind {self.kind!r}")
        if (self.kind == "gr1") != (self.gr1 is not None):
            raise ValueError("gr1 specification needs a gr1 payload")
        if (self.kind == "ltl") != (self.ltl is not None):
            raise ValueError("ltl specification needs an ltl payload")

    @staticmethod
    def of_gr1(g: Gr1Formula) -> "Specification":
        return Specification(kind="gr1", gr1=g)

    @staticmethod
    def of_ltl(f: Formula) -> "Specification":
        return Specification(kind="ltl", ltl=f)

    def as_ltl(self) -> Formula:
        return self.ltl if self.kind == "ltl" else gr1_to_ltl(self.gr1)

    def atoms(self) -> frozenset[str]:
        return atoms_of(self.gr1 if self.kind == "gr1" else self.ltl)

    def text(self) -> str:
        return to_str(self.gr1 if self.kind == "gr1" else self.ltl)


TAUTOLOGY = Specification.of_gr1(GR1_TRUE)


@dataclass(frozen=True)
class Witness:
    lasso: Optional[Lasso]
    kind: str                                  # "gr1" | "mp"
    winners: tuple = ()
    losers: tuple = ()
    # goal games: the players exposed on the cycle, each of whom wins there
    candidate_winners: Optional[tuple] = None
    candidate_z: Optional[Mapping[str, Fraction]] = None
    payoffs: Mapping[str, Fraction] = None
    punish_regions: Mapping[str, pg.PunishResult] = None
    punish_values: Mapping[str, pm.PunishValues] = None
    witness_gap: bool = False


@dataclass(frozen=True)
class Verdict:
    answer: bool
    witness: Optional[Witness]
    diagnostics: Mapping[str, object]


def _check_spec(game: Game, spec: Specification):
    undeclared = spec.atoms() - game.arena.atoms
    if undeclared:
        raise ValueError(f"specification uses undeclared atoms {sorted(undeclared)}")


# ---------------------------------------------------------------------------
# Existential checking, goal games
# ---------------------------------------------------------------------------

def e_nash_gr1(game: Game, spec: Specification) -> Verdict:
    """Does some equilibrium run of the goal game satisfy the specification?

    A run is an equilibrium outcome iff every player wins on it or takes
    only punishing-secure steps, so one Streett product over the exposure
    arena decides the query.  The diagnostics count the product's nodes and
    the distinct exposed sets among them.
    """
    if not game.is_gr1:
        raise ValueError("e_nash_gr1 needs a GR(1) game")
    _check_spec(game, spec)
    players = game.arena.players
    punish = {j: pg.punish_region(game, j) for j in players}
    aut = buchi.translate(nnf(spec.ltl)) if spec.kind == "ltl" else None
    objectives = [spec.gr1] if spec.kind == "gr1" else []
    product = build_streett_product(restrict_gr1(game, punish), objectives, aut)
    found = streett_nonempty(product)

    diagnostics = {"product_nodes": len(product.nodes),
                   "exposure_sets": len({n[3] for n in product.nodes})}
    if found is None:
        return Verdict(False, None, diagnostics)
    prefix, cycle = found
    exposed = cycle[0][0][3]   # constant on the cycle's component
    lasso = project_lasso(prefix, cycle)
    actual_win, actual_lose = winners_losers(game, lasso)
    witness = Witness(
        lasso=canonical(lasso),
        kind="gr1",
        winners=tuple(p for p in players if p in actual_win),
        losers=tuple(p for p in players if p in actual_lose),
        candidate_winners=tuple(
            p for k, p in enumerate(players) if exposed >> k & 1),
        payoffs={p: Fraction(1 if p in actual_win else 0) for p in players},
        punish_regions=punish,
    )
    return Verdict(True, witness, diagnostics)


# ---------------------------------------------------------------------------
# Existential checking, weight games
# ---------------------------------------------------------------------------

def _mp_candidates(game, punish):
    """Threshold vectors over per-player punishment values, componentwise
    descending."""
    per_player = []
    for i in game.arena.players:
        per_player.append(sorted(set(punish[i].values.values()), reverse=True))
    return [dict(zip(game.arena.players, combo))
            for combo in itertools.product(*per_player)]


def _mp_candidate(game, payload, punish, z, extra_dims, floor):
    """Search the restriction for threshold vector `z`; `payload` is the
    specification as `lp.mp_lasso_search` takes it (GR(1) formula or
    automaton)."""
    ra = restrict_mp(game, z, punish)
    shifts = {i: max(z[i], floor[i]) if floor else z[i]
              for i in game.arena.players}
    return lp.mp_lasso_search(ra, game.weights, shifts, payload,
                              extra_dims=extra_dims)


def e_nash_mp(game: Game, spec: Specification) -> Verdict:
    """Does some equilibrium run of the weight game satisfy the
    specification?"""
    if not game.is_mp:
        raise ValueError("e_nash_mp needs a mean-payoff game")
    punish = {i: pm.punish_values(game, i) for i in game.arena.players}
    return _e_nash_mp(game, spec, punish)


def _e_nash_mp(game, spec, punish, extra_dims=(), floor=None) -> Verdict:
    """`e_nash_mp` over the players' punishment values `punish`, which
    depend on the game alone, so one welfare query computes them once.

    `extra_dims` appends (state weight map, threshold) cycle-average
    constraints; `floor` lifts the per-player payoff requirement above the
    deviation threshold (used by welfare queries).  Neither affects which
    deviations are deterring.
    """
    _check_spec(game, spec)
    players = game.arena.players
    candidates = _mp_candidates(game, punish)
    payload = spec.gr1 if spec.kind == "gr1" else buchi.translate(nnf(spec.ltl))

    hit = None
    examined = 0
    for z in candidates:
        examined += 1
        result = _mp_candidate(game, payload, punish, z, extra_dims, floor)
        if result.feasible:
            hit = (z, result)
            break

    diagnostics = {"candidates_examined": examined,
                   "candidates_total": len(candidates)}
    if hit is None:
        return Verdict(False, None, diagnostics)
    z, result = hit
    lasso = canonical(result.lasso) if result.lasso is not None else None
    payoffs = None
    if lasso is not None:
        payoffs = {i: mp_payoff(lasso, game.weights, i) for i in players}
    witness = Witness(
        lasso=lasso,
        kind="mp",
        candidate_z=dict(z),
        payoffs=payoffs,
        punish_values=punish,
        witness_gap=result.witness_gap,
    )
    return Verdict(True, witness, diagnostics)


# ---------------------------------------------------------------------------
# Dual and special queries
# ---------------------------------------------------------------------------

def e_nash(game: Game, spec: Specification) -> Verdict:
    if game.is_gr1:
        return e_nash_gr1(game, spec)
    return e_nash_mp(game, spec)


def a_nash(game: Game, spec: Specification) -> Verdict:
    """Is the specification satisfied on every equilibrium run?

    Decided as the complement of the existential query on the negated
    specification; a yes-witness there is a counterexample equilibrium.
    """
    negated = Specification.of_ltl(negate_to_ltl(spec.as_ltl()))
    inner = e_nash(game, negated)
    diagnostics = dict(inner.diagnostics)
    diagnostics["negated_specification"] = negated.text()
    return Verdict(not inner.answer, inner.witness, diagnostics)


def non_emptiness(game: Game) -> Verdict:
    """Does the game have any equilibrium at all?  The existential query
    against a tautology, using the fast structural path."""
    return e_nash(game, TAUTOLOGY)


# ---------------------------------------------------------------------------
# Strategy synthesis from witnesses
# ---------------------------------------------------------------------------

_CONFORM = "*"     # flag value while nobody has deviated
_PUNISHING = -1    # lasso position of every state once a deviator is flagged


def synthesize_profile(game: Game, witness: Witness) -> StrategyProfile:
    """Equilibrium transducers realizing the witness lasso.

    The machines replay the lasso while everyone conforms; a unilateral
    deviation by a flaggable player (a loser of a goal game, anyone in a
    weight game) locks the flag on that player and switches every output to
    its punishment strategy -- replayed per step on the counter product for
    goal games, per state for weight games.  Simultaneous deviations and
    deviations by non-flaggable players keep the conforming flag.

    An internal state is (lasso position, arena state, flag, counters):

    - conforming (flag `*`): the position on the lasso, whose action is the
      output; the arena state, which a later flagged deviation hands on to
      the punishment; counters zero.  With nobody flaggable no deviation is
      ever flagged, so the arena state is never read and the state carries
      the lasso's own state at that position instead;
    - punishing (flag a player): position `_PUNISHING`, since neither output
      nor step reads the lasso once punishing; the arena state and, for goal
      games, the flagged player's counters, which pick the coalition action.

    The machines are therefore the exact quotient of the ones that track
    every field everywhere: states merged here differ only in fields that no
    output and no step reads, so every history gets the same output.  The
    step function does not depend on the player, so one exploration and one
    step table serve every machine; only the outputs differ.
    """
    if witness.lasso is None or witness.witness_gap:
        raise WitnessGapError(
            "witness carries no realizable lasso; cannot synthesize strategies")
    arena = game.arena
    players = arena.players
    lasso = witness.lasso
    steps = lasso.steps()
    period_start = len(lasso.prefix)
    length = len(steps)
    actions_at = [prof for _, prof in steps]

    if witness.kind == "gr1":
        flaggable = set(witness.losers)
        coalition = {
            j: witness.punish_regions[j].coalition_strategy for j in flaggable}
        goals = {j: witness.punish_regions[j].goal for j in flaggable}
    else:
        flaggable = set(players)
        coalition = {
            j: witness.punish_values[j].coalition_strategy for j in flaggable}
        goals = {}

    def tstep(t):
        return t + 1 if t + 1 < length else period_start

    def advance(q, profile):
        t, s, flag, c1, c2 = q
        if flag != _CONFORM:
            if flag in goals:
                c1, c2 = pg.advance_counters(goals[flag], arena.label(s), c1, c2)
            return (_PUNISHING, arena.transition[(s, profile)], flag, c1, c2)
        u = tstep(t)
        if not flaggable:
            return (u, steps[u][0], _CONFORM, 0, 0)
        target = arena.transition[(s, profile)]
        if profile != actions_at[t]:
            diffs = [p for p, x, y in zip(players, profile, actions_at[t])
                     if x != y]
            if len(diffs) == 1 and diffs[0] in flaggable:
                return (_PUNISHING, target, diffs[0], 0, 0)
        return (u, target, _CONFORM, 0, 0)

    profiles = tuple(arena.profiles())
    q0 = (0, steps[0][0], _CONFORM, 0, 0)
    table = {}
    frontier = [q0]
    seen = {q0}
    while frontier:
        q = frontier.pop()
        for prof in profiles:
            nxt = advance(q, prof)
            table[(q, prof)] = nxt
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    states = tuple(sorted(seen))

    # the coalition's joint action omits the flagged player
    slot = {(j, i): k for j in flaggable
            for k, i in enumerate(p for p in players if p != j)}

    def output_of(q, own, player):
        t, s, flag, c1, c2 = q
        if flag == _CONFORM:
            return actions_at[t][own]
        if flag != player:
            partial = coalition[flag].get(
                (s, c1, c2) if witness.kind == "gr1" else s)
            if partial is not None:
                return partial[slot[(flag, player)]]
        return arena.actions[player][0]  # never on-path

    strategies = {}
    for own, i in enumerate(players):
        strategies[i] = TransducerStrategy(
            internal_states=states,
            initial=q0,
            step=table,
            output={q: output_of(q, own, i) for q in states},
        )
    return StrategyProfile(strategies)


# ---------------------------------------------------------------------------
# Witness re-validation
# ---------------------------------------------------------------------------

def validate_witness(game: Game, spec: Specification, verdict: Verdict) -> None:
    """Re-check the equilibrium-characterization conditions on an emitted
    witness; raises ValueError on any failure."""
    if not verdict.answer:
        return
    witness = verdict.witness
    if witness.lasso is None:
        if not witness.witness_gap:
            raise ValueError("yes verdict without lasso must be flagged as a gap")
        return
    lasso = witness.lasso
    arena = game.arena
    validate_lasso(arena, lasso, arena.initial)
    labels = {s: arena.label(s) for s in arena.states}
    if not lasso_satisfies(spec.as_ltl(), lasso, labels):
        raise ValueError("witness lasso does not satisfy the specification")
    pairs = list(lasso.steps())
    if witness.kind == "gr1":
        actual_win, actual_lose = winners_losers(game, lasso)
        if set(witness.winners) != actual_win or set(witness.losers) != actual_lose:
            raise ValueError("recorded winner partition is wrong")
        for j in actual_lose:
            region = witness.punish_regions[j].region
            for s, prof in pairs:
                if not pg.punishing_secure(arena, s, prof, j, region):
                    raise ValueError(
                        f"step ({s}, {prof}) is not punishing-secure for loser {j}")
        for i in actual_win:
            if not gr1_payoff(arena, lasso, game.gr1_goals[i]):
                raise ValueError(f"claimed winner {i} does not win")
    else:
        z = witness.candidate_z
        for i in arena.players:
            values = witness.punish_values[i]
            for s, prof in pairs:
                if not pm.z_secure(arena, s, prof, i, z[i], values):
                    raise ValueError(
                        f"step ({s}, {prof}) is not deviation-proof for {i}")
            if mp_payoff(lasso, game.weights, i) < z[i]:
                raise ValueError(f"payoff of {i} falls below its threshold")
