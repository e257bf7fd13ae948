"""Concurrent game structures: arenas, games, lassos, strategies, payoffs.

All payoff arithmetic is exact (`fractions.Fraction`); weights are integers
on input.  Every type here is immutable after construction and every
operation is pure, so concurrent evaluation needs no synchronization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

from . import formula
from .formula import Gr1Formula, eval_bool

# A full action profile is a tuple of actions in declared player order.
Profile = tuple[str, ...]
# A lasso step: the state occupied and the decision taken there.
Step = tuple[str, Profile]


class ModelError(ValueError):
    """Raised when a game component violates a structural invariant."""


@dataclass(frozen=True)
class Arena:
    players: tuple[str, ...]
    actions: Mapping[str, tuple[str, ...]]
    states: tuple[str, ...]
    initial: str
    transition: Mapping[tuple[str, Profile], str]
    labels: Mapping[str, frozenset[str]]
    atoms: frozenset[str] = frozenset()
    _index: Mapping[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {p: k for k, p in enumerate(self.players)})
        if not self.players:
            raise ModelError("arena needs at least one player")
        if not self.states:
            raise ModelError("arena needs at least one state")
        if self.initial not in self.states:
            raise ModelError(f"initial state {self.initial!r} not declared")
        for p in self.players:
            if not self.actions.get(p):
                raise ModelError(f"player {p!r} has no actions")
        state_set = set(self.states)
        for s in self.states:
            for prof in self.profiles():
                target = self.transition.get((s, prof))
                if target is None:
                    raise ModelError(f"transition missing for {s!r} under {prof}")
                if target not in state_set:
                    raise ModelError(f"transition target {target!r} not declared")
            extra = self.labels.get(s, frozenset()) - self.atoms
            if extra:
                raise ModelError(f"state {s!r} labelled with undeclared atoms {sorted(extra)}")

    def profiles(self):
        """All full action profiles, in deterministic declared order."""
        return itertools.product(*(self.actions[p] for p in self.players))

    def label(self, state) -> frozenset[str]:
        return self.labels.get(state, frozenset())

    def player_index(self, player) -> int:
        return self._index[player]

    def partial_profiles(self, player):
        """Joint choices of everyone except `player`, in declared order."""
        others = [p for p in self.players if p != player]
        return itertools.product(*(self.actions[p] for p in others))

    def drop_player(self, profile: Profile, player) -> tuple[str, ...]:
        i = self.player_index(player)
        return profile[:i] + profile[i + 1:]

    def combine(self, partial: tuple[str, ...], player, action) -> Profile:
        i = self.player_index(player)
        return partial[:i] + (action,) + partial[i:]


@dataclass(frozen=True)
class Weights:
    """Per-player integer state weights of a mean-payoff game."""

    table: Mapping[str, Mapping[str, int]]  # player -> state -> weight

    def of(self, player, state) -> int:
        return self.table[player][state]


@dataclass(frozen=True)
class Game:
    arena: Arena
    gr1_goals: Optional[Mapping[str, Gr1Formula]] = None
    weights: Optional[Weights] = None

    def __post_init__(self):
        if (self.gr1_goals is None) == (self.weights is None):
            raise ModelError("a game carries either GR(1) goals or weights, not both")
        if self.gr1_goals is not None:
            if set(self.gr1_goals) != set(self.arena.players):
                raise ModelError("every player needs exactly one goal")
            for p, goal in self.gr1_goals.items():
                undeclared = formula.atoms_of(goal) - self.arena.atoms
                if undeclared:
                    raise ModelError(f"goal of {p!r} uses undeclared atoms {sorted(undeclared)}")
        else:
            for p in self.arena.players:
                per_player = self.weights.table.get(p)
                if per_player is None or set(per_player) != set(self.arena.states):
                    raise ModelError(f"weights of {p!r} must cover every state")

    @property
    def is_gr1(self) -> bool:
        return self.gr1_goals is not None

    @property
    def is_mp(self) -> bool:
        return self.weights is not None


@dataclass(frozen=True)
class Lasso:
    """Ultimately periodic path: finite prefix plus a nonempty cycle."""

    prefix: tuple[Step, ...]
    cycle: tuple[Step, ...]

    def __post_init__(self):
        if not self.cycle:
            raise ModelError("lasso cycle must be nonempty")

    @property
    def start(self) -> str:
        return (self.prefix or self.cycle)[0][0]

    def steps(self):
        return self.prefix + self.cycle

    def cycle_states(self) -> frozenset[str]:
        return frozenset(s for s, _ in self.cycle)


def validate_lasso(arena: Arena, lasso: Lasso, start=None) -> None:
    """Check step consistency against the arena's transition function."""
    steps = lasso.steps()
    if start is not None and lasso.start != start:
        raise ModelError(f"lasso starts at {lasso.start!r}, expected {start!r}")
    for k, (s, prof) in enumerate(steps):
        target = arena.transition.get((s, prof))
        if target is None:
            raise ModelError(f"lasso step {k} uses unknown transition ({s!r}, {prof})")
        if k + 1 < len(steps):
            follow = steps[k + 1][0]
        else:
            follow = lasso.cycle[0][0]
        if target != follow:
            raise ModelError(
                f"lasso step {k}: transition leads to {target!r} but lasso continues at {follow!r}")


def canonical(lasso: Lasso) -> Lasso:
    """Rotate the cycle to its lexicographically minimal rotation.

    The skipped entries move to the prefix, so the induced infinite path is
    unchanged; serializations of equal paths found by different searches
    compare equal.
    """
    cycle = lasso.cycle
    best = min(range(len(cycle)), key=lambda k: cycle[k:] + cycle[:k])
    return Lasso(lasso.prefix + cycle[:best], cycle[best:] + cycle[:best])


@dataclass(frozen=True)
class TransducerStrategy:
    """Finite state machine with output realizing one player's strategy."""

    internal_states: tuple
    initial: object
    step: Mapping[tuple, object]        # (internal state, Profile) -> internal state
    output: Mapping[object, str]        # internal state -> own action

    def __post_init__(self):
        if self.initial not in set(self.internal_states):
            raise ModelError("initial internal state not declared")


def constant_strategy(arena: Arena, action) -> TransducerStrategy:
    """Single-state transducer that always plays `action`."""
    step = {("q", prof): "q" for prof in arena.profiles()}
    return TransducerStrategy(("q",), "q", step, {"q": action})


@dataclass(frozen=True)
class StrategyProfile:
    strategies: Mapping[str, TransducerStrategy]


def play(game: Game, profile: StrategyProfile) -> Lasso:
    """Deterministic outcome of the profile from the initial state.

    Steps the joint configuration (arena state, internal state vector) until
    the first repeat; the pigeonhole bound is |St| times the product of the
    internal state counts.
    """
    arena = game.arena
    if set(profile.strategies) != set(arena.players):
        raise ModelError("strategy profile players do not match the game")
    machines = [profile.strategies[p] for p in arena.players]
    state = arena.initial
    internals = tuple(m.initial for m in machines)
    seen: dict = {}
    entries: list[Step] = []
    while True:
        config = (state, internals)
        if config in seen:
            split = seen[config]
            return Lasso(tuple(entries[:split]), tuple(entries[split:]))
        seen[config] = len(entries)
        decision = tuple(m.output[q] for m, q in zip(machines, internals))
        entries.append((state, decision))
        state = arena.transition[(state, decision)]
        internals = tuple(m.step[(q, decision)] for m, q in zip(machines, internals))


def mp_payoff(lasso: Lasso, weights: Weights, player) -> Fraction:
    """Mean payoff of the lasso: the cycle average of the player's weights.

    For an ultimately periodic weight sequence the liminf of running averages
    equals the cycle average, so the prefix never matters.
    """
    total = sum(weights.of(player, s) for s, _ in lasso.cycle)
    return Fraction(total, len(lasso.cycle))


def gr1_payoff(arena: Arena, lasso: Lasso, goal: Gr1Formula) -> int:
    """1 iff the lasso's label word satisfies the GF-implication goal.

    Infinitely-often over an ultimately periodic word reduces to existence
    within the cycle.
    """
    cycle_labels = [arena.label(s) for s, _ in lasso.cycle]
    antecedent = all(
        any(eval_bool(term, lab) for lab in cycle_labels) for term in goal.antecedents)
    if not antecedent:
        return 1
    consequent = all(
        any(eval_bool(term, lab) for lab in cycle_labels) for term in goal.consequents)
    return 1 if consequent else 0


def winners_losers(game: Game, lasso: Lasso) -> tuple[frozenset, frozenset]:
    """Partition players into goal-satisfied and goal-violated over the lasso."""
    if not game.is_gr1:
        raise ModelError("winners/losers are defined for GR(1) games only")
    winners = frozenset(
        p for p in game.arena.players if gr1_payoff(game.arena, lasso, game.gr1_goals[p]))
    losers = frozenset(game.arena.players) - winners
    return winners, losers
