"""Correctness gate for benchmark queries, run untimed after each query.

Every check reports problems as strings; a query with any problem counts
as failed.  The gate:

* `engine.validate_witness` on every witness (for a-nash, the
  counterexample against the negated specification);
* replaying the synthesized profile with `model.play` and comparing the
  infinite path it produces with the witness lasso, position by position;
* the welfare of each welfare witness lasso against the threshold, and for
  welfare optima a threshold query at the reported value;
* the brute-force oracle on the first `ORACLE_QUERIES` corpus entries with
  at most 16 arena edges, and on every entry of a workload's gate-only
  oracle set, within a search budget (instances beyond it are counted, not
  checked).  These checks are deferred to `oracle_pass()`, which runs once
  after the timed phase, so the oracle's memory never shows in the peak
  RSS of the queries;
* answers pinned per seed in `pinned.json`, a regression reference only.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

PINNED = Path(__file__).resolve().parent / "pinned.json"
ORACLE_EDGE_LIMIT = 16
# only the first corpus entries go to the oracle, which takes up to a second
# per instance: checking every query of a run would double its length
ORACLE_QUERIES = 30
# Fourier-Motzkin rows the oracle may build and, on GR(1) games, coalition
# assignments it may try before it gives up on an instance; its defaults
# (50000 rows, 32768 assignments) let one 16-edge mean-payoff game take 85 s
# and 1 GB, and one 12-edge GR(1) game 22 s.  On mean-payoff games the
# assignment limit bounds the memoryless strategy spaces instead, and keeps
# its default.
ORACLE_FM_ROWS = 2000
ORACLE_ASSIGNMENTS = 2048


def load_pins(workload, seed) -> str:
    return json.loads(PINNED.read_text(encoding="utf-8")).get(
        workload, {}).get(str(seed), "")


def same_path(a, b) -> bool:
    """Do two lassos unroll to the same infinite sequence of steps?  Two
    ultimately periodic sequences agree everywhere once they agree on the
    longer prefix plus one common period."""
    n = max(len(a.prefix), len(b.prefix)) + math.lcm(len(a.cycle), len(b.cycle))

    def unroll(lasso):
        steps = list(lasso.prefix)
        while len(steps) < n:
            steps.extend(lasso.cycle)
        return steps[:n]

    return unroll(a) == unroll(b)


def _negated(spec):
    from eqcheck import engine
    from eqcheck.formula import negate_to_ltl
    return engine.Specification.of_ltl(negate_to_ltl(spec.as_ltl()))


def _oracle_fits(query, game) -> bool:
    arena = game.arena
    edges = len(arena.states) * math.prod(len(arena.actions[p]) for p in arena.players)
    return query.kind in ("e-nash", "a-nash", "non-emptiness") \
        and edges <= ORACLE_EDGE_LIMIT


class Gate:
    """Checks one corpus.  A query that runs again (a second pass over the
    same corpus entry) must repeat its first answer.  `pins` are the pinned
    answers; the first `oracle_entries` entries that fit the oracle are
    queued for `oracle_pass()`."""

    def __init__(self, pins="", oracle_entries=ORACLE_QUERIES):
        self.pins = pins
        self.oracle_entries = oracle_entries
        self.oracle_checked = 0
        self.oracle_skipped = 0
        self.first = {}
        self.deferred = []  # (index, query, game, spec, answer)

    def check(self, index, query, game, spec, outcome) -> list:
        if outcome.error is not None:
            return [f"raised {outcome.error}"]
        code = "y" if outcome.answer else "n"
        if index in self.first:
            if self.first[index] != code:
                return [f"answer {code!r} differs from the first run's {self.first[index]!r}"]
            return []
        self.first[index] = code
        problems = []
        try:
            problems += self._witness(query, game, spec, outcome)
            problems += self._welfare(query, game, spec, outcome)
        except Exception as e:  # a crashing check is a failed check
            problems.append(f"check raised {type(e).__name__}: {e}")
        if index < len(self.pins) and self.pins[index] != code:
            problems.append(f"pinned answer {self.pins[index]!r}, got {code!r}")
        if index < self.oracle_entries and _oracle_fits(query, game):
            self.deferred.append((index, query, game, spec, outcome.answer))
        return problems

    def oracle_pass(self) -> dict:
        """The oracle's verdict on every queued entry: corpus index ->
        problems, for the entries that disagree or whose check raised."""
        failures = {}
        for index, query, game, spec, answer in self.deferred:
            try:
                problems = self._against_oracle(query, game, spec, answer)
            except Exception as e:  # a crashing check is a failed check
                problems = [f"oracle check raised {type(e).__name__}: {e}"]
            if problems:
                failures[index] = problems
        self.deferred = []
        return failures

    def _witness(self, query, game, spec, outcome):
        from eqcheck import engine, model

        verdict, witness = outcome.verdict, outcome.witness
        if witness is None:
            return []
        problems = []
        if query.kind == "a-nash":
            inner = engine.Verdict(True, witness, verdict.diagnostics)
            target = _negated(spec)
        else:
            inner, target = verdict, spec
        try:
            engine.validate_witness(game, target, inner)
        except ValueError as e:
            problems.append(f"validate_witness: {e}")
        if outcome.profile is not None:
            played = model.play(game, outcome.profile)
            if not same_path(played, witness.lasso):
                problems.append("replayed profile leaves the witness lasso")
        if outcome.document is not None:
            doc = outcome.document[0]
            if doc["answer"] != ("yes" if verdict.answer else "no"):
                problems.append("witness document disagrees with the verdict")
        return problems

    def _welfare(self, query, game, spec, outcome):
        from eqcheck import cli, welfare

        if query.kind == "welfare":
            lasso = outcome.witness.lasso if outcome.witness else None
            if not outcome.answer or lasso is None:
                return []
            return _meets(query.measure, query.direction,
                          cli.parse_fraction(query.threshold), lasso, game)
        if query.kind != "welfare-opt" or outcome.optimum is None:
            return []
        value = outcome.optimum.value
        direction = "ge" if query.mode == "max" else "le"
        verdict = welfare.welfare_threshold(game, welfare.WelfareQuery(
            measure=query.measure, direction=direction, threshold=value,
            spec=spec))
        if not verdict.answer:
            return [f"no equilibrium reaches the reported optimum {value}"]
        lasso = verdict.witness.lasso if verdict.witness else None
        if lasso is None:
            return []
        return _meets(query.measure, direction, value, lasso, game)

    def _against_oracle(self, query, game, spec, answer):
        from eqcheck import oracle
        from eqcheck.formula import GR1_TRUE

        if query.kind == "non-emptiness":
            payload = GR1_TRUE
        elif query.kind == "a-nash":
            payload = _negated(spec).ltl
        else:
            payload = spec.gr1 if spec.kind == "gr1" else spec.ltl
        config = oracle.OracleConfig(fm_row_limit=ORACLE_FM_ROWS)
        if game.is_gr1:
            config = oracle.OracleConfig(fm_row_limit=ORACLE_FM_ROWS,
                                         strategy_tree_limit=ORACLE_ASSIGNMENTS)
        try:
            expected = oracle.brute_e_nash(game, payload, config)
        except (oracle.SizeLimitError, oracle.UnsupportedSpecError):
            self.oracle_skipped += 1
            return []
        self.oracle_checked += 1
        if query.kind == "a-nash":
            expected = not expected
        if expected != answer:
            return [f"oracle says {expected}, engine says {answer}"]
        return []


def _meets(measure, direction, threshold, lasso, game):
    from eqcheck import welfare

    value = (welfare.usw if measure == "usw" else welfare.esw)(lasso, game.weights)
    ok = value >= threshold if direction == "ge" else value <= threshold
    if ok:
        return []
    return [f"{measure} of the witness is {value}, threshold {direction} {threshold}"]
