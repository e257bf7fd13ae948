"""Command-line front end: game files, query dispatch, witness documents.

Game files are line-oriented statements ending in `;` with `#` comments:

    players: p1 p2;
    states: s0 s1;
    initial: s0;
    atoms: p q;
    actions p1: a b;
    label s0: p q;          # omitted label lines mean an empty label set
    tr s0 (a, b) -> s1;     # one line per (state, action profile)
    weight p1 s0 = 2;       # mean-payoff games; omitted pairs default to 0
    goal p1: (GF p) -> (GF q);   # GR(1) games

Exit codes: 0 the query holds, 1 it does not, 2 usage or parse errors,
3 a witness was demanded but only a verdict exists (a witness gap).

`--witness` writes an `eqcheck-witness-2` document (`witness_schema.json`):
the answer, the candidate (`exposed` players of a goal game, or the
threshold vector `z` of a weight game), winners, losers, payoffs, the
lasso as `prefix` and `cycle` steps `{"state", "actions"}`, the witness-gap
flag and the verdict's diagnostics as plain JSON values.  With
`--synthesize`, `transducers` is one shared machine table for the whole
profile:

    profiles  the arena's action profiles, in `Arena.profiles()` order,
              each an object from player to action;
    states    the `repr` of each internal state;
    initial   an index into `states`;
    step      one row per state, one target index per profile;
    output    player -> the player's action in each state, by index.

Rationals are written INT or INT/INT everywhere, including in witness
documents, so exactness survives serialization.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import engine, welfare
from .formula import ParseError, ShapeError, parse_gr1, parse_ltl, to_gr1
from .lp import WitnessGapError
from .model import Arena, Game, ModelError, Weights, canonical


class GameFileError(ValueError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _statements(text):
    """Yield (line number, statement) pairs; `#` starts a comment."""
    buffer = []
    start_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for ch in line:
            if not buffer and ch.isspace():
                continue
            if start_line is None and not ch.isspace():
                start_line = lineno
            if ch == ";":
                yield start_line or lineno, "".join(buffer).strip()
                buffer = []
                start_line = None
            else:
                buffer.append(ch)
    if "".join(buffer).strip():
        raise GameFileError("unterminated statement (missing ';')", start_line)


_STMT_RES = {
    "players": re.compile(r"players\s*:\s*(.+)"),
    "states": re.compile(r"states\s*:\s*(.+)"),
    "initial": re.compile(r"initial\s*:\s*(\S+)"),
    "atoms": re.compile(r"atoms\s*:\s*(.*)"),
    "actions": re.compile(r"actions\s+(\S+)\s*:\s*(.+)"),
    "label": re.compile(r"label\s+(\S+)\s*:\s*(.*)"),
    "tr": re.compile(r"tr\s+(\S+)\s*\(([^)]*)\)\s*->\s*(\S+)"),
    "weight": re.compile(r"weight\s+(\S+)\s+(\S+)\s*=\s*(-?\d+)"),
    "goal": re.compile(r"goal\s+(\S+)\s*:\s*(.+)"),
}


def parse_game_text(text) -> Game:
    players = states = initial = None
    atoms = None
    actions = {}
    labels = {}
    transitions = {}
    weight_rows = {}
    goal_rows = {}

    for line, stmt in _statements(text):
        kind = stmt.split(None, 1)[0].rstrip(":")
        matcher = _STMT_RES.get(kind)
        m = matcher.fullmatch(stmt) if matcher else None
        if m is None:
            raise GameFileError(f"cannot parse statement {stmt!r}", line)
        if kind == "players":
            if players is not None:
                raise GameFileError("duplicate players declaration", line)
            players = tuple(m.group(1).split())
        elif kind == "states":
            if states is not None:
                raise GameFileError("duplicate states declaration", line)
            states = tuple(m.group(1).split())
        elif kind == "initial":
            if initial is not None:
                raise GameFileError("duplicate initial declaration", line)
            initial = m.group(1)
        elif kind == "atoms":
            if atoms is not None:
                raise GameFileError("duplicate atoms declaration", line)
            atoms = frozenset(m.group(1).split())
        elif kind == "actions":
            player = m.group(1)
            if player in actions:
                raise GameFileError(f"duplicate actions for {player!r}", line)
            actions[player] = tuple(m.group(2).split())
        elif kind == "label":
            state = m.group(1)
            if state in labels:
                raise GameFileError(f"duplicate label for {state!r}", line)
            labels[state] = frozenset(m.group(2).split())
        elif kind == "tr":
            state = m.group(1)
            profile = tuple(a.strip() for a in m.group(2).split(","))
            if (state, profile) in transitions:
                raise GameFileError(
                    f"duplicate transition for {state!r} under {profile}", line)
            transitions[(state, profile)] = m.group(3)
        elif kind == "weight":
            key = (m.group(1), m.group(2))
            if key in weight_rows:
                raise GameFileError(f"duplicate weight for {key}", line)
            weight_rows[key] = int(m.group(3))
        elif kind == "goal":
            player = m.group(1)
            if player in goal_rows:
                raise GameFileError(f"duplicate goal for {player!r}", line)
            goal_rows[player] = (line, m.group(2))

    for name, value in (("players", players), ("states", states),
                        ("initial", initial)):
        if value is None:
            raise GameFileError(f"missing {name} declaration")
    atoms = atoms if atoms is not None else frozenset()
    for p in players:
        if p not in actions:
            raise GameFileError(f"missing actions for player {p!r}")
    for p in actions:
        if p not in players:
            raise GameFileError(f"actions for undeclared player {p!r}")
    for s in labels:
        if s not in states:
            raise GameFileError(f"label for undeclared state {s!r}")
    if goal_rows and weight_rows:
        raise GameFileError("game mixes goal and weight rows; pick one kind")
    if not goal_rows and not weight_rows:
        raise GameFileError("game declares neither goals nor weights")

    import itertools
    state_set = set(states)
    for s in states:
        for prof in itertools.product(*(actions[p] for p in players)):
            if (s, prof) not in transitions:
                raise GameFileError(f"missing transition for {s!r} under {prof}")
    for (s, prof), t in transitions.items():
        if s not in state_set or t not in state_set:
            raise GameFileError(f"transition {s!r} -> {t!r} uses undeclared states")
        for p, a in zip(players, prof):
            if a not in actions[p]:
                raise GameFileError(
                    f"transition at {s!r} uses undeclared action {a!r} of {p!r}")
        if len(prof) != len(players):
            raise GameFileError(f"transition at {s!r} has a wrong-size profile")

    arena = Arena(players=players, actions=actions, states=states,
                  initial=initial, transition=transitions,
                  labels={s: labels.get(s, frozenset()) for s in states},
                  atoms=atoms)
    if goal_rows:
        goals = {}
        for p in players:
            if p not in goal_rows:
                raise GameFileError(f"missing goal for player {p!r}")
            line, text_goal = goal_rows[p]
            try:
                goals[p] = parse_gr1(text_goal, atoms)
            except (ParseError, ShapeError) as e:
                raise GameFileError(f"goal of {p!r}: {e}", line)
        return Game(arena=arena, gr1_goals=goals)
    for (p, s) in weight_rows:
        if p not in players:
            raise GameFileError(f"weight row for undeclared player {p!r}")
        if s not in state_set:
            raise GameFileError(f"weight row for undeclared state {s!r}")
    table = {p: {s: weight_rows.get((p, s), 0) for s in states} for p in players}
    return Game(arena=arena, weights=Weights(table))


def parse_game_file(path) -> Game:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_game_text(handle.read())


# ---------------------------------------------------------------------------
# Witness documents
# ---------------------------------------------------------------------------

def _fraction_str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_fraction(text) -> Fraction:
    m = re.fullmatch(r"\s*(-?\d+)\s*(?:/\s*(\d+))?\s*", text)
    if not m:
        raise ValueError(f"not a rational: {text!r} (write INT or INT/INT)")
    return Fraction(int(m.group(1)), int(m.group(2)) if m.group(2) else 1)


def _lasso_doc(arena, lasso):
    def step(entry):
        state, prof = entry
        return {"state": state,
                "actions": {p: a for p, a in zip(arena.players, prof)}}

    return {"prefix": [step(e) for e in lasso.prefix],
            "cycle": [step(e) for e in lasso.cycle]}


def _profile_doc(arena, profile):
    """The machines of a synthesized profile as one shared table.

    `synthesize_profile` builds every player's machine from one state set
    and one step table; only the outputs differ, so the table is written
    once and each player adds a list of outputs indexed by state.  Raises
    ValueError for machines that do not share that table."""
    machines = [profile.strategies[p] for p in arena.players]
    first = machines[0]
    for m in machines[1:]:
        if m.internal_states is not first.internal_states \
                or m.initial != first.initial or m.step is not first.step:
            raise ValueError("the profile's machines do not share one table")
    states = first.internal_states
    index = {q: k for k, q in enumerate(states)}
    profiles = tuple(arena.profiles())
    step = first.step
    return {
        "profiles": [dict(zip(arena.players, prof)) for prof in profiles],
        "states": [repr(q) for q in states],
        "initial": index[first.initial],
        "step": [[index[step[(q, prof)]] for prof in profiles] for q in states],
        "output": {p: [m.output[q] for q in states]
                   for p, m in zip(arena.players, machines)},
    }


def witness_document(query, game, spec_text, verdict, profile=None) -> dict:
    doc = {
        "format": "eqcheck-witness-2",
        "query": query,
        "answer": "yes" if verdict.answer else "no",
        "specification": spec_text,
        "candidate": None,
        "winners": None,
        "losers": None,
        "payoffs": None,
        "lasso": None,
        "witness_gap": False,
        "transducers": None,
        "diagnostics": dict(verdict.diagnostics),
    }
    w = verdict.witness
    if w is None:
        return doc
    if w.kind == "gr1":
        doc["candidate"] = {"exposed": list(w.candidate_winners)}
        doc["winners"] = list(w.winners)
        doc["losers"] = list(w.losers)
    else:
        doc["candidate"] = {"z": {p: _fraction_str(v)
                                  for p, v in sorted(w.candidate_z.items())}}
    if w.payoffs is not None:
        doc["payoffs"] = {p: _fraction_str(v) for p, v in sorted(w.payoffs.items())}
    if w.lasso is not None:
        doc["lasso"] = _lasso_doc(game.arena, canonical(w.lasso))
    doc["witness_gap"] = bool(w.witness_gap)
    if profile is not None:
        doc["transducers"] = _profile_doc(game.arena, profile)
    return doc


# ---------------------------------------------------------------------------
# Query dispatch
# ---------------------------------------------------------------------------

def _load_spec(args, game) -> engine.Specification:
    text = args.spec
    if text is None:
        text = "true"
    elif text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as handle:
            text = handle.read().strip()
    lang = getattr(args, "spec_lang", "auto")
    atoms = game.arena.atoms
    if lang == "gr1":
        return engine.Specification.of_gr1(parse_gr1(text, atoms))
    if lang == "ltl":
        return engine.Specification.of_ltl(parse_ltl(text, atoms))
    parsed = parse_ltl(text, atoms)
    try:
        return engine.Specification.of_gr1(to_gr1(parsed))
    except ShapeError:
        return engine.Specification.of_ltl(parsed)


def _emit(args, doc) -> None:
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if getattr(args, "witness", None):
        with open(args.witness, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _finish(args, query, game, spec_text, verdict) -> int:
    print("YES" if verdict.answer else "NO")
    profile = None
    code = 0 if verdict.answer else 1
    if verdict.answer and args.synthesize and verdict.witness is not None:
        try:
            profile = engine.synthesize_profile(game, verdict.witness)
        except WitnessGapError:
            profile = None
    doc = witness_document(query, game, spec_text, verdict, profile)
    _emit(args, doc)
    if verdict.answer and args.witness and verdict.witness is not None \
            and verdict.witness.lasso is None:
        print("witness demanded but only a verdict exists (disconnected "
              "cycle support)", file=sys.stderr)
        return 3
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqcheck",
        description="Equilibrium verification for concurrent games")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_spec=True):
        p.add_argument("--game", required=True, help="game description file")
        if with_spec:
            p.add_argument("--spec", help="formula text or @FILE")
            p.add_argument("--spec-lang", choices=("auto", "gr1", "ltl"),
                           default="auto", dest="spec_lang")
        p.add_argument("--witness", help="write the witness document here")
        p.add_argument("--synthesize", action="store_true",
                       help="include equilibrium transducers in the document")

    p = sub.add_parser("e-nash", help="is the spec satisfied on some equilibrium run")
    common(p)
    p = sub.add_parser("a-nash", help="is the spec satisfied on every equilibrium run")
    common(p)
    p = sub.add_parser("non-emptiness", help="does any equilibrium exist")
    common(p, with_spec=False)
    p = sub.add_parser("welfare", help="welfare threshold query")
    common(p)
    p.add_argument("--measure", choices=("usw", "esw"), required=True)
    p.add_argument("--dir", choices=("ge", "le"), required=True)
    p.add_argument("--threshold", required=True)
    p = sub.add_parser("welfare-opt", help="approximate optimal welfare")
    common(p)
    p.add_argument("--measure", choices=("usw", "esw"), required=True)
    p.add_argument("--mode", choices=("max", "min"), required=True)
    p.add_argument("--eps", required=True)
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        game = parse_game_file(args.game)
    except (OSError, GameFileError, ModelError, ParseError, ShapeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    try:
        if args.command == "non-emptiness":
            verdict = engine.non_emptiness(game)
            return _finish(args, args.command, game, "true", verdict)

        spec = _load_spec(args, game)
        if args.command == "e-nash":
            verdict = engine.e_nash(game, spec)
            return _finish(args, args.command, game, spec.text(), verdict)
        if args.command == "a-nash":
            verdict = engine.a_nash(game, spec)
            return _finish(args, args.command, game, spec.text(), verdict)
        if args.command == "welfare":
            query = welfare.WelfareQuery(
                measure=args.measure, direction=args.dir,
                threshold=parse_fraction(args.threshold), spec=spec)
            verdict = welfare.welfare_threshold(game, query)
            return _finish(args, args.command, game, spec.text(), verdict)
        if args.command == "welfare-opt":
            try:
                result = welfare.approx_opt_welfare_trace(
                    game, spec, args.measure, args.mode,
                    parse_fraction(args.eps))
            except welfare.NoEquilibriumError as e:
                print(f"error: {e}", file=sys.stderr)
                return 1
            print(_fraction_str(result.value))
            return 0
    except (ParseError, ShapeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    raise AssertionError("unhandled command")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
