"""The command line end to end: exit codes and witness documents checked
against `witness_schema.json`, and their transducer tables replayed."""

import json
import math
from pathlib import Path

import jsonschema
import pytest

from conftest import g1, random_gr1, random_gr1_game, random_mp_game
from eqcheck import cli, engine
from eqcheck.model import (
    Lasso, StrategyProfile, TransducerStrategy, constant_strategy, play,
    validate_lasso,
)

GAMES = Path(__file__).resolve().parent.parent / "games"
G1, G2 = str(GAMES / "g1.game"), str(GAMES / "g2.game")
SCHEMA = json.loads(
    Path(cli.__file__).with_name("witness_schema.json").read_text(encoding="utf-8"))

# Four states, mean-payoff: non-emptiness holds, but the only feasible cycle
# support the simplex finds is disconnected, so there is no witness lasso.
GAP_GAME = """\
players: p1 p2;
states: s0 s1 s2 s3;
initial: s0;
atoms: p q;
actions p1: a b;
actions p2: a b;
label s0: q;
label s1: q;
label s2: p q;
label s3: p;
tr s0 (a, a) -> s0;
tr s0 (a, b) -> s3;
tr s0 (b, a) -> s3;
tr s0 (b, b) -> s2;
tr s1 (a, a) -> s3;
tr s1 (a, b) -> s2;
tr s1 (b, a) -> s0;
tr s1 (b, b) -> s0;
tr s2 (a, a) -> s2;
tr s2 (a, b) -> s1;
tr s2 (b, a) -> s0;
tr s2 (b, b) -> s2;
tr s3 (a, a) -> s1;
tr s3 (a, b) -> s3;
tr s3 (b, a) -> s1;
tr s3 (b, b) -> s1;
weight p1 s0 = -1;
weight p1 s1 = 0;
weight p1 s2 = -1;
weight p1 s3 = 1;
weight p2 s0 = 1;
weight p2 s1 = 1;
weight p2 s2 = -1;
weight p2 s3 = -1;
"""


def _run(tmp_path, capsys, *argv):
    """Exit code, printed verdict line and the schema-checked document."""
    out = tmp_path / "witness.json"
    code = cli.run(list(argv) + ["--witness", str(out)])
    printed = capsys.readouterr().out.splitlines()
    doc = json.loads(out.read_text(encoding="utf-8"))
    jsonschema.Draft7Validator(SCHEMA).validate(doc)
    return code, printed, doc


def lasso_from_doc(game, doc) -> Lasso:
    """The document's lasso, checked against the arena."""
    arena = game.arena

    def entry(step):
        return (step["state"], tuple(step["actions"][p] for p in arena.players))

    lasso = Lasso(tuple(entry(s) for s in doc["prefix"]),
                  tuple(entry(s) for s in doc["cycle"]))
    validate_lasso(arena, lasso, arena.initial)
    return lasso


def profile_from_doc(game, table) -> StrategyProfile:
    """One machine per player from the shared table; internal states are
    the table's row indices."""
    arena = game.arena
    profiles = [tuple(prof[p] for p in arena.players) for prof in table["profiles"]]
    assert profiles == list(arena.profiles())
    states = tuple(range(len(table["states"])))
    step = {(k, prof): row[j] for k, row in enumerate(table["step"])
            for j, prof in enumerate(profiles)}
    return StrategyProfile({
        p: TransducerStrategy(states, table["initial"], step, dict(enumerate(out)))
        for p, out in table["output"].items()})


def same_path(a, b) -> bool:
    """Do two lassos unroll to the same infinite sequence of steps?  They do
    once they agree on the longer prefix plus one common period."""
    n = max(len(a.prefix), len(b.prefix)) + math.lcm(len(a.cycle), len(b.cycle))

    def unroll(lasso):
        steps = list(lasso.prefix)
        while len(steps) < n:
            steps.extend(lasso.cycle)
        return steps[:n]

    return unroll(a) == unroll(b)


def assert_replays_lasso(game, doc):
    """The machines read back from the document play the document's lasso."""
    played = play(game, profile_from_doc(game, doc["transducers"]))
    assert same_path(played, lasso_from_doc(game, doc["lasso"]))


# argv, exit code, answer, whether the document carries a lasso (for
# a-nash, the counterexample of a no) and equilibrium transducers
CASES = [
    (["e-nash", "--game", G1, "--spec", "GF p", "--synthesize"], 0, "yes", 1, 1),
    (["e-nash", "--game", G1, "--spec", "G !p", "--synthesize"], 1, "no", 0, 0),
    (["a-nash", "--game", G1, "--spec", "GF p", "--synthesize"], 0, "yes", 0, 0),
    (["a-nash", "--game", G1, "--spec", "FG !p"], 1, "no", 1, 0),
    (["non-emptiness", "--game", G1, "--synthesize"], 0, "yes", 1, 1),
    (["e-nash", "--game", G2, "--synthesize"], 0, "yes", 1, 1),
    (["welfare", "--game", G2, "--measure", "usw", "--dir", "ge",
      "--threshold", "2", "--synthesize"], 0, "yes", 1, 1),
    (["welfare", "--game", G2, "--measure", "usw", "--dir", "ge",
      "--threshold", "3"], 1, "no", 0, 0),
]


@pytest.mark.parametrize(
    "argv, code, answer, lasso, transducers", CASES,
    ids=[f"{c[0][0]}-{Path(c[0][2]).stem}-{c[2]}" for c in CASES])
def test_cli_verdicts_and_documents(tmp_path, capsys, monkeypatch, argv, code,
                                    answer, lasso, transducers):
    verdicts = []
    write = cli.witness_document

    def recording(query, game, spec_text, verdict, profile=None):
        verdicts.append((game, verdict))
        return write(query, game, spec_text, verdict, profile)

    monkeypatch.setattr(cli, "witness_document", recording)
    got, printed, doc = _run(tmp_path, capsys, *argv)
    assert got == code
    assert printed == ["YES" if answer == "yes" else "NO"]
    assert doc["query"] == argv[0] and doc["answer"] == answer
    assert (doc["lasso"] is not None) == bool(lasso)
    assert (doc["transducers"] is not None) == bool(transducers)
    assert doc["witness_gap"] is False
    # diagnostics are the verdict's own JSON values, and the transducer
    # table replays the document's lasso
    [(game, verdict)] = verdicts
    assert doc["diagnostics"] == verdict.diagnostics
    if transducers:
        assert_replays_lasso(game, doc)


def test_random_profiles_round_trip(rng):
    """Seeded random goal and weight games: every synthesized profile,
    written and read back as JSON, replays the document's lasso."""
    checked = {"gr1": 0, "mp": 0}
    for k in range(60):
        if k % 2:
            game = random_mp_game(rng, max_states=4, n_players=rng.choice((2, 3)))
        else:
            game = random_gr1_game(rng, max_states=4, n_players=rng.choice((2, 3)))
        spec = engine.Specification.of_gr1(random_gr1(rng))
        verdict = engine.e_nash(game, spec)
        if not verdict.answer or verdict.witness.lasso is None:
            continue
        profile = engine.synthesize_profile(game, verdict.witness)
        doc = json.loads(json.dumps(cli.witness_document(
            "e-nash", game, spec.text(), verdict, profile)))
        jsonschema.Draft7Validator(SCHEMA).validate(doc)
        assert_replays_lasso(game, doc)
        checked[verdict.witness.kind] += 1
    assert checked["gr1"] >= 10 and checked["mp"] >= 10


def test_witness_schema_is_v2_only(tmp_path, capsys):
    jsonschema.Draft7Validator.check_schema(SCHEMA)
    validator = jsonschema.Draft7Validator(SCHEMA)
    _, _, doc = _run(tmp_path, capsys, "e-nash", "--game", G1, "--spec", "GF p",
                     "--synthesize")
    table = doc["transducers"]
    assert table["step"] and len(table["step"]) == len(table["states"])
    assert all(len(row) == len(table["profiles"]) for row in table["step"])
    assert doc["candidate"] == {"exposed": ["p1", "p2"]}

    v1_format = dict(doc, format="eqcheck-witness-1")
    per_player = dict(doc, transducers={
        p: {"states": table["states"], "initial": table["initial"],
            "output": {str(k): a for k, a in enumerate(out)},
            "step": [{"from": k, "profile": prof, "to": to}
                     for k, row in enumerate(table["step"])
                     for prof, to in zip(table["profiles"], row)]}
        for p, out in table["output"].items()})
    v1_candidate = dict(doc, candidate={"winners": ["p1", "p2"]})
    for bad in (v1_format, per_player, v1_candidate):
        assert not validator.is_valid(bad)


def test_unshared_machines_are_rejected():
    game = g1()
    verdict = engine.non_emptiness(game)
    arena = game.arena
    profile = StrategyProfile({p: constant_strategy(arena, arena.actions[p][0])
                               for p in arena.players})
    with pytest.raises(ValueError, match="share"):
        cli.witness_document("non-emptiness", game, "true", verdict, profile)


def test_cli_malformed_game_and_spec(tmp_path, capsys):
    broken = tmp_path / "broken.game"
    broken.write_text("players: p1;\nstates: s0;\ntr s0 (a) -> nowhere;\n",
                      encoding="utf-8")
    assert cli.run(["e-nash", "--game", str(broken)]) == 2
    assert cli.run(["e-nash", "--game", str(tmp_path / "missing.game")]) == 2
    assert cli.run(["e-nash", "--game", G1, "--spec", "GF (p"]) == 2
    assert cli.run(["e-nash", "--game", G1, "--spec", "GF z"]) == 2
    assert cli.run(["welfare", "--game", G2, "--measure", "usw",
                    "--dir", "ge", "--threshold", "x"]) == 2
    # unknown options and commands are usage errors
    assert cli.run(["e-nash", "--game", G2, "--jobs", "2"]) == 2
    assert cli.run(["oracle-check", "--game", G1]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 7


def test_cli_witness_gap_exit_code(tmp_path, capsys):
    game = tmp_path / "gap.game"
    game.write_text(GAP_GAME, encoding="utf-8")
    code, printed, doc = _run(
        tmp_path, capsys, "non-emptiness", "--game", str(game), "--synthesize")
    assert code == 3 and printed == ["YES"]
    assert doc["answer"] == "yes" and doc["witness_gap"] is True
    assert doc["lasso"] is None and doc["transducers"] is None
