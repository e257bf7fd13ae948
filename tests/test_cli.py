"""The command line end to end: exit codes and witness documents checked
against `witness_schema.json`."""

import json
from pathlib import Path

import jsonschema
import pytest

from eqcheck import cli

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
def test_cli_verdicts_and_documents(tmp_path, capsys, argv, code, answer,
                                    lasso, transducers):
    got, printed, doc = _run(tmp_path, capsys, *argv)
    assert got == code
    assert printed == ["YES" if answer == "yes" else "NO"]
    assert doc["query"] == argv[0] and doc["answer"] == answer
    assert (doc["lasso"] is not None) == bool(lasso)
    assert (doc["transducers"] is not None) == bool(transducers)
    assert doc["witness_gap"] is False


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
