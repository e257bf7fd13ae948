"""Set-up and execution of one benchmark query, the way the `eqcheck` CLI
runs `e-nash | a-nash | non-emptiness | welfare | welfare-opt` with
`--synthesize --witness` and `--jobs 1`.

Nothing here imports `eqcheck` at module level, so the set-up timer can
include the import.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

SRC = Path(__file__).resolve().parent.parent / "src"


def import_eqcheck():
    """Import the package from the checkout's `src/`; the benchmark never
    falls back to an installed copy."""
    if not (SRC / "eqcheck" / "__init__.py").is_file():
        raise ImportError(f"no eqcheck package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from eqcheck import cli, engine, model, welfare  # noqa: F401
    return sys.modules["eqcheck"]


def parse_spec(query, game):
    """`--spec TEXT --spec-lang gr1|ltl`, as `cli` reads it."""
    from eqcheck import engine
    from eqcheck.formula import parse_gr1, parse_ltl

    atoms = game.arena.atoms
    if query.spec_lang == "gr1":
        return engine.Specification.of_gr1(parse_gr1(query.spec, atoms))
    return engine.Specification.of_ltl(parse_ltl(query.spec, atoms))


def prepare(corpus, parse_game=None):
    """Parse every game and spec of the corpus: the benchmark's set-up."""
    from eqcheck import cli

    parse_game = parse_game or cli.parse_game_text
    games = [parse_game(text) for text in corpus.games]
    specs = [parse_spec(q, games[q.game]) for q in corpus.queries]
    return games, specs


@dataclass
class Outcome:
    verdict: object = None          # engine.Verdict, when the query yields one
    optimum: object = None          # welfare.WelfareOptimum for welfare-opt
    profile: object = None          # synthesized StrategyProfile
    document: Optional[tuple] = None  # witness document: (dict, its JSON text)
    error: Optional[str] = None

    @property
    def answer(self) -> bool:
        if self.verdict is not None:
            return bool(self.verdict.answer)
        return self.optimum is not None

    @property
    def witness(self):
        return None if self.verdict is None else self.verdict.witness


def run_query(query, game, spec, call=None):
    """The timed query.  `call(name, fn, *args)` lets a tracer wrap the
    benchmark's direct calls into the program; by default it just calls."""
    from eqcheck import cli, engine, welfare

    call = call or (lambda name, fn, *args: fn(*args))
    out = Outcome()
    kind = query.kind
    if kind == "e-nash":
        out.verdict = call("engine.driver", engine.e_nash, game, spec)
    elif kind == "a-nash":
        out.verdict = call("engine.driver", engine.a_nash, game, spec)
    elif kind == "non-emptiness":
        out.verdict = call("engine.driver", engine.non_emptiness, game)
    elif kind == "welfare":
        wq = welfare.WelfareQuery(
            measure=query.measure, direction=query.direction,
            threshold=cli.parse_fraction(query.threshold), spec=spec)
        out.verdict = welfare.welfare_threshold(game, wq)
    elif kind == "welfare-opt":
        try:
            out.optimum = call(
                "welfare.opt", welfare.approx_opt_welfare_trace, game, spec,
                query.measure, query.mode, cli.parse_fraction(query.eps))
        except welfare.NoEquilibriumError:
            out.optimum = None
        return out
    else:
        raise ValueError(f"unknown query kind {kind!r}")

    verdict = out.verdict
    if verdict.answer and verdict.witness is not None \
            and verdict.witness.lasso is not None:
        out.profile = call("engine.synth", engine.synthesize_profile,
                           game, verdict.witness)
        out.document = call("cli.witness_doc", _document, kind, game,
                            spec.text(), verdict, out.profile)
    return out


def _document(kind, game, spec_text, verdict, profile) -> tuple:
    """The witness document and its text, as `--witness` writes it.  The
    dict is kept so the gate can read it without parsing the text back."""
    from eqcheck import cli

    doc = cli.witness_document(kind, game, spec_text, verdict, profile)
    return doc, json.dumps(doc, indent=2, sort_keys=True) + "\n"
