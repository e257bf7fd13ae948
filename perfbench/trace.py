"""Per-layer tracing from outside the program.

A traced run replaces the public functions the query drivers reach through
module attributes with wrappers that record spans: name, start, end,
parent span and query id, plus sizes read from the arguments and the return
value.  Spans stay in memory and are written out when the run ends.  A
layer's self time is its spans' durations minus the time their child spans
cover.  `engine` imports the `lasso_search` functions by name, so those are
patched on `engine`; `welfare` imports `e_nash_mp` by name likewise.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter


def _len_attr(attr):
    return lambda args, result: {"size": len(getattr(result, attr))}


def _mp_game_sizes(args, result):
    return {"size": len(result.nodes),
            "max_abs_weight": max((abs(w) for w in result.weight.values()), default=0)}


def _lp_sizes(args, result):
    lp = args[0]
    return {"cols": lp.num_vars, "rows": len(lp.constraints),
            "feasible": result is not None}


def _verdict_sizes(args, result):
    diag = result.diagnostics
    return {"examined": diag.get("candidates_examined", 0),
            "total": diag.get("candidates_total", 0),
            "hit": result.witness is not None}


def _profile_sizes(args, result):
    return {"size": sum(len(m.internal_states) for m in result.strategies.values())}


def _doc_sizes(args, result):
    return {"size": len(result[1].encode("utf-8"))}


# (module, attribute, span name, sizes) -- every function a driver reaches
# through a module attribute that this benchmark attributes to a layer
PATCHES = (
    ("punish_gr1", "punish_region", "punish_gr1.region", None),
    ("punish_gr1", "build_turn_based", "punish_gr1.build_tb", _len_attr("nodes")),
    ("punish_gr1", "solve_parity", "punish_gr1.parity", None),
    ("punish_mp", "punish_values", "punish_mp.values", None),
    ("punish_mp", "build_mp_punish_game", "punish_mp.build", _mp_game_sizes),
    ("buchi", "translate", "buchi.translate", _len_attr("states")),
    ("engine", "restrict_gr1", "lasso_search.restrict", _len_attr("transitions")),
    ("engine", "restrict_mp", "lasso_search.restrict", _len_attr("transitions")),
    ("engine", "build_streett_product", "lasso_search.product", _len_attr("nodes")),
    ("engine", "streett_nonempty", "lasso_search.emptiness", None),
    ("lp", "mp_lasso_search", "lp.search", None),
    ("lp", "feasible", "lp.simplex", _lp_sizes),
    ("welfare", "e_nash_mp", "engine.driver", _verdict_sizes),
    ("welfare", "welfare_threshold", "welfare.threshold", None),
)

# sizes of the benchmark's own direct calls into the program
DIRECT_SIZES = {
    "engine.driver": _verdict_sizes,
    "engine.synth": _profile_sizes,
    "cli.witness_doc": _doc_sizes,
}


class Tracer:
    """Span recorder; records only while a query (or set-up) is active."""

    def __init__(self, package):
        self.spans = []     # [name, start, end, parent, query, sizes]
        self.stack = []
        self.query = None
        self._patches = []  # (module, attribute, original, wrapper)
        for module_name, attr, name, sizes in PATCHES:
            module = importlib.import_module(f"{package.__name__}.{module_name}")
            original = getattr(module, attr)  # a renamed layer must fail loudly
            self._patches.append(
                (module, attr, original, self.wrap(original, name, sizes)))

    def install(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def wrap(self, fn, name, sizes=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.query is None:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else None,
                      tracer.query, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer.stack.pop()
            if sizes is not None:
                record[5] = sizes(args, result)
            return result

        return traced

    def call(self, name, fn, *args):
        """A benchmark call into the program, traced as one span."""
        return self.wrap(fn, name, DIRECT_SIZES.get(name))(*args)

    def begin(self, query_id, root="query"):
        self.query = query_id
        self.stack.append(len(self.spans))
        self.spans.append([root, perf_counter(), 0.0, None, query_id, None])

    def end(self):
        sid = self.stack.pop()
        self.spans[sid][2] = perf_counter()
        self.query = None

    def dump(self, path):
        names = ("name", "start", "end", "parent", "query", "sizes")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(names, s)) for s in self.spans], handle)


def self_times(spans):
    """Per span: duration minus the duration of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


SETUP = "setup"  # query id of the spans recorded while parsing the corpus
LAYERS = ("cli", "engine", "welfare", "punish_gr1", "punish_mp", "buchi",
          "lasso_search", "lp")


def layer_of(name):
    layer = name.split(".", 1)[0]
    return layer if layer in LAYERS else "unattributed"


def layer_metrics(spans, queries, games_players):
    """Per-layer metrics over the spans of `queries` traced queries;
    `games_players` is the player count of every distinct game queried."""
    own = self_times(spans)
    q = max(queries, 1)
    by_name = {}
    for k, s in enumerate(spans):
        if s[4] == SETUP:
            continue
        entry = by_name.setdefault(s[0], {"calls": 0, "total": 0.0, "self": 0.0, "sizes": []})
        entry["calls"] += 1
        entry["total"] += s[2] - s[1]
        entry["self"] += own[k]
        if s[5] is not None:
            entry["sizes"].append(s[5])

    def get(name):
        return by_name.get(name, {"calls": 0, "total": 0.0, "self": 0.0, "sizes": []})

    def mean(name, key="size"):
        values = [z[key] for z in get(name)["sizes"]]
        return sum(values) / len(values) if values else 0

    def most(name, key):
        return max((z[key] for z in get(name)["sizes"]), default=0)

    drivers = get("engine.driver")["sizes"]
    examined = sum(z["examined"] for z in drivers)
    simplex = get("lp.simplex")
    welfare_driver_calls = sum(
        1 for s in spans if s[0] == "engine.driver" and s[3] is not None
        and spans[s[3]][0].startswith("welfare."))
    query_time = sum(s[2] - s[1] for s in spans if s[0] == "query")

    m = {
        "cli.parse.s": sum(s[2] - s[1] for s in spans if s[0] == "cli.parse"),
        "cli.witness_doc.s": get("cli.witness_doc")["total"] / q,
        "cli.witness_doc.bytes": mean("cli.witness_doc"),
        "engine.synth.s": get("engine.synth")["total"] / q,
        "engine.transducer_states": mean("engine.synth"),
        "engine.driver.self_s": get("engine.driver")["self"] / q,
        "engine.candidates_examined": examined / len(drivers) if drivers else 0,
        "engine.candidates_total": mean("engine.driver", "total"),
        "engine.candidate_hit_ratio":
            sum(z["hit"] for z in drivers) / examined if examined else 0,
        "buchi.translate.calls_per_query": get("buchi.translate")["calls"] / q,
        "buchi.translate.s": get("buchi.translate")["total"] / q,
        "buchi.states": mean("buchi.translate"),
        "punish_gr1.s": get("punish_gr1.region")["total"] / q,
        "punish_gr1.parity_s": get("punish_gr1.parity")["total"] / q,
        "punish_gr1.tb_nodes": mean("punish_gr1.build_tb"),
        "punish_mp.s": get("punish_mp.values")["total"] / q,
        "punish_mp.nodes": mean("punish_mp.build"),
        "punish_mp.max_abs_weight": most("punish_mp.build", "max_abs_weight"),
        "punish_mp.calls_per_game":
            get("punish_mp.values")["calls"] / max(sum(games_players), 1),
        "lasso_search.restrict.s": get("lasso_search.restrict")["total"] / q,
        "lasso_search.restricted_edges": mean("lasso_search.restrict"),
        "lasso_search.product.s": get("lasso_search.product")["total"] / q,
        "lasso_search.product_nodes": mean("lasso_search.product"),
        "lasso_search.emptiness.s": get("lasso_search.emptiness")["total"] / q,
        "lp.search.self_s": get("lp.search")["self"] / q,
        "lp.simplex.s": simplex["total"] / q,
        "lp.simplex.calls": simplex["calls"] / q,
        "lp.simplex.cols_max": most("lp.simplex", "cols"),
        "lp.simplex.rows_max": most("lp.simplex", "rows"),
        "lp.simplex.feasible_ratio":
            sum(z["feasible"] for z in simplex["sizes"]) / simplex["calls"]
            if simplex["calls"] else 0,
        "welfare.threshold.calls": get("welfare.threshold")["calls"] / q,
        "welfare.enash_calls_per_query": welfare_driver_calls / q,
        "query.count": queries,
        "query.traced_s": query_time,
    }
    shares = {layer: 0.0 for layer in LAYERS + ("unattributed",)}
    for name, entry in by_name.items():
        shares[layer_of(name)] += entry["self"]
    for layer, seconds in shares.items():
        m[f"share.{layer}"] = seconds / query_time if query_time else 0
    return m, by_name


def unit_of(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.startswith("share.") or name.endswith(("_ratio", ".overhead")):
        return "ratio"
    return "count"


def report(workload, seed, metrics, by_name, overhead) -> str:
    """Markdown table: one row per layer and span."""
    q = metrics["query.count"]
    base = metrics["query.traced_s"]
    lines = [
        f"# Traced run: {workload}, seed {seed}",
        "",
        f"Base: {q} queries, {base:.4f} s of traced query time "
        f"(tracing overhead {overhead:+.1%}: traced over untraced time of each query, "
        "run again untraced right after).",
        "",
        "| layer | span | calls | self s | share of query time | sizes (mean) |",
        "|---|---|---:|---:|---:|---|",
    ]
    for name in sorted(by_name, key=lambda n: (layer_of(n), n)):
        e = by_name[name]
        sizes = ""
        if e["sizes"]:
            keys = sorted(e["sizes"][0])
            sizes = ", ".join(
                f"{k}={sum(float(z[k]) for z in e['sizes']) / len(e['sizes']):.1f}"
                for k in keys)
        share = e["self"] / base if base else 0
        lines.append(f"| {layer_of(name)} | {name} | {e['calls']} | {e['self']:.4f} | "
                     f"{share:.1%} | {sizes} |")
    lines += ["", "| layer | share of query time |", "|---|---:|"]
    for key in sorted(k for k in metrics if k.startswith("share.")):
        lines.append(f"| {key[6:]} | {metrics[key]:.1%} |")
    lines.append("")
    return "\n".join(lines)
