"""Seeded, closed-loop benchmark of eqcheck queries.

One client, `jobs=1`, one query at a time, as a user running a batch of
`eqcheck ... --synthesize --witness` commands would.  Run from the root of
a checkout:

    python3 perfbench/run.py --workload gr1-ltl --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

`--trace 0` prints the end-to-end metrics; `--trace 1` records spans and
prints the per-layer metrics.  The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
The exit code is 0 only when every query passed the correctness gate.
See README.md for the metrics and how they relate.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus as corpora  # noqa: E402
import queries  # noqa: E402
import trace  # noqa: E402

OUT = HERE / "out"
SETUP_RUNS = 5
WARMUP_QUERIES = 2
# median time of reference() on the machine named in SPREAD.md
REFERENCE_S = 0.005

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_p50_s": "s",
    "query_tail_s": "s",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "lasso_share": "ratio",
}


def reference() -> float:
    """Seconds taken by a fixed pure-Python computation of the program's
    kind (exact rationals, tuples, dicts).  Run between queries, it tracks
    how fast the machine is at that moment."""
    start = time.perf_counter()
    total, seen = Fraction(0), {}
    for k in range(1, 1500):
        total += Fraction(k % 7, k % 5 + 1)
        seen[(k, k % 3)] = total
    return time.perf_counter() - start


def setup_seconds(workload, seed) -> list:
    """Set-up times of fresh interpreters (import eqcheck, parse the
    corpus), each in reference seconds of its own process."""
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        seconds, ref = map(float, done.stdout.split()[-2:])
        times.append(seconds * REFERENCE_S / ref)
    return times


class Pass:
    """Outcome counts of one sequence of timed queries."""

    def __init__(self):
        self.samples = []       # seconds per query, in run order
        self.plain = []         # traced runs: the same query again, untraced
        self.reference = []     # reference() after each query
        self.indices = []       # corpus index per query
        self.failed = set()     # positions in `samples` of failed queries
        self.witnessed = 0
        self.gaps = 0
        self.answers = {}       # corpus index -> "y" | "n"
        self.peak_by_checks = 0  # KiB the untimed checks added to the peak RSS


def peak_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def report_failure(corp, i, problems, label=""):
    q = corp.queries[i]
    print(f"FAILED {corp.workload} seed {corp.seed}{label} query {i} "
          f"({q.kind} {q.spec!r}): {'; '.join(problems)}", file=sys.stderr)


def timed_query(query, game, spec, tracer=None):
    """One timed query; an exception becomes a failed outcome."""
    start = time.perf_counter()
    try:
        outcome = queries.run_query(
            query, game, spec, tracer.call if tracer is not None else None)
    except Exception as e:  # counted as failed, never fatal to the run
        outcome = queries.Outcome(error=f"{type(e).__name__}: {e}")
    return outcome, time.perf_counter() - start


def run_pass(corp, games, specs, gate=None, seconds=None, count=None, tracer=None):
    """Queries in corpus order until `seconds` of query time or `count`
    queries; with a gate, each is checked untimed right after it ran.  With
    a tracer, every traced query runs again at once untraced, so the two
    timings see the same machine state and their ratio is the tracing
    overhead."""
    result = Pass()
    n = len(corp.queries)
    k = 0
    busy = 0.0
    while (busy < seconds) if count is None else (k < count):
        i = k % n
        q = corp.queries[i]
        if tracer is not None:
            tracer.begin(i)
        outcome, elapsed = timed_query(q, games[q.game], specs[i], tracer)
        if tracer is not None:
            tracer.end()
        busy += elapsed
        k += 1
        result.samples.append(elapsed)
        result.indices.append(i)
        if gate is None:
            continue
        before = peak_kib()
        problems = gate.check(i, q, games[q.game], specs[i], outcome)
        result.peak_by_checks += peak_kib() - before
        if tracer is not None:
            tracer.uninstall()
            again, plain = timed_query(q, games[q.game], specs[i])
            tracer.install()
            result.plain.append(plain)
            problems += gate.check(i, q, games[q.game], specs[i], again)
            del again
        if problems:
            result.failed.add(len(result.samples) - 1)
            report_failure(corp, i, problems)
        result.reference.append(reference())
        if outcome.witness is not None:
            result.witnessed += 1
            result.gaps += outcome.witness.lasso is None
        result.answers.setdefault(i, "y" if outcome.answer else "n")
        # the witness document's dict is as large as its text (up to 1.8 MB);
        # alive during the next query, it would count toward that query's
        # peak RSS and be traversed by its full garbage collections
        del outcome
    return result


def oracle_phase(corp, gate, timed):
    """Untimed, after the timed phase: the oracle on the timed corpus's
    queued entries, then the workload's gate-only oracle set.  Returns the
    queries attempted and failed in the oracle set; failures on the timed
    corpus are added to `timed.failed`."""
    for i, problems in gate.oracle_pass().items():
        timed.failed.add(timed.indices.index(i))
        report_failure(corp, i, problems)
    extra = corpora.build_oracle_set(corp.workload, corp.seed)
    if extra is None:
        return 0, 0
    games, specs = queries.prepare(extra)
    extra_gate = checks.Gate(oracle_entries=len(extra.queries))
    failures = {}
    for i, q in enumerate(extra.queries):
        outcome, _ = timed_query(q, games[q.game], specs[i])
        problems = extra_gate.check(i, q, games[q.game], specs[i], outcome)
        if problems:
            failures[i] = problems
    for i, problems in extra_gate.oracle_pass().items():
        failures.setdefault(i, []).extend(problems)
    for i, problems in sorted(failures.items()):
        report_failure(extra, i, problems, " oracle set")
    gate.oracle_checked += extra_gate.oracle_checked
    gate.oracle_skipped += extra_gate.oracle_skipped
    print(f"oracle set: {len(extra.queries)} gate-only queries on {len(extra.games)} "
          f"games of at most {checks.ORACLE_EDGE_LIMIT} edges; oracle checked "
          f"{extra_gate.oracle_checked}, skipped {extra_gate.oracle_skipped}; "
          f"{len(failures)} failed")
    return len(extra.queries), len(failures)


def percentile(samples, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def normalized(timed) -> list:
    """Each query's time in reference seconds: divided by the machine speed
    around it, the median of the five `reference()` times nearest to it over
    `REFERENCE_S`.  The speed of this kind of host changes within seconds,
    so a factor for the whole run would leave most of that change in."""
    refs = timed.reference
    return [t * REFERENCE_S / statistics.median(refs[max(0, k - 2):k + 3])
            for k, t in enumerate(timed.samples)]


def end_to_end(workload, setup, timed, peak_mb, attempted, failed) -> dict:
    """The end-to-end metrics; times are in reference seconds (see README).
    `attempted` and `failed` include the gate-only oracle set."""
    done = len(timed.samples) - len(timed.failed)
    samples = normalized(timed)
    pct = corpora.WORKLOADS[workload].tail_pct
    tail, beyond = percentile(samples, pct)
    print(f"query_tail_s is p{pct} over {len(samples)} samples, {beyond} beyond it")
    print(f"setup_s is the median of {len(setup)} set-ups: "
          + ", ".join(f"{s:.4f}" for s in setup))
    print(f"reference() took {statistics.median(timed.reference):.6f} s at the median "
          f"(nominal {REFERENCE_S} s); raw p50 {statistics.median(timed.samples):.6f} s")
    return {
        "setup_s": statistics.median(setup),
        "query_p50_s": statistics.median(samples),
        "query_tail_s": tail,
        "queries_per_s": done / sum(samples),
        "peak_rss_mb": peak_mb,
        "ok_share": (attempted - failed) / attempted,
        "lasso_share": 1 - timed.gaps / timed.witnessed if timed.witnessed else 1.0,
    }


def write_run(corp, timed):
    """Answers (for pin.py) and per-query samples of the timed phase."""
    folder = OUT / "runs"
    folder.mkdir(parents=True, exist_ok=True)
    prefix = ""
    while len(prefix) in timed.answers:
        prefix += timed.answers[len(prefix)]
    (folder / f"{corp.workload}-{corp.seed}.json").write_text(json.dumps(
        {"workload": corp.workload, "seed": corp.seed, "answers": prefix,
         "samples": [[i, corp.queries[i].kind, t]
                     for i, t in zip(timed.indices, timed.samples)]}))


def run_workload(args) -> int:
    try:
        package = queries.import_eqcheck()
        corp = corpora.build(args.workload, args.seed)
        setup = setup_seconds(args.workload, args.seed)
    except (ImportError, OSError, subprocess.SubprocessError) as e:
        print(f"error: cannot set up the benchmark: {e}", file=sys.stderr)
        return 2

    gate = checks.Gate(checks.load_pins(args.workload, args.seed))
    warm = corpora.build(args.workload, "warm-up", games=WARMUP_QUERIES)
    warm_games, warm_specs = queries.prepare(warm)
    run_pass(warm, warm_games, warm_specs, count=WARMUP_QUERIES)

    if not args.trace:
        games, specs = queries.prepare(corp)
        start_kib = peak_kib()
        timed = run_pass(corp, games, specs, gate, seconds=args.seconds)
        peak_mb = peak_kib() / 1024
        print(f"peak_rss_mb is read before the oracle phase: {start_kib / 1024:.1f} MB "
              f"after set-up and warm-up, {peak_mb:.1f} MB after the timed phase, "
              f"of which the untimed checks between queries set "
              f"{timed.peak_by_checks / 1024:.1f} MB")
    else:
        tracer = trace.Tracer(package)
        tracer.install()
        tracer.begin(trace.SETUP, root="setup")
        games, specs = queries.prepare(
            corp, lambda text: tracer.call("cli.parse", package.cli.parse_game_text, text))
        tracer.end()
        timed = run_pass(corp, games, specs, gate, seconds=args.seconds, tracer=tracer)
        tracer.uninstall()
    extra_attempted, extra_failed = oracle_phase(corp, gate, timed)
    attempted = len(timed.samples) + extra_attempted
    failed = len(timed.failed) + extra_failed

    if not args.trace:
        metrics = end_to_end(args.workload, setup, timed, peak_mb, attempted, failed)
        units = END_TO_END_UNITS
    else:
        overhead = sum(timed.samples) / sum(timed.plain) - 1
        distinct = sorted({corp.queries[i].game for i in timed.indices})
        metrics, by_name = trace.layer_metrics(
            tracer.spans, len(timed.samples),
            [len(games[g].arena.players) for g in distinct])
        metrics["trace.overhead"] = overhead
        units = {name: trace.unit_of(name) for name in metrics}
        OUT.mkdir(exist_ok=True)
        stem = f"trace-{args.workload}-{args.seed}"
        tracer.dump(OUT / f"{stem}.json")
        table = trace.report(args.workload, args.seed, metrics, by_name, overhead)
        (OUT / f"{stem}.md").write_text(table, encoding="utf-8")
        print(table)

    write_run(corp, timed)
    print(f"{args.workload} seed {args.seed}: {len(timed.samples)} timed queries of a "
          f"corpus of {len(corp.queries)} in {sum(timed.samples):.3f} s of query time, "
          f"{extra_attempted} gate-only; {failed} failed; {timed.gaps} witness gaps in "
          f"{timed.witnessed} witnessed verdicts; oracle checked {gate.oracle_checked}, "
          f"skipped {gate.oracle_skipped} (outside its fragment or budget)")
    if not args.trace:
        print(f"failed_share = {1 - metrics['ok_share']:.6f} ratio, "
              f"witness_gap_share = {1 - metrics['lasso_share']:.6f} ratio")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, then one table and one result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in corpora.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode == 2 or not lines:
            return 2
        code = code or done.returncode
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(f"\n{'metric':48s} {'value':>14s}  unit")
    for metric, entry in merged["metrics"].items():
        print(f"{metric:48s} {entry['value']:14.6g}  {entry['unit']}")
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(corpora.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="query time to measure per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
