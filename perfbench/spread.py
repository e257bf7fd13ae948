"""Run-to-run spread of the end-to-end metrics, as the bounds are checked.

    python3 perfbench/spread.py [--report perfbench/SPREAD.md]

Runs `run.py --trace 0` for every workload of BENCHMARK.json on seeds 1-10
with its `run_seconds`, one run after another, and then does it all a
second time.  For each set and metric it reports the median and the
distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, against the
metric's bound; then how much worse the second set's median is than the
first's, against the same bound.  It also reports which phase of a run set
its peak RSS.  Raw results go to out/spread.json.  The exit code is 1 when
a run fails or a figure is outside its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = range(1, 11)
SETS = ("first", "second")
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SECONDS = BENCHMARK["run_seconds"]
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}
# run.py's line on where the peak RSS was set
PEAK_LINE = re.compile(r"peak_rss_mb is read .*: ([\d.]+) MB after set-up and warm-up, "
                       r"([\d.]+) MB after the timed phase, of which the untimed checks "
                       r"between queries set ([\d.]+) MB")


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def worse(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def one_run(workload, seed) -> dict:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    peak = PEAK_LINE.search(done.stdout)
    return {"seed": seed, "wall_s": time.perf_counter() - start,
            "rss_setup_mb": float(peak[1]), "rss_timed_mb": float(peak[2]),
            "rss_checks_mb": float(peak[3]),
            **{k: v["value"] for k, v in result["metrics"].items()}}


def render(raw) -> tuple:
    """Markdown report and whether every figure is within its bound."""
    ok = True
    lines = [
        "# Spread of the end-to-end metrics", "",
        f"Made with `python3 perfbench/spread.py --report perfbench/SPREAD.md`: "
        f"two sets of seeds {SEEDS.start}-{SEEDS.stop - 1}, {SECONDS} s per run, every run "
        f"alone, one after another; {platform.platform()}, Python "
        f"{platform.python_version()}, {os.cpu_count()} CPUs.  Spread is "
        "(Q3 - Q1) / median over the ten seeds of a set.", ""]
    for name in SETS:
        lines += [f"## {name.capitalize()} set", "",
                  "| workload | metric | median | spread | bound | within bound |",
                  "|---|---|---:|---:|---:|---|"]
        for workload in WORKLOADS:
            for metric, spec in METRICS.items():
                median, share = spread([r[metric] for r in raw[name][workload]])
                ok &= share <= spec["bound"]
                lines.append(f"| {workload} | {metric} | {median:.6g} | {share:.4f} | "
                             f"{spec['bound']} | {'yes' if share <= spec['bound'] else 'NO'} |")
        lines.append("")
    lines += ["## Second set against the first", "",
              "| workload | metric | first median | second median | worse by | bound | within bound |",
              "|---|---|---:|---:|---:|---:|---|"]
    for workload in WORKLOADS:
        for metric, spec in METRICS.items():
            first, second = (statistics.median(r[metric] for r in raw[name][workload])
                             for name in SETS)
            by = worse(first, second, spec["better"])
            ok &= by <= spec["bound"]
            lines.append(f"| {workload} | {metric} | {first:.6g} | {second:.6g} | {by:+.3f} | "
                         f"{spec['bound']} | {'yes' if by <= spec['bound'] else 'NO'} |")
    lines += ["", "## Which phase sets the peak RSS", "",
              "`peak_rss_mb` is `ru_maxrss` read when the timed phase ends, before the "
              "oracle phase.  Medians over both sets, in MB: the peak after set-up and "
              "warm-up, at the end of the timed phase, and what the untimed checks "
              "between queries added to it (largest run in brackets).", "",
              "| workload | after set-up and warm-up | after the timed phase | set by checks (max) |",
              "|---|---:|---:|---:|"]
    for workload in WORKLOADS:
        runs = [r for name in SETS for r in raw[name][workload]]
        lines.append(
            f"| {workload} | {statistics.median(r['rss_setup_mb'] for r in runs):.1f} | "
            f"{statistics.median(r['rss_timed_mb'] for r in runs):.1f} | "
            f"{statistics.median(r['rss_checks_mb'] for r in runs):.1f} "
            f"({max(r['rss_checks_mb'] for r in runs):.1f}) |")
    lines += ["", "## Per-seed values", "",
              "| set | workload | seed | wall s | " + " | ".join(METRICS) + " |",
              "|---|---|---:|---:|" + "---:|" * len(METRICS)]
    for name in SETS:
        for workload in WORKLOADS:
            for r in raw[name][workload]:
                lines.append(f"| {name} | {workload} | {r['seed']} | {r['wall_s']:.1f} | "
                             + " | ".join(f"{r[m]:.4g}" for m in METRICS) + " |")
    return "\n".join(lines) + "\n", ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--report", type=Path, help="also write the report here")
    args = parser.parse_args(argv)

    raw = {}
    for name in SETS:
        for workload in WORKLOADS:
            for seed in SEEDS:
                run = one_run(workload, seed)
                raw.setdefault(name, {}).setdefault(workload, []).append(run)
                print(name, workload, json.dumps(run), flush=True)

    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "spread.json").write_text(json.dumps(raw, indent=1))
    text, ok = render(raw)
    print(text)
    if args.report:
        args.report.write_text(text, encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
