"""Pin the answers of past runs as a regression reference.

    python3 perfbench/pin.py

Merges the answers that `run.py` wrote to out/runs/ into pinned.json: per
workload and seed, one letter per corpus query in corpus order (y or n).
A later run whose answer differs from a pinned one counts that query as
failed.  A pin only grows: answers that disagree with an existing pin are
reported and not merged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned.json"


def main() -> int:
    pins = json.loads(PINNED.read_text(encoding="utf-8")) if PINNED.is_file() else {}
    conflicts = 0
    for path in sorted((HERE / "out" / "runs").glob("*.json")):
        run = json.loads(path.read_text(encoding="utf-8"))
        seeds = pins.setdefault(run["workload"], {})
        old, new = seeds.get(str(run["seed"]), ""), run["answers"]
        common = min(len(old), len(new))
        if old[:common] != new[:common]:
            print(f"{path.name}: answers disagree with the pin", file=sys.stderr)
            conflicts += 1
            continue
        seeds[str(run["seed"])] = max(old, new, key=len)
    PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(", ".join(f"{w}: {len(s)} seeds" for w, s in sorted(pins.items())))
    return 1 if conflicts else 0


if __name__ == "__main__":
    sys.exit(main())
