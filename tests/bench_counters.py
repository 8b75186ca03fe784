"""Check a traced benchmark run against the counters committed beside this
script in `bench_counters.json`, or record them there.

    python3 bench/run.py --workload W --seed S --seconds 1 --trace 1 \\
        | python3 tests/bench_counters.py W S [--write]

The counters of a run are the outcome digest from its header line, the
`failed` count and every metric of unit `count` in its final JSON line: the
`engine.*` counters summed over the batch and the `*.calls` counts of one
traced round.  None of them depends on the machine or on `--seconds`.  The
script exits 1 and names each counter that differs from the committed one.
A change that moves a counter on purpose records the new values with
`--write` in the same commit and lists each old and new value.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

COMMITTED = Path(__file__).resolve().parent / "bench_counters.json"


def counters(output: str) -> dict:
    lines = output.splitlines()
    digest = re.search(r"; outcomes ([0-9a-f]+)$",
                       next(line for line in lines if line.startswith("workload=")))
    result = json.loads(lines[-1])
    found = {"outcomes": digest.group(1), "failed": result["failed"]}
    found.update((name, metric["value"]) for name, metric in result["metrics"].items()
                 if metric["unit"] == "count")
    return found


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[2:] not in ([], ["--write"]):
        raise SystemExit(__doc__.split("\n\n")[1])
    workload, seed = argv[:2]
    found = counters(sys.stdin.read())
    committed = json.loads(COMMITTED.read_text(encoding="utf-8"))
    if argv[2:]:
        committed.setdefault(workload, {})[seed] = found
        COMMITTED.write_text(json.dumps(committed, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
        return 0
    want = committed[workload][seed]
    differ = [f"{name}: committed {want.get(name)}, run {found.get(name)}"
              for name in sorted(want.keys() | found.keys())
              if want.get(name) != found.get(name)]
    for line in differ:
        print(f"{workload} seed {seed}: {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
