#!/usr/bin/env python3
"""Check perfbench's seed-0 work counters against .github/work_counters.json.

Usage, from the root of the repository:

    python3 .github/work_counters.py

Runs every workload the file lists once with `perfbench/run.py --seed 0
--seconds 1 --trace 1`, requires `"failed": 0` (the seed-0 digest pins),
prints the pinned and measured table, and exits 1 when a ceiling is exceeded
by more than its slack or a floor is undercut. The counters are exact for a
seed, so the check trips on a change to the code, never on the host.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(HERE, "work_counters.json")) as f:
        spec = json.load(f)
    slack = spec["ceiling_slack"]
    workloads = spec["workloads"]
    ok = True
    measured = {}
    for w in workloads:
        result = run(w, spec["seed"])
        if result["failed"] != 0:
            print(f"{w}: {result['failed']} of {result['attempted']} results differ from the pins")
            ok = False
        measured[w] = result["metrics"]

    print(f"{'metric':<28} {'kind':<8} " + " ".join(f"{w + ' pin':>17} {'measured':>10}  " for w in workloads))
    for row in spec["rows"]:
        cells = []
        for w, pin in zip(workloads, row["pins"]):
            value = measured[w][row["metric"]]["value"]
            if row["kind"] == "ceiling":
                bad = value > pin * (1 + slack)
            else:
                bad = value < pin
            ok = ok and not bad
            cells.append(f"{pin:>17.3f} {value:>10.3f}{' !' if bad else '  '}")
        print(f"{row['metric']:<28} {row['kind']:<8} " + " ".join(cells))
    if not ok:
        print("work counters: FAIL (! marks a count past its pin)")
        return 1
    print("work counters: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
