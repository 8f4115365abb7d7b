"""Check that the benchmark is steady enough for its own bounds.

Usage, from the repository root:

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--first-seed 1]

Runs the benchmark untraced once per seed, one run at a time, and prints
for each end-to-end metric the median and the quartile spread (distance
between the first and third quartile as a share of the median) beside the
metric's bound from BENCHMARK.json. A spread above the bound fails; one
above a third of the bound is flagged. Exits 1 when a run fails or a
spread, other than that of setup_s, exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
            ]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        if len(results) < 2:
            continue
        print(f"{workload}: {len(results)} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            spread = quartile_spread(values)
            bound = metric["bound"]
            verdict = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "FAIL")
            if verdict == "FAIL" and metric["name"] != "setup_s":
                ok = False
            print(
                f"  {metric['name']:24s} median {statistics.median(values):12.6g} {metric['unit']:6s}"
                f" spread {spread:7.4f} bound {bound:5.3f} {verdict}"
                f"  [{' '.join(f'{v:.4g}' for v in values)}]"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
