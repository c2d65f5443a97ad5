"""Self-test of the benchmark: the same seed must give the same instance set
and exactly the same counters in two separate processes.

    python3 bench/selftest.py [--seed 3] [--seconds 1] [WORKLOAD ...]

Each workload runs twice with ``--trace 1``; every per-layer metric that is
not a time (counts, and the promoted and agreed fractions) must be equal.
Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def traced_run(workload: str, seed: int, seconds: float) -> tuple[str, dict, str]:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.strip().splitlines()
    header = next(line for line in lines if "instance set" in line)
    instance_set = header.split("instance set ")[1].split(",")[0]
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: run reported incorrect answers\n{done.stderr}")
    counters = {k: v["value"] for k, v in result["metrics"].items()
                if v["unit"] != "s" and not k.startswith("trace.overhead")}
    return instance_set, counters, header


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*",
                        default=["horn_lp", "fm_random", "chain_margin"])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        first = traced_run(workload, args.seed, args.seconds)
        second = traced_run(workload, args.seed, args.seconds)
        print(first[2])
        if first[0] != second[0]:
            ok = False
            print(f"{workload}: instance sets differ: {first[0]} != {second[0]}")
        diff = {k: (v, second[1].get(k)) for k, v in first[1].items()
                if second[1].get(k) != v}
        if diff or first[1].keys() != second[1].keys():
            ok = False
            print(f"{workload}: counters differ: {diff}")
        else:
            print(f"{workload}: instance set {first[0]} and {len(first[1])} "
                  f"counters repeat exactly")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
