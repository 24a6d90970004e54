"""Self-check of the traced run: the exact counts (calls, nodes, cells,
verts, Smith work and dimensions, output bytes, spans) must be identical
in two traced runs at the same seed.

    python3 perfbench/selfcheck.py --workload cli_corpus --seed 1 --seconds 5

Exits 1 and lists the counts that differ, 0 when all agree.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS

TIMES = ("ms", "s")


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.splitlines()[-1])["metrics"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, action="append")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=5)
    args = p.parse_args(argv)
    status = 0
    for workload in args.workload or WORKLOADS:
        first, second = (traced_run(workload, args.seed, args.seconds) for _ in range(2))
        counts = [name for name, m in first.items() if m["unit"] not in TIMES]
        differ = [name for name in counts if first[name]["value"] != second[name]["value"]]
        for name in differ:
            print(f"{workload}: {name} differs: {first[name]['value']} vs {second[name]['value']}")
        print(f"{workload}: {len(counts) - len(differ)}/{len(counts)} exact counts identical in two traced runs")
        status = status or int(bool(differ))
    return status


if __name__ == "__main__":
    sys.exit(main())
