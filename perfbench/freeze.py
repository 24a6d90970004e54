"""Write perfbench/expected.json: the answer digest of every op with fixed
inputs, taken from the program as it is checked out now.

    python3 perfbench/freeze.py

Run it only at the commit whose answers are the reference; the benchmark
then reports any op whose answer differs from this table as wrong.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, WORK, WORKLOADS, build_ops, load_program


def main() -> int:
    corpus = load_program()
    from workloads import digest

    digests = {}
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="freeze-", dir=WORK))
    try:
        for workload in WORKLOADS:
            # Which fixed-input ops exist does not depend on the seed; only their order does.
            for op in build_ops(workload, 1, corpus, work):
                if op.frozen:
                    digests[op.key] = digest(op, op.run())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    commit = git.stdout.strip()
    table = {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "digests": dict(sorted(digests.items())),
    }
    (HERE / "expected.json").write_text(json.dumps(table, indent=1) + "\n")
    print(f"froze {len(digests)} answers at commit {table['commit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
