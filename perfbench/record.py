"""Record the checked outputs of every workload and input seed into expected.json.

    python3 perfbench/record.py

Run from the root of a checkout whose outputs are known to be right.  run.py
then requires every operation to reproduce them: escaped counts, ensemble
counts, trace rows and trace survivors exactly, alpha to 1e-12 relative.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.WORK))
    doc: dict = {}
    try:
        for name in workloads.WORKLOADS:
            doc[name] = {}
            for seed in range(workloads.POOL):
                op = run.run_op(name, seed, False, None, workdir)
                if op.error:
                    print(f"{name} seed {seed}: {op.error}", file=sys.stderr)
                    return 1
                doc[name][str(seed)] = op.observed
                print(f"{name} seed {seed}: {op.wall_s:.2f} s", flush=True)
    finally:
        shutil.rmtree(workdir)
    (run.HERE / "expected.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
