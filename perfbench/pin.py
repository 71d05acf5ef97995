"""Rewrite pinned.json: the sha256 of every op's output for the pinned seed.

Run from the repository root after an intended change of output bytes:

    python3 perfbench/pin.py

Each workload is set up once at scale 1 and each distinct op runs once;
an op whose output fails its checks stops the script without writing.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.import_program()
    from perfbench.corpus import Generator
    from perfbench.measure import Runner
    from perfbench.workloads import WORKLOADS

    pinned = {}
    cwd = os.getcwd()
    run.WORK.mkdir(exist_ok=True)
    for name, factory in WORKLOADS.items():
        workdir = Path(tempfile.mkdtemp(prefix=f"pin-{name}-", dir=run.WORK))
        try:
            os.chdir(workdir)
            workload = factory()
            workload.setup(Generator(run.PINNED_SEED), 1.0)
            runner = Runner(workload)
            for op in workload.ops:
                runner.record(op, runner.run(op))
        finally:
            os.chdir(cwd)
            shutil.rmtree(workdir, ignore_errors=True)
        if runner.failures:
            sys.exit(f"pin: {name}: {runner.failures[0]}")
        pinned[name] = [runner.digests[op.id] for op in workload.ops]
    run.PINNED.write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
