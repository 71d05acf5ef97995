"""Benchmark of the simscan command line on seeded synthetic corpora.

Usage, from the repository root:

    python3 perfbench/run.py --workload {compare,index,scan} --seed N \\
        --seconds S --trace {0,1} [--scale F]

The program is imported from ``src/`` next to this directory; nothing is
installed or built.  Set-up generates the workload's inputs from the seed
(three times, reporting the median set-up time), then one client runs the
workload's ``simscan`` commands in a closed loop for S seconds of op time
and checks every output.

With ``--trace 0`` the result carries the end-to-end metrics, each on
every workload: median and tail op latency, documents read from text per
second of op time (two per compare, a shard per index, one suspect per
scan), bytes per document of an index of the workload's documents (twelve
compare references indexed during set-up, the index ops' own output, the
scan set-up's index), median set-up time and peak RSS.  The tail is the
highest percentile with ten samples beyond it.  With ``--trace 1`` the
result carries the per-layer metrics of a separate traced run (see
``tracer.py``).  Times are wall times scaled by the host-speed
calibrations taken around them (see ``calibration.py``).  ``--scale`` shrinks the number of documents and
ops for quick self-tests; results are comparable only at the default of 1.

Output: a line ``{"meta": {...}}`` with the git sha, Python version,
nproc, LCS backend, seed, op count, error rate, host speed, raw wall
times, tail percentile and tracing overhead, then, as the last line,
``{"correct", "attempted", "failed", "metrics"}``; ``failed`` over
``attempted`` is the error rate.  The same record, with the spans of a
traced run, is written to ``.perfbench_out/`` under the repository root.
Failed checks are listed on stderr.  For seed 1 at scale 1 every op's
output must also match the sha256 pinned in ``pinned.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINNED = Path(__file__).with_name("pinned.json")
PINNED_SEED = 1
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_out"


def import_program():
    """Put the checkout's sources first on the path and check they load."""
    if not (SRC / "simscan" / "__init__.py").is_file():
        sys.exit(f"perfbench: simscan sources not found under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import simscan

    if Path(simscan.__file__).resolve().parent != SRC / "simscan":
        sys.exit(f"perfbench: imported simscan from {simscan.__file__}, not {SRC}")


def git_sha() -> str:
    """HEAD's commit, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pinned_digests(workload: str, seed: int, scale: float) -> list[str] | None:
    if seed != PINNED_SEED or scale != 1.0:
        return None
    return json.loads(PINNED.read_text())[workload]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("compare", "index", "scan"))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=10.0, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="corpus and op-count factor")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from perfbench import measure
    from perfbench.calibration import HostClock
    from simscan import LCS_BACKEND

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    cwd = os.getcwd()
    try:
        clock = HostClock()
        workload, setup_times, setup_wall = measure.set_up(
            args.workload, args.seed, args.scale, workdir, clock
        )
        runner = measure.Runner(workload, pinned_digests(args.workload, args.seed, args.scale))
        if args.trace:
            values, extra, spans = measure.measure_traced(runner, args.seconds, clock, args.seed)
            units = measure.PER_LAYER_UNITS
        else:
            values, extra = measure.measure(runner, args.seconds, clock, setup_times)
            extra["tracing_overhead_ms"] = None
            spans, units = [], measure.END_TO_END_UNITS
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "lcs_backend": LCS_BACKEND,
        "ops": runner.attempted,
        "distinct_ops": len(workload.ops),
        "error_rate": failed / runner.attempted,
        "host_speed": clock.speed(),
        "wall_setup_s": setup_wall,
        **extra,
    }
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = {"meta": meta, "result": result, "failures": runner.failures,
              "spans": [vars(span) for span in spans]}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")
    for failure in runner.failures[:20]:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
