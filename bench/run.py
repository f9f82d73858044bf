"""Benchmark entry point; run from the root of a mimogen checkout:

    python3 bench/run.py --workload channel-heavy --seed 1 --seconds 60 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric's median, quartiles and sample count. Exit code 0 when
every operation and check passed, 1 when one failed, 2 when the checkout
has no program to measure.

``python3 bench/run.py --record-refs`` re-records bench/refs.json, the
output hashes the correctness gate compares against.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-refs", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "mimogen" / "cli.py").is_file():
        print(f"error: no mimogen sources under {ROOT / 'src'}; "
              "run from the root of a mimogen checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # Pin BLAS threads before numpy is imported, here and in every child.
    # One thread: a second made `beams` only about 5% faster on a 2-core
    # host, and one thread keeps each stage on a single core.
    threads = 1
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(threads)
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    # On SIGTERM, unwind: the running child is killed and waited for, and the
    # work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = harness.child_env(ROOT, threads)
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        if args.record_refs:
            refs = harness.record_refs(work, env)
            harness.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
            return 0
        if args.workload not in harness.WORKLOADS:
            ap.error(f"--workload must be one of {sorted(harness.WORKLOADS)}")
        case = harness.WORKLOADS[args.workload].case(args.seed)
        refs = harness.load_refs()
        tally = harness.Tally()
        measure = harness.per_layer if args.trace else harness.end_to_end
        series = measure(case, work, args.seconds, env, refs, args.seed, tally)
        print(f"# workload={case.workload} seed={args.seed} rows={case.first_row}.."
              f"{case.last_row} bs={','.join(map(str, case.bs))} "
              f"mode={'traced in-process' if args.trace else 'cli, one client, closed loop'}")
        print("# " + harness.environment(len(os.sched_getaffinity(0)), threads, refs))
        out = harness.result(spec["per_layer" if args.trace else "end_to_end"], series, tally)
        print(json.dumps(out), flush=True)
        return 0 if out["correct"] else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
