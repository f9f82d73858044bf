"""mimogen pipeline benchmark: workloads, runners, the measuring loop and
the metrics it reports. ``run.py`` is the entry point; README.md in this
directory documents the metrics and which layer moves which of them.

End-to-end mode (``--trace 0``) drives the CLI as a user would: one child
process per subcommand, run one after another (a closed loop with one
client), each timed from outside, with its peak RSS read from its own
rusage. Traced mode (``--trace 1``) runs the same subcommands in this
process through ``mimogen.cli.run``, once untraced and once with spans
around the library calls, for the per-layer breakdown.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

import gate
from mimogen import cli
from gate import Case, Check
from mimogen.scene import scene_from_json, users_in_row_range
from spans import Probe, Tracer, layer_totals

BENCH_DIR = Path(__file__).resolve().parent
REFS_PATH = BENCH_DIR / "refs.json"

SETUP_REPS = 3          # `mimogen scene` runs per iteration; setup_s is the run's median
STARTUP_REPS = 2        # `mimogen --version` runs per traced iteration, for cli.startup_s
PAIRS_CHECKED = 2       # sampled (BS, user) pairs recomputed per iteration
STAGE_TIMEOUT_S = 100   # a stage running longer is killed and counts as failed


@dataclass(frozen=True)
class Workload:
    name: str
    bs: tuple[int, ...]
    first_rows: range       # the seed picks the first active row from here
    n_rows: int
    max_reflections: int
    params: tuple[str, ...] = ()

    def case(self, seed: int) -> Case:
        return self.case_at(random.Random(f"{self.name}:{seed}").choice(self.first_rows))

    def case_at(self, first_row: int) -> Case:
        return Case(self.name, self.bs, first_row, first_row + self.n_rows - 1,
                    self.max_reflections, self.params)


# BENCHMARK.json declares trace-heavy and channel-heavy. Each planned
# optimisation is exercised by one of them and bypassed by the other: the
# tracer by trace-heavy, the dataset and beams paths by channel-heavy.
# desk can be run by hand. It is not declared because the total time budget
# fits two workloads at 60 s per run but three only at about 40 s, and 40-s
# runs were not steady on a shared 2-core host whose speed drifts by up to
# 40% over tens of seconds.
WORKLOADS = {w.name: w for w in (
    # The paper's default config (BS 3-6, main-street rows from 1000, 256
    # antennas x 64 subcarriers, 4 reflections) shrunk to 2 rows, 1,448
    # pairs. Every layer does a real share of the work, so a regression
    # anywhere shows here. Peak RSS is set by `build`.
    Workload("desk", bs=(3, 4, 5, 6), first_rows=range(1000, 1008), n_rows=2,
             max_reflections=4),
    # Cross-street grid 3 (361 users per row at 0.1 m) around BS 17/18 with
    # a 4x2 array and 8 subcarriers: the tracer does most of the work and
    # build/beams memory is small. Its geometry and BS placement differ
    # from desk, so image-tree pruning shows its per-geometry effect.
    Workload("trace-heavy", bs=(17, 18), first_rows=range(4500, 4508), n_rows=3,
             max_reflections=4,
             params=("num_ant_y=4", "num_ant_z=2", "OFDM_limit=8")),
    # One main-street row, LOS plus single bounces, 128 subcarriers spread
    # over the band (512 KiB per pair): tracing is a few percent, while
    # build writes ~360 MB of shards that beams and validate read back, so
    # the dataset write path and read path show as separate metrics.
    Workload("channel-heavy", bs=(3, 4, 5, 6), first_rows=range(1000, 1008), n_rows=1,
             max_reflections=1,
             params=("OFDM_limit=128", "OFDM_sampling_factor=8")),
)}


# ---------------------------------------------------------------------------
# Pipeline commands
# ---------------------------------------------------------------------------

def scene_argv(work: Path) -> list[str]:
    return ["scene", "--preset", "o1", "--out", str(work / "scene.json"), "--quiet"]


def pipeline_argvs(case: Case, work: Path) -> list[tuple[str, list[str]]]:
    """(stage, argv) for trace, build, beams and every validate, in order,
    in the shape of the README's commands."""
    scene, rays, ds, ml = (str(work / n) for n in ("scene.json", "rays", "dataset", "ml"))
    sets = [x for line in case.param_lines() for x in ("--set", line)]
    ops = [
        ("trace", ["trace", "--scene", scene, "--bs", ",".join(map(str, case.bs)),
                   "--active_user_first", str(case.first_row),
                   "--active_user_last", str(case.last_row),
                   "--max-reflections", str(case.max_reflections),
                   "--out-dir", rays, "--quiet"]),
        ("build", ["build", "--scene", scene, "--rays-dir", rays, *sets,
                   "--out-dir", ds, "--quiet"]),
        ("beams", ["beams", "--dataset-dir", ds, "--out-dir", ml, "--quiet"]),
        ("validate", ["validate", ds, "--quiet"]),
    ]
    ops += [("validate", ["validate", f"{rays}/rays_bs{b:03d}.drf", "--quiet"])
            for b in case.bs]
    return ops


@dataclass(frozen=True)
class OpResult:
    rc: int
    wall_s: float
    maxrss_kib: int     # 0 when run in-process
    log: str            # stderr of the subcommand


class CliRunner:
    """Runs each subcommand as its own `python -m mimogen.cli` process."""

    def __init__(self, env: dict[str, str], logdir: Path):
        self.env = env
        self.logdir = logdir

    def __call__(self, argv: Sequence[str]) -> OpResult:
        log_path = self.logdir / "stderr.log"
        with log_path.open("w+") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "mimogen.cli", *argv],
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                # The child's own rusage: RUSAGE_CHILDREN would be a running
                # max over every child and smear one stage into the next.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            log = err.read()
        return OpResult(proc.returncode, wall, usage.ru_maxrss, log)  # KiB on Linux


class InProcessRunner:
    """Runs each subcommand through ``mimogen.cli.run`` in this process,
    capturing its stderr and the package's log records."""

    def __call__(self, argv: Sequence[str]) -> OpResult:
        buf = io.StringIO()
        handler = logging.StreamHandler(buf)
        logger = logging.getLogger("mimogen")
        logger.addHandler(handler)
        try:
            with contextlib.redirect_stderr(buf):
                t0 = time.perf_counter()
                rc = cli.run(list(argv))
                wall = time.perf_counter() - t0
        finally:
            logger.removeHandler(handler)
        return OpResult(rc, wall, 0, buf.getvalue())


Runner = Callable[[Sequence[str]], OpResult]


# ---------------------------------------------------------------------------
# One pipeline iteration and its checks
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Operations attempted and failed: one per planned subcommand
    invocation (a stage skipped after a failure counts as failed) and one
    per correctness check."""

    attempted: int = 0
    failed: int = 0

    def add_ops(self, planned: int, results: Sequence[OpResult]) -> None:
        self.attempted += planned
        self.failed += sum(r.rc != 0 for r in results) + planned - len(results)

    def add_checks(self, checks: Sequence[Check]) -> None:
        self.attempted += len(checks)
        self.failed += sum(not c.ok for c in checks)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def completed(case: Case, work: Path, ops: Sequence[tuple[str, OpResult]]) -> bool:
    return len(ops) == len(pipeline_argvs(case, work)) and not any(r.rc for _, r in ops)


def clear_outputs(work: Path) -> None:
    for name in ("rays", "dataset", "ml"):
        shutil.rmtree(work / name, ignore_errors=True)


def run_pipeline(case: Case, work: Path, runner: Runner) -> list[tuple[str, OpResult]]:
    """Run every stage in order; stop at the first failure."""
    clear_outputs(work)
    out = []
    for stage, argv in pipeline_argvs(case, work):
        r = runner(argv)
        out.append((stage, r))
        if r.rc != 0:
            break
    return out


def load_refs() -> dict:
    if not REFS_PATH.exists():
        return {}
    return json.loads(REFS_PATH.read_text())


def check_outputs(case: Case, work: Path, ops: Sequence[tuple[str, OpResult]],
                  refs: dict, rng: random.Random) -> list[Check]:
    checks = [gate.gap_check("".join(r.log for stage, r in ops if stage == "build"))]
    case_refs = refs.get("cases", {}).get(case.key)
    if case_refs is not None and refs.get("fingerprint") == gate.platform_fingerprint():
        checks += gate.reference_checks(case, work, case_refs)
    try:
        checks += gate.pair_checks(case, work, rng, PAIRS_CHECKED)
    except (OSError, ValueError) as exc:
        checks.append(Check("pairs", False, f"{type(exc).__name__}: {exc}"))
    return checks


def report_failures(ops: Sequence[tuple[str, OpResult]], checks: Sequence[Check]) -> None:
    for stage, r in ops:
        if r.rc != 0:
            print(f"FAILED {stage}: exit {r.rc}: {r.log.strip()[-500:]}", file=sys.stderr)
    for c in checks:
        if not c.ok:
            print(f"FAILED check {c.name}: {c.detail}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Measuring loops
# ---------------------------------------------------------------------------

def child_env(root: Path, threads: int) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "MIMOGEN_OUT_DIR"}
    env.update(PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads))
    return env


def timed_loop(seconds: float, body: Callable[[], None]) -> None:
    """Run ``body`` at least once, and again while another run is expected
    to finish within ``seconds`` of the start."""
    start = time.perf_counter()
    longest = 0.0
    n = 0
    while n == 0 or time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        body()
        longest = max(longest, time.perf_counter() - t0)
        n += 1


def end_to_end(case: Case, work: Path, seconds: float, env: dict[str, str],
               refs: dict, seed: int, tally: Tally) -> dict[str, list[float]]:
    runner = CliRunner(env, work)
    series: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        series.setdefault(name, []).append(value)

    it = 0

    def iteration() -> None:
        nonlocal it
        # Set-up is repeated in every iteration, so that its samples spread
        # over the run like the pipeline's do.
        for _ in range(SETUP_REPS):
            r = runner(scene_argv(work))
            tally.add_ops(1, [r])
            add("setup_s", r.wall_s)
        ops = run_pipeline(case, work, runner)
        checks = check_outputs(case, work, ops, refs, random.Random(f"{seed}:{it}"))
        it += 1
        tally.add_ops(len(pipeline_argvs(case, work)), [r for _, r in ops])
        tally.add_checks(checks)
        report_failures(ops, checks)
        if not completed(case, work, ops):
            return
        wall = {s: sum(r.wall_s for t, r in ops if t == s)
                for s in ("trace", "build", "beams", "validate")}
        rss = {s: max(r.maxrss_kib for t, r in ops if t == s) / 1024
               for s in ("trace", "build", "beams", "validate")}
        pipeline_s = sum(wall.values())
        add("pipeline_s", pipeline_s)
        add("pairs_per_s", n_pairs(work, case) / pipeline_s)
        for s in wall:
            add(f"{s}_s", wall[s])
        add("peak_rss_mb", max(rss.values()))
        add("build_rss_mb", rss["build"])
        add("beams_rss_mb", rss["beams"])

    timed_loop(seconds, iteration)
    return series


def n_pairs(work: Path, case: Case) -> int:
    """Active user-BS pairs of the case."""
    scene = scene_from_json((work / "scene.json").read_text())
    return len(case.bs) * users_in_row_range(scene, case.first_row, case.last_row).size


def _hashed(args, kwargs, result):
    return {"dataset.hash_bytes": len(args[0])}


# Names bound in the CLI are wrapped where the CLI looks them up; the names
# the dataset and beams modules import from each other are wrapped in the
# consumer module, so calls nest under the layer that made them.

PROBES = [
    *(Probe("mimogen.cli", f"_cmd_{c}", "cli")
      for c in ("scene", "trace", "build", "beams", "validate")),
    Probe("mimogen.cli", "build_o1_scene", "scene.build"),
    Probe("mimogen.cli", "scene_to_json", "scene.build"),
    Probe("mimogen.cli", "trace_paths_batch", "tracer", lambda a, k, r: {
        "tracer.pairs": len(r),
        "tracer.paths": sum(len(pl.paths) for pl in r),
        "tracer.empty": sum(not pl.paths for pl in r)}),
    Probe("mimogen.cli", "write_rayfile", "rayio.write",
          lambda a, k, r: {"rayio.write_bytes": r}),
    Probe("mimogen.cli", "read_rayfile", "rayio.read",
          lambda a, k, r: {"rayio.read_bytes": a[0].tell()}),
    Probe("mimogen.cli", "build_dataset", "dataset.build"),
    Probe("mimogen.dataset", "channel_matrices_batch", "channel",
          lambda a, k, r: {"channel.matrices": r.shape[0], "channel.bytes": r.nbytes}),
    Probe("mimogen.cli", "export_dataset", "dataset.export"),
    Probe("mimogen.dataset", "shard_bytes", "dataset.encode",
          lambda a, k, r: {"dataset.shard_bytes": len(r)}),
    Probe("mimogen.dataset", "content_hash", "dataset.hash", _hashed),
    Probe("mimogen.cli", "load_dataset", "dataset.load"),
    Probe("mimogen.dataset", "parse_shard", "dataset.parse",
          lambda a, k, r: {"dataset.parse_bytes": len(a[0])}),
    Probe("mimogen.cli", "build_ml_dataset", "beams"),
    Probe("mimogen.beams", "build_ml_records", "beams.records"),
    Probe("mimogen.beams", "get_channel", "dataset.get_channel"),
    Probe("mimogen.beams", "beam_rates", "beams.rates"),
    Probe("mimogen.beams", "export_ml_dataset", "beams.export",
          lambda a, k, r: {"beams.csv_bytes": sum(e.byte_size for e in r.entries)}),
    Probe("mimogen.beams", "content_hash", "dataset.hash", _hashed),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, pipeline_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline (plus its scene stage)."""
    t = layer_totals(tracer.spans)
    c = tracer.counters
    MB = 1e6

    def self_s(name: str) -> float:
        return t[name].self_s if name in t else 0.0

    def incl_s(name: str) -> float:
        return t[name].incl_s if name in t else 0.0

    def calls(name: str) -> int:
        return t[name].calls if name in t else 0

    return {
        "tracer.self_s": self_s("tracer"),
        "tracer.ms_per_pair": 1e3 * _ratio(self_s("tracer"), c["tracer.pairs"]),
        "tracer.calls": calls("tracer"),
        "tracer.paths_per_pair": _ratio(c["tracer.paths"], c["tracer.pairs"]),
        "tracer.empty_frac": _ratio(c["tracer.empty"], c["tracer.pairs"]),
        "tracer.self_frac": _ratio(self_s("tracer"), pipeline_s),
        "rayio.write_s": self_s("rayio.write"),
        "rayio.read_s": self_s("rayio.read"),
        "rayio.bytes": c["rayio.write_bytes"],
        "rayio.write_mb_per_s": _ratio(c["rayio.write_bytes"] / MB, self_s("rayio.write")),
        "rayio.read_mb_per_s": _ratio(c["rayio.read_bytes"] / MB, self_s("rayio.read")),
        "channel.self_s": self_s("channel"),
        "channel.matrices": c["channel.matrices"],
        "channel.matrices_per_s": _ratio(c["channel.matrices"], self_s("channel")),
        "channel.computed_mb": c["channel.bytes"] / MB,
        "dataset.build_self_s": self_s("dataset.build"),
        "dataset.encode_s": self_s("dataset.encode"),
        "dataset.export_self_s": self_s("dataset.export"),
        "dataset.shard_bytes": c["dataset.shard_bytes"],
        "dataset.export_mb_per_s": _ratio(c["dataset.shard_bytes"] / MB,
                                          incl_s("dataset.export")),
        "dataset.hash_s": self_s("dataset.hash"),
        "dataset.hash_mb_per_s": _ratio(c["dataset.hash_bytes"] / MB, self_s("dataset.hash")),
        "dataset.load_self_s": self_s("dataset.load"),
        "dataset.parse_s": self_s("dataset.parse"),
        "dataset.load_mb_per_s": _ratio(c["dataset.parse_bytes"] / MB,
                                        incl_s("dataset.load")),
        "beams.rates_s": self_s("beams.rates"),
        "beams.rate_calls": calls("beams.rates"),
        "beams.records_self_s": self_s("beams.records"),
        "beams.export_s": self_s("beams.export"),
        "beams.csv_bytes": c["beams.csv_bytes"],
        "beams.csv_mb_per_s": _ratio(c["beams.csv_bytes"] / MB, self_s("beams.export")),
        "scene.build_s": self_s("scene.build"),
        "cli.self_s": self_s("cli"),
    }


def per_layer(case: Case, work: Path, seconds: float, env: dict[str, str],
              refs: dict, seed: int, tally: Tally) -> dict[str, list[float]]:
    cli_runner = CliRunner(env, work)
    runner = InProcessRunner()
    series: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        series.setdefault(name, []).append(value)

    it = 0

    def iteration() -> None:
        nonlocal it
        for _ in range(STARTUP_REPS):
            r = cli_runner(["--version"])
            tally.add_ops(1, [r])
            add("cli.startup_s", r.wall_s)
        planned = 1 + len(pipeline_argvs(case, work))
        r = runner(scene_argv(work))
        plain = run_pipeline(case, work, runner)
        tally.add_ops(planned, [r, *(x for _, x in plain)])
        tracer = Tracer()
        with tracer.patched(PROBES):
            r = runner(scene_argv(work))
            ops = run_pipeline(case, work, runner)
        checks = check_outputs(case, work, ops, refs, random.Random(f"{seed}:{it}"))
        it += 1
        tally.add_ops(planned, [r, *(x for _, x in ops)])
        tally.add_checks(checks)
        report_failures(ops, checks)
        add("dataset.gap_warnings", sum(x.log.count(gate.GAP_MARKER) for _, x in ops))
        if not (completed(case, work, plain) and completed(case, work, ops)):
            return
        traced_s = sum(x.wall_s for _, x in ops)
        for name, value in layer_metrics(tracer, traced_s).items():
            add(name, value)
        add("trace_overhead_frac", traced_s / sum(x.wall_s for _, x in plain) - 1.0)

    timed_loop(seconds, iteration)
    return series


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def summary(values: Sequence[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q1, q3


def result(spec: Sequence[dict], series: dict[str, list[float]], tally: Tally) -> dict:
    """Print one `#` line per metric and return the result object."""
    metrics = {}
    for m in spec:
        values = series.get(m["name"], [])
        if not values:
            print(f"# {m['name']:<26} no successful sample")
            continue
        med, q1, q3 = summary(values)
        print(f"# {m['name']:<26} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"n={len(values)} {m['unit']}")
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
    print(f"# {'failed_frac':<26} {tally.failed}/{tally.attempted} = {tally.failed_frac:.6g}")
    correct = tally.failed == 0 and tally.attempted > 0 and len(metrics) == len(spec)
    return {"correct": correct, "attempted": max(tally.attempted, 1),
            "failed": tally.failed, "metrics": metrics}


def environment(nproc: int, threads: int, refs: dict) -> str:
    fp = gate.platform_fingerprint()
    ref_state = "comparable" if refs.get("fingerprint") == fp else "not comparable"
    return (f"nproc={nproc} python={sys.version.split()[0]} numpy={np.__version__} "
            f"OPENBLAS_NUM_THREADS={threads} OMP_NUM_THREADS={threads} workers=default "
            f"platform='{fp}' reference_hashes={ref_state}")


def record_refs(work: Path, env: dict[str, str]) -> dict:
    """Run every first row of every workload once through the CLI and
    return the SHA-256 of each output, keyed by case. A case whose run
    fails any operation or sampled-pair check is an error."""
    runner = CliRunner(env, work)
    cases = {}
    for w in WORKLOADS.values():
        for first in w.first_rows:
            case = w.case_at(first)
            r = runner(scene_argv(work))
            ops = run_pipeline(case, work, runner)
            checks = check_outputs(case, work, ops, {}, random.Random(case.key))
            report_failures(ops, checks)
            if r.rc or not completed(case, work, ops) or not all(c.ok for c in checks):
                raise RuntimeError(f"{case.key}: pipeline failed; no reference recorded")
            cases[case.key] = {rel: gate.sha256_file(work / rel)
                               for rel in gate.output_files(case)}
            print(f"recorded {case.key}", file=sys.stderr)
    return {"fingerprint": gate.platform_fingerprint(), "cases": cases}
