"""Command-line pipeline: scene -> trace -> build -> beams, plus validate.

Exit codes: 0 success, 1 validation/pipeline failure, 2 usage error.
All diagnostics and progress go to stderr; declared output files are
written atomically (temp file + rename), so an interrupted run never
leaves a partial output under its final name.

The default output directory can be set with the MIMOGEN_OUT_DIR
environment variable.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence, TextIO

import numpy as np

from . import __version__, parallel
from .beams import (
    ML_MANIFEST,
    BeamEvalConfig,
    dft_codebook,
    verify_ml_dataset,
    write_ml_dataset,
)
from .dataset import (
    DatasetError,
    DatasetReader,
    ScenarioMismatchError,
    ShardReader,
    active_user_indices,
    atomic_write,
    batch_users,
    content_hash,
    file_digest,
    shard_sources,
    write_files,
    write_shards,
)
from .kvconfig import ConfigError, KVEntry, merge_kv
from .parallel import OrderedPool, WorkerError, peak_rss_kib
from .params import KEYS, ParamSet, ParamError, params_from_entries, serialize_params
from .rayio import (
    MAX_PATHS,
    RayFileError,
    RayFileHeader,
    check_follows,
    encode_head,
    encode_rows,
    read_rayfile,
)
from .scene import (
    Scene,
    SceneConfigError,
    build_o1_scene,
    scene_from_json,
    scene_to_json,
    user_positions,
    users_in_row_range,
)
from .tracer import image_node_counts, trace_paths_batch

_TRACE_CHUNK = 1024
_TRACE_POOL_STEPS = 5      # the fewest trace steps that fork workers (measured: README)


class ProgressReporter:
    """Machine-readable progress lines ``STAGE done/total`` on stderr,
    rate-limited to one line per whole-percent increment plus a final line."""

    def __init__(self, stage: str, total: int, stream: TextIO | None = None,
                 quiet: bool = False):
        self.stage = stage
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.quiet = quiet
        self._last_pct = -1
        self._final_emitted = False

    def update(self, done: int, total: int | None = None) -> None:
        if total is not None:
            self.total = total
        if done > self.total:
            done = self.total
        if self.quiet:
            return
        pct = 100 if self.total == 0 else int(100 * done / self.total)
        if done == self.total:
            if not self._final_emitted:
                self.stream.write(f"{self.stage} {done}/{self.total}\n")
                self._final_emitted = True
            return
        if pct > self._last_pct:
            self._last_pct = pct
            self.stream.write(f"{self.stage} {done}/{self.total}\n")


@dataclass
class RunManifest:
    subcommand: str
    config_hash: str
    input_hashes: dict[str, str]
    outputs: list[str]
    wall_seconds: float
    tool_version: str = ""
    counters: dict[str, int] = field(default_factory=dict)

    def write(self, path: Path) -> None:
        doc = {
            "subcommand": self.subcommand,
            "config_hash": self.config_hash,
            "input_hashes": self.input_hashes,
            "outputs": self.outputs,
            "wall_seconds": self.wall_seconds,
            "tool_version": self.tool_version or __version__,
        }
        if self.counters:
            doc["counters"] = self.counters
        atomic_write(path, (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode())


def _file_hash(path: Path) -> str:
    return file_digest(path)[1]


def _default_outdir() -> str:
    return os.environ.get("MIMOGEN_OUT_DIR", ".")


def _load_scene(path: str) -> Scene:
    return scene_from_json(Path(path).read_text())


def _merged_config(args: argparse.Namespace, flags: Iterable[str] = ()) -> dict[str, KVEntry]:
    """``--config`` file < ``--set`` items < the given per-key flags."""
    return merge_kv(
        Path(args.config).read_text() if args.config else None,
        args.set or (),
        {f: getattr(args, f) for f in flags if getattr(args, f) is not None},
    )


def _params_from_args(args: argparse.Namespace) -> ParamSet:
    return params_from_entries(_merged_config(args, KEYS))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_scene(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    if args.preset != "o1":
        return _usage_error(f"unknown preset {args.preset!r}")
    overrides = _merged_config(args)
    scene = build_o1_scene(overrides)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(out, scene_to_json(scene).encode())
    inputs = {args.config: _file_hash(Path(args.config))} if args.config else {}
    RunManifest(
        subcommand="scene",
        config_hash=content_hash(
            "\n".join(sorted(f"{k}={e.value}" for k, e in overrides.items())).encode()),
        input_hashes=inputs,
        outputs=[str(out)],
        wall_seconds=time.monotonic() - t0,
    ).write(out.with_name(out.name + ".manifest.json"))
    if not args.quiet:
        print(
            f"scene: {len(scene.base_stations)} base stations, "
            f"{scene.total_rows} rows, {scene.total_users} users -> {out}",
            file=sys.stderr,
        )
    return 0


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_trace(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    try:
        bs_ids = [int(s) for s in args.bs.split(",") if s]
    except ValueError:
        return _usage_error(f"--bs must be comma-separated integers, got {args.bs!r}")
    if not bs_ids:
        return _usage_error(f"--bs names no base station, got {args.bs!r}")
    if len(set(bs_ids)) < len(bs_ids):
        return _usage_error(f"--bs names a base station twice, got {args.bs!r}")
    if args.max_reflections < 0:
        return _usage_error(f"--max-reflections must be >= 0, got {args.max_reflections}")
    if not 1 <= args.max_paths <= MAX_PATHS:
        return _usage_error(f"--max-paths must be in 1..{MAX_PATHS}, got {args.max_paths}")
    scene = _load_scene(args.scene)
    for bs_id in bs_ids:
        scene.bs_by_id(bs_id)  # fail early on unknown ids
    indices = users_in_row_range(scene, args.active_user_first, args.active_user_last)
    positions = user_positions(scene, indices)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    def trace(lo: int, bs_id: int) -> tuple[np.ndarray, np.ndarray, dict[str, int]]:
        """Base station ``bs_id``'s user indices, encoded records and
        counters for the ``_TRACE_CHUNK`` users from ``lo``."""
        batch = trace_paths_batch(scene, bs_id, positions[lo: lo + _TRACE_CHUNK],
                                  user_indices=indices[lo: lo + _TRACE_CHUNK],
                                  max_reflections=args.max_reflections, max_paths=args.max_paths)
        with_k = np.bincount(batch.users["n_paths"]).tolist()
        key = f"bs{bs_id:03d}."
        return batch.users["user_index"], encode_rows(batch, bs_id, lo), {
            key + "image_nodes_searched": batch.nodes_searched,
            key + "image_nodes_yielding": batch.nodes_yielding,
            key + "paths": len(batch.paths), key + "users_without_paths": with_k[0],
            **{key + f"users_with_{k}_paths": n for k, n in enumerate(with_k) if n}}

    # Summed over the steps; the tree sizes also build the workers' geometry.
    counters = collections.Counter({f"bs{b:03d}.image_nodes": image_node_counts(
        scene, b, args.max_reflections) for b in bs_ids})
    last: dict[int, int | None] = dict.fromkeys(bs_ids)

    def write(step: tuple[int, list]) -> tuple[np.ndarray, list[np.ndarray]]:
        lo, chunks = step
        for bs_id, (index, _, counts) in zip(bs_ids, chunks):
            check_follows(last[bs_id], index, lo)
            last[bs_id] = int(index[-1])
            counters.update(counts)
        return indices[lo: lo + _TRACE_CHUNK], [chunk for _, chunk, _ in chunks]

    starts = range(0, indices.size, _TRACE_CHUNK)
    reporter = ProgressReporter("TRACE", len(bs_ids) * indices.size, quiet=args.quiet)
    outputs = [outdir / f"rays_bs{bs_id:03d}.drf" for bs_id in bs_ids]
    heads = [encode_head(RayFileHeader(bs_id, scene.carrier_freq, indices.size, scene.name))
             for bs_id in bs_ids]
    workers = min(parallel.worker_count(), len(starts)) if len(starts) >= _TRACE_POOL_STEPS else 0
    with OrderedPool("trace", workers) as pool:
        traced = pool.map(trace, ((lo, bs_id) for lo in starts for bs_id in bs_ids))
        steps = ((lo, [next(traced) for _ in bs_ids]) for lo in starts)
        write_files(outputs, heads, steps, write, lambda done: reporter.update(len(bs_ids) * done))
    counters.update(workers=workers, users_per_step=_TRACE_CHUNK,
                    workers_peak_rss_kib=pool.peak_rss_kib, peak_rss_kib=peak_rss_kib())
    RunManifest(
        subcommand="trace",
        config_hash=content_hash(
            f"{args.bs} {args.active_user_first} {args.active_user_last} "
            f"{args.max_reflections} {args.max_paths}".encode()
        ),
        input_hashes={args.scene: _file_hash(Path(args.scene))},
        outputs=[str(out) for out in outputs],
        wall_seconds=time.monotonic() - t0,
        counters=counters,
    ).write(outdir / "trace.manifest.json")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    scene = _load_scene(args.scene)
    params = _params_from_args(args)
    rays_dir = Path(args.rays_dir)

    def ray_file(bs_id: int) -> Path:
        return rays_dir / f"rays_bs{bs_id:03d}.drf"

    sources = {}
    for bs_id in params.active_bs:
        path = ray_file(bs_id)
        if not path.exists():
            print(f"error: missing ray file for active base station {bs_id}: {path}",
                  file=sys.stderr)
            return 1
        with path.open("rb") as fh:
            sources[bs_id] = read_rayfile(fh)
    total = len(params.active_bs) * active_user_indices(scene, params).size
    reporter = ProgressReporter("BUILD", total, quiet=args.quiet)
    try:
        source = shard_sources(sources, params, scene)
    except ScenarioMismatchError as exc:
        print(f"error: {ray_file(exc.bs_id)}: {exc}", file=sys.stderr)
        return 1
    outdir = Path(args.out_dir)
    counters: dict[str, int] = {}
    manifest = write_shards(outdir, source, fmt=args.format, progress=reporter.update,
                            counters=counters)
    for gaps, entry in zip(source.gaps, manifest.entries):
        counters[f"bs{entry.bs_id:03d}.zero_channel_gaps"] = gaps
        counters[f"bs{entry.bs_id:03d}.shard_bytes"] = entry.byte_size
    counters["peak_rss_kib"] = peak_rss_kib()
    RunManifest(
        subcommand="build",
        config_hash=content_hash(serialize_params(params).encode()),
        input_hashes={args.scene: _file_hash(Path(args.scene)),
                      **{str(ray_file(b)): _file_hash(ray_file(b)) for b in params.active_bs}},
        outputs=[str(outdir / e.filename) for e in manifest.entries],
        wall_seconds=time.monotonic() - t0,
        counters=counters,
    ).write(outdir / "build.manifest.json")
    return 0


def _cmd_beams(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    for flag, value in (("--snr", args.snr), ("--oversampling", args.oversampling)):
        if not value > 0:
            return _usage_error(f"{flag} must be > 0, got {value}")
    outdir = Path(args.out_dir)
    with DatasetReader(args.dataset_dir) as ds:
        codebook = dft_codebook(ds.params.dims, oversampling=args.oversampling)
        cfg = BeamEvalConfig(codebook=codebook, snr=args.snr, conjugate=args.conjugate)
        reporter = ProgressReporter("BEAMS", len(ds.bs_ids) * ds.n_users, quiet=args.quiet)
        counters: dict[str, int] = {}
        manifest = write_ml_dataset(ds, cfg, outdir, progress=reporter.update,
                                    counters=counters)
    RunManifest(
        subcommand="beams",
        config_hash=content_hash(f"{args.snr} {args.oversampling} {args.conjugate}".encode()),
        input_hashes={args.dataset_dir: _file_hash(Path(args.dataset_dir) / "manifest.txt")},
        outputs=[str(outdir / e.filename) for e in manifest.entries],
        wall_seconds=time.monotonic() - t0,
        counters={
            **counters,
            "pairs": ds.n_users * len(ds.bs_ids),
            "shards_hash_verified": ds.verified,
            "features_bytes": manifest.entries[0].byte_size,
            "labels_bytes": manifest.entries[1].byte_size,
            "peak_rss_kib": peak_rss_kib(),
        },
    ).write(outdir / "beams.manifest.json")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    path = Path(args.path)
    problems: list[str] = []
    try:
        if (path / ML_MANIFEST).is_file():
            verify_ml_dataset(path)
        elif path.is_dir():
            with DatasetReader(path) as ds:
                for _ in ds.steps():
                    pass
        else:
            with path.open("rb") as fh:
                head = fh.read(4)
            if head == b"DMRF":
                with path.open("rb") as fh:
                    read_rayfile(fh)        # raises on any violation
            elif head == b"DMDS":
                with path.open("rb") as fh:
                    shard = ShardReader(fh, path.name)
                    for _ in shard.batches(batch_users(shard.params)):
                        pass
            else:
                scene_from_json(path.read_text())
    except (RayFileError, DatasetError, SceneConfigError, ConfigError, ParamError,
            OSError, UnicodeDecodeError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    for p in problems:
        print(f"violation: {p}", file=sys.stderr)
    if problems:
        return 1
    if not args.quiet:
        print(f"{path}: valid", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimogen",
        description="Geometric mmWave massive-MIMO channel dataset generator.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_scene = sub.add_parser("scene", help="build a scenario file")
    p_scene.add_argument("--preset", default="o1")
    p_scene.add_argument("--config", help="key=value scene config file")
    p_scene.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_scene.add_argument("--out", required=True)
    p_scene.add_argument("--quiet", action="store_true")
    p_scene.set_defaults(func=_cmd_scene)

    p_trace = sub.add_parser("trace", help="trace rays for selected base stations")
    p_trace.add_argument("--scene", required=True)
    p_trace.add_argument("--bs", required=True, help="comma-separated base station ids")
    p_trace.add_argument("--active_user_first", type=int, required=True)
    p_trace.add_argument("--active_user_last", type=int, required=True)
    p_trace.add_argument("--max-reflections", type=int, default=4)
    p_trace.add_argument("--max-paths", type=int, default=25)
    p_trace.add_argument("--out-dir", default=_default_outdir())
    p_trace.add_argument("--quiet", action="store_true")
    p_trace.set_defaults(func=_cmd_trace)

    p_build = sub.add_parser("build", help="build channel dataset from ray files")
    p_build.add_argument("--scene", required=True)
    p_build.add_argument("--rays-dir", required=True)
    p_build.add_argument("--config", help="key=value parameter file")
    p_build.add_argument("--set", action="append", metavar="KEY=VALUE")
    for key in KEYS:
        p_build.add_argument(f"--{key}")
    p_build.add_argument("--format", choices=("binary", "csv"), default="binary")
    p_build.add_argument("--out-dir", default=_default_outdir())
    p_build.add_argument("--quiet", action="store_true")
    p_build.set_defaults(func=_cmd_build)

    p_beams = sub.add_parser("beams", help="export beam-prediction features/labels")
    p_beams.add_argument("--dataset-dir", required=True)
    p_beams.add_argument("--snr", type=float, default=1.0, help="linear SNR")
    p_beams.add_argument("--oversampling", type=int, default=1)
    p_beams.add_argument("--conjugate", action="store_true",
                         help="use conjugate beamforming product")
    p_beams.add_argument("--out-dir", default=_default_outdir())
    p_beams.add_argument("--quiet", action="store_true")
    p_beams.set_defaults(func=_cmd_beams)

    p_val = sub.add_parser("validate", help="validate any pipeline artifact")
    p_val.add_argument("path")
    p_val.add_argument("--quiet", action="store_true")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, ParamError, SceneConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RayFileError, DatasetError, WorkerError, KeyError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
