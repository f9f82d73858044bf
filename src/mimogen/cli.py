"""Command-line pipeline: scene -> trace -> build -> beams, plus validate.

Exit codes: 0 success, 1 validation/pipeline failure, 2 usage error. A
subcommand raises on failure; ``run`` alone turns the exception into one
``error:`` line and its exit code (a ``ConfigError`` is a usage error).
``validate`` prints its ``violation:`` lines itself. ``trace`` and ``build``
read one parameter set, with the same flags (``_params_from_args``):
``trace`` takes its base stations and rows, ``build`` the whole of it.
Each stage writes its run manifest with ``_write_run``; ``_STAGES`` names
the manifests that mark each stage's output in a directory (a scene's:
any other ``*.manifest.json``) and the check, given their paths, that
``validate <dir>`` runs for each stage whose manifest the directory holds.
All diagnostics and progress go to stderr; outputs are written atomically
(temp file + rename), so an interrupted run never leaves a partial output
under its final name. MIMOGEN_OUT_DIR sets the default output directory.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TextIO

from . import __version__, parallel
from .files import (
    MANIFEST, MAX_PATHS, ML_MANIFEST, RAY_FILE_MAGIC, SHARD_MAGIC, DatasetError, RayFileError,
    atomic_write, content_hash, file_digest, write_files,
)
from .kvconfig import ConfigError, KVEntry, merge_kv, read_text
from .params import KEYS, ParamSet, params_from_entries, serialize_params
from .parallel import OrderedPool, WorkerError, peak_rss_kib
from .scene import Scene, SceneConfigError, build_o1_scene, scene_from_json, scene_to_json

# numpy and the stage modules are imported by the subcommands that run
# them, so `--version`, `scene` and `validate <scene file>` start without
# numpy (README, "Start-up"). Each is imported before any pool forks.

_TRACE_CHUNK = 1024
_TRACE_POOL_STEPS = 5      # the fewest trace steps that fork workers (measured: README)
_RUN_MANIFEST = "{}.manifest.json"     # a stage's run manifest: named for the stage or scene file


class ProgressReporter:
    """Machine-readable progress lines ``STAGE done/total`` on stderr,
    rate-limited to one line per whole-percent increment; the line at 100%
    is the one with ``done == total``."""

    def __init__(self, stage: str, total: int, stream: TextIO | None = None,
                 quiet: bool = False):
        self.stage = stage
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.quiet = quiet
        self._last_pct = -1

    def update(self, done: int) -> None:
        if self.quiet:
            return
        pct = 100 if self.total == 0 else int(100 * done / self.total)
        if pct > self._last_pct:
            self._last_pct = pct
            self.stream.write(f"{self.stage} {done}/{self.total}\n")


def _write_run(path: Path, subcommand: str, t0: float, config: str,
               inputs: Mapping[str, str | Path], outputs: Iterable[str | Path],
               counters: dict[str, int] | None = None) -> None:
    """Write a stage's run manifest to ``path``: the hash of its ``config``
    text and of each input (``inputs`` maps the name recorded to the file
    hashed), its outputs, the seconds since ``t0`` and, when ``counters``
    are given, those with this process's ``peak_rss_kib``."""
    doc = {
        "subcommand": subcommand,
        "config_hash": content_hash(config.encode()),
        "input_hashes": {name: file_digest(Path(file))[1] for name, file in inputs.items()},
        "outputs": [str(out) for out in outputs],
        "wall_seconds": time.monotonic() - t0,
        "tool_version": __version__,
    }
    if counters is not None:
        doc["counters"] = {**counters, "peak_rss_kib": peak_rss_kib()}
    atomic_write(path, (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode())


def _default_outdir() -> str:
    return os.environ.get("MIMOGEN_OUT_DIR", ".")


def _load_scene(path: str | Path) -> Scene:
    return scene_from_json(read_text(path, SceneConfigError))


class _Given(argparse.Action):
    """Keeps a flag's value with its option string as typed (``trace --bs``)."""

    def __call__(self, parser, namespace, value, option_string=None):
        setattr(namespace, self.dest, (option_string, value))


def _merged_config(args: argparse.Namespace, flags: Iterable[str] = ()) -> dict[str, KVEntry]:
    """``--config`` file < ``--set`` items < the given per-key flags."""
    return merge_kv(
        read_text(args.config) if args.config else None,
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
        raise ConfigError(f"unknown preset {args.preset!r}")
    overrides = _merged_config(args)
    scene = build_o1_scene(overrides)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(out, scene_to_json(scene).encode())
    _write_run(out.with_name(_RUN_MANIFEST.format(out.name)), "scene", t0,
               "\n".join(sorted(f"{k}={e.value}" for k, e in overrides.items())),
               {args.config: args.config} if args.config else {}, [out])
    if not args.quiet:
        print(
            f"scene: {len(scene.base_stations)} base stations, "
            f"{scene.total_rows} rows, {scene.total_users} users -> {out}",
            file=sys.stderr,
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import numpy as np
    from .rayio import FILE_NAME, RayFileHeader, check_follows, encode_head, encode_rows
    from .scene import user_positions, users_in_row_range
    from .tracer import image_node_counts, trace_paths_batch

    t0 = time.monotonic()
    params = _params_from_args(args)
    bs_ids = params.active_bs
    if args.max_reflections < 0:
        raise ConfigError(f"--max-reflections must be >= 0, got {args.max_reflections}")
    if not 1 <= args.max_paths <= MAX_PATHS:
        raise ConfigError(f"--max-paths must be in 1..{MAX_PATHS}, got {args.max_paths}")
    scene = _load_scene(args.scene)
    for bs_id in bs_ids:
        scene.bs_by_id(bs_id)  # fail early on unknown ids
    indices = users_in_row_range(scene, params.active_user_first, params.active_user_last)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    def trace(lo: int, bs_id: int) -> tuple[np.ndarray, np.ndarray, dict[str, int]]:
        """Base station ``bs_id``'s user indices, encoded records and
        counters for the ``_TRACE_CHUNK`` users from ``lo``, located in the task."""
        users = indices[lo: lo + _TRACE_CHUNK]
        batch = trace_paths_batch(scene, bs_id, user_positions(scene, users), user_indices=users,
                                  max_reflections=args.max_reflections, max_paths=args.max_paths)
        with_k = np.bincount(batch.users["n_paths"]).tolist()
        key = f"bs{bs_id:03d}."
        return batch.users["user_index"], encode_rows(batch, bs_id, lo), {
            key + "image_nodes_searched": batch.nodes_searched,
            key + "image_nodes_yielding": batch.nodes_yielding,
            key + "paths": len(batch.paths), key + "users_without_paths": with_k[0],
            **{key + f"users_with_{k}_paths": n for k, n in enumerate(with_k) if k and n}}

    # Summed over the steps.
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
    outputs = [outdir / FILE_NAME.format(bs_id) for bs_id in bs_ids]
    heads = [encode_head(RayFileHeader(bs_id, scene.carrier_freq, indices.size, scene.name))
             for bs_id in bs_ids]
    workers = min(parallel.worker_count(), len(starts)) if len(starts) >= _TRACE_POOL_STEPS else 0
    with OrderedPool("trace", workers) as pool:
        traced = pool.map(trace, ((lo, bs_id) for lo in starts for bs_id in bs_ids))
        steps = ((lo, [next(traced) for _ in bs_ids]) for lo in starts)
        write_files(outputs, heads, steps, write, lambda done: reporter.update(len(bs_ids) * done))
    counters.update(pool.counters(_TRACE_CHUNK))
    _write_run(outdir / _RUN_MANIFEST.format("trace"), "trace", t0,
               serialize_params(params) + f"max_reflections={args.max_reflections}\n"
               f"max_paths={args.max_paths}\n",
               {args.scene: args.scene}, outputs, counters)
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    from .dataset import shard_sources, write_shards
    from .rayio import FILE_NAME, RayFile, read_rayfile

    t0 = time.monotonic()
    scene = _load_scene(args.scene)
    params = _params_from_args(args)
    ray_files = {b: Path(args.rays_dir) / FILE_NAME.format(b) for b in params.active_bs}

    def load(bs_id: int, path: Path) -> RayFile:
        if not path.exists():
            raise DatasetError(f"missing ray file for active base station {bs_id}: {path}")
        with path.open("rb") as fh:
            return read_rayfile(fh)

    # No ray file outlives this call, so the forked workers inherit none.
    source = shard_sources({b: load(b, f) for b, f in ray_files.items()}, params, scene)
    reporter = ProgressReporter("BUILD", len(source.bs_ids) * source.n_users, quiet=args.quiet)
    outdir = Path(args.out_dir)
    counters: dict[str, int] = {}
    manifest = write_shards(outdir, source, fmt=args.format, progress=reporter.update,
                            counters=counters)
    for entry in manifest.entries:
        counters[f"bs{entry.bs_id:03d}.shard_bytes"] = entry.byte_size
    _write_run(outdir / _RUN_MANIFEST.format("build"), "build", t0, serialize_params(params),
               {str(f): f for f in [args.scene, *ray_files.values()]},
               [outdir / e.filename for e in manifest.entries], counters)
    return 0


def _cmd_beams(args: argparse.Namespace) -> int:
    from .beams import BeamEvalConfig, dft_codebook, write_ml_dataset
    from .dataset import DatasetReader

    t0 = time.monotonic()
    if not 0 < args.snr < math.inf:
        raise ConfigError(f"--snr must be finite and > 0, got {args.snr}")
    if not args.oversampling > 0:
        raise ConfigError(f"--oversampling must be > 0, got {args.oversampling}")
    outdir = Path(args.out_dir)
    with DatasetReader(args.dataset_dir) as ds:
        codebook = dft_codebook(ds.params.dims, oversampling=args.oversampling)
        cfg = BeamEvalConfig(codebook=codebook, snr=args.snr, conjugate=args.conjugate)
        reporter = ProgressReporter("BEAMS", len(ds.bs_ids) * ds.n_users, quiet=args.quiet)
        counters: dict[str, int] = {}
        manifest = write_ml_dataset(ds, cfg, outdir, progress=reporter.update,
                                    counters=counters)
    counters.update(pairs=ds.n_users * len(ds.bs_ids), shards_hash_verified=ds.verified,
                    features_bytes=manifest.entries[0].byte_size,
                    labels_bytes=manifest.entries[1].byte_size)
    _write_run(outdir / _RUN_MANIFEST.format("beams"), "beams", t0,
               f"{args.snr} {args.oversampling} {args.conjugate}",
               {args.dataset_dir: Path(args.dataset_dir) / MANIFEST},
               [outdir / e.filename for e in manifest.entries], counters)
    return 0


def _run_outputs(record: Path) -> list[Path]:
    """The outputs that the run manifest ``record`` lists, by file name beside it."""
    try:
        return [record.parent / Path(out).name
                for out in json.loads(read_text(record, DatasetError))["outputs"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise DatasetError(f"{record.name}: malformed run manifest: {exc!r}") from None


def _check_scenes(*records: Path) -> None:
    """Load each scene file that the scene run manifests ``records`` list."""
    for scene in (path for record in records for path in _run_outputs(record)):
        try:
            scene_from_json(read_text(scene))      # its ConfigError names the file already
        except SceneConfigError as exc:
            raise SceneConfigError(f"{scene}: {exc}") from None


def _check_rays(*paths: Path) -> None:
    """Read and check each ray file ``paths``: ``read_rayfile`` raises on any violation."""
    from .rayio import read_rayfile

    for path in paths:
        with path.open("rb") as fh:
            read_rayfile(fh)


def _check_outputs(listing: Path, record: Path) -> None:
    """Check that the files ``listing`` lists are the run ``record``'s outputs, if any."""
    from .dataset import Manifest

    listed = {e.filename for e in Manifest.read(listing).entries}
    if record.is_file() and (outputs := {p.name for p in _run_outputs(record)}) != listed:
        raise DatasetError("; ".join(
            [f"{name}: an output in {record.name} that {listing.name} does not list"
             for name in sorted(outputs - listed)]
            + [f"{name}: listed in {listing.name} but not an output in {record.name}"
               for name in sorted(listed - outputs)]))


def _check_dataset(listing: Path, record: Path) -> None:
    """Check the files ``listing`` lists and that they are the run ``record``'s outputs."""
    from . import dataset

    manifest = dataset.Manifest.read(listing)
    if manifest.entries and all(e.filename.endswith(".csv") for e in manifest.entries):
        dataset.verify_files(listing.parent, manifest)      # a `build --format csv` export
    else:
        with dataset.load_dataset(listing.parent):
            pass
    _check_outputs(listing, record)


def _check_ml(listing: Path, record: Path) -> None:
    from .beams import verify_ml_dataset

    verify_ml_dataset(listing.parent)
    _check_outputs(listing, record)


_STAGES: tuple[tuple[str, tuple[str, ...], Callable[..., None]], ...] = (
    ("scene", (), _check_scenes),
    ("trace", (_RUN_MANIFEST.format("trace"),), lambda run: _check_rays(*_run_outputs(run))),
    ("build", (MANIFEST, _RUN_MANIFEST.format("build")), _check_dataset),
    ("beams", (ML_MANIFEST, _RUN_MANIFEST.format("beams")), _check_ml),
)
_NAMED = [name for _, names, _ in _STAGES for name in names]


def _listed_beside(path: Path) -> bool:
    """Whether a manifest beside the file ``path``, other than a run manifest, lists it."""
    for manifest in (path.parent / n for n in _NAMED if not n.endswith(_RUN_MANIFEST.format(""))):
        if manifest.is_file():
            from .dataset import Manifest

            if any(e.filename == path.name for e in Manifest.read(manifest).entries):
                return True
    return False


def _cmd_validate(args: argparse.Namespace) -> int:
    path = Path(args.path)
    outdir = path if path.is_dir() else path.parent
    try:
        scenes = sorted(p for p in outdir.glob(_RUN_MANIFEST.format("*")) if p.name not in _NAMED)
        stages = [(check, [outdir / n for n in names] or scenes) for _, names, check in _STAGES]
        held = [(check, paths) for check, paths in stages if any(p.is_file() for p in paths)]
        if path.is_dir() or any(path in paths for _, paths in held) or _listed_beside(path):
            if not held:
                raise DatasetError(f"{path}: holds no stage manifest ({', '.join(_NAMED)} "
                                   f"or a scene's {_RUN_MANIFEST.format('<scene file>')})")
            for check, paths in held:
                check(*paths)
        else:
            with path.open("rb") as fh:
                head = fh.read(4)
            if head == RAY_FILE_MAGIC:
                _check_rays(path)
            elif head == SHARD_MAGIC:
                from .dataset import ShardReader

                with path.open("rb") as fh:
                    ShardReader(fh, path.name)      # a shard alone has no hash to check
            else:
                _load_scene(path)
    except (RayFileError, DatasetError, ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"violation: {type(exc).__name__}: {exc}", file=sys.stderr)
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

    p_trace = sub.add_parser("trace", help="trace rays for the parameter set's active "
                                           "base stations and rows")
    p_trace.add_argument("--scene", required=True)
    p_trace.add_argument("--max-reflections", type=int, default=4)
    p_trace.add_argument("--max-paths", type=int, default=MAX_PATHS)
    p_trace.add_argument("--out-dir", default=_default_outdir())
    p_trace.add_argument("--quiet", action="store_true")
    p_trace.set_defaults(func=_cmd_trace)

    p_build = sub.add_parser("build", help="build channel dataset from ray files")
    p_build.add_argument("--scene", required=True)
    p_build.add_argument("--rays-dir", required=True)
    p_build.add_argument("--format", choices=("binary", "csv"), default="binary")
    p_build.add_argument("--out-dir", default=_default_outdir())
    p_build.add_argument("--quiet", action="store_true")
    p_build.set_defaults(func=_cmd_build)

    for p in (p_trace, p_build):        # one parameter set for both: _params_from_args
        p.add_argument("--config", help="key=value parameter file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE")
        for key in KEYS:    # `trace --bs` stays for its callers, the benchmark's among them
            p.add_argument(f"--{key}", *["--bs"] * (p is p_trace and key == "active_BS"),
                           action=_Given)

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
    except (ConfigError, KeyError, RayFileError, DatasetError, WorkerError, IndexError,
            OSError) as exc:
        # A KeyError's str() is the repr of its argument.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
