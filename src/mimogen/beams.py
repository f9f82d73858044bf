"""Beam codebooks, achievable rate, and ML feature/label construction.

The candidate beams are per-axis oversampled DFT vectors composed with the
same Kronecker order as the array response (z (x) y (x) x). The achievable
rate of beam f against channel matrix H averages
``log2(1 + snr * |f^T h_k|^2)`` over the sampled subcarriers; note the
plain transpose (no conjugation) in the beamforming product, with an
optional conjugate variant behind a config switch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .channel import ChannelMatrix
from .dataset import (
    Dataset, DatasetError, DatasetReader, Manifest, ManifestEntry, RayDataset, atomic_write,
    pool_plan, record_dtype, verify_files, write_files,
)
from .parallel import Ring, SlotPool


@dataclass(frozen=True)
class Codebook:
    vectors: np.ndarray          # (P, M), each row unit-norm
    dims: tuple[int, int, int]
    oversampling: int

    @property
    def n_beams(self) -> int:
        return self.vectors.shape[0]


def dft_codebook(dims: tuple[int, int, int], oversampling: int = 1) -> Codebook:
    """Kronecker DFT codebook; axes with a single element contribute no
    beam factor. With oversampling 1 the beams form an orthonormal basis."""
    if oversampling < 1:
        raise ValueError(f"oversampling must be >= 1, got {oversampling}")
    per_axis = []
    for m in dims:
        if m == 1:
            per_axis.append(np.ones((1, 1), dtype=complex))
            continue
        g = oversampling * m
        grid = np.arange(g)
        v = np.exp(2j * np.pi * np.outer(grid, np.arange(m)) / g) / math.sqrt(m)
        per_axis.append(v)
    mx, my, mz = per_axis
    vectors = []
    for vz in mz:
        for vy in my:
            for vx in mx:
                vectors.append(np.kron(vz, np.kron(vy, vx)))
    return Codebook(vectors=np.array(vectors), dims=dims, oversampling=oversampling)


@dataclass(frozen=True)
class BeamEvalConfig:
    codebook: Codebook
    snr: float = 1.0             # linear, dimensionless
    conjugate: bool = False      # use f^H h instead of f^T h

    def __post_init__(self) -> None:
        if self.snr <= 0:
            raise ValueError(f"snr must be > 0, got {self.snr}")


def _entries(H: ChannelMatrix | np.ndarray) -> np.ndarray:
    return H.entries if isinstance(H, ChannelMatrix) else np.asarray(H)


def _rates(beams: np.ndarray, mat: np.ndarray, snr: float, conjugate: bool,
           work: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """The one rate kernel: mean over subcarriers of log2(1 + snr * |f^T h_k|^2)
    for each beam f, the last axis of ``beams`` (one beam or a (P, M) stack).

    ``work`` is a complex and a float buffer of the per-subcarrier shape
    ((|K|,) or (P, |K|)), which the kernel overwrites; a caller that
    evaluates many channels passes the same pair each time.
    """
    fv = np.conj(beams) if conjugate else beams
    if work is None:
        shape = fv.shape[:-1] + mat.shape[-1:]
        work = np.empty(shape, dtype=complex), np.empty(shape)
    prod, gains = work
    np.matmul(fv, mat, out=prod)
    np.abs(prod, out=gains)
    np.square(gains, out=gains)
    np.multiply(snr, gains, out=gains)
    np.add(1.0, gains, out=gains)
    np.log2(gains, out=gains)
    return np.mean(gains, axis=-1)


def achievable_rate(
    H: ChannelMatrix | np.ndarray,
    f: np.ndarray,
    snr: float,
    conjugate: bool = False,
) -> float:
    """Mean over subcarriers of log2(1 + snr * |f^T h_k|^2), in bits/s/Hz."""
    mat = _entries(H)
    f = np.asarray(f)
    if f.shape[0] != mat.shape[0]:
        raise ValueError(f"beam length {f.shape[0]} != channel rows {mat.shape[0]}")
    return float(_rates(f, mat, snr, conjugate))


def beam_rates(H: ChannelMatrix | np.ndarray, cfg: BeamEvalConfig,
               work: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Achievable rate of every codebook beam, as a length-P vector
    (``work``: the kernel's (P, |K|) buffers, as in ``_rates``)."""
    return _rates(cfg.codebook.vectors, _entries(H), cfg.snr, cfg.conjugate, work)


def best_beam(H: ChannelMatrix | np.ndarray, cfg: BeamEvalConfig) -> tuple[int, float]:
    """(1-based best beam index, its rate); ties go to the smallest index."""
    if cfg.codebook.n_beams == 0:
        raise ValueError("empty codebook")
    rates = beam_rates(H, cfg)
    p = int(np.argmax(rates))
    return p + 1, float(rates[p])


def omni_feature(H: ChannelMatrix | np.ndarray) -> np.ndarray:
    """The received sequence at the first antenna element: row 1 of H."""
    return _entries(H)[0, :].copy()


@dataclass(frozen=True)
class MlRecord:
    user_index: int
    features: tuple[np.ndarray, ...]   # per active BS: complex |K|-vector
    labels: tuple[np.ndarray, ...]     # per active BS: P rates


def ml_records(batches: Sequence[np.ndarray], cfg: BeamEvalConfig) -> list[MlRecord]:
    """The per-step kernel: one record per user of ``batches``, which hold,
    per active base station in active order, the ``record_dtype`` records of
    the same users. Features and labels are copies, so the records outlive
    the batches. Every rate evaluation of the step shares one pair of
    kernel buffers."""
    channels = [b["channel"] for b in batches]
    shape = (cfg.codebook.n_beams, channels[0].shape[1])
    work = np.empty(shape, dtype=complex), np.empty(shape)
    return [
        MlRecord(
            user_index=int(g),
            features=tuple(omni_feature(ch[i].T) for ch in channels),
            labels=tuple(beam_rates(ch[i].T, cfg, work) for ch in channels),
        )
        for i, g in enumerate(batches[0]["global_index"])
    ]


_CSV_HEADS = (b"user_index,bs_ordinal,k,re,im\n",
              b"user_index,bs_ordinal,beam_index,rate_bps_hz\n")
ML_FILES = ("features.csv", "labels.csv")
ML_MANIFEST = "ml_manifest.txt"


def _ml_csv(records: Sequence[MlRecord]) -> tuple[bytes, bytes]:
    """The one CSV formatter: the features.csv and labels.csv rows of the
    records. Each value is written as ``np.float64(<repr of the float>)``,
    the text that numpy 2 gives a float64 scalar's ``repr``."""
    feat_lines: list[str] = []
    label_lines: list[str] = []
    for rec in records:
        for n, feat in enumerate(rec.features, start=1):
            head = f"{rec.user_index},{n},"
            feat_lines += [f"{head}{j},np.float64({re!r}),np.float64({im!r})\n"
                           for j, (re, im) in enumerate(zip(feat.real.tolist(),
                                                            feat.imag.tolist()), start=1)]
        for n, rates in enumerate(rec.labels, start=1):
            head = f"{rec.user_index},{n},"
            label_lines += [f"{head}{p},np.float64({r!r})\n"
                            for p, r in enumerate(rates.tolist(), start=1)]
    return "".join(feat_lines).encode(), "".join(label_lines).encode()


MlSource = Dataset | DatasetReader | RayDataset


def ml_plan(source: MlSource) -> tuple[int, int]:
    """(worker processes, users per shard per step) of ``write_ml_dataset``
    over ``source``: ``pool_plan`` with the producer's own step held in
    this process."""
    return pool_plan(source, held=1)


def _score(ring: Ring, cfg: BeamEvalConfig, slot: int,
           count: int) -> tuple[list[int], bytes, bytes]:
    """In a worker: the user indices and the features.csv and labels.csv
    rows of the step in ``slot``."""
    records = ml_records(ring.get(slot, count), cfg)
    return [rec.user_index for rec in records], *_ml_csv(records)


def write_ml_dataset(source: MlSource, cfg: BeamEvalConfig, outdir: Path | str,
                     progress: Callable[[int, int], None] | None = None) -> Manifest:
    """Write features.csv and labels.csv in one pass over the steps of
    ``source`` (a ``Dataset``, ``DatasetReader`` or ``RayDataset``), then
    ml_manifest.txt with their sizes and content hashes;
    ``progress(done, total)`` counts the (BS, user) pairs written.

    ``ml_plan`` sets the steps and the workers. This process draws every
    step, so the producer runs all its checks here, and copies it into a
    slot of the ring of a ``SlotPool``; a worker computes the step's
    records (``ml_records``) and rows (``_ml_csv``). The results are
    written in step order, so the bytes do not depend on the number of
    workers. Both files go to temp files that are renamed into place only
    after the last step, so an error raised while the steps are drawn or
    scored (such as a shard failing its hash check at its end, a
    ``DatasetError``, or a worker that fails or dies, a ``WorkerError``)
    leaves neither file and no manifest. The pool is shut down before this
    returns or raises.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    workers, users = ml_plan(source)
    shards = len(source.bs_ids)
    with SlotPool("beams", workers, record_dtype(source.params), shards, users, cfg) as pool:
        steps = source.steps(users)

        def next_task(slot: int) -> tuple | None:
            step = next(steps, None)
            if step is None:
                return None
            pool.ring.put(slot, step)
            return _score, len(step[0])

        def scored() -> Iterator[tuple[list[int], list[bytes]]]:
            done = 0
            for _, (user_indices, *chunks) in pool.in_order(next_task):
                yield user_indices, chunks
                done += shards * len(user_indices)
                if progress is not None:
                    progress(done, shards * source.n_users)

        sinks, span = write_files([outdir / name for name in ML_FILES], _CSV_HEADS,
                                  scored(), lambda rows: rows)
    manifest = Manifest(tuple(ManifestEntry(name, 0, *span, sink.size, sink.digest)
                              for name, sink in zip(ML_FILES, sinks)))
    atomic_write(outdir / ML_MANIFEST, manifest.to_text().encode())
    return manifest


def verify_ml_dataset(outdir: Path | str) -> None:
    """Check an ML directory against its ml_manifest.txt: it lists
    features.csv and labels.csv, and each has the listed byte size and
    content hash (read a chunk at a time)."""
    outdir = Path(outdir)
    manifest = Manifest.from_text((outdir / ML_MANIFEST).read_text())
    names = tuple(e.filename for e in manifest.entries)
    if names != ML_FILES:
        raise DatasetError(f"{ML_MANIFEST} lists {names}, expected {ML_FILES}")
    verify_files(outdir, manifest)
