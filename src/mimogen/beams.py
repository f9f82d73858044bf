"""Beam codebooks, achievable rate, and ML feature/label construction.

The candidate beams are per-axis oversampled DFT vectors composed with the
same Kronecker order as the array response (z (x) y (x) x). The achievable
rate of beam f against channel matrix H averages
``log2(1 + snr * |f^T h_k|^2)`` over the sampled subcarriers; note the
plain transpose (no conjugation) in the beamforming product, with an
optional conjugate variant behind a config switch.

``write_ml_dataset`` writes the beam-prediction CSVs, one feature vector
and one rate per beam for each (BS, user) pair, from any producer of
records. Forked workers fill and score each step in ``dataset.write_steps``,
the step loop ``build`` shares: ``ml_arrays`` gives the step's features
(users, BS, |K|) and labels (users, BS, P), and ``_ml_csv`` formats them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .channel import ChannelMatrix
from .dataset import Manifest, ManifestEntry, Source, verify_files, write_steps
from .files import ML_MANIFEST, DatasetError, atomic_write


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
    return Codebook(vectors=np.kron(mz, np.kron(my, mx)), dims=dims, oversampling=oversampling)


@dataclass(frozen=True)
class BeamEvalConfig:
    codebook: Codebook
    snr: float = 1.0             # linear, dimensionless
    conjugate: bool = False      # use f^H h instead of f^T h

    def __post_init__(self) -> None:
        if not 0 < self.snr < math.inf:
            raise ValueError(f"snr must be finite and > 0, got {self.snr}")


def _entries(H: ChannelMatrix | np.ndarray) -> np.ndarray:
    return H.entries if isinstance(H, ChannelMatrix) else np.asarray(H)


def _rates(beams: np.ndarray, channels: np.ndarray, snr: float, conjugate: bool) -> np.ndarray:
    """The one rate kernel: mean over subcarriers of log2(1 + snr * |f^T h_k|^2)
    for each beam f, the last axis of ``beams`` (one beam or a (P, M) stack),
    against each (M, |K|) channel matrix of ``channels`` (one or a
    (..., M, |K|) stack); the rates have shape (..., P), without P for one beam."""
    fv = np.conj(beams) if conjugate else beams
    gains = np.abs(fv @ channels)
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


def beam_rates(H: ChannelMatrix | np.ndarray, cfg: BeamEvalConfig) -> np.ndarray:
    """Achievable rate of every codebook beam, as a length-P vector."""
    return _rates(cfg.codebook.vectors, _entries(H), cfg.snr, cfg.conjugate)


def best_beam(H: ChannelMatrix | np.ndarray, cfg: BeamEvalConfig) -> tuple[int, float]:
    """(1-based best beam index, its rate); ties go to the smallest index."""
    if cfg.codebook.n_beams == 0:
        raise ValueError("empty codebook")
    rates = beam_rates(H, cfg)
    p = int(np.argmax(rates))
    return p + 1, float(rates[p])


def omni_feature(H: ChannelMatrix | np.ndarray) -> np.ndarray:
    """The received sequence at the first antenna element: row 1 of H, or
    of each matrix of a (..., M, |K|) stack."""
    return _entries(H)[..., 0, :].copy()


def ml_arrays(batches: Sequence[np.ndarray],
              cfg: BeamEvalConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-step kernel. ``batches`` hold, per active base station in
    active order, the ``record_dtype`` records of the same U users. Returns
    their global indices (U,), features (U, S, |K|) and labels (U, S, P)
    for the S base stations: each pair's omni feature and the rate of each
    codebook beam, from one rate-kernel call per base station. The arrays
    are copies, so they outlive the batches."""
    channels = [b["channel"].transpose(0, 2, 1) for b in batches]
    features = np.stack([omni_feature(ch) for ch in channels], axis=1)
    labels = np.stack([_rates(cfg.codebook.vectors, ch, cfg.snr, cfg.conjugate)
                       for ch in channels], axis=1)
    return batches[0]["global_index"].copy(), features, labels


_CSV_HEADS = (b"user_index,bs_ordinal,k,re,im\n",
              b"user_index,bs_ordinal,beam_index,rate_bps_hz\n")
ML_FILES = ("features.csv", "labels.csv")


def _ml_csv(users: np.ndarray, features: np.ndarray,
            labels: np.ndarray) -> tuple[bytes, bytes]:
    """The one CSV formatter: the features.csv and labels.csv rows of the
    ``ml_arrays`` arrays, by user, then base station, then subcarrier or
    beam. Each value is written as ``np.float64(<repr of the float>)``,
    the text that numpy 2 gives a float64 scalar's ``repr``."""
    n_users, n_bs, n_k = features.shape
    n_beams = labels.shape[2]
    ids = users.tolist()
    feat_keys = [f"{n},{j}," for n in range(1, n_bs + 1) for j in range(1, n_k + 1)]
    label_keys = [f"{n},{p}," for n in range(1, n_bs + 1) for p in range(1, n_beams + 1)]
    feats = features.reshape(n_users, n_bs * n_k)
    feat_rows = [f"{g},{key}np.float64({re!r}),np.float64({im!r})\n"
                 for g, res, ims in zip(ids, feats.real.tolist(), feats.imag.tolist())
                 for key, re, im in zip(feat_keys, res, ims)]
    label_rows = [f"{g},{key}np.float64({r!r})\n"
                  for g, rates in zip(ids, labels.reshape(n_users, n_bs * n_beams).tolist())
                  for key, r in zip(label_keys, rates)]
    return "".join(feat_rows).encode(), "".join(label_rows).encode()


def write_ml_dataset(source: Source, cfg: BeamEvalConfig, outdir: Path | str,
                     progress: Callable[[int], None] | None = None,
                     counters: dict[str, int] | None = None) -> Manifest:
    """Write features.csv and labels.csv in one pass over the steps of
    ``source`` (a ``Dataset``, ``DatasetReader`` or ``RayDataset``), then
    ml_manifest.txt with their sizes and content hashes.

    ``dataset.write_steps`` runs the steps, with its ``progress`` and
    ``counters``; its workers compute each step's arrays (``ml_arrays``)
    and rows (``_ml_csv``), which are written in step order, so the bytes
    do not depend on the number of workers. Both files are renamed into
    place only after the last step, so an error raised while the steps are
    filled, checked or scored (such as a shard failing its hash check at its
    end, a ``DatasetError``, or a worker that fails, as on a shard that ends
    early, or dies, a ``WorkerError``) leaves neither file and no manifest.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    sinks, span = write_steps(
        "beams", source, [outdir / name for name in ML_FILES], _CSV_HEADS,
        lambda _, rows: rows, lambda batches: _ml_csv(*ml_arrays(batches, cfg)),
        progress, counters)
    manifest = Manifest(tuple(ManifestEntry(name, 0, *span, sink.size, sink.digest)
                              for name, sink in zip(ML_FILES, sinks)))
    atomic_write(outdir / ML_MANIFEST, manifest.to_text().encode())
    return manifest


def verify_ml_dataset(outdir: Path | str) -> None:
    """Check an ML directory against its ml_manifest.txt: it lists
    features.csv and labels.csv, and each has the listed byte size and
    content hash (read a chunk at a time)."""
    outdir = Path(outdir)
    manifest = Manifest.read(outdir / ML_MANIFEST)
    names = tuple(e.filename for e in manifest.entries)
    if names != ML_FILES:
        raise DatasetError(f"{ML_MANIFEST} lists {names}, expected {ML_FILES}")
    verify_files(outdir, manifest)
