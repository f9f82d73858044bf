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
from typing import Sequence

import numpy as np

from .channel import ChannelMatrix
from .dataset import (
    Dataset, Manifest, ManifestEntry, atomic_write, content_hash, get_channel,
)


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


def _rates(beams: np.ndarray, mat: np.ndarray, snr: float, conjugate: bool) -> np.ndarray:
    """The one rate kernel: mean over subcarriers of log2(1 + snr * |f^T h_k|^2)
    for each beam f, the last axis of ``beams`` (one beam or a (P, M) stack)."""
    fv = np.conj(beams) if conjugate else beams
    gains = np.abs(fv @ mat) ** 2
    return np.mean(np.log2(1.0 + snr * gains), axis=-1)


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
    """The received sequence at the first antenna element: row 1 of H."""
    return _entries(H)[0, :].copy()


@dataclass(frozen=True)
class MlRecord:
    user_index: int
    features: tuple[np.ndarray, ...]   # per active BS: complex |K|-vector
    labels: tuple[np.ndarray, ...]     # per active BS: P rates


def build_ml_records(ds: Dataset, cfg: BeamEvalConfig) -> list[MlRecord]:
    """One record per active user: omni features and per-beam rate labels
    for every active base station, in active order."""
    records = []
    for u_ord in range(1, ds.n_users + 1):
        feats = []
        labels = []
        for b_ord in range(1, len(ds.bs_ids) + 1):
            H = get_channel(ds, b_ord, u_ord)
            feats.append(omni_feature(H))
            labels.append(beam_rates(H, cfg))
        records.append(
            MlRecord(
                user_index=ds.user_for_ordinal(u_ord),
                features=tuple(feats), labels=tuple(labels),
            )
        )
    return records


def export_ml_dataset(
    records: Sequence[MlRecord],
    outdir: Path | str,
) -> Manifest:
    """Write features.csv / labels.csv plus a manifest with content hashes."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    feat_lines = ["user_index,bs_ordinal,k,re,im"]
    label_lines = ["user_index,bs_ordinal,beam_index,rate_bps_hz"]
    for rec in records:
        for n, feat in enumerate(rec.features, start=1):
            for j, c in enumerate(feat, start=1):
                feat_lines.append(f"{rec.user_index},{n},{j},{c.real!r},{c.imag!r}")
        for n, rates in enumerate(rec.labels, start=1):
            for p, r in enumerate(rates, start=1):
                label_lines.append(f"{rec.user_index},{n},{p},{r!r}")

    entries = []
    for name, lines in (("features.csv", feat_lines), ("labels.csv", label_lines)):
        data = ("\n".join(lines) + "\n").encode()
        atomic_write(outdir / name, data)
        first = records[0].user_index if records else 0
        last = records[-1].user_index if records else 0
        entries.append(ManifestEntry(name, 0, first, last, len(data), content_hash(data)))
    manifest = Manifest(tuple(entries))
    atomic_write(outdir / "ml_manifest.txt", manifest.to_text().encode())
    return manifest


def build_ml_dataset(
    ds: Dataset,
    cfg: BeamEvalConfig,
    outdir: Path | str | None = None,
) -> list[MlRecord]:
    """Build all ML records and optionally export them to CSV files."""
    records = build_ml_records(ds, cfg)
    if outdir is not None:
        export_ml_dataset(records, outdir)
    return records
