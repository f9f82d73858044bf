"""Beam codebooks, achievable rate, and ML feature/label construction.

The candidate beams are per-axis oversampled DFT vectors composed with the
same Kronecker order as the array response (z (x) y (x) x): a ``Codebook``
holds the three per-axis factors, and its ``vectors`` are their Kronecker
product. The achievable rate of beam f against channel matrix H averages
``log2(1 + snr * |f^T h_k|^2)`` over the sampled subcarriers; note the
plain transpose (no conjugation) in the beamforming product, with an
optional conjugate variant behind a config switch.

``beam_rates``, ``best_beam`` and ``ml_arrays`` form f^T H of every beam
axis by axis, from the factors and the channel in its record layout: each
(|K|, M) block is seen, without a copy, as Nz matrices (Ny*Nx, |K|), each
multiplied by the y (x) x factor, and the (Nz, Py*Px*|K|) result by the z
factor in one more product, which gives (P, |K|). At the default 1 x 32 x 8
array that is 10,240 complex multiply-adds per subcarrier, against 65,536
for ``vectors @ H``. ``achievable_rate`` of one arbitrary beam forms
``f @ H``. Both feed one rate tail, whose mean runs over a contiguous
subcarrier axis: numpy sums a strided axis in another order, which gives
other bits.

``write_ml_dataset`` writes the beam-prediction CSVs, one feature vector
and one rate per beam for each (BS, user) pair, from any producer of
records. Forked workers fill and score each step in ``dataset.write_steps``,
the step loop ``build`` shares: ``ml_arrays`` gives the step's features
(users, BS, |K|) and labels (users, BS, P), and ``_ml_csv`` formats them.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .channel import ChannelMatrix
from .dataset import Manifest, ManifestEntry, Source, verify_files, write_steps
from .files import ML_MANIFEST, DatasetError, atomic_write

_KERNEL_BYTES = 2 * 2**20      # buffers of the axis-by-axis kernel, per thread (at least one user's)


@dataclass(frozen=True)
class Codebook:
    """A Kronecker codebook: the per-axis factors x, y and z, each a
    (beams, elements) matrix of its axis. Beam p = (pz * Py + py) * Px + px
    is ``kron(z[pz], kron(y[py], x[px]))``, the p-th row of ``vectors``."""
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    oversampling: int

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.x.shape[1], self.y.shape[1], self.z.shape[1]

    @property
    def n_antennas(self) -> int:
        return math.prod(self.dims)

    @property
    def n_beams(self) -> int:
        return self.x.shape[0] * self.y.shape[0] * self.z.shape[0]

    @property
    def vectors(self) -> np.ndarray:
        """(P, M): the beams, one per row."""
        return np.kron(self.z, np.kron(self.y, self.x))


def _is_count(n: object) -> bool:
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1


def dft_codebook(dims: tuple[int, int, int], oversampling: int = 1) -> Codebook:
    """Kronecker DFT codebook of an Mx x My x Mz array (``dims``); an axis
    with a single element contributes no beam factor. With oversampling 1
    the beams form an orthonormal basis. ``oversampling`` and each axis
    must be an int >= 1 (a bool is not)."""
    if not _is_count(oversampling):
        raise ValueError(f"oversampling must be an int >= 1, got {oversampling!r}")
    dims = tuple(dims)
    if len(dims) != 3 or not all(map(_is_count, dims)):
        raise ValueError(f"array axes must be 3 ints >= 1, got {dims!r}")
    per_axis = []
    for m in dims:
        if m == 1:
            per_axis.append(np.ones((1, 1), dtype=complex))
            continue
        g = oversampling * m
        grid = np.arange(g)
        per_axis.append(np.exp(2j * np.pi * np.outer(grid, np.arange(m)) / g) / math.sqrt(m))
    return Codebook(*per_axis, oversampling=oversampling)


@dataclass(frozen=True)
class BeamEvalConfig:
    codebook: Codebook
    snr: float = 1.0             # linear, dimensionless
    conjugate: bool = False      # use f^H h instead of f^T h

    def __post_init__(self) -> None:
        if not 0 < self.snr < math.inf:
            raise ValueError(f"snr must be finite and > 0, got {self.snr}")

    @functools.cached_property
    def _kernel(self) -> "_AxisKernel":
        return _AxisKernel(self)


def _entries(H: ChannelMatrix | np.ndarray) -> np.ndarray:
    return H.entries if isinstance(H, ChannelMatrix) else np.asarray(H)


def _rate_tail(products: np.ndarray, snr: float, gains: np.ndarray | None = None) -> np.ndarray:
    """The one rate tail: the mean over the last axis, the subcarriers, of
    log2(1 + snr * |p|^2) for the products p = f^T h_k (into ``gains``, of
    their shape, if given). That axis is contiguous in every caller's
    ``products``: numpy sums a strided axis in another order."""
    gains = np.abs(products, out=gains)
    np.square(gains, out=gains)
    np.multiply(snr, gains, out=gains)
    np.add(1.0, gains, out=gains)
    np.log2(gains, out=gains)
    return np.mean(gains, axis=-1)


class _AxisKernel:
    """The rate of every codebook beam of a ``BeamEvalConfig``, axis by
    axis, for a stack of (|K|, M) record blocks. Each thread (so each
    worker process) allocates its buffers at its first call and reuses
    them: a step of ``write_ml_dataset`` allocates nothing of the size of
    its records, and takes no page faults for it."""

    def __init__(self, cfg: BeamEvalConfig):
        cb = cfg.codebook
        x, y, z = (np.conj(a) if cfg.conjugate else a for a in (cb.x, cb.y, cb.z))
        self.yx = np.kron(y, x)                 # (Py * Px, Ny * Nx)
        self.z = np.ascontiguousarray(z)        # (Pz, Nz)
        self.snr = cfg.snr
        self.n_antennas = cb.n_antennas
        self.n_beams = cb.n_beams
        self._buffers = _Buffers()

    def __call__(self, blocks: np.ndarray) -> np.ndarray:
        """(U, P) rates of the U (|K|, M) blocks of ``blocks``, each
        C-ordered (as a record's channel), the stack itself of any stride."""
        n_users, n_k, m = blocks.shape
        if m != self.n_antennas:
            raise ValueError(f"channel rows {m} != codebook antennas {self.n_antennas}")
        (pz, nz), q, p = self.z.shape, self.yx.shape[0], self.n_beams
        user_bytes = n_k * (nz * q * 16 + p * (16 + 8))
        chunk = max(1, min(n_users, _KERNEL_BYTES // max(1, user_bytes)))
        partials, products, gains = self._views(
            ((chunk, nz, q, n_k), (chunk, p, n_k), (chunk, p, n_k)))
        rates = np.empty((n_users, p))
        for lo in range(0, n_users, chunk):
            part = blocks[lo: lo + chunk]
            u = len(part)
            # y (x) x for each z element: (Ny*Nx, |K|) views of the blocks
            np.matmul(self.yx, part.reshape(u, n_k, nz, m // nz).transpose(0, 2, 3, 1),
                      out=partials[:u])
            # z: one (Pz, Nz) x (Nz, Py*Px*|K|) product per user, into (P, |K|)
            np.matmul(self.z, partials[:u].reshape(u, nz, q * n_k),
                      out=products[:u].reshape(u, pz, q * n_k))
            rates[lo: lo + u] = _rate_tail(products[:u], self.snr, gains[:u])
        return rates

    def _views(self, shapes: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, ...]:
        """Views of this thread's buffers in ``shapes``: the partials and
        products (complex) and the gains (real), grown to fit."""
        own = self._buffers
        if any(buf.size < math.prod(s) for buf, s in zip(own.arrays, shapes)):
            own.arrays = tuple(np.empty(max(buf.size, math.prod(s)), buf.dtype)
                               for buf, s in zip(own.arrays, shapes))
        return tuple(buf[: math.prod(s)].reshape(s) for buf, s in zip(own.arrays, shapes))


class _Buffers(threading.local):
    """The kernel's buffers, one set per thread: threads that share a
    ``BeamEvalConfig`` never write into each other's."""

    def __init__(self) -> None:
        self.arrays = (np.empty(0, complex), np.empty(0, complex), np.empty(0))


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
    return float(_rate_tail((np.conj(f) if conjugate else f) @ mat, snr))


def beam_rates(H: ChannelMatrix | np.ndarray, cfg: BeamEvalConfig) -> np.ndarray:
    """Achievable rate of every codebook beam: a length-P vector for one
    M x |K| matrix, (..., P) for a (..., M, |K|) stack of them."""
    mat = _entries(H)
    blocks = np.ascontiguousarray(np.swapaxes(mat, -1, -2), dtype=complex)
    rates = cfg._kernel(blocks.reshape(-1, *blocks.shape[-2:]))
    return rates.reshape(*mat.shape[:-2], cfg.codebook.n_beams)


def best_beam(H: ChannelMatrix | np.ndarray, cfg: BeamEvalConfig) -> tuple[int, float]:
    """(1-based best beam index, its rate) for one M x |K| matrix; ties go
    to the smallest index."""
    if cfg.codebook.n_beams == 0:
        raise ValueError("empty codebook")
    if _entries(H).ndim != 2:
        raise ValueError(f"one channel matrix expected, got shape {_entries(H).shape}")
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
    codebook beam, from the axis-by-axis kernel on each base station's
    record blocks. The arrays are copies, so they outlive the batches."""
    features = np.stack([omni_feature(b["channel"].transpose(0, 2, 1)) for b in batches],
                        axis=1)
    labels = np.stack([cfg._kernel(b["channel"]) for b in batches], axis=1)
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
