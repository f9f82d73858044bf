"""Per-subcarrier MIMO channel construction from traced path parameters.

For each path the contribution to subcarrier ``k`` (1-based index from the
sampled subcarrier set) is::

    sqrt(power / K) * exp(j * (phase + 2*pi*(k-1)/K * delay * B)) * a(az, el)

summed over the strongest ``num_paths`` paths, where ``a`` is the Kronecker
uniform-array response ``a_z (x) a_y (x) a_x`` and ``B`` the bandwidth in Hz.
Subcarrier 1 carries zero frequency offset by convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .params import ParamSet, subcarrier_set
from .tracer import PathList, PathRecord


@dataclass(frozen=True)
class ChannelMatrix:
    """Complex M x |K| matrix; column j is the channel at the j-th sampled
    subcarrier."""

    entries: np.ndarray
    bs_id: int = 0
    user_index: int = 0

    def __post_init__(self) -> None:
        if self.entries.ndim != 2:
            raise ValueError("channel matrix must be 2-D")


def array_response(
    aod_az: float,
    aod_el: float,
    dims: tuple[int, int, int],
    spacing: float,
) -> np.ndarray:
    """Unit-modulus array response for a uniform 3-D array.

    Angles in radians; elevation is the polar angle from +z. ``spacing`` is
    in wavelengths, so the per-element phase factor is ``2*pi*spacing``.
    Element ordering follows the Kronecker product a_z (x) a_y (x) a_x,
    i.e. the x index varies fastest.
    """
    mx, my, mz = dims
    kd = 2.0 * np.pi * spacing
    ax = np.exp(1j * kd * np.arange(mx) * np.sin(aod_el) * np.cos(aod_az))
    ay = np.exp(1j * kd * np.arange(my) * np.sin(aod_el) * np.sin(aod_az))
    az = np.exp(1j * kd * np.arange(mz) * np.cos(aod_el))
    return np.kron(az, np.kron(ay, ax))


def channel_matrix(paths: PathList | Sequence[PathRecord], params: ParamSet) -> ChannelMatrix:
    """The M x |K| channel of one user over the sampled subcarrier set."""
    if not isinstance(paths, PathList):
        paths = PathList(bs_id=0, user_index=0, user_position=(0.0, 0.0, 0.0),
                         paths=tuple(paths))
    return ChannelMatrix(entries=channel_matrices_batch([paths], params)[0],
                         bs_id=paths.bs_id, user_index=paths.user_index)


def channel_matrices_batch(
    path_lists: Sequence[PathList],
    params: ParamSet,
) -> np.ndarray:
    """The one channel kernel: channel matrices for a batch of users.

    Returns a (U, M, |K|) complex array. Each matrix is the per-subcarrier
    sum of the module docstring over the user's strongest ``num_paths``
    paths; an empty path list gives zeros. The test suite checks it against
    a scalar per-subcarrier loop.
    """
    U = len(path_lists)
    ks = subcarrier_set(params)
    m = params.num_antennas
    out = np.zeros((U, m, ks.size), dtype=complex)
    if U == 0:
        return out

    L = params.num_paths
    power = np.zeros((U, L))
    phase = np.zeros((U, L))
    delay = np.zeros((U, L))
    az = np.zeros((U, L))
    el = np.zeros((U, L))
    mask = np.zeros((U, L), dtype=bool)
    for u, pl in enumerate(path_lists):
        recs = pl.paths[:L]
        n = len(recs)
        if n == 0:
            continue
        power[u, :n] = [r.power for r in recs]
        phase[u, :n] = [r.phase for r in recs]
        delay[u, :n] = [r.delay for r in recs]
        az[u, :n] = np.radians([r.aod_az for r in recs])
        el[u, :n] = np.radians([r.aod_el for r in recs])
        mask[u, :n] = True

    mx, my, mz = params.dims
    kd = 2.0 * np.pi * params.ant_spacing
    sin_el = np.sin(el)
    ex = np.exp(1j * kd * sin_el[..., None] * np.cos(az)[..., None] * np.arange(mx))
    ey = np.exp(1j * kd * sin_el[..., None] * np.sin(az)[..., None] * np.arange(my))
    ez = np.exp(1j * kd * np.cos(el)[..., None] * np.arange(mz))
    # (U, L, M) with x varying fastest, matching the Kronecker order.
    steer = (
        ez[:, :, :, None, None] * ey[:, :, None, :, None] * ex[:, :, None, None, :]
    ).reshape(U, L, m)

    big_k = params.num_ofdm
    k_off = (ks - 1).astype(float)
    gains = np.sqrt(power / big_k) * mask
    w = gains[..., None] * np.exp(
        1j * (phase[..., None] + (2.0 * np.pi / big_k) * delay[..., None]
              * params.bandwidth_hz * k_off)
    )
    np.einsum("ulm,ulk->umk", steer, w, out=out)
    return out
