"""Per-subcarrier MIMO channel construction from traced path parameters.

For each path the contribution to subcarrier ``k`` (1-based index from the
sampled subcarrier set) is::

    sqrt(power / K) * exp(j * (phase + 2*pi*(k-1)/K * delay * B)) * a(az, el)

summed over the strongest ``num_paths`` paths, where ``a`` is the Kronecker
uniform-array response ``a_z (x) a_y (x) a_x`` and ``B`` the bandwidth in Hz.
Subcarrier 1 carries zero frequency offset by convention. The paths come
as ``rayio`` rows, so building channels imports no tracer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .params import ParamSet, subcarrier_set
from .rayio import PathList, PathRecord, RayRows


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
    rays: RayRows | Sequence[PathList],
    params: ParamSet,
) -> np.ndarray:
    """The one channel kernel: channel matrices for a batch of users.

    Returns a (U, M, |K|) complex array. Each matrix is the per-subcarrier
    sum of the module docstring over the user's strongest ``num_paths``
    paths; an empty path list gives zeros. The test suite checks it against
    a scalar per-subcarrier loop.
    """
    if not isinstance(rays, RayRows):
        rays = RayRows.from_path_lists(rays)
    U = len(rays)
    ks = subcarrier_set(params)
    m = params.num_antennas
    out = np.zeros((U, m, ks.size), dtype=complex)
    if U == 0:
        return out

    # Each user's first L path rows, gathered into (U, L) columns that are
    # zero past the user's last path.
    L = params.num_paths
    mask = np.arange(L) < rays.users["n_paths"][:, None]
    paths = rays.paths[(rays.starts[:-1, None] + np.arange(L))[mask]]

    def column(name: str) -> np.ndarray:
        values = np.zeros((U, L))
        values[mask] = paths[name]
        return values

    power, phase, delay = column("power"), column("phase"), column("delay")
    az = np.radians(column("aod_az"))
    el = np.radians(column("aod_el"))

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
