"""The gather rotation oracle shared by the volume, forward and solver tests.

Each shear pass is built from full-size index arrays and two gathers, the
direct transcription of the pass's definition, on the (z, y, x) array
itself. It shares nothing with the sparse projector the program applies
but the angle split and the shear coefficients.
"""

import numpy as np

from phasetomo.volume import _shear_coeffs, _split_angle


def gather_shear(values, shift_axis, coord_axis, coeff):
    """Reference shear pass: translate along ``shift_axis`` by
    coeff*(centered coordinate along ``coord_axis``), with linear
    interpolation and zero fill, as two gathers."""
    if coeff == 0.0:
        return values.copy()
    n_shift = values.shape[shift_axis]
    n_coord = values.shape[coord_axis]
    offsets = coeff * (np.arange(n_coord) - (n_coord - 1) / 2.0)
    k = np.floor(offsets).astype(np.int64)
    frac = offsets - k

    idx = np.arange(n_shift)
    # source indices per (coord, shift) pair for the two interpolation taps
    src0 = idx[None, :] - k[:, None]
    src1 = src0 - 1

    def expand(arr2d: np.ndarray) -> np.ndarray:
        # lift a (coord, shift) array into broadcastable 3D index space,
        # matching the memory order of the target axes
        if shift_axis < coord_axis:
            arr2d = arr2d.T
        shape = [1, 1, 1]
        shape[coord_axis] = n_coord
        shape[shift_axis] = n_shift
        return np.ascontiguousarray(arr2d).reshape(shape)

    w1 = expand(np.broadcast_to(frac[:, None], src0.shape).copy())
    w0 = 1.0 - w1
    out = np.zeros_like(values)
    for src, w in ((src0, w0), (src1, w1)):
        valid = (src >= 0) & (src < n_shift)
        gathered = np.take_along_axis(
            values, expand(np.clip(src, 0, n_shift - 1)), axis=shift_axis
        )
        out += w * expand(valid) * gathered
    return out


def rot90_xz(values, k):
    """Exact rotation by k*90 degrees in the x-z plane (+x toward +z).

    ``k % 4 == 0`` returns ``values`` itself, not a copy.
    """
    k %= 4
    if k == 0:
        return values
    if values.shape[0] != values.shape[2]:
        raise ValueError("x-z rotation requires nx == nz")
    if k == 1:
        return np.ascontiguousarray(values.transpose(2, 1, 0)[:, :, ::-1])
    if k == 2:
        return np.ascontiguousarray(values[::-1, :, ::-1])
    return np.ascontiguousarray(values.transpose(2, 1, 0)[::-1, :, :])


def reference_rotation(values, theta, adjoint=False):
    """Rotation (or its adjoint) of the (z, y, x) array ``values``: the
    90-degree copy, then three gather passes with x = axis 2 and z =
    axis 0. With no turn and no residual angle it returns ``values``
    itself."""
    k, phi = _split_angle(theta)
    alpha, beta = _shear_coeffs(phi) if phi != 0.0 else (0.0, 0.0)
    if adjoint:
        alpha, beta = -alpha, -beta
    else:
        values = rot90_xz(values, k)
    if phi != 0.0:
        values = gather_shear(values, 2, 0, alpha)
        values = gather_shear(values, 0, 2, beta)
        values = gather_shear(values, 2, 0, alpha)
    return rot90_xz(values, -k) if adjoint else values
