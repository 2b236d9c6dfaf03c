"""3D potential volumes and the linear operators of the reconstruction loop.

A volume stores per-slice projected potential in volt*Angstrom: slice ``m``
(index along the first axis) is the 2D potential integrated over one voxel
pitch in z. Dividing a voxel value by the pitch converts it to volts.

The module provides:
    * the projector of one tilt angle: y-axis rotation and slice binning
      as one sparse matrix (:func:`projector`), which simulation and the
      solver apply, and whose transpose is the solver's adjoint,
    * the reference operators it is composed from and tested against:
      y-axis rotation by a three-pass shear decomposition (Paeth 1986),
      each pass one sparse-matrix product with at most two interpolation
      taps per row, plus its exact algebraic adjoint; slice binning
      (summing groups of consecutive slices) and its adjoint,
    * the projected-potential -> transmittance map ``t = exp(i sigma W)``,
    * the relativistic electron wavelength / interaction constant,
    * the raw+JSON volume file format.

Array layout is ``(nz, ny, nx)`` with x fastest, matching the on-disk
format (x, then y, then z). The rotation acts in the x-z plane, the same
on every y, so its matrices act on another layout, the row layout: the
volume as (z, x) rows of y, y fastest (:func:`to_rows` and
:func:`from_rows`). Each tap of a shear pass, and each slice of a slab,
is then a whole contiguous row of y. The reference rotation makes a
row-layout copy per call; the solver holds its iterate in that layout
for a whole sweep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix

from .fields import ConfigurationError, GridSpec, WaveField, _require_finite

# CODATA 2018
_PLANCK_H = 6.62607015e-34        # J s
_ELECTRON_MASS = 9.1093837015e-31  # kg
_ELEMENTARY_CHARGE = 1.602176634e-19  # C
_HC_KEV_A = 12.398419843320026    # h*c in keV Angstrom
_M0C2_KEV = 510.99895000          # electron rest energy in keV


@dataclass
class PotentialVolume:
    """Real (or, transiently inside the solver, complex) 3D scalar field.

    ``values`` has shape (nz, ny, nx); ``pitch`` is the isotropic voxel
    size in Angstrom. Physical volumes are real and non-negative; the
    solver is allowed to carry complex intermediate iterates until its
    projection step.
    """

    values: np.ndarray
    pitch: float

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 3:
            raise ValueError("volume values must be 3D (nz, ny, nx)")
        if self.pitch <= 0.0:
            raise ConfigurationError("pitch must be positive")

    @property
    def nz(self) -> int:
        return self.values.shape[0]

    @property
    def ny(self) -> int:
        return self.values.shape[1]

    @property
    def nx(self) -> int:
        return self.values.shape[2]


@dataclass
class BinnedVolume:
    """Volume after summing groups of ``n_b`` consecutive slices."""

    values: np.ndarray
    pitch: float
    n_b: int

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 3:
            raise ValueError("binned values must be 3D (n_slabs, ny, nx)")
        if self.n_b < 1:
            raise ValueError("binning factor must be >= 1")

    @property
    def n_slabs(self) -> int:
        return self.values.shape[0]

    @property
    def slab_thickness(self) -> float:
        return self.n_b * self.pitch


@dataclass(frozen=True)
class InteractionParams:
    """Beam-sample coupling constants.

    ``sigma`` is in rad/(V*Angstrom) so that ``sigma * W`` is a phase in
    radians when W is a projected potential in V*Angstrom.
    """

    sigma: float
    wavelength: float
    accel_voltage_kv: float

    def __post_init__(self):
        if self.sigma <= 0.0 or self.wavelength <= 0.0:
            raise ConfigurationError("sigma and wavelength must be positive")


def electron_wavelength(accel_voltage_kv: float) -> float:
    """Relativistic de Broglie wavelength in Angstrom for a kV beam."""
    if accel_voltage_kv <= 0.0:
        raise ConfigurationError("accelerating voltage must be positive")
    e_kev = accel_voltage_kv
    return _HC_KEV_A / np.sqrt(e_kev * (2.0 * _M0C2_KEV + e_kev))


def interaction_parameter(accel_voltage_kv: float) -> InteractionParams:
    """sigma = 2 pi m e lambda / h^2 with relativistic mass m = gamma m0."""
    lam = electron_wavelength(accel_voltage_kv)
    gamma = 1.0 + accel_voltage_kv / _M0C2_KEV
    sigma_si = (
        2.0 * np.pi * gamma * _ELECTRON_MASS * _ELEMENTARY_CHARGE * (lam * 1e-10)
        / _PLANCK_H**2
    )
    return InteractionParams(sigma=sigma_si * 1e-10, wavelength=lam,
                             accel_voltage_kv=accel_voltage_kv)


def interaction_from_wavelength(wavelength: float) -> InteractionParams:
    """Recover the accelerating voltage from lambda, then build sigma.

    The relation E(2 m0 c^2 + E) = (hc/lambda)^2 is inverted in closed
    form; useful when only the wavelength is recorded in a manifest.
    """
    if wavelength <= 0.0:
        raise ConfigurationError("wavelength must be positive")
    e_kev = -_M0C2_KEV + np.sqrt(_M0C2_KEV**2 + (_HC_KEV_A / wavelength) ** 2)
    return interaction_parameter(e_kev)


def max_slab_thickness(wavelength: float, pitch: float) -> float:
    """Axial Nyquist bound on the slab thickness, lambda/(1-sqrt(1-NA^2)).

    NA = lambda/pitch is the effective numerical aperture of the sampled
    grid. Slabs thinner than this support the axial resolution at every
    tilt angle.
    """
    na = wavelength / pitch
    if not 0.0 < na < 1.0:
        raise ConfigurationError("need 0 < wavelength/pitch < 1")
    return wavelength / (1.0 - np.sqrt(1.0 - na * na))


# ---------------------------------------------------------------------------
# rotation about the y axis
# ---------------------------------------------------------------------------

def _rot90_view(values: np.ndarray, k: int) -> np.ndarray:
    """Exact rotation by k*90 degrees in the x-z plane (+x toward +z), as
    a view of ``values`` (no copy)."""
    k %= 4
    if k == 0:
        return values
    if k == 2:
        return values[::-1, :, ::-1]
    turned = values.transpose(2, 1, 0)
    return turned[:, :, ::-1] if k == 1 else turned[::-1]


def _shear_matrix(n_coord: int, n_shift: int, coeff: float, coord_axis: int,
                  taps: tuple[int, ...]) -> csr_matrix:
    """One shear pass as an (n_coord * n_shift)-square CSR matrix that acts
    on a 2D array of rows, the rows indexed by (coord, shift) in C order
    for ``coord_axis`` 0, or by (shift, coord) for 1.

    The pass translates along the shift axis by coeff*(centered
    coordinate), with linear interpolation and zero fill: at coordinate
    c, with ``k + frac`` the offset, out[c, s] is ``(1 - frac) *
    v[c, s - k]`` (tap 0) plus ``frac * v[c, s - k - 1]`` (tap 1). Each
    row holds the entries of ``taps`` whose source is inside the volume,
    at most two; taps outside are left out, zero weights are kept. The
    arrays of the matrix are read-only.
    """
    offsets = coeff * (np.arange(n_coord) - (n_coord - 1) / 2.0)
    k = np.floor(offsets).astype(np.int64)
    frac = offsets - k
    tap = np.asarray(taps)
    # (coord, shift, tap) arrays: source index along the shift axis, weight, column
    src = np.arange(n_shift)[:, None] - k[:, None, None] - tap
    weight = np.broadcast_to(np.stack([1.0 - frac, frac], axis=1)[:, None, tap], src.shape)
    coord = np.arange(n_coord)[:, None, None]
    if coord_axis == 0:
        col = coord * n_shift + src
    else:  # rows run in (shift, coord) order
        col = src * n_coord + coord
        src, weight, col = (a.transpose(1, 0, 2) for a in (src, weight, col))
    inside = (src >= 0) & (src < n_shift)
    indptr = np.concatenate(([0], np.cumsum(inside.sum(axis=2).ravel())))
    size = n_coord * n_shift
    matrix = csr_matrix((weight[inside], col[inside], indptr), shape=(size, size))
    for array in (matrix.data, matrix.indices, matrix.indptr):
        array.flags.writeable = False
    return matrix


def _pass_matrices(n_coord: int, n_shift: int, coeff: float, coord_axis: int,
                   dtype) -> tuple[csr_matrix, ...]:
    """The matrices that apply one shear pass (see :func:`_shear_matrix`)
    to an array of ``dtype``: one with both taps for float64 and
    complex128, one per tap for any other dtype."""
    one_product = np.dtype(dtype) in (np.float64, np.complex128)
    return tuple(_shear_matrix(n_coord, n_shift, coeff, coord_axis, taps)
                 for taps in (((0, 1),) if one_product else ((0,), (1,))))


def _apply_pass(matrices: tuple[csr_matrix, ...], rows: np.ndarray) -> np.ndarray:
    """A new array of ``rows``' shape and dtype: the sum of the products of
    ``matrices`` with the 2D array ``rows``.

    Each output element is ``0 + w0*a + w1*b`` in float64 (complex128
    for complex input), the weights float64: the accumulation order and
    operand types of a dense gather. Two terms commute, so the column
    order within a row cannot change the result, and the zero start
    turns a -0 into +0 as the gather does. For float32 or complex64 the
    output is rounded to that dtype after each tap, one product per tap.
    """
    out = (matrices[0] @ rows).astype(rows.dtype, casting="same_kind", copy=False)
    for matrix in matrices[1:]:
        out += matrix @ rows
    return out


def _sheared(src: np.ndarray, coeff: float, out: np.ndarray) -> np.ndarray:
    """One shear pass from ``src`` into ``out``, both arrays of one shape
    laid out as (coord, shift, y): translate along axis 1 by
    coeff*(centered coordinate along axis 0), with linear interpolation
    and zero fill outside the volume.

    The pass is the product of :func:`_shear_matrix` (coordinate axis 0)
    with ``src`` reshaped to rows of y. Samples shifted past the end are
    dropped. Each pass is exactly linear; its adjoint is the same pass
    with the coefficient negated. Returns ``out``.
    """
    if coeff == 0.0:
        out[...] = src
        return out
    n_coord, n_shift, ny = src.shape
    matrices = _pass_matrices(n_coord, n_shift, coeff, 0, src.dtype)
    out[...] = _apply_pass(matrices, src.reshape(n_coord * n_shift, ny)).reshape(src.shape)
    return out


def _split_angle(theta_deg: float) -> tuple[int, float]:
    """Reduce theta to an exact 90-degree multiple plus |phi| <= 45 deg."""
    theta = (theta_deg + 180.0) % 360.0 - 180.0
    k = int(round(theta / 90.0))
    return k, theta - 90.0 * k


def _shear_coeffs(phi_deg: float) -> tuple[float, float]:
    phi = np.deg2rad(phi_deg)
    return -np.tan(phi / 2.0), np.sin(phi)


def _shear_passes(n: int, alpha: float, beta: float, dtype) -> tuple[tuple[csr_matrix, ...], ...]:
    """The x and z passes' matrices (coefficients ``alpha``, ``beta``) on
    the (z, x, y) layout of an (n, ny, n) volume of ``dtype``."""
    return _pass_matrices(n, n, alpha, 0, dtype), _pass_matrices(n, n, beta, 1, dtype)


def _shear_xzx(zyx: np.ndarray, x_pass: tuple, z_pass: tuple, k_after: int) -> np.ndarray:
    """The x, z, x shear passes of a (z, y, x) array with nz == nx, then
    an exact rotation by ``k_after`` * 90 degrees; returns a new
    C-contiguous (z, y, x) array.

    The passes are sparse-matrix products (:func:`_apply_pass`) on one
    (z, x, y) copy reshaped to rows of y: the x and z passes differ only
    in their matrices' index maps, so no copy is made between them. Each
    product's operand is freed once the next exists, so at most two
    volume-sized arrays are alive; fresh large arrays cost page faults.
    """
    n, ny = zyx.shape[:2]
    rows = zyx.transpose(0, 2, 1).reshape(n * n, ny)  # (z, x, y)
    for matrices in (x_pass, z_pass, x_pass):
        rows = _apply_pass(matrices, rows)
    return np.ascontiguousarray(_rot90_view(rows.reshape(n, n, ny).transpose(0, 2, 1), k_after))


def _check_rotatable(nz: int, nx: int, k: int, phi: float) -> None:
    if (k % 4 != 0 or phi != 0.0) and nx != nz:
        raise ValueError("rotation requires nx == nz")


def rotate(v: PotentialVolume, theta_deg: float) -> PotentialVolume:
    """Rotate the volume about the y axis by ``theta_deg``.

    Positive angles turn the +x axis toward +z. The rotation is an exact
    90-degree permutation composed with a three-pass (x, z, x) shear for
    the residual angle, so the residual shears stay well conditioned for
    any input angle. Voxels sheared outside the volume are dropped,
    vacated voxels are zero.

    Each shear pass is one sparse-matrix product on a (z, x, y) copy of
    the volume, y fastest (see :func:`_shear_xzx`). The permutation is a
    view, folded into that copy; a last copy brings the result back to
    (z, y, x). The result never shares memory with the input. The pass
    matrices are built for each call: this is the reference operator,
    and the reconstruction loop uses :func:`projector` instead.
    """
    k, phi = _split_angle(theta_deg)
    _check_rotatable(v.nz, v.nx, k, phi)
    turned = _rot90_view(v.values, k)
    if phi == 0.0:
        return PotentialVolume(turned.copy(), v.pitch)
    passes = _shear_passes(v.nx, *_shear_coeffs(phi), v.values.dtype)
    return PotentialVolume(_shear_xzx(turned, *passes, 0), v.pitch)


def rotate_adjoint(v: PotentialVolume, theta_deg: float) -> PotentialVolume:
    """Exact algebraic adjoint of :func:`rotate` at the same angle.

    Applies the transposed shear passes, the same matrices built with
    negated coefficients (the x pass, the z pass, the x pass again), then
    inverts the 90-degree permutation, as a view folded into the final
    copy back to (z, y, x). The result never shares memory with the
    input.
    """
    k, phi = _split_angle(theta_deg)
    _check_rotatable(v.nz, v.nx, k, phi)
    if phi == 0.0:
        return PotentialVolume(_rot90_view(v.values, -k).copy(), v.pitch)
    alpha, beta = _shear_coeffs(phi)
    passes = _shear_passes(v.nx, -alpha, -beta, v.values.dtype)
    return PotentialVolume(_shear_xzx(v.values, *passes, -k), v.pitch)


# ---------------------------------------------------------------------------
# slice binning
# ---------------------------------------------------------------------------

def _tree_sum(run: np.ndarray) -> np.ndarray:
    """Balanced pairwise sum over axis 1, whose length is a power of two.

    For equal values x the partial sums 2x, 4x, ... are exact.
    """
    half = run.shape[1] // 2
    if half == 0:
        return run[:, 0].copy()
    acc = run[:, :half] + run[:, half:]
    while half > 1:
        half //= 2
        acc[:, :half] += acc[:, half:2 * half]
    return acc[:, 0]


def _two_sum_error(a: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Exact rounding error (a + b) - s of the float sum s = a + b (TwoSum).

    Where an operand is infinite the error is nan, without a warning.
    """
    with np.errstate(invalid="ignore"):
        b_part = s - a
        return (a - (s - b_part)) + (b - b_part)


def _group_sum(groups: np.ndarray) -> np.ndarray:
    """Sum ``groups`` of shape (n_slabs, n_b, ...) over axis 1.

    A group of n_b equal values x sums to n_b*x rounded once; a
    sequential float sum rounds at 3x, 5x, ... and can miss it. Each
    power-of-two run in the binary expansion of n_b is tree-summed
    (exact for equal values). Two run sums need a single rounded
    addition; more are combined with TwoSum and their exact errors added
    back in one final rounding.
    """
    n_b = groups.shape[1]
    runs, start = [], 0
    for size in (1 << bit for bit in reversed(range(n_b.bit_length()))):
        if n_b & size:
            runs.append(_tree_sum(groups[:, start:start + size]))
            start += size
    if len(runs) == 1:
        return runs[0]
    total = runs[0] + runs[1]
    if len(runs) == 2:
        return total
    error = _two_sum_error(runs[0], runs[1], total)
    for run in runs[2:]:
        partial = total + run
        error += _two_sum_error(total, run, partial)
        total = partial
    # an inf or nan in a group makes its error nan: keep the plain sum there
    return total + np.where(np.isfinite(error), error, 0.0)


def bin_slices(v: PotentialVolume, n_b: int) -> BinnedVolume:
    """Sum every ``n_b`` consecutive slices into one slab.

    If nz is not divisible by n_b the volume is zero-padded in z at the
    far end, which keeps the operator linear and the adjoint pairing
    exact. A slab sum of replicated slices is exact, so for nz a
    multiple of n_b, ``bin_slices(bin_adjoint(w, n_b, nz), n_b)`` is
    exactly ``n_b * w``.
    """
    if n_b <= 0:
        raise ValueError("binning factor must be positive")
    values = v.values
    nz = values.shape[0]
    pad = (-nz) % n_b
    if pad:
        values = np.concatenate(
            [values, np.zeros((pad,) + values.shape[1:], dtype=values.dtype)], axis=0
        )
    n_slabs = values.shape[0] // n_b
    slabs = _group_sum(values.reshape(n_slabs, n_b, *values.shape[1:]))
    return BinnedVolume(slabs, v.pitch, n_b)


def bin_adjoint(vb: BinnedVolume, n_b: int, nz: int) -> PotentialVolume:
    """Adjoint of :func:`bin_slices`: replicate each slab to its slices."""
    if n_b <= 0:
        raise ValueError("binning factor must be positive")
    if n_b != vb.n_b:
        raise ValueError("binning factor does not match the binned volume")
    replicated = np.repeat(vb.values, n_b, axis=0)
    if nz > replicated.shape[0]:
        raise ValueError("target nz exceeds the binned extent")
    return PotentialVolume(replicated[:nz], vb.pitch)  # np.repeat made a fresh array


# ---------------------------------------------------------------------------
# the projector: rotation and binning as one matrix on the row layout
# ---------------------------------------------------------------------------

def to_rows(values: np.ndarray) -> np.ndarray:
    """A new C-contiguous (m * nx, ny) array holding the (m, ny, nx) array
    ``values`` as (z, x) rows of y: row ``z * nx + x`` is ``values[z, :, x]``."""
    m, ny, nx = values.shape
    return np.array(values.transpose(0, 2, 1), order="C").reshape(m * nx, ny)


def from_rows(rows: np.ndarray, nx: int) -> np.ndarray:
    """The (m, ny, nx) view of ``rows``, an (m * nx, ny) array in the
    layout of :func:`to_rows`; not a copy."""
    ny = rows.shape[1]
    return rows.reshape(-1, nx, ny).transpose(0, 2, 1)


def _bin_matrix(nz: int, nx: int, n_b: int) -> csr_matrix:
    """:func:`bin_slices` on the row layout: row (slab, x) holds a one for
    each (z, x) with z in that slab; a last slab past nz has fewer, which
    is the zero padding."""
    z = np.arange(nz)
    slab_rows = ((z // n_b)[:, None] * nx + np.arange(nx)).ravel()
    n_slabs = -(-nz // n_b)
    return csr_matrix((np.ones(nz * nx), (slab_rows, np.arange(nz * nx))),
                      shape=(n_slabs * nx, nz * nx))


def projector(nz: int, nx: int, theta_deg: float, n_b: int) -> csr_matrix:
    """``bin_slices(rotate(., theta_deg), n_b)`` of an (nz, ny, nx) volume
    as one read-only float64 CSR matrix on its row layout (see
    :func:`to_rows`), of shape (n_slabs * nx, nz * nx) for any ny.

    The matrix is the product binning * x-shear * z-shear * x-shear *
    90-degree turn: the passes of :func:`_shear_matrix`, a ones matrix
    summing each slab's slices (zero-padded past nz, as
    :func:`bin_slices`), and the turn as a permutation of the columns.
    ``projector(...) @ to_rows(v.values)`` is the rows of the slabs, and
    ``projector(...).T @ slab_rows`` applies
    ``rotate_adjoint(bin_adjoint(.))``. Both agree with those reference
    operators to float64 rounding, not bit for bit: the composed weights
    round differently from three passes and the exact slab sum.
    """
    if n_b <= 0:
        raise ValueError("binning factor must be positive")
    k, phi = _split_angle(theta_deg)
    _check_rotatable(nz, nx, k, phi)
    matrix = _bin_matrix(nz, nx, n_b)
    if phi != 0.0:
        alpha, beta = _shear_coeffs(phi)
        x_pass = _shear_matrix(nx, nx, alpha, 0, (0, 1))
        matrix = matrix @ x_pass @ _shear_matrix(nx, nx, beta, 1, (0, 1)) @ x_pass
    if k % 4:
        # the turned row r is the input row source[r]: its column moves there
        source = _rot90_view(np.arange(nz * nx).reshape(nz, 1, nx), k).ravel()
        matrix = csr_matrix((matrix.data, source[matrix.indices], matrix.indptr),
                            shape=matrix.shape)
    matrix.sort_indices()
    for array in (matrix.data, matrix.indices, matrix.indptr):
        array.flags.writeable = False
    return matrix


def project(v: PotentialVolume, theta_deg: float, n_b: int) -> BinnedVolume:
    """``bin_slices(rotate(v, theta_deg), n_b)`` as one product with
    :func:`projector`; float64, or complex128 for a complex ``v``."""
    matrix = projector(v.nz, v.nx, theta_deg, n_b)
    return BinnedVolume(from_rows(matrix @ to_rows(v.values), v.nx), v.pitch, n_b)


def transmittance(slab: np.ndarray, params: InteractionParams, grid: GridSpec) -> WaveField:
    """Per-slab phase screen t = exp(i sigma W); |t| = 1 for real W."""
    slab = np.asarray(slab)
    _require_finite(slab, "slab")
    return WaveField(grid, np.exp(1j * params.sigma * slab))


# ---------------------------------------------------------------------------
# raw + JSON volume file format (shared, bit-exact)
# ---------------------------------------------------------------------------

def volume_sidecar_path(raw_path: str | Path) -> Path:
    return Path(raw_path).with_suffix(".json")


def write_volume(v: PotentialVolume, raw_path: str | Path, units: str = "V*A") -> None:
    """Write little-endian float32 raw data (x fastest) plus JSON sidecar."""
    raw_path = Path(raw_path)
    data = np.ascontiguousarray(np.real(v.values), dtype="<f4")
    raw_path.write_bytes(data.tobytes())
    meta = {
        "nx": v.nx,
        "ny": v.ny,
        "nz": v.nz,
        "pitch_angstrom": v.pitch,
        "units": units,
    }
    volume_sidecar_path(raw_path).write_text(json.dumps(meta, indent=2) + "\n")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# The kinds of value in manifests, sidecars and CLI configs: test, description.
KINDS = {
    "number": (_is_number, "a number"),
    "integer": (lambda v: _is_number(v) and isinstance(v, int), "an integer"),
    "boolean": (lambda v: isinstance(v, bool), "true or false"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "numbers": (lambda v: isinstance(v, list) and all(map(_is_number, v)),
                "an array of numbers"),
    "number or infinite": (lambda v: v == "infinite" or _is_number(v),
                           'a number or "infinite"'),
}


def check_kind(value, kind: str, name: str) -> None:
    """Raise ``ValueError("<name> must be <description>, got <value>")``
    unless ``value`` is of ``kind`` in :data:`KINDS`; a non-number given
    for an integer must be a number, a fractional one an integer."""
    if kind == "integer" and not _is_number(value):
        kind = "number"
    is_kind, description = KINDS[kind]
    if not is_kind(value):
        raise ValueError(f"{name} must be {description}, got {json.dumps(value)}")


def read_manifest(path: Path, kinds: dict[str, str]) -> dict:
    """The JSON object in ``path``. A missing key of ``kinds``, or a value
    not of its kind (``null`` included, see :func:`check_kind`), is a
    ``ValueError`` naming the file and the key."""
    meta = json.loads(path.read_text())
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: expected a JSON object")
    missing = [k for k in kinds if k not in meta]
    if missing:
        raise ValueError(f"{path}: missing key {', '.join(missing)}")
    for key, kind in kinds.items():
        check_kind(meta[key], kind, f"{path}: {key}")
    return meta


def read_volume(raw_path: str | Path) -> PotentialVolume:
    """Read a raw+JSON volume, validating the byte count."""
    raw_path = Path(raw_path)
    meta = read_manifest(volume_sidecar_path(raw_path), {
        "nx": "integer", "ny": "integer", "nz": "integer", "pitch_angstrom": "number"})
    nx, ny, nz = meta["nx"], meta["ny"], meta["nz"]
    blob = raw_path.read_bytes()
    expected = 4 * nx * ny * nz
    if len(blob) != expected:
        raise ValueError(
            f"volume file has {len(blob)} bytes, expected {expected} for "
            f"{nx}x{ny}x{nz} float32"
        )
    values = np.frombuffer(blob, dtype="<f4").reshape(nz, ny, nx).astype(np.float64)
    return PotentialVolume(values, float(meta["pitch_angstrom"]))
