"""Volume operators: rotation, binning, interaction constants, I/O."""

import numpy as np
import pytest

from phasetomo import (
    BinnedVolume,
    PotentialVolume,
    bin_adjoint,
    bin_slices,
    electron_wavelength,
    interaction_from_wavelength,
    interaction_parameter,
    max_slab_thickness,
    read_volume,
    rotate,
    rotate_adjoint,
    write_volume,
)
from phasetomo.forward import uniform_tilt_angles
from phasetomo.volume import _shear_matrix, from_rows, projector, rows_product, to_rows
from rotation_oracle import gather_shear, reference_rotation


def _smooth_volume(n, seed=0):
    """Band-limited random cube (smooth enough for interpolation checks)."""
    rng = np.random.default_rng(seed)
    spectrum = np.fft.fftn(rng.normal(size=(n, n, n)))
    q = np.fft.fftfreq(n)
    q2 = q[:, None, None] ** 2 + q[None, :, None] ** 2 + q[None, None, :] ** 2
    spectrum[q2 > 0.15**2] = 0.0
    return np.real(np.fft.ifftn(spectrum))


def _vdot(a, b):
    return np.vdot(a.ravel(), b.ravel())


# ---------------------------------------------------------------------------
# rotation
# ---------------------------------------------------------------------------

def test_rotate_zero_is_identity_bitwise():
    rng = np.random.default_rng(1)
    v = PotentialVolume(rng.normal(size=(8, 6, 8)), 0.5)
    out = rotate(v, 0.0)
    assert np.array_equal(out.values, v.values)


def test_rotate_90_moves_single_voxel():
    # odd-sized cube so the geometric center is a voxel center
    n = 17
    v = PotentialVolume(np.zeros((n, n, n)), 0.5)
    c = (n - 1) // 2
    x0, y0 = c + 4, 3
    v.values[c, y0, x0] = 1.0
    out = rotate(v, 90.0)
    # +x rotates toward +z: (x=c+4, z=c) -> (x=c, z=c+4)
    peak = np.unravel_index(np.argmax(out.values), out.values.shape)
    assert peak == (c + 4, y0, c)
    assert np.sum(out.values) == pytest.approx(1.0, abs=1e-6)
    assert out.values[peak] == pytest.approx(1.0, abs=1e-12)


def test_rotate_interior_mass_preserved():
    n = 32
    vals = np.zeros((n, n, n))
    c = n // 2
    vals[c - 3:c + 3, c - 3:c + 3, c - 3:c + 3] = np.random.default_rng(2).uniform(
        1.0, 2.0, (6, 6, 6)
    )
    v = PotentialVolume(vals, 0.5)
    out = rotate(v, 37.0)
    assert np.sum(out.values) == pytest.approx(np.sum(vals), rel=1e-6)


def _reference_rotate(vals, theta_deg):
    """Independent oracle: direct inverse-mapping with bilinear interpolation
    in the x-z plane about the voxel-grid center."""
    n_z, n_y, n_x = vals.shape
    theta = np.deg2rad(theta_deg)
    cz, cx = (n_z - 1) / 2.0, (n_x - 1) / 2.0
    z_idx, x_idx = np.meshgrid(np.arange(n_z), np.arange(n_x), indexing="ij")
    uz, ux = z_idx - cz, x_idx - cx
    # out(u) = in(R(-theta) u); +theta maps +x toward +z
    src_x = np.cos(theta) * ux + np.sin(theta) * uz + cx
    src_z = -np.sin(theta) * ux + np.cos(theta) * uz + cz
    x0 = np.floor(src_x).astype(int)
    z0 = np.floor(src_z).astype(int)
    fx, fz = src_x - x0, src_z - z0
    out = np.zeros_like(vals)
    for dz_tap, wz in ((0, 1 - fz), (1, fz)):
        for dx_tap, wx in ((0, 1 - fx), (1, fx)):
            zz, xx = z0 + dz_tap, x0 + dx_tap
            valid = (zz >= 0) & (zz < n_z) & (xx >= 0) & (xx < n_x)
            w = wz * wx * valid
            # advanced indexing puts the (z, x) index axes first: (nz, nx, ny)
            samples = vals[np.clip(zz, 0, n_z - 1), :, np.clip(xx, 0, n_x - 1)]
            out += (w[:, None, :] * samples.transpose(0, 2, 1))
    return out


@pytest.mark.parametrize("theta", [25.0, -40.0, 115.0])
def test_rotate_matches_reference_rotator(theta):
    vals = _smooth_volume(32, seed=3)
    # confine content to a cylinder about the rotation axis so both
    # rotators see the same support (shear passes drop voxels that
    # transit outside the cube; the dense oracle does not)
    c = (32 - 1) / 2.0
    u = np.arange(32) - c
    r = np.sqrt(u[:, None] ** 2 + u[None, :] ** 2)  # (z, x) radius
    taper = np.clip((c - 2.0 - r) / 3.0, 0.0, 1.0)
    vals = vals * taper[:, None, :]
    v = PotentialVolume(vals, 0.5)
    out = rotate(v, theta).values
    ref = _reference_rotate(vals, theta)
    rel = np.linalg.norm(out - ref) / np.linalg.norm(ref)
    assert rel < 5e-2


def test_rotate_adjoint_zero_is_identity():
    rng = np.random.default_rng(4)
    v = PotentialVolume(rng.normal(size=(8, 5, 8)), 0.5)
    assert np.array_equal(rotate_adjoint(v, 0.0).values, v.values)


@pytest.mark.parametrize("theta", [3.0, -28.5, 60.0, 90.0, 137.0, 180.0])
def test_rotate_adjoint_dot_product(theta):
    rng = np.random.default_rng(5)
    x = PotentialVolume(rng.normal(size=(16, 16, 16)), 0.5)
    y = PotentialVolume(rng.normal(size=(16, 16, 16)), 0.5)
    lhs = _vdot(y.values, rotate(x, theta).values)
    rhs = _vdot(rotate_adjoint(y, theta).values, x.values)
    bound = 1e-9 * np.linalg.norm(x.values) * np.linalg.norm(y.values)
    assert abs(lhs - rhs) <= bound


def test_rotate_adjoint_180_equals_negative_rotation():
    vals = _smooth_volume(16, seed=6)
    v = PotentialVolume(vals, 0.5)
    adj = rotate_adjoint(v, 180.0).values
    neg = rotate(v, -180.0).values
    assert np.allclose(adj[2:-2, :, 2:-2], neg[2:-2, :, 2:-2], atol=1e-12)


def test_rotate_linearity():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(12, 12, 12))
    y = rng.normal(size=(12, 12, 12))
    a, b = 1.7, -0.3
    combined = rotate(PotentialVolume(a * x + b * y, 0.5), 33.0).values
    separate = a * rotate(PotentialVolume(x, 0.5), 33.0).values \
        + b * rotate(PotentialVolume(y, 0.5), 33.0).values
    assert np.allclose(combined, separate, atol=1e-10)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("shape", [(16, 16, 16), (17, 17, 17), (12, 9, 12), (15, 20, 15)])
@pytest.mark.parametrize("axes", [(2, 0), (0, 2)])
@pytest.mark.parametrize("coeff", [0.0, 0.3249, -0.3249, 0.7071, -0.9, 3.0, -3.0])
def test_shear_pass_is_byte_identical_to_gather(dtype, shape, axes, coeff):
    rng = np.random.default_rng(12)
    values = rng.normal(size=shape).astype(dtype)
    if dtype is np.complex128:
        values += 1j * rng.normal(size=shape)
    values.flat[::5] *= -0.0  # signed zeros must come out as the gather's
    shift_axis, coord_axis = axes
    planes = np.moveaxis(values, (coord_axis, shift_axis), (0, 1))
    n_coord, n_shift, ny = planes.shape
    matrix = _shear_matrix(n_coord, n_shift, coeff, 0)
    out = (matrix @ planes.reshape(n_coord * n_shift, ny)).reshape(planes.shape)
    out = np.moveaxis(out, (0, 1), (coord_axis, shift_axis))
    ref = gather_shear(values, *axes, coeff)
    if coeff == 0.0:
        # the oracle's shortcut copies; the matrix sums 0 + 1*a + 0*b per
        # row, which turns -0 into +0 (no rotation shears at coeff 0)
        ref = ref + 0.0
    assert out.dtype == ref.dtype
    assert out.tobytes() == ref.tobytes()


_ORACLE_ANGLES = list(uniform_tilt_angles(20, 180.0)) + [
    0.0, 45.0, -45.0, 90.0, -90.0, 135.0, -135.0, 180.0]


@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.float32, np.complex64])
@pytest.mark.parametrize("shape", [(16, 16, 16), (17, 9, 17), (15, 20, 15), (48, 48, 48)])
def test_rotation_is_byte_identical_to_gather_reference(dtype, shape):
    # An agreement check, not a byte-identity one; the name is kept so the
    # suite's test IDs stay stable. One product with the composed (x, z, x)
    # matrix rounds differently from three gather passes: within 5.3e-16 of
    # the maximum, measured. Single-precision input is promoted to float64
    # or complex128, as in to_rows, and agrees with the gather of the
    # promoted values.
    rng = np.random.default_rng(14)
    values = rng.normal(size=shape).astype(dtype)
    if np.iscomplexobj(values):
        values += 1j * rng.normal(size=shape).astype(dtype)
    values.flat[::5] *= -0.0
    v = PotentialVolume(values, 0.5)
    promoted = values.astype(np.result_type(values, np.float64))
    for theta in _ORACLE_ANGLES:
        for op, adjoint in ((rotate, False), (rotate_adjoint, True)):
            out = op(v, theta).values
            ref = reference_rotation(promoted, theta, adjoint)
            assert out.dtype == ref.dtype, (theta, op.__name__)
            assert out.shape == ref.shape, (theta, op.__name__)
            assert out.flags.c_contiguous, (theta, op.__name__)
            assert np.max(np.abs(out - ref)) <= 2e-15 * np.max(np.abs(ref)), (theta, op.__name__)


@pytest.mark.parametrize("theta", [0.0, 90.0, 37.0])
def test_rotation_never_returns_a_view_of_its_input(theta):
    v = PotentialVolume(np.random.default_rng(13).normal(size=(8, 6, 8)), 0.5)
    assert not np.shares_memory(rotate(v, theta).values, v.values)
    assert not np.shares_memory(rotate_adjoint(v, theta).values, v.values)


def test_rotation_of_a_one_wide_volume_leaves_its_input_alone():
    # with ny == 1 the row-layout view of the input is already C-contiguous,
    # so only an explicit copy keeps the product out of the input's memory
    values = np.random.default_rng(15).normal(size=(9, 1, 9))
    v = PotentialVolume(values.copy(), 0.5)
    for op in (rotate, rotate_adjoint):
        out = op(v, 37.0).values
        assert not np.shares_memory(out, v.values)
        assert np.array_equal(v.values, values)


# ---------------------------------------------------------------------------
# binning
# ---------------------------------------------------------------------------

def test_bin_identity():
    rng = np.random.default_rng(8)
    v = PotentialVolume(rng.normal(size=(6, 4, 4)), 0.5)
    out = bin_slices(v, 1)
    assert np.array_equal(out.values, v.values)
    back = bin_adjoint(out, 1, 6)
    assert np.array_equal(back.values, v.values)


def test_bin_constant_slices():
    slices = np.stack([np.full((3, 3), c) for c in (1.0, 2.0, 3.0, 4.0)])
    v = PotentialVolume(slices, 0.5)
    out = bin_slices(v, 2)
    assert np.allclose(out.values[0], 3.0)  # a + b
    assert np.allclose(out.values[1], 7.0)  # c + d


def test_bin_slab_thickness_paper_configuration():
    v = PotentialVolume(np.zeros((40, 4, 4)), 0.5)
    out = bin_slices(v, 10)
    assert out.slab_thickness == pytest.approx(5.0)
    assert out.n_slabs == 4


def test_bin_pads_non_divisible():
    rng = np.random.default_rng(9)
    v = PotentialVolume(rng.normal(size=(7, 3, 3)), 0.5)
    out = bin_slices(v, 3)
    assert out.n_slabs == 3
    assert np.sum(out.values) == pytest.approx(np.sum(v.values), rel=1e-12)


def test_bin_adjoint_dot_product():
    rng = np.random.default_rng(10)
    nz, n_b = 10, 3
    x = PotentialVolume(rng.normal(size=(nz, 4, 4)), 0.5)
    y_vals = rng.normal(size=(4, 4, 4))  # ceil(10/3) = 4 slabs
    from phasetomo import BinnedVolume

    y = BinnedVolume(y_vals, 0.5, n_b)
    lhs = _vdot(y.values, bin_slices(x, n_b).values)
    rhs = _vdot(bin_adjoint(y, n_b, nz).values, x.values)
    assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x.values) * np.linalg.norm(y_vals)


def test_bin_bin_adjoint_is_scaling():
    from phasetomo import BinnedVolume

    rng = np.random.default_rng(11)
    n_b, n_slabs = 5, 3
    y = BinnedVolume(rng.normal(size=(n_slabs, 4, 4)), 0.5, n_b)
    back = bin_adjoint(y, n_b, n_slabs * n_b)
    again = bin_slices(back, n_b)
    assert np.array_equal(again.values, n_b * y.values)  # exact


def test_bin_sums_replicated_slices_with_one_rounding():
    # every binary shape of n_b: one run (8), two runs (10), three or more (7, 15)
    from phasetomo import BinnedVolume

    rng = np.random.default_rng(12)
    for n_b in range(1, 17):
        for _ in range(20):
            scale = 10.0 ** rng.uniform(-8, 8)
            slabs = scale * (rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4)))
            back = bin_adjoint(BinnedVolume(slabs, 0.5, n_b), n_b, 3 * n_b)
            assert np.array_equal(bin_slices(back, n_b).values, n_b * slabs), n_b


@pytest.mark.parametrize("nz", [12, 10])
def test_bin_adjoint_result_shares_no_memory_with_its_input(nz):
    from phasetomo import BinnedVolume

    vb = BinnedVolume(np.arange(48.0).reshape(3, 4, 4), 0.5, 4)  # 12 slices
    out = bin_adjoint(vb, 4, nz)
    assert out.values.shape == (nz, 4, 4)
    assert not np.shares_memory(out.values, vb.values)


def test_bin_keeps_non_finite_sums():
    # n_b = 7 takes the compensated path, whose error term is nan here
    column = np.array([np.inf, 1, 2, 3, 1, 1, 1] + [np.nan] + [1] * 6 + [1] * 7)
    x = PotentialVolume(column.reshape(21, 1, 1), 0.5)
    assert np.array_equal(bin_slices(x, 7).values.ravel(), [np.inf, np.nan, 7.0],
                          equal_nan=True)


def test_bin_rejects_bad_factor():
    v = PotentialVolume(np.zeros((4, 4, 4)), 0.5)
    with pytest.raises(ValueError):
        bin_slices(v, 0)


# ---------------------------------------------------------------------------
# projector: rotation and binning as one matrix
# ---------------------------------------------------------------------------

_PROJECTOR_ANGLES = list(uniform_tilt_angles(20, 180.0)) + [0.0, 90.0, 180.0, -135.0, 37.0, 123.0]


def _random_values(rng, shape, dtype):
    values = rng.normal(size=shape)
    if dtype is np.complex128:
        values = values + 1j * rng.normal(size=shape)
    return values


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("shape, n_b", [
    ((48, 48, 48), 4), ((16, 12, 16), 3), ((20, 20, 20), 1), ((17, 5, 17), 4)])
def test_projector_matches_rotate_then_bin_and_their_adjoints(dtype, shape, n_b):
    rng = np.random.default_rng(16)
    nz, ny, nx = shape
    v = PotentialVolume(_random_values(rng, shape, dtype), 0.5)
    slabs = _random_values(rng, (-(-nz // n_b), ny, nx), dtype)
    for theta in _PROJECTOR_ANGLES:
        matrix = projector(nz, nx, theta, n_b)
        out = BinnedVolume(from_rows(rows_product(matrix, to_rows(v.values)), nx), 0.5, n_b)
        ref = bin_slices(PotentialVolume(reference_rotation(v.values, theta), 0.5), n_b)
        assert (out.n_b, out.pitch, out.values.dtype) == (n_b, 0.5, ref.values.dtype)
        assert out.values.shape == ref.values.shape, theta
        # the composed weights round differently: 5.8e-16 at most, measured
        assert np.max(np.abs(out.values - ref.values)) <= 2e-15 * np.max(np.abs(ref.values))
        back = from_rows(matrix.T @ to_rows(slabs), nx)
        spread = bin_adjoint(BinnedVolume(slabs, 0.5, n_b), n_b, nz).values
        ref_back = reference_rotation(spread, theta, adjoint=True)
        assert back.shape == ref_back.shape, theta
        assert np.max(np.abs(back - ref_back)) <= 2e-15 * np.max(np.abs(ref_back))
        lhs, rhs = _vdot(slabs, out.values), _vdot(back, v.values)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs), theta


def test_projector_arrays_are_read_only():
    for theta in (0.0, 90.0, 37.0):
        matrix = projector(12, 12, theta, 2)
        for array in (matrix.data, matrix.indices, matrix.indptr):
            assert not array.flags.writeable


@pytest.mark.parametrize("theta", [37.0, 90.0, 180.0])
def test_projector_of_a_non_cubic_volume_raises_as_rotate_does(theta):
    v = PotentialVolume(np.random.default_rng(18).normal(size=(16, 4, 12)), 0.5)
    with pytest.raises(ValueError, match=r"^rotation requires nx == nz$"):
        rotate(v, theta)
    with pytest.raises(ValueError, match=r"^rotation requires nx == nz$"):
        projector(16, 12, theta, 2)
    for whole_turns in (0.0, 360.0, -720.0):  # the binning alone
        ref = bin_slices(v, 3).values
        out = from_rows(rows_product(projector(16, 12, whole_turns, 3), to_rows(v.values)), 12)
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) <= 2e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_b", [1, 4])
def test_rows_product_is_the_complex_product_bit_for_bit(n_b):
    rng = np.random.default_rng(19)
    nz = ny = nx = 48
    rows = to_rows(_random_values(rng, (nz, ny, nx), np.complex128))
    slab_rows = to_rows(_random_values(rng, (nz // n_b, ny, nx), np.complex128))
    for x in (rows, slab_rows):  # signed zeros in both parts, and whole zero rows
        x.real.flat[::5] *= -0.0
        x.imag.flat[::7] *= -0.0
        x[::9] = 0.0
    for theta in _PROJECTOR_ANGLES:
        matrix = projector(nz, nx, theta, n_b)
        for op, x in ((matrix, rows), (matrix.T, slab_rows)):
            out = rows_product(op, x)
            expected = op @ x
            assert out.dtype == np.complex128 and out.shape == expected.shape
            assert np.array_equal(out.view(np.uint64), expected.view(np.uint64)), theta
            real = x.real.copy()
            assert np.array_equal(rows_product(op, real).view(np.uint64),
                                  (op @ real).view(np.uint64)), theta


def test_rows_product_rejects_rows_it_cannot_view_as_float64():
    matrix = projector(8, 8, 30.0, 2)
    with pytest.raises(TypeError, match="float64 or complex128"):
        rows_product(matrix, np.ones((64, 3), dtype=np.float32))


def test_row_layout_round_trip_copies_once():
    values = np.random.default_rng(17).normal(size=(5, 1, 7))  # a y-thin volume
    rows = to_rows(values)
    assert rows.shape == (35, 1) and rows.flags.c_contiguous
    assert not np.shares_memory(rows, values)
    assert rows[3 * 7 + 4, 0] == values[3, 0, 4]
    assert np.array_equal(from_rows(rows, 7), values)
    assert np.shares_memory(from_rows(rows, 7), rows)


# ---------------------------------------------------------------------------
# interaction constants
# ---------------------------------------------------------------------------

def test_wavelength_300kv():
    assert electron_wavelength(300.0) == pytest.approx(0.0197, rel=5e-3)


def test_wavelength_monotone_in_voltage():
    assert electron_wavelength(300.0) < electron_wavelength(80.0)


def test_sigma_300kv():
    # standard relativistic interaction constant, evaluated independently:
    # 2 pi gamma m0 e lambda / h^2 = 6.526e-4 rad/(V A) at 300 kV
    params = interaction_parameter(300.0)
    assert params.sigma == pytest.approx(6.5e-4, rel=5e-2)
    assert params.sigma == pytest.approx(6.526e-4, rel=1e-3)


def test_interaction_from_wavelength_roundtrip():
    params = interaction_parameter(300.0)
    recovered = interaction_from_wavelength(params.wavelength)
    assert recovered.accel_voltage_kv == pytest.approx(300.0, rel=1e-9)
    assert recovered.sigma == pytest.approx(params.sigma, rel=1e-12)


def test_slab_thickness_bound():
    # independent evaluation of lambda/(1-sqrt(1-NA^2)), NA = lambda/pitch,
    # at lambda = 0.019687 A and pitch = 0.5 A gives 25.387 A
    lam = electron_wavelength(300.0)
    bound = max_slab_thickness(lam, 0.5)
    assert bound == pytest.approx(25.387, rel=1e-3)
    # N_B = 10 slabs of 5 A satisfy the bound with a wide margin
    assert 10 * 0.5 < bound


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_volume_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    v = PotentialVolume(rng.normal(size=(5, 4, 3)).astype(np.float32).astype(np.float64), 0.5)
    raw = tmp_path / "vol.raw"
    write_volume(v, raw)
    back = read_volume(raw)
    assert back.values.shape == (5, 4, 3)
    assert np.array_equal(back.values, v.values)
    assert back.pitch == v.pitch
    # second write is byte-identical
    write_volume(back, tmp_path / "vol2.raw")
    assert (tmp_path / "vol2.raw").read_bytes() == raw.read_bytes()


def test_volume_read_validates_byte_count(tmp_path):
    rng = np.random.default_rng(14)
    v = PotentialVolume(rng.normal(size=(3, 3, 3)), 0.5)
    raw = tmp_path / "vol.raw"
    write_volume(v, raw)
    raw.write_bytes(raw.read_bytes()[:-4])
    with pytest.raises(ValueError, match="bytes"):
        read_volume(raw)


def test_volume_file_is_x_fastest(tmp_path):
    vals = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
    write_volume(PotentialVolume(vals, 1.0), tmp_path / "v.raw")
    flat = np.frombuffer((tmp_path / "v.raw").read_bytes(), dtype="<f4")
    assert flat[1] == 1.0  # neighbor in x
    assert flat[4] == 4.0  # next y row
    assert flat[12] == 12.0  # next z slice
