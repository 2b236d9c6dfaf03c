"""Grid, transfer function, and the spectral factors the multislice chain
applies: the propagation kernel, the band mask and the exit factors."""

import numpy as np
import pytest

from phasetomo import ConfigurationError, GridSpec, TransferFunction, multislice_factors
from phasetomo.fields import band_mask, propagation_kernel
from field_oracle import filtered

LAMBDA_300KV = 0.0196875  # Angstrom


def _grid(nx=8, ny=8, pitch=0.5, wavelength=LAMBDA_300KV):
    return GridSpec(nx, ny, pitch, wavelength)


def _random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        GridSpec(1, 8, 0.5, LAMBDA_300KV)
    with pytest.raises(ConfigurationError):
        GridSpec(8, 8, -0.5, LAMBDA_300KV)
    with pytest.raises(ConfigurationError):
        GridSpec(8, 8, 0.5, 0.0)


def test_grid_frequency_range():
    grid = _grid(16, 16, 0.5)
    qy, qx = grid.frequency_grids()
    assert np.max(np.abs(qx)) == pytest.approx(1.0 / (2 * 0.5))
    assert grid.nyquist == pytest.approx(1.0)


def test_propagate_zero_distance_is_identity():
    # the whole grid lies inside 1/lambda, so K(0) is 1 at every frequency
    assert np.array_equal(propagation_kernel(_grid(), 0.0), np.ones((8, 8)))


def test_propagate_inverse_pair():
    grid = _grid()
    product = propagation_kernel(grid, 123.4) * propagation_kernel(grid, -123.4)
    assert np.max(np.abs(product - 1.0)) < 1e-12


def test_propagate_plane_wave_phase():
    # a plane wave has only the q = 0 component, so it picks up K(dz)[0, 0]
    grid = _grid()
    plane = np.ones(grid.shape, dtype=complex)
    for dz in (17.0, -350.0, 1e4):
        kernel = propagation_kernel(grid, dz)
        expected = np.exp(2j * np.pi * dz / grid.wavelength)
        assert kernel[0, 0] == pytest.approx(expected, abs=1e-9)
        assert np.allclose(filtered(plane, kernel), expected, atol=1e-9)


def test_propagate_energy_conservation():
    grid = GridSpec(64, 64, 0.5, LAMBDA_300KV)
    f = _random_field(grid, 4)  # whole grid sits far below 1/lambda
    for dz in (1.0, -4321.0, 1e4):
        kernel = propagation_kernel(grid, dz)
        assert np.max(np.abs(np.abs(kernel) - 1.0)) < 1e-12
        out = filtered(f, kernel)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(np.sum(np.abs(f) ** 2), rel=1e-9)
    # beyond 1/lambda (a pitch below lambda/2) the evanescent waves are zeroed
    fine = GridSpec(8, 8, 0.005, LAMBDA_300KV)
    band = fine.q_squared() < 1.0 / LAMBDA_300KV**2
    kernel = propagation_kernel(fine, 250.0)
    assert 0 < np.count_nonzero(band) < band.size
    assert np.all(kernel[~band] == 0)
    assert np.max(np.abs(np.abs(kernel[band]) - 1.0)) < 1e-12


def test_propagate_group_property():
    grid = GridSpec(64, 64, 0.5, LAMBDA_300KV)
    a, b = 321.5, -77.25
    lhs = propagation_kernel(grid, a) * propagation_kernel(grid, b)
    rhs = propagation_kernel(grid, a + b)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_propagate_adjoint_is_negative_distance():
    # the backward pass applies conj(K(dz)); that is propagation by -dz
    grid = _grid(16, 16)
    for dz in (250.0, -77.25, 1e4):
        conj = np.conj(propagation_kernel(grid, dz))
        assert np.max(np.abs(conj - propagation_kernel(grid, -dz))) <= 1e-15


def test_transfer_function_validation():
    grid = _grid()
    with pytest.raises(ValueError, match="exceed"):
        TransferFunction(grid, 2.0 * np.ones(grid.shape))
    h = TransferFunction.identity(grid, aperture_qmax=0.5)
    assert np.all(np.abs(h.values[grid.q_squared() > 0.25]) == 0)


def test_apply_ctf_identity():
    # with H == 1 each exit factor is the defocus kernel alone
    grid = _grid()
    h = TransferFunction.identity(grid)
    assert np.array_equal(h.values, np.ones(grid.shape))
    factors = multislice_factors(h, 0.5, (250.0, 1000.0))
    for exit_factor, df in zip(factors.exit_factors, (250.0, 1000.0)):
        assert np.array_equal(exit_factor, propagation_kernel(grid, df))


def test_apply_ctf_aperture_kills_out_of_band_tone():
    grid = _grid(16, 16)
    # pure tone at the highest x frequency, well beyond a 0.3 cutoff
    x = np.arange(16)
    tone = np.exp(2j * np.pi * 0.5 * x)[None, :] * np.ones((16, 1))
    h = TransferFunction.identity(grid, aperture_qmax=0.3)
    exit_factor = multislice_factors(h, 0.5, (250.0,)).exit_factors[0]
    assert np.max(np.abs(filtered(tone, exit_factor))) < 1e-12


def test_apply_ctf_adjoint_identity():
    # <y, F^-1 E F x> = <F^-1 conj(E) F y, x> for an exit factor E = P_df H
    rng = np.random.default_rng(9)
    grid = _grid(16, 16)
    mag = rng.uniform(0, 1, grid.shape)
    phase = rng.uniform(0, 2 * np.pi, grid.shape)
    h = TransferFunction(grid, mag * np.exp(1j * phase))
    exit_factor = multislice_factors(h, 0.5, (450.0,)).exit_factors[0]
    x = _random_field(grid, 10)
    y = _random_field(grid, 11)
    lhs = np.vdot(y, filtered(x, exit_factor))
    rhs = np.vdot(filtered(y, np.conj(exit_factor)), x)
    bound = 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)
    assert abs(lhs - rhs) <= bound


def test_band_limit_removes_high_frequencies():
    grid = _grid(12, 12)
    mask = band_mask(grid, fraction=2.0 / 3.0)
    outside = grid.q_squared() > (2.0 / 3.0 * grid.nyquist) ** 2
    assert np.array_equal(mask, ~outside)
    # the anti-aliased slab factor is the kernel on the band and 0 beyond it
    kernel = propagation_kernel(grid, 0.5)
    slab_factor = multislice_factors(TransferFunction.identity(grid), 0.5, (250.0,)).slab_factor
    assert np.array_equal(slab_factor, kernel * mask)
    plain = multislice_factors(TransferFunction.identity(grid), 0.5, (250.0,), anti_alias=False)
    assert np.array_equal(plain.slab_factor, kernel)
    out = filtered(_random_field(grid, 13), slab_factor)
    spectrum = np.fft.fft2(out, norm="ortho")
    assert np.max(np.abs(spectrum[outside])) < 1e-13
