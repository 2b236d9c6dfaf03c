"""Forward model: multislice chain, intensity, Poisson noise, series I/O."""

import math

import numpy as np
import pytest

from phasetomo import (
    AcquisitionPlan,
    BinnedVolume,
    GridSpec,
    PotentialVolume,
    TransferFunction,
    WaveField,
    apply_ctf,
    apply_poisson,
    band_limit,
    intensity,
    interaction_parameter,
    multislice_factors,
    multislice_forward,
    propagate,
    read_tilt_series,
    simulate_tilt_series,
    transmittance,
    uniform_tilt_angles,
    write_tilt_series,
)

PARAMS = interaction_parameter(300.0)


def _grid(n=16, pitch=0.5):
    return GridSpec(n, n, pitch, PARAMS.wavelength)


def _identity_h(n=16, pitch=0.5):
    return TransferFunction.identity(_grid(n, pitch))


def test_empty_volume_gives_unit_intensity():
    w = BinnedVolume(np.zeros((3, 16, 16)), 0.5, 1)
    exit_waves, intermediates = multislice_forward(
        w, PARAMS, multislice_factors(_identity_h(), w.slab_thickness, (250.0, 1000.0)))
    assert len(intermediates) == 4
    for e in exit_waves:
        assert np.allclose(intensity(e), 1.0, atol=1e-12)


def test_unitarity_of_noiseless_chain():
    # all factors unimodular or unitary (anti-aliasing off)
    rng = np.random.default_rng(0)
    w = BinnedVolume(rng.normal(0, 0.3 / PARAMS.sigma, (5, 16, 16)), 0.5, 1)
    _, intermediates = multislice_forward(
        w, PARAMS, multislice_factors(_identity_h(), w.slab_thickness, (250.0,), anti_alias=False))
    p0 = np.sum(np.abs(intermediates[0]) ** 2)
    p_exit = np.sum(np.abs(intermediates[-1]) ** 2)
    assert p_exit == pytest.approx(p0, rel=1e-8)


def _linearized_intensity(w_slab, grid, defocus):
    """Independent weak-phase oracle: I ~ 1 - 2 sigma F^-1[sin(chi) W^]."""
    from phasetomo.fields import propagation_kernel

    kernel = propagation_kernel(grid, defocus)
    chi = np.angle(kernel / kernel[0, 0])  # phase relative to the DC ray
    w_hat = np.fft.fft2(w_slab)
    lin = np.fft.ifft2(np.sin(chi) * w_hat)
    return 1.0 - 2.0 * PARAMS.sigma * np.real(lin)


def test_weak_phase_linear_model_quadratic_error():
    rng = np.random.default_rng(1)
    grid = _grid(32)
    h = TransferFunction.identity(grid)
    defocus = 300.0
    # smooth weak slab, band-limited well inside 2/3 Nyquist
    spectrum = np.fft.fft2(rng.normal(size=(32, 32)))
    q2 = grid.q_squared()
    spectrum[q2 > 0.25**2] = 0.0
    base = np.real(np.fft.ifft2(spectrum))
    base *= 0.05 / (PARAMS.sigma * np.max(np.abs(base)))  # sigma*W ~ 0.05

    deviations = []
    for scale in (1.0, 0.5):
        w_slab = scale * base
        w = BinnedVolume(w_slab[None], 0.5, 1)
        exit_waves, _ = multislice_forward(
            w, PARAMS, multislice_factors(h, w.slab_thickness, (defocus,), anti_alias=False))
        model = _linearized_intensity(w_slab, grid, defocus)
        deviations.append(np.max(np.abs(intensity(exit_waves[0]) - model)))
    # halving W must shrink the deviation at least 3.5x (order-2 behavior)
    assert deviations[0] / deviations[1] >= 3.5


def test_two_slab_order_matters():
    rng = np.random.default_rng(2)
    a = rng.normal(0, 0.5 / PARAMS.sigma, (16, 16))
    b = rng.normal(0, 0.5 / PARAMS.sigma, (16, 16))
    h = _identity_h()
    out = {}
    for name, stack in (("ab", [a, b]), ("ba", [b, a])):
        w = BinnedVolume(np.stack(stack), 0.5, 4)  # thick slabs: strong propagation
        exit_waves, _ = multislice_forward(
            w, PARAMS, multislice_factors(h, w.slab_thickness, (250.0,)))
        out[name] = intensity(exit_waves[0])
    assert np.linalg.norm(out["ab"] - out["ba"]) > 1e-3


def test_multislice_factors_match_field_oracles():
    # A non-identity H: the shared exit factors regroup spectrum * P_df * H,
    # which is bit-exact against the oracles only when H is 0 or 1.
    rng = np.random.default_rng(5)
    grid = _grid()
    h = TransferFunction(grid, rng.uniform(0.0, 1.0, grid.shape)
                         * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, grid.shape)))
    w = BinnedVolume(rng.normal(0, 0.3 / PARAMS.sigma, (3, 16, 16)), 0.5, 2)
    defoci = (250.0, 450.0, 1000.0)
    exit_waves, intermediates = multislice_forward(
        w, PARAMS, multislice_factors(h, w.slab_thickness, defoci))

    def assert_close(actual, expected):
        err = np.max(np.abs(actual - expected))
        assert err <= 1e-12 * np.max(np.abs(expected))

    for m in range(w.n_slabs):
        t_psi = transmittance(w.values[m], PARAMS, grid).values * intermediates[m]
        slab = band_limit(propagate(WaveField(grid, t_psi), w.slab_thickness))
        assert_close(intermediates[m + 1], slab.values)
    psi_exit = WaveField(grid, intermediates[-1])
    assert len(exit_waves) == len(defoci)
    for exit_wave, df in zip(exit_waves, defoci):
        assert_close(exit_wave.values, apply_ctf(propagate(psi_exit, df), h).values)


def test_intensity_basics():
    grid = _grid(4)
    assert np.allclose(intensity(WaveField.plane_wave(grid)), 1.0)
    assert np.allclose(intensity(WaveField(grid, 1j * np.ones((4, 4)))), 1.0)
    rng = np.random.default_rng(3)
    f = WaveField(grid, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    assert np.sum(intensity(f)) == pytest.approx(np.sum(np.abs(f.values) ** 2))


def test_poisson_infinite_dose_passthrough():
    rng = np.random.default_rng(4)
    ideal = rng.uniform(0.5, 2.0, (8, 8))
    out = apply_poisson(ideal, math.inf, 0.5, seed=1)
    assert np.array_equal(out, ideal)


def test_poisson_rejects_negative_intensity():
    ideal = -np.ones((4, 4))
    with pytest.raises(ValueError, match="non-negative"):
        apply_poisson(ideal, 10.0, 0.5, seed=1)


def test_poisson_statistics_rate_10():
    # unit background at 40 e/A^2 and 0.5 A pitch -> rate 10 per pixel
    ideal = np.ones(1_000_000)
    counts = apply_poisson(ideal.reshape(1000, 1000), 40.0, 0.5, seed=42)
    assert counts.mean() == pytest.approx(10.0, rel=1e-2)
    assert counts.var() == pytest.approx(10.0, rel=1e-2)


def test_poisson_seed_reproducible():
    ideal = np.ones((32, 32))
    a = apply_poisson(ideal, 40.0, 0.5, seed=7, tilt_index=3, defocus_index=1)
    b = apply_poisson(ideal, 40.0, 0.5, seed=7, tilt_index=3, defocus_index=1)
    c = apply_poisson(ideal, 40.0, 0.5, seed=7, tilt_index=3, defocus_index=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_paper_dose_arithmetic():
    plan = AcquisitionPlan(tuple(uniform_tilt_angles(60)), (250.0, 450.0, 1000.0),
                           total_dose=7000.0, seed=0)
    assert plan.dose_per_image == pytest.approx(7000.0 / 180.0)
    # ~40 e/A^2 per image -> ~10 counts per (0.5 A)^2 pixel on unit background
    assert plan.dose_per_image * 0.5**2 == pytest.approx(9.72, abs=0.01)


def test_plan_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        AcquisitionPlan((0.0, 0.0), (250.0,), 1.0, 0)
    with pytest.raises(ValueError, match="positive"):
        AcquisitionPlan((0.0, 3.0), (-250.0,), 1.0, 0)


def _tiny_phantom_volume(n=12):
    vals = np.zeros((n, n, n))
    vals[n // 2, n // 2, n // 2] = 120.0
    vals[n // 2 + 2, n // 2 - 1, n // 2 + 1] = 90.0
    return PotentialVolume(vals, 0.5)


def test_simulate_zero_volume_flat_images():
    v = PotentialVolume(np.zeros((8, 8, 8)), 0.5)
    plan = AcquisitionPlan((-45.0, 0.0, 45.0), (250.0,), total_dose=3e5, seed=5)
    series = simulate_tilt_series(v, plan, PARAMS, n_b=2)
    rate = plan.dose_per_image * 0.25
    assert series.images.mean() == pytest.approx(rate, rel=0.05)
    assert series.normalized().mean() == pytest.approx(1.0, rel=0.05)


def test_simulate_reproducible_bitwise():
    v = _tiny_phantom_volume()
    plan = AcquisitionPlan((-30.0, 30.0), (250.0, 1000.0), total_dose=1e4, seed=9)
    a = simulate_tilt_series(v, plan, PARAMS, n_b=3)
    b = simulate_tilt_series(v, plan, PARAMS, n_b=3)
    assert np.array_equal(a.images, b.images)


def test_simulate_builds_one_projector_per_tilt_and_matches_rotate_then_bin(monkeypatch):
    from phasetomo import volume as volume_ops
    from phasetomo.volume import bin_slices, rotate

    v = PotentialVolume(np.random.default_rng(19).uniform(0.0, 5.0, (12, 10, 12)), 0.5)
    # over 180 degrees, tilts 90 degrees apart share a residual shear angle
    plan = AcquisitionPlan(tuple(uniform_tilt_angles(6)), (250.0, 1000.0))
    builds = []
    original = volume_ops.projector

    def counted(*args):
        builds.append(args)
        return original(*args)

    monkeypatch.setattr(volume_ops, "projector", counted)
    images = simulate_tilt_series(v, plan, PARAMS, n_b=3).images
    assert sorted(builds) == sorted((12, 12, theta, 3) for theta in plan.tilt_angles)
    grid = GridSpec(nx=12, ny=10, pitch=0.5, wavelength=PARAMS.wavelength)
    factors = multislice_factors(TransferFunction.identity(grid), 1.5, plan.defoci)
    for i, theta in enumerate(plan.tilt_angles):
        exit_waves, _ = multislice_forward(bin_slices(rotate(v, theta), 3), PARAMS, factors)
        ref = np.stack([intensity(e) for e in exit_waves])
        # the projector rounds differently from rotate then bin_slices
        np.testing.assert_allclose(images[i], ref, rtol=1e-12, atol=0)


def test_uniform_tilt_angles_formula():
    angles = uniform_tilt_angles(60, 180.0)
    assert len(angles) == 60
    assert angles[0] == pytest.approx(-88.5)
    assert np.allclose(np.diff(angles), 3.0)
    assert angles[-1] == pytest.approx(88.5)
    # missing wedge: a 120-degree span excludes the +-(60..90) wedge
    wedge = uniform_tilt_angles(60, 120.0)
    assert np.max(np.abs(wedge)) < 60.0


def test_series_roundtrip(tmp_path):
    v = _tiny_phantom_volume()
    plan = AcquisitionPlan((-10.0, 20.0), (250.0, 450.0), total_dose=2e4, seed=11)
    series = simulate_tilt_series(v, plan, PARAMS, n_b=2)
    write_tilt_series(series, tmp_path / "series")
    back = read_tilt_series(tmp_path / "series")
    assert np.array_equal(back.images, series.images.astype(np.float32))
    assert back.plan == series.plan
    assert back.grid == series.grid


def test_series_roundtrip_infinite_dose(tmp_path):
    v = _tiny_phantom_volume()
    plan = AcquisitionPlan((0.0,), (250.0,), total_dose=math.inf, seed=0)
    series = simulate_tilt_series(v, plan, PARAMS, n_b=2)
    write_tilt_series(series, tmp_path / "series")
    back = read_tilt_series(tmp_path / "series")
    assert math.isinf(back.plan.total_dose)
    assert np.allclose(back.normalized(), series.normalized(), atol=1e-7)


def test_series_read_validates_sizes(tmp_path):
    v = _tiny_phantom_volume()
    plan = AcquisitionPlan((0.0,), (250.0,), total_dose=1e4, seed=0)
    series = simulate_tilt_series(v, plan, PARAMS, n_b=2)
    write_tilt_series(series, tmp_path / "series")
    img = tmp_path / "series" / "img_t0000_f00.raw"
    img.write_bytes(img.read_bytes()[:-8])
    with pytest.raises(ValueError, match="bytes"):
        read_tilt_series(tmp_path / "series")
