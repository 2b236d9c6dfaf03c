"""Residuals and the backward pass against finite differences."""

import numpy as np
import pytest

from phasetomo import (
    BinnedVolume,
    GridSpec,
    TransferFunction,
    backpropagate,
    interaction_parameter,
    multislice_factors,
    multislice_forward,
    residual,
)
from phasetomo.forward import MultisliceIntermediates
from phasetomo.volume import from_rows, to_rows
from field_oracle import backpropagate as oracle_backpropagate

PARAMS = interaction_parameter(300.0)


def _grid(n=8, pitch=0.5):
    return GridSpec(n, n, pitch, PARAMS.wavelength)


def test_residual_zero_when_amplitudes_match():
    rng = np.random.default_rng(2)
    grid = _grid()
    psi = np.exp(1j * rng.uniform(0, 2 * np.pi, grid.shape))
    r = residual(2.5 * psi, 2.5 * np.ones(grid.shape))
    assert np.max(np.abs(r)) < 1e-12


def test_residual_analytic_value():
    r = residual(2.0 * np.ones((2, 4, 4), dtype=complex), np.ones((2, 4, 4)))
    assert r.shape == (2, 4, 4)
    assert np.allclose(r, 1.0)


def test_residual_norm_equals_cost():
    rng = np.random.default_rng(3)
    shape = (2,) + _grid().shape  # one wave per defocus
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amp = rng.uniform(0.1, 2.0, shape)
    r = residual(psi, amp)
    e2 = np.sum((np.abs(psi) - amp) ** 2)
    assert np.sum(np.abs(r) ** 2) == pytest.approx(e2, rel=1e-12)
    # pointwise, so the stack's residual is each wave's, bit for bit
    assert np.array_equal(r, np.stack([residual(p, a) for p, a in zip(psi, amp)]))


def test_residual_vanishing_amplitude_guard():
    psi = np.zeros((4, 4), dtype=complex)
    r = residual(psi, np.ones((4, 4)))
    assert np.allclose(r, -1.0)  # unit-phase factor replaced by 1


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def _setup(seed=7, n=8, n_slabs=4, defoci=(250.0, 1000.0), anti_alias=True):
    rng = np.random.default_rng(seed)
    grid = _grid(n)
    h = TransferFunction.identity(grid)
    w_true = rng.normal(0.0, 0.1 / PARAMS.sigma, (n_slabs, n, n))
    w_meas = w_true + rng.normal(0.0, 0.02 / PARAMS.sigma, w_true.shape)
    exit_meas, _ = multislice_forward(
        BinnedVolume(w_meas, 0.5, 1), PARAMS, multislice_factors(h, 0.5, defoci, anti_alias)
    )
    measured_amp = np.abs(exit_meas)

    def cost_of(w_vals):
        exit_waves, intermediates = multislice_forward(
            BinnedVolume(w_vals, 0.5, 1), PARAMS, multislice_factors(h, 0.5, defoci, anti_alias)
        )
        c = sum(
            float(np.sum((measured_amp[j] - np.abs(e)) ** 2))
            for j, e in enumerate(exit_waves)
        )
        return c, exit_waves, intermediates

    return grid, h, w_true, measured_amp, cost_of, rng


def _gradient(w_vals, cost_of, measured_amp, h, defoci=(250.0, 1000.0), anti_alias=True):
    _, exit_waves, intermediates = cost_of(w_vals)
    res = residual(exit_waves, measured_amp)
    g = backpropagate(res, intermediates, BinnedVolume(w_vals, 0.5, 1), PARAMS,
                      multislice_factors(h, 0.5, defoci, anti_alias))
    return np.stack(g)


def test_zero_residual_zero_gradient():
    grid = _grid()
    h = TransferFunction.identity(grid)
    w = BinnedVolume(np.zeros((3, 8, 8)), 0.5, 1)
    factors = multislice_factors(h, w.slab_thickness, (250.0,))
    exit_waves, intermediates = multislice_forward(w, PARAMS, factors)
    res = np.zeros((1,) + grid.shape, dtype=complex)
    g = backpropagate(res, intermediates, w, PARAMS, factors)
    assert np.max(np.abs(np.stack(g))) == 0.0


def test_unimodular_slab_gradient_vanishes_for_unit_target():
    # with no propagation the single-slab exit wave is t * psi0, which is
    # unimodular, so a unit measured amplitude is already explained:
    # residual and hence gradient are identically zero
    grid = _grid()
    h = TransferFunction.identity(grid)
    rng = np.random.default_rng(4)
    w = BinnedVolume(rng.normal(0.0, 0.2 / PARAMS.sigma, (1, 8, 8)), 0.5, 1)
    exit_wave = np.exp(1j * PARAMS.sigma * w.values[0])  # t * 1
    assert np.max(np.abs(np.abs(exit_wave) - 1.0)) < 1e-14
    r = residual(exit_wave, np.ones(grid.shape))
    assert np.max(np.abs(r)) < 1e-13
    intermediates = MultisliceIntermediates([np.ones(grid.shape, dtype=complex), exit_wave],
                                            exit_wave[None])
    g = backpropagate(r[None], intermediates, w, PARAMS,
                      multislice_factors(h, w.slab_thickness, (1e-9,), anti_alias=False))
    assert np.max(np.abs(np.stack(g))) < 1e-13 * PARAMS.sigma


@pytest.mark.parametrize("anti_alias", [True, False])
def test_gradient_matches_central_differences(anti_alias):
    defoci = (250.0, 1000.0)
    grid, h, w_true, measured_amp, cost_of, rng = _setup(anti_alias=anti_alias)
    g = _gradient(w_true, cost_of, measured_amp, h, defoci, anti_alias)
    step = 1e-4 * np.max(np.abs(w_true))
    for _ in range(20):
        m, i, j = (rng.integers(s) for s in w_true.shape)
        w_plus = w_true.copy()
        w_plus[m, i, j] += step
        w_minus = w_true.copy()
        w_minus[m, i, j] -= step
        fd = (cost_of(w_plus)[0] - cost_of(w_minus)[0]) / (2 * step)
        # d(e^2)/dV = 2*Re(g): the factor 2 is the documented step-size scaling
        assert abs(fd - 2 * np.real(g[m, i, j])) <= 1e-4 * max(abs(fd), 1e-12)


def test_directional_derivative_order():
    defoci = (250.0, 1000.0)
    grid, h, w_true, measured_amp, cost_of, rng = _setup(seed=8)
    g = _gradient(w_true, cost_of, measured_amp, h, defoci)
    c0 = cost_of(w_true)[0]
    direction = rng.normal(size=w_true.shape)
    inner = 2.0 * np.sum(np.real(g) * direction)
    steps = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    errs = np.array([
        abs(cost_of(w_true + s * direction)[0] - c0 - s * inner) for s in steps
    ])
    order = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert order >= 1.9


def test_backpropagate_deterministic_from_stored_intermediates():
    defoci = (250.0, 1000.0)
    grid, h, w_true, measured_amp, cost_of, _ = _setup(seed=9)
    g1 = _gradient(w_true, cost_of, measured_amp, h, defoci)
    g2 = _gradient(w_true, cost_of, measured_amp, h, defoci)
    assert np.array_equal(g1, g2)


def test_refocus_stage_linear_in_residuals():
    grid, h, w_true, measured_amp, cost_of, rng = _setup(seed=10)
    defoci = (250.0, 1000.0)
    _, exit_waves, intermediates = cost_of(w_true)
    w = BinnedVolume(w_true, 0.5, 1)
    r1 = np.stack([rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
                   for _ in defoci])
    r2 = np.stack([rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
                   for _ in defoci])
    a, b = 0.7, -1.3
    combo = a * r1 + b * r2
    factors = multislice_factors(h, w.slab_thickness, defoci)
    g_combo = np.stack(backpropagate(combo, intermediates, w, PARAMS, factors))
    g_sep = a * np.stack(backpropagate(r1, intermediates, w, PARAMS, factors)) \
        + b * np.stack(backpropagate(r2, intermediates, w, PARAMS, factors))
    assert np.allclose(g_combo, g_sep, atol=1e-12 * np.max(np.abs(g_sep)))


def test_operators_reject_factors_built_for_other_slabs():
    grid, h, w_true, measured_amp, cost_of, _ = _setup(seed=12)
    _, exit_waves, intermediates = cost_of(w_true)
    w = BinnedVolume(w_true, 0.5, 1)
    factors = multislice_factors(h, 2 * w.slab_thickness, (250.0, 1000.0))  # n_b = 2
    with pytest.raises(ValueError, match="factors built for"):
        multislice_forward(w, PARAMS, factors)
    res = residual(exit_waves, measured_amp)
    with pytest.raises(ValueError, match="factors built for"):
        backpropagate(res, intermediates, w, PARAMS, factors)


def test_backpropagate_slab_count_mismatch():
    grid, h, w_true, measured_amp, cost_of, _ = _setup(seed=11)
    _, exit_waves, intermediates = cost_of(w_true)
    w = BinnedVolume(w_true, 0.5, 1)
    short = MultisliceIntermediates(intermediates.waves[:-1], intermediates.transmittances)
    with pytest.raises(ValueError, match="intermediate"):
        backpropagate(np.zeros((2,) + grid.shape, complex), short, w,
                      PARAMS, multislice_factors(h, w.slab_thickness, (250.0, 1000.0)))


def test_backpropagate_rejects_a_transmittance_stack_of_another_slab_count():
    grid, h, w_true, measured_amp, cost_of, _ = _setup(seed=13)
    _, exit_waves, intermediates = cost_of(w_true)
    w = BinnedVolume(w_true, 0.5, 1)
    short = MultisliceIntermediates(intermediates.waves, intermediates.transmittances[:-1])
    with pytest.raises(ValueError, match="expected 4 transmittances, got 3"):
        backpropagate(residual(exit_waves, measured_amp), short, w, PARAMS,
                      multislice_factors(h, w.slab_thickness, (250.0, 1000.0)))


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


@pytest.mark.parametrize("n_b, row_layout", [(1, False), (3, True)])
def test_backpropagate_with_carried_transmittances_is_the_per_slab_exp_oracle(
        n_b, row_layout):
    # the forward pass's transmittance stack replaces each slab's exp, bit
    # for bit, also on the strided slab view the solver's sweep passes
    rng = np.random.default_rng(14)
    grid = _grid(16)
    h = TransferFunction(grid, rng.uniform(0.0, 1.0, grid.shape)
                         * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, grid.shape)))
    values = rng.normal(0.0, 0.1 / PARAMS.sigma, (5, 16, 16))
    if row_layout:
        values = from_rows(to_rows(values), 16)
    w = BinnedVolume(values, 0.5, n_b)
    factors = multislice_factors(h, w.slab_thickness, (250.0, 1000.0))
    exit_waves, intermediates = multislice_forward(w, PARAMS, factors)
    res = residual(exit_waves, rng.uniform(0.5, 1.5, exit_waves.shape))
    g = backpropagate(res, intermediates, w, PARAMS, factors)
    expected = oracle_backpropagate(res, intermediates.waves, w, PARAMS, factors)
    assert g.shape == (5, 16, 16) and g.dtype == np.complex128
    assert np.array_equal(_bits(g), _bits(expected))
