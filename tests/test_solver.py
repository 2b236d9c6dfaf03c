"""Proximal operators, Nesterov scalars, and the reconstruction loop."""

import math
from dataclasses import replace

import numpy as np
import pytest

from phasetomo import (
    AcquisitionPlan,
    DivergenceError,
    PotentialVolume,
    SolverConfig,
    TiltSeries,
    TransferFunction,
    interaction_parameter,
    prox_lasso,
    prox_positivity,
    prox_tv,
    reconstruct,
    simulate_tilt_series,
    uniform_tilt_angles,
)
from phasetomo import solver
from phasetomo.solver import (
    apply_prox,
    bracket_step_size,
    nesterov_next_t,
    total_variation,
    write_cost_history,
)

PARAMS = interaction_parameter(300.0)


# ---------------------------------------------------------------------------
# prox operators
# ---------------------------------------------------------------------------

def test_prox_positivity_all_negative():
    v = PotentialVolume(-np.ones((3, 3, 3)), 0.5)
    assert np.all(prox_positivity(v).values == 0.0)


def test_prox_positivity_nonnegative_unchanged():
    rng = np.random.default_rng(0)
    v = PotentialVolume(rng.uniform(0, 5, (3, 3, 3)), 0.5)
    assert np.array_equal(prox_positivity(v).values, v.values)


def test_prox_positivity_idempotent():
    rng = np.random.default_rng(1)
    v = PotentialVolume(rng.normal(size=(4, 4, 4)), 0.5)
    once = prox_positivity(v)
    twice = prox_positivity(once)
    assert np.array_equal(once.values, twice.values)


def test_prox_positivity_drops_imaginary_part():
    v = PotentialVolume(np.full((2, 2, 2), 1.0 + 5.0j), 0.5)
    assert np.array_equal(prox_positivity(v).values, np.ones((2, 2, 2)))


def test_prox_lasso_zero_threshold_is_positivity():
    rng = np.random.default_rng(2)
    v = PotentialVolume(rng.normal(size=(4, 4, 4)), 0.5)
    assert np.array_equal(prox_lasso(v, 0.0).values, prox_positivity(v).values)


def test_prox_lasso_closed_form():
    v = PotentialVolume(np.full((1, 1, 1), 5.0), 0.5)
    assert prox_lasso(v, 2.0).values[0, 0, 0] == 3.0


def _soft_threshold_scan(value, threshold, lo=0.0, hi=None, n=2001, rounds=4):
    """Brute-force 1D minimizer of 0.5(x-v)^2 + t*x over x >= 0.

    Extended precision keeps the objective resolvable once the scan
    window shrinks below ~1e-8 (float64 eps times the objective value).
    """
    value = np.longdouble(value)
    threshold = np.longdouble(threshold)
    hi = max(abs(float(value)) + 1.0, 1.0) if hi is None else hi
    lo, hi = np.longdouble(lo), np.longdouble(hi)
    for _ in range(rounds):
        xs = np.linspace(lo, hi, n, dtype=np.longdouble)
        obj = 0.5 * (xs - value) ** 2 + threshold * xs
        best = xs[np.argmin(obj)]
        span = (hi - lo) / (n - 1)
        lo, hi = max(np.longdouble(0.0), best - 2 * span), best + 2 * span
    return float(best)


def test_prox_lasso_matches_brute_force_scan():
    rng = np.random.default_rng(3)
    values = rng.normal(0, 3, 25)
    threshold = 0.8
    v = PotentialVolume(values.reshape(1, 5, 5), 0.5)
    out = prox_lasso(v, threshold).values.ravel()
    for value, got in zip(values, out):
        expected = _soft_threshold_scan(value, threshold)
        assert abs(got - expected) < 1e-8


def test_prox_tv_zero_weight_is_positivity():
    rng = np.random.default_rng(4)
    v = PotentialVolume(rng.normal(size=(5, 5, 5)), 0.5)
    assert np.array_equal(prox_tv(v, 0.0).values, prox_positivity(v).values)


def test_prox_tv_constant_volume_unchanged():
    v = PotentialVolume(np.full((5, 5, 5), 3.7), 0.5)
    out = prox_tv(v, 0.5, inner_iters=20)
    assert np.allclose(out.values, 3.7, atol=1e-12)


def test_prox_tv_objective_certificate():
    rng = np.random.default_rng(5)
    base = rng.uniform(0.0, 1.0, (10, 10, 10))
    base[3:6, 3:6, 3:6] += 2.0
    v = PotentialVolume(base, 0.5)
    weight = 0.3
    x_star = prox_tv(v, weight, inner_iters=20).values

    def objective(x):
        return 0.5 * np.sum((x - base) ** 2) + weight * total_variation(x)

    obj_star = objective(x_star)
    assert obj_star <= objective(base) + 1e-9
    scale = 0.1 * np.linalg.norm(x_star)
    for _ in range(100):
        delta = rng.normal(size=x_star.shape)
        delta *= rng.uniform(0, scale) / np.linalg.norm(delta)
        perturbed = np.maximum(x_star + delta, 0.0)  # stay feasible
        assert obj_star <= objective(perturbed) + 1e-9


def test_prox_tv_smooths_noise():
    rng = np.random.default_rng(6)
    noisy = np.ones((8, 8, 8)) + rng.normal(0, 0.3, (8, 8, 8))
    out = prox_tv(PotentialVolume(noisy, 0.5), 0.5, inner_iters=40).values
    assert total_variation(out) < 0.2 * total_variation(noisy)


# ---------------------------------------------------------------------------
# Nesterov scalars
# ---------------------------------------------------------------------------

def test_t_sequence_closed_form():
    ts = [1.0]
    for _ in range(4):
        ts.append(nesterov_next_t(ts[-1]))
    assert ts[1] == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-15)  # 1.618...
    assert ts[2] == pytest.approx(2.193527085331054, abs=1e-12)
    assert all(b > a for a, b in zip(ts, ts[1:]))  # strictly increasing
    assert ts[0] >= 1.0


def test_t_sequence_algebraic_identity():
    t = 1.0
    for _ in range(50):
        t_next = nesterov_next_t(t)
        assert t_next * t_next - t_next == pytest.approx(t * t, rel=1e-12)
        t = t_next


# ---------------------------------------------------------------------------
# reconstruction loop
# ---------------------------------------------------------------------------

def _blob_volume(n=16, n_blobs=6, seed=0, amplitude=150.0):
    rng = np.random.default_rng(seed)
    vals = np.zeros((n, n, n))
    zz, yy, xx = np.meshgrid(*([np.arange(n)] * 3), indexing="ij")
    for _ in range(n_blobs):
        z0, y0, x0 = rng.uniform(n * 0.3, n * 0.7, 3)
        r2 = (zz - z0) ** 2 + (yy - y0) ** 2 + (xx - x0) ** 2
        vals += amplitude * np.exp(-r2 / (2 * 1.1**2))
    return PotentialVolume(vals, 0.5)


def _series(v, n_tilts=8, dose=math.inf, seed=0, defoci=(250.0, 1000.0)):
    plan = AcquisitionPlan(tuple(uniform_tilt_angles(n_tilts)), defoci, dose, seed)
    return simulate_tilt_series(v, plan, PARAMS, n_b=2)


def test_reconstruct_empty_volume_zero_cost():
    v = PotentialVolume(np.zeros((12, 12, 12)), 0.5)
    series = _series(v, n_tilts=4)
    cfg = SolverConfig(step_size=1e4, reg_kind="positivity", n_b=2, max_iter=2)
    volume, history = reconstruct(series, cfg, PARAMS)
    assert history[0] == pytest.approx(0.0, abs=1e-18)
    assert np.all(volume.values == 0.0)


def test_reconstruct_cost_decreases():
    v = _blob_volume()
    series = _series(v)
    cfg = SolverConfig(step_size=1e5, reg_kind="positivity", n_b=2, max_iter=8)
    _, history = reconstruct(series, cfg, PARAMS)
    assert history[4] < history[0]
    assert history[-1] < history[4]
    assert history[-1] < 0.05 * history[0]


def test_reconstruct_tv_weight_zero_matches_positivity_bitwise():
    v = _blob_volume(seed=1)
    series = _series(v, dose=5e4, seed=2)
    out = {}
    for kind in ("tv", "positivity"):
        cfg = SolverConfig(step_size=1e5, reg_kind=kind, reg_weight=0.0, n_b=2,
                           max_iter=4)
        volume, history = reconstruct(series, cfg, PARAMS)
        out[kind] = (volume.values, history)
    assert np.array_equal(out["tv"][0], out["positivity"][0])
    assert out["tv"][1] == out["positivity"][1]


def test_reconstruct_iterates_stay_nonnegative_real():
    v = _blob_volume(seed=3)
    series = _series(v, dose=2e4, seed=4)
    for kind, weight in (("positivity", 0.0), ("lasso", 1e-5), ("tv", 1e-5)):
        cfg = SolverConfig(step_size=1e5, reg_kind=kind, reg_weight=weight, n_b=2,
                           max_iter=3)
        volume, _ = reconstruct(series, cfg, PARAMS)
        assert np.isrealobj(volume.values)
        assert np.min(volume.values) >= 0.0


def test_reconstruct_divergence_guard():
    v = _blob_volume(seed=5)
    series = _series(v)
    cfg = SolverConfig(step_size=1e9, reg_kind="positivity", n_b=2, max_iter=6)
    with pytest.raises(DivergenceError, match="step size too large"):
        reconstruct(series, cfg, PARAMS)


def test_reconstruct_tilt_order_insensitive_final_cost():
    v = _blob_volume(seed=6)
    series = _series(v, n_tilts=6, dose=1e5, seed=7)
    cfg = SolverConfig(step_size=1e5, reg_kind="positivity", n_b=2, max_iter=6)
    _, hist_fwd = reconstruct(series, cfg, PARAMS)
    order = np.array([3, 0, 5, 1, 4, 2])
    _, hist_perm = reconstruct(series, cfg, PARAMS, tilt_order=order)
    assert hist_perm[-1] == pytest.approx(hist_fwd[-1], rel=0.05)


def test_reconstruct_step_bracket_picks_reasonable_step():
    v = _blob_volume(seed=8)
    series = _series(v, n_tilts=4)
    cfg = SolverConfig(step_size=None, reg_kind="positivity", n_b=2, max_iter=3,
                       step_bracket=(1e3, 1e5, 1e9))
    _, history = reconstruct(series, cfg, PARAMS)
    # the diverging 1e9 candidate must be rejected and the run completes
    assert len(history) == 3
    assert history[-1] < history[0]


def test_bracketed_reconstruct_equals_fixed_step_at_the_picked_step():
    # The bracket's winner continues from its own iteration 1, so a bracketed
    # run must equal a fixed-step run at the step the bracket picks.
    v = _blob_volume(seed=14)
    series = _series(v, n_tilts=4, dose=5e4, seed=15)
    cfg = SolverConfig(step_size=None, reg_kind="tv", reg_weight=1e-2, n_b=2, max_iter=3,
                       step_bracket=(1e3, 1e5, 1e9))
    step, _ = bracket_step_size(series, cfg, PARAMS, TransferFunction.identity(series.grid))
    volume, history = reconstruct(series, cfg, PARAMS)
    fixed, fixed_history = reconstruct(series, replace(cfg, step_size=step), PARAMS)
    assert np.array_equal(volume.values, fixed.values)
    assert history == fixed_history


def test_apply_prox_threshold_is_step_times_weight_over_background_counts():
    rng = np.random.default_rng(9)
    v = PotentialVolume(rng.normal(0.0, 5.0, (6, 6, 6)), 0.5)
    counts = 208.0
    for kind, prox in (("lasso", prox_lasso), ("tv", prox_tv)):
        cfg = SolverConfig(step_size=3e3, reg_kind=kind, reg_weight=3e-3)
        expected = prox(v, 3e3 * 3e-3 / counts).values
        assert np.array_equal(apply_prox(v, cfg, counts).values, expected)
        assert np.array_equal(apply_prox(v, cfg, math.inf).values,
                              prox_positivity(v).values)


def test_reconstruct_threshold_is_dose_normalised():
    # Four times the dose and four times the counts give the same normalised
    # images (bit for bit); four times the weight then gives the same volume.
    v = _blob_volume(seed=9)
    series = _series(v, n_tilts=4, dose=5e4, seed=10)
    plan = series.plan
    brighter = TiltSeries(
        AcquisitionPlan(plan.tilt_angles, plan.defoci, 4 * plan.total_dose, plan.seed),
        series.grid, 4 * series.images,
    )
    assert brighter.background_counts == 4 * series.background_counts

    def run(s, weight):
        cfg = SolverConfig(step_size=1e5, reg_kind="lasso", reg_weight=weight, n_b=2,
                           max_iter=3)
        return reconstruct(s, cfg, PARAMS)

    weight = 1e-2  # threshold 1e5 * 1e-2 / 1562.5 = 0.64 V*A per iteration
    volume, history = run(series, weight)
    volume_4x, history_4x = run(brighter, 4 * weight)
    assert np.array_equal(volume_4x.values, volume.values)
    assert history_4x == history
    unscaled, _ = run(brighter, weight)
    assert not np.array_equal(unscaled.values, volume.values)


def test_reconstruct_infinite_dose_warns_and_applies_positivity_only():
    v = _blob_volume(seed=11)
    series = _series(v, n_tilts=4)
    out = {}
    for kind, weight in (("tv", 1e-5), ("positivity", 0.0)):
        cfg = SolverConfig(step_size=1e5, reg_kind=kind, reg_weight=weight, n_b=2,
                           max_iter=2)
        if weight:
            with pytest.warns(RuntimeWarning, match="infinite-dose"):
                out[kind], _ = reconstruct(series, cfg, PARAMS)
        else:
            out[kind], _ = reconstruct(series, cfg, PARAMS)
    assert np.array_equal(out["tv"].values, out["positivity"].values)


def test_step_bracket_raises_when_every_candidate_diverges():
    v = _blob_volume(seed=12)
    series = _series(v, n_tilts=4)
    cfg = SolverConfig(step_size=None, reg_kind="positivity", n_b=2, max_iter=3,
                       step_bracket=(1e9, 1e10, 1e11))
    with pytest.raises(DivergenceError, match="every step size"):
        reconstruct(series, cfg, PARAMS)


def test_step_bracket_propagates_errors_other_than_divergence(monkeypatch):
    v = _blob_volume(seed=13)
    series = _series(v, n_tilts=2)
    cfg = SolverConfig(step_size=None, reg_kind="positivity", n_b=2)

    def broken_prox(*args):
        raise ValueError("not a divergence")

    monkeypatch.setattr(solver, "apply_prox", broken_prox)
    with pytest.raises(ValueError, match="not a divergence"):
        bracket_step_size(series, cfg, PARAMS, TransferFunction.identity(series.grid))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(step_size=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(reg_kind="ridge")
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)


def test_cost_history_csv(tmp_path):
    path = tmp_path / "cost.csv"
    write_cost_history([3.5, 2.0, 1.25], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,cost"
    assert len(lines) == 4
    assert lines[1].startswith("1,")
    assert float(lines[3].split(",")[1]) == 1.25
