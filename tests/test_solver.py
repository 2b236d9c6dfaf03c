"""Proximal operators, Nesterov scalars, and the reconstruction loop."""

import inspect
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


def _prox_tv_oracle(v, weight, inner_iters=20):
    """prox_tv before its buffers were preallocated, kept as the byte oracle."""

    def _tv_gradient(x):
        g = np.zeros((3,) + x.shape, dtype=x.dtype)
        g[0, :-1] = x[1:] - x[:-1]
        g[1, :, :-1] = x[:, 1:] - x[:, :-1]
        g[2, :, :, :-1] = x[:, :, 1:] - x[:, :, :-1]
        return g

    def _tv_gradient_adjoint(p):
        out = np.zeros(p.shape[1:], dtype=p.dtype)
        out[1:] += p[0, :-1]
        out[:-1] -= p[0, :-1]
        out[:, 1:] += p[1, :, :-1]
        out[:, :-1] -= p[1, :, :-1]
        out[:, :, 1:] += p[2, :, :, :-1]
        out[:, :, :-1] -= p[2, :, :, :-1]
        return out

    b = np.real(v.values).astype(np.float64)
    p = np.zeros((3,) + b.shape)
    q = p.copy()
    t = 1.0
    step = 1.0 / (12.0 * weight)  # 12 bounds ||grad||^2 in 3D
    for _ in range(max(1, inner_iters)):
        x = np.maximum(b - weight * _tv_gradient_adjoint(q), 0.0)
        p_new = q + step * _tv_gradient(x)
        norms = np.sqrt(np.sum(p_new * p_new, axis=0))
        p_new /= np.maximum(norms, 1.0)
        t_new = nesterov_next_t(t)
        q = p_new + ((t - 1.0) / t_new) * (p_new - p)
        p, t = p_new, t_new
    x = np.maximum(b - weight * _tv_gradient_adjoint(p), 0.0)
    return PotentialVolume(x, v.pitch)


@pytest.mark.parametrize("shape", [(6, 6, 6), (1, 5, 7), (7, 7, 7)])
@pytest.mark.parametrize("inner_iters", [1, solver.TV_INNER_ITERS, 20])
@pytest.mark.parametrize("weight", [1e-4, 1.0])
def test_prox_tv_is_byte_identical_to_the_unbuffered_oracle(shape, inner_iters, weight):
    rng = np.random.default_rng(sum(shape) + inner_iters)
    values = rng.normal(0.0, 2.0, shape)
    values.flat[::3] = -0.0  # signed zeros must come out as the oracle's
    values.flat[1::5] = 0.0
    v = PotentialVolume(values, 0.5)
    got = prox_tv(v, weight, inner_iters).values
    assert got.tobytes() == _prox_tv_oracle(v, weight, inner_iters).values.tobytes()


@pytest.mark.parametrize("inner_iters", [0, -1])
def test_prox_tv_rejects_fewer_than_one_inner_iteration(inner_iters):
    v = PotentialVolume(np.ones((3, 3, 3)), 0.5)
    with pytest.raises(ValueError, match="inner_iters"):
        prox_tv(v, 0.1, inner_iters)


def _tv_input(shape=(7, 7, 7), seed=20):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 1.0, shape)
    base[2:5, 2:5, 2:5] += 2.0
    return PotentialVolume(base + rng.normal(0.0, 0.3, shape), 0.5)


@pytest.mark.parametrize("inner_iters", [1, 4, 5])
def test_prox_tv_from_a_zero_dual_is_the_cold_prox(inner_iters):
    v = _tv_input()
    dual = np.zeros((3,) + v.values.shape)
    got = prox_tv(v, 0.3, inner_iters, dual).values
    assert got.tobytes() == prox_tv(v, 0.3, inner_iters).values.tobytes()
    # the final dual is left in the caller's array, whatever the parity of the count
    assert np.any(dual != 0.0) and np.all(np.sum(dual * dual, axis=0) <= 1.0 + 1e-12)


def test_prox_tv_warm_started_from_a_converged_dual_beats_a_cold_start():
    v, weight = _tv_input(), 0.3
    dual = np.zeros((3,) + v.values.shape)
    converged = prox_tv(v, weight, 400, dual).values
    cold = prox_tv(v, weight, solver.TV_INNER_ITERS).values
    warm = prox_tv(v, weight, solver.TV_INNER_ITERS, dual).values
    assert np.linalg.norm(warm - converged) < 0.1 * np.linalg.norm(cold - converged)


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


@pytest.mark.parametrize("n_tilts", [1, 4])
def test_sweep_builds_the_multislice_factors_once(monkeypatch, n_tilts):
    from phasetomo import forward

    series = _series(_blob_volume(n=12, seed=19), n_tilts=n_tilts)
    h = TransferFunction.identity(series.grid)
    cfg = SolverConfig(step_size=1e4, reg_kind="positivity", n_b=2)
    calls = []
    original = forward.propagation_kernel

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(forward, "propagation_kernel", counted)
    solver._sweep(np.zeros((12, 12, 12), np.complex128), series, cfg, PARAMS, h)
    assert len(calls) == 3  # the slab propagator and one exit factor per defocus


def test_apply_prox_threshold_is_step_times_weight_over_background_counts():
    rng = np.random.default_rng(9)
    v = PotentialVolume(rng.normal(0.0, 5.0, (6, 6, 6)), 0.5)
    counts = 208.0
    for kind, prox in (("lasso", prox_lasso), ("tv", prox_tv)):
        cfg = SolverConfig(step_size=3e3, reg_kind=kind, reg_weight=3e-3)
        expected = prox(v, 3e3 * 3e-3 / counts).values
        fresh = solver.SolverState(v, v)  # no dual yet: the TV prox starts cold
        assert np.array_equal(apply_prox(v, cfg, counts, fresh).values, expected)
        assert np.array_equal(apply_prox(v, cfg, math.inf, fresh).values,
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


def _record_tv_duals(monkeypatch):
    """Copies of the dual each prox_tv call starts from and ends with."""
    entries, exits = [], []
    original = solver.prox_tv

    def recorded(v, weight, inner_iters, dual=None):
        entries.append(None if dual is None else dual.copy())
        out = original(v, weight, inner_iters, dual)
        exits.append(None if dual is None else dual.copy())
        return out

    monkeypatch.setattr(solver, "prox_tv", recorded)
    return entries, exits


def test_outer_iteration_hands_each_tv_dual_to_the_next(monkeypatch):
    series, cfg, h = _tv_bracket_case((1e5,))
    cfg = replace(cfg, step_size=1e5)
    entries, exits = _record_tv_duals(monkeypatch)
    state = solver._initial_state(series.grid)
    for _ in range(3):
        solver._outer_iteration(state, series, cfg, PARAMS, h)
    assert len(entries) == 3
    assert not np.any(entries[0])  # the run's first prox starts cold
    for k in range(2):
        assert np.any(exits[k])
        assert entries[k + 1].tobytes() == exits[k].tobytes()
    assert state.tv_dual.tobytes() == exits[-1].tobytes()


def test_every_bracket_candidate_starts_cold_and_the_winner_carries_its_dual(monkeypatch):
    series, cfg, h = _tv_bracket_case((1e4, 1e5, 1e6))
    entries, exits = _record_tv_duals(monkeypatch)
    _, history = reconstruct(series, replace(cfg, max_iter=2), PARAMS, h)
    # 1e6 and 1e5 get a prox, 1e4 stops costlier without one; then iteration 2
    assert len(entries) == 3 and len(history) == 2
    assert not np.any(entries[0]) and not np.any(entries[1])
    assert entries[2].tobytes() == exits[1].tobytes()  # the winner, 1e5


@pytest.mark.parametrize("kind, weight, dose", [
    ("positivity", 0.0, 5e4),
    ("lasso", 1e-2, 5e4),
    ("tv", 0.0, 5e4),
    ("tv", 1e-2, math.inf),
])
def test_runs_without_a_tv_threshold_allocate_no_dual(kind, weight, dose):
    series = _series(_blob_volume(seed=21), n_tilts=4, dose=dose, seed=22)
    cfg = SolverConfig(step_size=1e5, reg_kind=kind, reg_weight=weight, n_b=2)
    state = solver._initial_state(series.grid)
    for _ in range(2):
        solver._outer_iteration(state, series, cfg, PARAMS,
                                TransferFunction.identity(series.grid))
    assert state.tv_dual is None


def test_prox_tv_and_the_solver_config_share_the_inner_iteration_default():
    default = inspect.signature(prox_tv).parameters["inner_iters"].default
    assert SolverConfig().tv_inner_iters == default == solver.TV_INNER_ITERS == 5


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


def _exhaustive_bracket(series, cfg, h):
    """Every candidate in bracket order, each scored by its full iteration-1
    sweep, strictly lower cost wins: the search the early-stopping bracket
    must agree with on a unimodal cost."""
    best_cost, best = np.inf, None
    for eta in cfg.step_bracket:
        trial = replace(cfg, step_size=float(eta))
        state = solver._initial_state(series.grid)
        solver._outer_iteration(state, series, trial, PARAMS, h)
        if state.cost_history[0] < best_cost:
            best_cost, best = state.cost_history[0], (trial.step_size, state)
    return best


def _forward_only_cost(v, series, cfg, h):
    """The amplitude cost of ``v`` over all tilts, with no update: the score
    the bracket used before it ranked candidates by their own sweeps."""
    from phasetomo.forward import multislice_factors
    from phasetomo.volume import bin_slices, rotate

    plan, pitch = series.plan, series.grid.pitch
    factors = multislice_factors(h, cfg.n_b * pitch, plan.defoci, cfg.anti_alias)
    measured_amplitude = np.sqrt(series.normalized())
    cost = 0.0
    for i, theta in enumerate(plan.tilt_angles):
        w = bin_slices(rotate(PotentialVolume(v, pitch), theta), cfg.n_b)
        exit_waves, _ = solver.multislice_forward(w, PARAMS, factors)
        for exit_wave, amp_meas in zip(exit_waves, measured_amplitude[i]):
            diff = amp_meas - np.abs(exit_wave.values)
            cost += float(np.sum(diff * diff))
    return cost


def _forward_only_bracket(series, cfg, h):
    """The earlier bracket search, scored by a forward-only sweep of each
    candidate's prox output; returns the step it picks."""
    best_cost, best = np.inf, None
    for eta in sorted(cfg.step_bracket, reverse=True):
        trial = replace(cfg, step_size=float(eta))
        state = solver._initial_state(series.grid)
        try:
            solver._outer_iteration(state, series, trial, PARAMS, h)
            with np.errstate(over="ignore", invalid="ignore"):
                cost = _forward_only_cost(state.v_curr.values, series, trial, h)
        except (DivergenceError, solver.NonFiniteError):
            continue
        if cost > best_cost:
            break
        best_cost, best = cost, trial.step_size
    return best


def _tv_bracket_case(step_bracket):
    # iteration-1 scores on this series fall from eta 1e3 to 1e5 and rise
    # again at 1e6 (unimodal, minimum at 1e5)
    series = _series(_blob_volume(seed=14), n_tilts=4, dose=5e4, seed=15)
    cfg = SolverConfig(step_size=None, reg_kind="tv", reg_weight=1e-2, n_b=2,
                       step_bracket=step_bracket)
    return series, cfg, TransferFunction.identity(series.grid)


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(solver, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, name, counted)
    return calls


@pytest.mark.parametrize("step_bracket, n_tried", [
    ((1e3, 1e4, 1e5), 2),  # the largest step wins: the smallest never runs
    ((1e4, 1e5, 1e6), 3),  # the middle step wins: all three run
])
def test_step_bracket_stops_once_the_cost_rises(monkeypatch, step_bracket, n_tried):
    series, cfg, h = _tv_bracket_case(step_bracket)
    tried = _count_calls(monkeypatch, "_outer_iteration")
    proxes = _count_calls(monkeypatch, "apply_prox")
    step, state = bracket_step_size(series, cfg, PARAMS, h)
    assert len(tried) == n_tried
    assert len(proxes) == n_tried - 1  # the costlier last candidate gets no prox
    # on this unimodal cost the pick and its state equal the exhaustive search's
    expected_step, expected = _exhaustive_bracket(series, cfg, h)
    assert step == expected_step == 1e5
    assert state.v_curr.values.tobytes() == expected.v_curr.values.tobytes()
    assert state.u.values.tobytes() == expected.u.values.tobytes()
    assert state.cost_history == expected.cost_history


def _first_tilts(series, k):
    plan = AcquisitionPlan(series.plan.tilt_angles[:k], series.plan.defoci)
    return TiltSeries(plan, series.grid, series.normalized()[:k])


def test_losing_sweep_stops_at_the_first_tilt_above_the_best(monkeypatch):
    series = _series(_blob_volume(seed=14), n_tilts=8, dose=5e4, seed=15)
    h = TransferFunction.identity(series.grid)
    cfg = SolverConfig(step_size=1e4, reg_kind="tv", reg_weight=1e-2, n_b=2)
    winner = solver._initial_state(series.grid)
    solver._outer_iteration(winner, series, replace(cfg, step_size=1e5), PARAMS, h)
    best = winner.cost_history[0]
    # a sweep over the first k tilts, given as normalized images of an
    # infinite dose, runs exactly the full sweep's first k tilts, so its
    # cost is the full sweep's running cost after tilt k
    zeros = np.zeros(winner.u.values.shape, np.complex128)
    running = [solver._sweep(zeros.copy(), _first_tilts(series, k), cfg, PARAMS, h)
               for k in range(1, 9)]
    assert running == sorted(running) and running[-1] > best
    stop = next(i for i, cost in enumerate(running) if cost > best)
    assert stop < 7  # the stop saves at least one tilt on this series

    calls = {name: _count_calls(monkeypatch, name)
             for name in ("multislice_forward", "residual", "backpropagate", "apply_prox")}
    loser = solver._initial_state(series.grid)
    solver._outer_iteration(loser, series, cfg, PARAMS, h, stop_above=best)
    assert loser.cost_history == [running[stop]]
    assert len(calls["multislice_forward"]) == stop + 1
    # tilts before the stop form one residual per defocus; the stop tilt none
    assert len(calls["residual"]) == 2 * stop
    assert len(calls["backpropagate"]) == stop
    assert calls["apply_prox"] == [] and loser.k == 0


def test_own_sweep_score_picks_the_forward_only_score_step():
    # the three bracket series of this file; on each, both scores rank the
    # candidates alike, so the pick cannot have changed
    cases = [
        (_series(_blob_volume(seed=8), n_tilts=4),
         SolverConfig(reg_kind="positivity", n_b=2, step_bracket=(1e3, 1e5, 1e9))),
        _tv_bracket_case((1e3, 1e4, 1e5, 1e6))[:2],
        (_series(_blob_volume(seed=16), n_tilts=4, dose=5e4, seed=17),
         SolverConfig(reg_kind="tv", reg_weight=1e-2, n_b=2, step_bracket=(1e3, 1e5, 1e9))),
    ]
    for series, cfg in cases:
        h = TransferFunction.identity(series.grid)
        step, _ = bracket_step_size(series, cfg, PARAMS, h)
        assert step == _forward_only_bracket(series, cfg, h) == 1e5


def test_step_bracket_search_goes_on_past_a_diverging_largest_step(monkeypatch):
    series, cfg, h = _tv_bracket_case((1e3, 1e5, 1e9))
    calls = _count_calls(monkeypatch, "_outer_iteration")
    step, _ = bracket_step_size(series, cfg, PARAMS, h)
    # 1e9 diverges and is skipped, 1e5 wins, and 1e3 costs more and stops the search
    assert [trial.step_size for _, _, trial, *_ in calls] == [1e9, 1e5, 1e3]
    assert step == 1e5


def _reference_sweep(u, series, cfg, params, h, stop_above=math.inf, projectors=None):
    """The sweep through the reference operators: rotate and bin_slices
    forward, bin_adjoint and rotate_adjoint back, on the (z, y, x) array;
    ``projectors`` is ignored."""
    from phasetomo.forward import multislice_factors
    from phasetomo.volume import BinnedVolume, bin_adjoint, bin_slices, rotate, rotate_adjoint

    plan, pitch = series.plan, series.grid.pitch
    factors = multislice_factors(h, cfg.n_b * pitch, plan.defoci, cfg.anti_alias)
    measured_amplitude = np.sqrt(series.normalized())
    cost = 0.0
    for i, theta in enumerate(plan.tilt_angles):
        if not np.all(np.isfinite(u)):
            raise DivergenceError("step size too large")
        w = bin_slices(rotate(PotentialVolume(u, pitch), theta), cfg.n_b)
        exit_waves, intermediates = solver.multislice_forward(w, params, factors)
        for exit_wave, amp_meas in zip(exit_waves, measured_amplitude[i]):
            diff = amp_meas - np.abs(exit_wave.values)
            cost += float(np.sum(diff * diff))
        if cost > stop_above:
            return cost
        residuals = [solver.residual(exit_wave, amp_meas)
                     for exit_wave, amp_meas in zip(exit_waves, measured_amplitude[i])]
        grads = solver.backpropagate(residuals, intermediates, w, params, factors)
        g_full = bin_adjoint(BinnedVolume(np.stack(grads), pitch, cfg.n_b), cfg.n_b, u.shape[0])
        g_vol = rotate_adjoint(g_full, theta).values
        g_vol *= cfg.step_size
        u -= g_vol
    return cost


def test_a_run_builds_each_angles_projector_once_and_matches_reference_operators(
        monkeypatch):
    # tilts 90 degrees apart share their residual angle but not their projector
    series = _series(_blob_volume(seed=14), n_tilts=6, dose=5e4, seed=15)
    cfg = SolverConfig(step_size=None, reg_kind="tv", reg_weight=1e-2, n_b=2, max_iter=3,
                       step_bracket=(1e4, 1e5, 1e6))
    h = TransferFunction.identity(series.grid)
    builds, matrices = [], []
    original = solver.projector

    def counted(*args):
        builds.append(args)
        matrices.append(original(*args))
        return matrices[-1]

    monkeypatch.setattr(solver, "projector", counted)
    sweeps = _count_calls(monkeypatch, "_sweep")
    volume, history = reconstruct(series, cfg, PARAMS, h)
    angles = series.plan.tilt_angles
    assert sorted(builds) == sorted((16, 16, theta, cfg.n_b) for theta in angles)
    # the bracket's candidates and every later iteration swept with one store
    assert len(sweeps) > cfg.max_iter
    assert len({id(args[-1]) for args in sweeps}) == 1
    for matrix in matrices:
        for array in (matrix.data, matrix.indices, matrix.indptr):
            assert not array.flags.writeable

    monkeypatch.setattr(solver, "_sweep", _reference_sweep)
    expected_volume, expected_history = reconstruct(series, cfg, PARAMS, h)
    assert len(builds) == len(angles)  # the reference run built none
    # the composed matrix rounds differently from three passes and the exact
    # slab sum; over the bracket and three iterations the volumes differed by
    # 7.5e-16 of their maximum and the costs by 1.3e-15 relative (measured);
    # the bound leaves a factor ten
    scale = np.max(np.abs(expected_volume.values))
    assert np.max(np.abs(volume.values - expected_volume.values)) <= 2e-14 * scale
    np.testing.assert_allclose(history, expected_history, rtol=2e-14, atol=0)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(step_size=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(reg_kind="ridge")
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -3e3])
def test_solver_config_rejects_a_step_bracket_entry_not_positive_and_finite(bad):
    # NaN would make the largest-first order arbitrary, and the early stop
    # may never reach an invalid smaller entry
    with pytest.raises(ValueError, match="step_bracket"):
        SolverConfig(step_bracket=(3e2, bad, 3e4))


def test_cost_history_csv(tmp_path):
    path = tmp_path / "cost.csv"
    write_cost_history([3.5, 2.0, 1.25], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,cost"
    assert len(lines) == 4
    assert lines[1].startswith("1,")
    assert float(lines[3].split(",")[1]) == 1.25
