"""Accelerated incremental proximal-gradient reconstruction.

One outer iteration sweeps all tilt angles sequentially. For each tilt
the current estimate is rotated and slice-binned, the forward model is
evaluated, residuals are backpropagated, and the estimate receives an
immediate gradient step through the binning and rotation adjoints. After
the sweep a proximal operator (positivity, soft-threshold, or total
variation, each composed with positivity) regularizes the iterate, and a
momentum extrapolation with the scalar sequence

    t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2

accelerates convergence.

The gradient step keeps the complex slab gradients as-is; only the
proximal step discards imaginary parts, so the momentum iterate can be
transiently complex inside a sweep.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .fields import GridSpec, NonFiniteError, TransferFunction
from .forward import TiltSeries, multislice_forward
from .gradients import backpropagate, residual
from .volume import (
    BinnedVolume,
    InteractionParams,
    PotentialVolume,
    bin_adjoint,
    bin_slices,
    interaction_from_wavelength,
    rotate,
    rotate_adjoint,
)

REG_KINDS = ("positivity", "lasso", "tv")
DIVERGENCE_FACTOR = 10.0


class DivergenceError(RuntimeError):
    """Raised when the sweep cost explodes: step size too large."""


@dataclass
class SolverConfig:
    """Reconstruction settings.

    ``step_size`` is the gradient step applied per tilt; ``reg_weight``
    scales the regularizer against the data term in electron counts, so
    one weight means the same at every dose: the proximal threshold is
    step_size * reg_weight / (dose per image * pitch^2) (see
    :func:`apply_prox`). Useful desk-scale weights are ~1e-3..1e-2. On
    an infinite-dose series the threshold is 0 and a positive weight
    has no effect (``reconstruct`` warns). When ``step_size`` is None a
    3-point bracket on the iteration-1 cost picks one of
    ``step_bracket``, and the winner's first iteration is kept as
    iteration 1 (row 1 of ``cost.csv``).
    """

    step_size: float | None = None
    reg_kind: str = "tv"
    reg_weight: float = 0.0
    n_b: int = 1
    max_iter: int = 40
    tv_inner_iters: int = 20
    anti_alias: bool = True
    step_bracket: tuple[float, float, float] = (3e2, 3e3, 3e4)
    cost_log_path: str | None = None

    def __post_init__(self):
        if self.step_size is not None and self.step_size <= 0:
            raise ValueError("step size must be positive")
        if self.reg_kind not in REG_KINDS:
            raise ValueError(f"reg_kind must be one of {REG_KINDS}")
        if self.reg_weight < 0:
            raise ValueError("reg_weight must be non-negative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.n_b < 1:
            raise ValueError("binning factor must be >= 1")


@dataclass
class SolverState:
    """Mutable state of one reconstruction run."""

    u: PotentialVolume            # momentum iterate (may be complex mid-sweep)
    v_curr: PotentialVolume       # prox output of iteration k
    t: float = 1.0
    k: int = 0
    cost_history: list[float] = field(default_factory=list)


# ---------------------------------------------------------------------------
# proximal operators (each ends in the positivity projection)
# ---------------------------------------------------------------------------

def prox_positivity(v: PotentialVolume) -> PotentialVolume:
    """Project onto the real non-negative orthant, per voxel."""
    return PotentialVolume(np.maximum(np.real(v.values), 0.0), v.pitch)


def prox_lasso(v: PotentialVolume, threshold: float) -> PotentialVolume:
    """Soft-threshold then positivity: max(Re(v) - threshold, 0).

    This is the closed-form minimizer of
    0.5||x - v||^2 + threshold*||x||_1 subject to x >= 0.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    return PotentialVolume(np.maximum(np.real(v.values) - threshold, 0.0), v.pitch)


def _tv_gradient(x: np.ndarray) -> np.ndarray:
    """Forward differences along (z, y, x), zero at each far boundary."""
    g = np.zeros((3,) + x.shape, dtype=x.dtype)
    g[0, :-1] = x[1:] - x[:-1]
    g[1, :, :-1] = x[:, 1:] - x[:, :-1]
    g[2, :, :, :-1] = x[:, :, 1:] - x[:, :, :-1]
    return g


def _tv_gradient_adjoint(p: np.ndarray) -> np.ndarray:
    """Exact adjoint of :func:`_tv_gradient` (a negated divergence)."""
    out = np.zeros(p.shape[1:], dtype=p.dtype)
    out[1:] += p[0, :-1]
    out[:-1] -= p[0, :-1]
    out[:, 1:] += p[1, :, :-1]
    out[:, :-1] -= p[1, :, :-1]
    out[:, :, 1:] += p[2, :, :, :-1]
    out[:, :, :-1] -= p[2, :, :, :-1]
    return out


def total_variation(x: np.ndarray) -> float:
    """Isotropic TV: sum over voxels of the gradient magnitude."""
    g = _tv_gradient(np.asarray(x, dtype=np.float64))
    return float(np.sum(np.sqrt(np.sum(g * g, axis=0))))


def prox_tv(v: PotentialVolume, weight: float, inner_iters: int = 20) -> PotentialVolume:
    """Approximate minimizer of 0.5||x-v||^2 + weight*TV(x), x >= 0.

    Solved in the dual by accelerated projected gradient iterations on
    the per-voxel unit-ball constraint (isotropic TV, Neumann
    boundaries). ``inner_iters`` dual steps are performed; weight 0
    reduces exactly to the positivity projection.
    """
    if weight < 0:
        raise ValueError("weight must be non-negative")
    if weight == 0.0:
        return prox_positivity(v)
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


def apply_prox(
    v: PotentialVolume, cfg: SolverConfig, background_counts: float
) -> PotentialVolume:
    """Proximal step of ``cfg.reg_kind`` with threshold eta*lambda/s.

    eta is ``cfg.step_size``, lambda is ``cfg.reg_weight`` and s is
    ``background_counts``, the expected electron counts per pixel of
    unit background (dose per image * pitch^2,
    :attr:`TiltSeries.background_counts`). The data term is summed over
    intensities normalised to unit background; in counts it is s times
    larger, and there its amplitude residuals have variance ~1/4 at any
    dose (the square root stabilises Poisson noise). Weighing lambda
    against the data term in counts keeps its meaning at every dose. An
    infinite-dose series has s = inf, so the threshold is 0 and only
    positivity is applied.
    """
    threshold = (cfg.step_size or 0.0) * cfg.reg_weight / background_counts
    if cfg.reg_kind == "positivity" or threshold == 0.0:
        return prox_positivity(v)
    if cfg.reg_kind == "lasso":
        return prox_lasso(v, threshold)
    return prox_tv(v, threshold, cfg.tv_inner_iters)


def nesterov_next_t(t: float) -> float:
    return (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0


# ---------------------------------------------------------------------------
# reconstruction driver
# ---------------------------------------------------------------------------

def _sweep(
    u: np.ndarray,
    series: TiltSeries,
    cfg: SolverConfig,
    params: InteractionParams,
    h: TransferFunction,
    update: bool = True,
    tilt_order: np.ndarray | None = None,
) -> float:
    """One pass over all tilts; returns the accumulated amplitude cost.

    With ``update`` the per-tilt gradient step U -= eta * R_adj(B_adj(g))
    is applied in place, so later tilts see the earlier updates.
    ``tilt_order`` permutes the sweep order (diagnostics only; the final
    result is empirically insensitive to it).
    """
    plan = series.plan
    pitch = series.grid.pitch
    measured_amplitude = np.sqrt(series.normalized())
    nz = u.shape[0]
    cost = 0.0
    order = range(plan.n_tilts) if tilt_order is None else tilt_order
    for i in order:
        theta = plan.tilt_angles[i]
        if not np.all(np.isfinite(u)):
            raise DivergenceError("step size too large")
        vol = PotentialVolume(u, pitch)
        w = bin_slices(rotate(vol, theta), cfg.n_b)
        exit_waves, intermediates = multislice_forward(
            w, params, plan.defoci, h, cfg.anti_alias
        )
        residuals = []
        for j, exit_wave in enumerate(exit_waves):
            amp_meas = measured_amplitude[i, j]
            diff = amp_meas - np.abs(exit_wave.values)
            cost += float(np.sum(diff * diff))
            residuals.append(residual(exit_wave, amp_meas))
        if not update:
            continue
        grads = backpropagate(
            residuals, intermediates, w, params, plan.defoci, h, cfg.anti_alias
        )
        g_binned = BinnedVolume(np.stack(grads), pitch, cfg.n_b)
        g_full = bin_adjoint(g_binned, cfg.n_b, nz)
        g_vol = rotate_adjoint(g_full, theta)
        u -= cfg.step_size * g_vol.values
    return cost


def _initial_state(grid: GridSpec) -> SolverState:
    """U = 0, V = 0, t = 1 on the reconstruction cube (nz = nx)."""
    shape = (grid.nx, grid.ny, grid.nx)
    return SolverState(PotentialVolume(np.zeros(shape, np.complex128), grid.pitch),
                       PotentialVolume(np.zeros(shape), grid.pitch))


def _outer_iteration(state: SolverState, series: TiltSeries, cfg: SolverConfig,
                     params: InteractionParams, h: TransferFunction,
                     tilt_order: np.ndarray | None) -> None:
    """Advance ``state`` in place by one sweep at eta = ``cfg.step_size``,
    the prox and the Nesterov extrapolation, recording the sweep's cost."""
    # overflow inside a diverging iterate is caught by the finiteness guards
    with np.errstate(over="ignore", invalid="ignore"):
        cost = _sweep(state.u.values, series, cfg, params, h, tilt_order=tilt_order)
        state.cost_history.append(cost)
        if not np.isfinite(cost) or cost > DIVERGENCE_FACTOR * state.cost_history[0]:
            raise DivergenceError("step size too large")
        v_new = apply_prox(state.u, cfg, series.background_counts)
        t_next = nesterov_next_t(state.t)
        momentum = (state.t - 1.0) / t_next
        # v_curr still holds V^(k-1) at this point
        u = v_new.values + momentum * (v_new.values - state.v_curr.values)
    state.u = PotentialVolume(u.astype(np.complex128), v_new.pitch)
    state.v_curr = v_new
    state.t = t_next
    state.k += 1


def bracket_step_size(
    series: TiltSeries,
    cfg: SolverConfig,
    params: InteractionParams,
    h: TransferFunction,
    tilt_order: np.ndarray | None = None,
) -> tuple[float, SolverState]:
    """Pick the bracket candidate whose iteration-1 prox output costs least.

    Each candidate runs iteration 1 exactly as :func:`reconstruct` does,
    ``tilt_order`` included; returns the winning step size and its state
    after iteration 1. A diverging candidate is rejected, any other error
    propagates, and :class:`DivergenceError` is raised when all diverge.
    """
    best_cost, best = np.inf, None
    for eta in cfg.step_bracket:
        trial = replace(cfg, step_size=float(eta))
        state = _initial_state(series.grid)
        try:
            _outer_iteration(state, series, trial, params, h, tilt_order)
            with np.errstate(over="ignore", invalid="ignore"):
                cost = _sweep(state.v_curr.values.astype(np.complex128), series, trial,
                              params, h, update=False, tilt_order=tilt_order)
        except (DivergenceError, NonFiniteError):
            continue
        if cost < best_cost:
            best_cost, best = cost, (trial.step_size, state)
    if best is None:
        raise DivergenceError(f"every step size in {tuple(cfg.step_bracket)} diverges")
    return best


def reconstruct(
    series: TiltSeries,
    cfg: SolverConfig,
    params: InteractionParams | None = None,
    h: TransferFunction | None = None,
    tilt_order: np.ndarray | None = None,
) -> tuple[PotentialVolume, list[float]]:
    """Run the full reconstruction; returns the volume and cost history.

    The volume is a cube in x-z (nz = nx) so that y-axis rotations are
    well defined. Initial state: U = 0, V = 0, t = 1. The recorded cost
    per outer iteration is the amplitude cost accumulated during that
    sweep (predicted intensities from the then-current iterate). With no
    ``cfg.step_size`` the loop continues from the bracket winner's state.
    ``tilt_order`` permutes every sweep, the bracket's included.
    """
    grid = series.grid
    if params is None:
        params = interaction_from_wavelength(grid.wavelength)
    if h is None:
        h = TransferFunction.identity(grid)

    cfg = replace(cfg)  # do not mutate the caller's config
    if cfg.reg_weight > 0 and cfg.reg_kind != "positivity" and math.isinf(
        series.background_counts
    ):
        warnings.warn(
            f"reg_weight {cfg.reg_weight:g} has no effect on an infinite-dose series "
            "(the threshold scales as 1/dose); only positivity is applied",
            RuntimeWarning,
            stacklevel=2,
        )
    if cfg.step_size is None:
        cfg.step_size, state = bracket_step_size(series, cfg, params, h, tilt_order)
    else:
        state = _initial_state(grid)
    while state.k < cfg.max_iter:
        _outer_iteration(state, series, cfg, params, h, tilt_order)

    if cfg.cost_log_path:
        write_cost_history(state.cost_history, cfg.cost_log_path)
    return state.v_curr, state.cost_history


def write_cost_history(history: list[float], path: str | Path) -> None:
    """CSV with header ``iteration,cost``, one row per outer iteration."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "cost"])
        for k, cost in enumerate(history, start=1):
            writer.writerow([k, repr(float(cost))])
