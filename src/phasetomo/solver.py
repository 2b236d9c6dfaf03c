"""Accelerated incremental proximal-gradient reconstruction.

One outer iteration sweeps all tilt angles sequentially. For each tilt
the current estimate is rotated and slice-binned (one product with the
angle's projector matrix), the forward model is evaluated, residuals are
backpropagated, and the estimate receives an immediate gradient step
through the projector's transpose. After
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
from .forward import MultisliceFactors, TiltSeries, multislice_factors, multislice_forward
from .gradients import backpropagate, residual
from .volume import (
    BinnedVolume,
    InteractionParams,
    PotentialVolume,
    from_rows,
    interaction_from_wavelength,
    projector,
    rows_product,
    to_rows,
)
# Not called here (the sweep applies one projector per tilt); the four names
# stay importable from this module because perfbench/layers.py wraps them.
from .volume import bin_adjoint, bin_slices, rotate, rotate_adjoint  # noqa: F401

REG_KINDS = ("positivity", "lasso", "tv")
DIVERGENCE_FACTOR = 10.0
TV_INNER_ITERS = 5  # FGP dual steps per TV prox, warm-started within a run


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
    ``step_bracket`` (positive, finite entries), and the winner's first
    iteration is kept as iteration 1 (row 1 of ``cost.csv``). The
    bracket scores each candidate by the cost of its own first sweep,
    tries the largest step first and stops once the cost rises, which
    assumes the cost is unimodal in the step; a losing candidate's sweep
    stops as soon as its running cost passes the best (see
    :func:`bracket_step_size`). Each TV prox runs ``tv_inner_iters``
    dual steps, warm-started from the previous outer iteration's final
    dual (see :func:`apply_prox`).
    """

    step_size: float | None = None
    reg_kind: str = "tv"
    reg_weight: float = 0.0
    n_b: int = 1
    max_iter: int = 40
    tv_inner_iters: int = TV_INNER_ITERS
    anti_alias: bool = True
    step_bracket: tuple[float, float, float] = (3e2, 3e3, 3e4)

    def __post_init__(self):
        if self.step_size is not None and not 0 < self.step_size < math.inf:
            raise ValueError("step size must be positive and finite")
        if not all(0 < eta < math.inf for eta in self.step_bracket):
            raise ValueError(f"step_bracket entries must be positive and finite, "
                             f"got {tuple(self.step_bracket)}")
        if self.reg_kind not in REG_KINDS:
            raise ValueError(f"reg_kind must be one of {REG_KINDS}")
        if not 0 <= self.reg_weight < math.inf:
            raise ValueError("reg_weight must be non-negative and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.n_b < 1:
            raise ValueError("binning factor must be >= 1")
        if self.tv_inner_iters < 1:
            raise ValueError("tv_inner_iters must be >= 1")


@dataclass
class SolverState:
    """Mutable state of one reconstruction run.

    ``tv_dual`` is the final FGP dual of the run's last TV prox, shape
    (3, nz, ny, nx); the next TV prox starts from it (see
    :func:`apply_prox`). It stays None until a TV prox with a positive
    threshold runs, so positivity and Lasso runs never allocate it.
    """

    u: PotentialVolume            # momentum iterate (may be complex mid-sweep)
    v_curr: PotentialVolume       # prox output of iteration k
    t: float = 1.0
    k: int = 0
    cost_history: list[float] = field(default_factory=list)
    tv_dual: np.ndarray | None = None


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


def _tv_gradient(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Forward differences along (z, y, x), zero at each far boundary.

    Only the interior of ``out`` is written, so a reused ``out`` must
    hold zeros in its far-boundary planes.
    """
    g = np.zeros((3,) + x.shape, dtype=x.dtype) if out is None else out
    np.subtract(x[1:], x[:-1], out=g[0, :-1])
    np.subtract(x[:, 1:], x[:, :-1], out=g[1, :, :-1])
    np.subtract(x[:, :, 1:], x[:, :, :-1], out=g[2, :, :, :-1])
    return g


def _tv_gradient_adjoint(p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Exact adjoint of :func:`_tv_gradient` (a negated divergence), into ``out``."""
    out.fill(0)
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


def prox_tv(
    v: PotentialVolume,
    weight: float,
    inner_iters: int = TV_INNER_ITERS,
    dual: np.ndarray | None = None,
) -> PotentialVolume:
    """Approximate minimizer of 0.5||x-v||^2 + weight*TV(x), x >= 0.

    Solved in the dual by accelerated projected gradient iterations (FGP,
    Beck & Teboulle 2009) on the per-voxel unit-ball constraint
    (isotropic TV, Neumann boundaries). ``inner_iters`` dual steps are
    performed; weight 0 reduces exactly to the positivity projection.

    With ``dual`` None the dual starts at zero (a cold start). Otherwise
    ``dual``, a float64 array of shape (3,) + v.shape, is the starting
    dual (the momentum scalar still starts at 1) and is overwritten with
    the final one, so a caller can warm-start the next prox of the same
    weight from it. A zero ``dual`` gives the cold prox, bit for bit.
    """
    if weight < 0:
        raise ValueError("weight must be non-negative")
    if inner_iters < 1:
        raise ValueError(f"inner_iters must be >= 1, got {inner_iters}")
    if weight == 0.0:
        return prox_positivity(v)
    b = np.real(v.values).astype(np.float64)
    # Every buffer is allocated once; each update runs the same float
    # operations in the same order as the plain expressions in comments.
    p = np.zeros((3,) + b.shape) if dual is None else dual
    p_new = np.empty_like(p)
    q = p.copy()
    grad = np.zeros_like(p)  # far-boundary planes stay zero (_tv_gradient)
    div = np.empty_like(b)
    x = np.empty_like(b)
    norms = np.empty_like(b)
    t = 1.0
    step = 1.0 / (12.0 * weight)  # 12 bounds ||grad||^2 in 3D

    def primal(dual: np.ndarray) -> None:
        # x = max(b - weight * div(dual), 0)
        np.multiply(_tv_gradient_adjoint(dual, div), weight, out=div)
        np.subtract(b, div, out=x)
        np.maximum(x, 0.0, out=x)

    for _ in range(inner_iters):
        primal(q)
        # p_new = q + step * grad(x)
        np.multiply(_tv_gradient(x, grad), step, out=p_new)
        np.add(q, p_new, out=p_new)
        # p_new /= max(|p_new|, 1); q is free until its update below
        np.multiply(p_new, p_new, out=q)
        np.sum(q, axis=0, out=norms)
        np.sqrt(norms, out=norms)
        np.maximum(norms, 1.0, out=norms)
        p_new /= norms
        # q = p_new + ((t - 1) / t_new) * (p_new - p)
        t_new = nesterov_next_t(t)
        np.subtract(p_new, p, out=q)
        q *= (t - 1.0) / t_new
        q += p_new
        p, p_new, t = p_new, p, t_new
    primal(p)
    if dual is not None and p is not dual:  # an odd count ends in the other buffer
        np.copyto(dual, p)
    return PotentialVolume(x, v.pitch)


def apply_prox(
    v: PotentialVolume,
    cfg: SolverConfig,
    background_counts: float,
    state: SolverState,
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

    A TV prox starts from ``state.tv_dual``, the final dual of the run's
    previous TV prox, and leaves its own final dual there; the run's
    first TV prox starts cold. Within a run the threshold is fixed, so
    each prox refines the last one's dual, and the prox error shrinks
    over the outer iterations as an inexact accelerated proximal
    gradient needs (Schmidt, Le Roux & Bach 2011).
    """
    threshold = (cfg.step_size or 0.0) * cfg.reg_weight / background_counts
    if cfg.reg_kind == "positivity" or threshold == 0.0:
        return prox_positivity(v)
    if cfg.reg_kind == "lasso":
        return prox_lasso(v, threshold)
    if state.tv_dual is None:
        state.tv_dual = np.zeros((3,) + v.values.shape)  # a cold start
    return prox_tv(v, threshold, cfg.tv_inner_iters, state.tv_dual)


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
    factors: MultisliceFactors,
    projectors: tuple,
    stop_above: float = math.inf,
) -> float:
    """One pass over all tilts; returns the accumulated amplitude cost.

    ``factors`` are the run's multislice factors and ``projectors`` its
    projectors, one per tilt in tilt order (see :func:`reconstruct`).
    Each tilt's rotation and binning is one product with its
    :func:`~phasetomo.volume.projector` P, and the per-tilt gradient
    step U -= eta * P^T g is applied at once, so later tilts see the
    earlier updates. The sweep holds ``u`` in the projectors' row layout
    (:func:`~phasetomo.volume.to_rows`) and writes it back into ``u``
    once, on every way out. Both products run on the float64 view of the
    rows (:func:`~phasetomo.volume.rows_product`), as does the per-tilt
    finiteness guard; the results are bit for bit those of the complex
    products. Once the running cost is strictly above
    ``stop_above`` the sweep returns it at once, before that tilt's
    residual and update: every per-tilt term is a sum of squares, so the
    full cost could only be larger.
    """
    pitch = series.grid.pitch
    measured_amplitude = np.sqrt(series.normalized())
    nx = u.shape[2]
    rows = to_rows(u)
    cost = 0.0
    try:
        for i, matrix in enumerate(projectors):
            if not np.all(np.isfinite(rows.view(np.float64))):
                raise DivergenceError("step size too large")
            w = BinnedVolume(from_rows(rows_product(matrix, rows), nx), pitch, cfg.n_b)
            exit_waves, intermediates = multislice_forward(w, params, factors)
            # one sum per defocus: a sum over the whole stack would round differently
            for exit_wave, amp_meas in zip(exit_waves, measured_amplitude[i]):
                diff = amp_meas - np.abs(exit_wave)
                cost += float(np.sum(diff * diff))
            if cost > stop_above:
                return cost
            residuals = residual(exit_waves, measured_amplitude[i])
            grads = backpropagate(residuals, intermediates, w, params, factors)
            step = rows_product(matrix.T, to_rows(grads))  # a fresh array, scaled in place
            step *= cfg.step_size
            rows -= step
    finally:
        u[...] = from_rows(rows, nx)
    return cost


def _initial_state(grid: GridSpec) -> SolverState:
    """U = 0, V = 0, t = 1 on the reconstruction cube (nz = nx)."""
    shape = (grid.nx, grid.ny, grid.nx)
    return SolverState(PotentialVolume(np.zeros(shape, np.complex128), grid.pitch),
                       PotentialVolume(np.zeros(shape), grid.pitch))


def _outer_iteration(state: SolverState, series: TiltSeries, cfg: SolverConfig,
                     params: InteractionParams, factors: MultisliceFactors,
                     projectors: tuple, stop_above: float = math.inf) -> None:
    """Advance ``state`` in place by one sweep at eta = ``cfg.step_size``
    (with the run's ``factors`` and ``projectors``, see :func:`_sweep`),
    the prox and the Nesterov extrapolation, recording the sweep's cost.
    A TV prox starts from the previous iteration's final dual and leaves
    its own in ``state.tv_dual`` for the next (see :func:`apply_prox`).

    A sweep stopped above ``stop_above`` (see :func:`_sweep`) records its
    partial cost and leaves the iterate there: no prox, no extrapolation.
    """
    # overflow inside a diverging iterate is caught by the finiteness guards
    with np.errstate(over="ignore", invalid="ignore"):
        cost = _sweep(state.u.values, series, cfg, params, factors, projectors, stop_above)
        state.cost_history.append(cost)
        if not np.isfinite(cost) or cost > DIVERGENCE_FACTOR * state.cost_history[0]:
            raise DivergenceError("step size too large")
        if cost > stop_above:
            return
        v_new = apply_prox(state.u, cfg, series.background_counts, state)
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
    factors: MultisliceFactors,
    projectors: tuple,
) -> tuple[float, SolverState, dict]:
    """Pick the bracket candidate whose iteration-1 sweep costs least.

    Each candidate runs iteration 1 exactly as :func:`reconstruct` does,
    with the run's ``factors`` and ``projectors`` (see :func:`_sweep`),
    and is scored by the cost of that sweep, its ``cost_history[0]``.
    Candidates are tried from the largest step down, and the search
    stops at the first score strictly above the best so far; ties go to
    the smaller step. A candidate's sweep is itself cut short, with no
    prox, once its running cost passes the best: the cost is a sum of
    non-negative per-tilt terms, so the pick is the same as with full
    sweeps. Returns the winning step size, its state after iteration 1
    (only the best state so far is kept) and the bracket's record, the
    search as plain JSON values: ``step_size``, the winner;
    ``candidates``, one ``{"step_size", "cost", "lower_bound",
    "diverged"}`` per candidate tried, in order, where ``cost`` is the
    iteration-1 cost (None for a diverged candidate) and ``lower_bound``
    marks a sweep stopped early, whose cost only bounds its full one from
    below; and ``winner_at_end``, whether the winner is the smallest or
    largest entry of ``step_bracket``. A diverging candidate is skipped
    without stopping the search, any other error propagates, and
    :class:`DivergenceError` is raised when all diverge.
    A candidate that would diverge only after its running cost has passed
    the best counts as costlier and ends the search.

    The early stop assumes the iteration-1 cost is unimodal in the step
    across the bracket; on desk-scale series it falls steadily as the
    step grows, and the largest step wins after two candidates. Where the
    assumption fails, a smaller step that is cheaper again behind a
    costlier one is missed.
    """
    best_cost, best = np.inf, None
    candidates = []
    for eta in sorted(cfg.step_bracket, reverse=True):
        trial = replace(cfg, step_size=float(eta))
        state = _initial_state(series.grid)
        try:
            _outer_iteration(state, series, trial, params, factors, projectors, best_cost)
        except (DivergenceError, NonFiniteError):
            candidates.append({"step_size": trial.step_size, "cost": None,
                               "lower_bound": False, "diverged": True})
            continue
        cost = state.cost_history[0]
        candidates.append({"step_size": trial.step_size, "cost": cost,
                           "lower_bound": cost > best_cost, "diverged": False})
        if cost > best_cost:
            break
        best_cost, best = cost, (trial.step_size, state)
    if best is None:
        raise DivergenceError(f"every step size in {tuple(cfg.step_bracket)} diverges")
    step, state = best
    return step, state, {"step_size": step, "candidates": candidates,
                         "winner_at_end": step in (min(cfg.step_bracket), max(cfg.step_bracket))}


def reconstruct(
    series: TiltSeries,
    cfg: SolverConfig,
    params: InteractionParams | None = None,
    h: TransferFunction | None = None,
    report: dict | None = None,
) -> tuple[PotentialVolume, list[float]]:
    """Run the full reconstruction; returns the volume and cost history.

    The volume is a cube in x-z (nz = nx) so that y-axis rotations are
    well defined. Initial state: U = 0, V = 0, t = 1. The recorded cost
    per outer iteration is the amplitude cost accumulated during that
    sweep (predicted intensities from the then-current iterate). With no
    ``cfg.step_size`` the loop continues from the bracket winner's state.
    The run's fixed operators are built once, before the first sweep,
    and shared by the bracket candidates and every iteration: the
    multislice factors (:func:`~phasetomo.forward.multislice_factors`)
    and each tilt's projector (its rotation and binning as one matrix,
    :func:`~phasetomo.volume.projector`), a tuple in tilt order. A
    bracketed run puts the bracket's record (see
    :func:`bracket_step_size`) in ``report["step_bracket"]`` when a
    ``report`` dict is given; a fixed-step run adds nothing to it.
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
    factors = multislice_factors(h, cfg.n_b * grid.pitch, series.plan.defoci, cfg.anti_alias)
    projectors = tuple(projector(grid.nx, grid.nx, theta, cfg.n_b)
                       for theta in series.plan.tilt_angles)
    if cfg.step_size is None:
        cfg.step_size, state, bracket = bracket_step_size(series, cfg, params, factors,
                                                          projectors)
        if report is not None:
            report["step_bracket"] = bracket
    else:
        state = _initial_state(grid)
    while state.k < cfg.max_iter:
        _outer_iteration(state, series, cfg, params, factors, projectors)
    return state.v_curr, state.cost_history


def write_cost_history(history: list[float], path: str | Path) -> None:
    """CSV with header ``iteration,cost``, one row per outer iteration."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "cost"])
        for k, cost in enumerate(history, start=1):
            writer.writerow([k, repr(float(cost))])
