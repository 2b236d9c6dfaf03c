"""Atom tracing: peak detection, iterative Gaussian refinement, species
classification, scoring against a known atom list, and the traced-site
CSV format.

The pipeline mirrors established practice for atomic-resolution volumes:
difference-of-Gaussians filtering proposes candidate sites at local
maxima; each site is refined by nonlinear least squares on a 3D Gaussian
plus constant background; fitted peaks are subtracted and detection is
repeated so that overlapping atoms surface one by one. Weak (< 30 V
equivalent), small (< 1 voxel), or duplicate (< 2.25 voxel spacing)
sites are pruned between rounds.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

from .fields import _require_positive
from .phantom import ATOMS_CSV_HEADER, AtomList, read_csv_rows, write_sites_csv
from .volume import PotentialVolume

DETECTION_BORDER = 2  # voxels excluded from candidate detection
DOG_SIGMA_SMALL = 0.5      # voxels
DOG_SIGMA_LARGE = 1.0      # voxels
WIDTH_MAX_VOXELS = 3.0     # wider fits read as background, not atoms
MIN_REMOVED_STOP = 2
RMS_STOP_VOXELS = 0.005
CANDIDATE_MIN_RATIO = 0.5  # raw-value gate, fraction of the intensity floor


@dataclass
class TraceParams:
    """Thresholds of the refinement loop (defaults: standard values)."""

    intensity_floor_volts: float = 30.0
    width_floor_voxels: float = 1.0
    merge_radius_voxels: float = 2.25
    max_refine_iters: int = 12
    fit_window: int = 7                # odd edge of the cubic fit patch, voxels

    def __post_init__(self):
        _check_fit_window(self.fit_window, "fit_window")
        if self.max_refine_iters < 0:
            raise ValueError(f"max_refine_iters must be >= 0, got {self.max_refine_iters}")
        # NaN fails every comparison, so an unchecked one silently disables a gate
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.width_floor_voxels < 0:
            raise ValueError(f"width_floor_voxels must be >= 0, got {self.width_floor_voxels}")


def _check_fit_window(window: int, name: str) -> None:
    # a 3^3 patch (27 samples) is the smallest that centres on the site
    # and over-determines the 6 Gaussian parameters
    if window < 3 or window % 2 == 0:
        raise ValueError(f"{name} must be an odd integer >= 3, got {window}")


@dataclass
class FitResult:
    position: np.ndarray   # (z, y, x) in voxel coordinates
    intensity: float       # fitted peak height A
    width: float           # fitted sigma in voxels
    background: float
    residual: float        # norm of the fit residual
    converged: bool


@dataclass
class TracedAtoms:
    """Fitted atomic sites in a volume of the given pitch."""

    positions_voxels: np.ndarray   # (N, 3) as (z, y, x)
    intensity: np.ndarray
    width: np.ndarray              # voxels
    species: np.ndarray            # "light" | "heavy" | "unclassified"
    pitch: float

    def __post_init__(self):
        self.positions_voxels = np.asarray(self.positions_voxels, dtype=np.float64).reshape(-1, 3)
        n = len(self.positions_voxels)
        self.intensity = np.asarray(self.intensity, dtype=np.float64).reshape(n)
        self.width = np.asarray(self.width, dtype=np.float64).reshape(n)
        self.species = np.asarray(self.species, dtype=object).reshape(n)
        _require_positive(self.pitch, "pitch")

    def __len__(self) -> int:
        return len(self.positions_voxels)

    def positions_angstrom(self) -> np.ndarray:
        """(N, 3) as (x, y, z) in Angstrom; voxel i is centered at (i+0.5)*pitch."""
        zyx = (self.positions_voxels + 0.5) * self.pitch
        return zyx[:, ::-1].copy()

    @classmethod
    def empty(cls, pitch: float) -> "TracedAtoms":
        return cls(np.zeros((0, 3)), np.zeros(0), np.zeros(0),
                   np.zeros(0, dtype=object), pitch)


@dataclass
class TraceReport:
    """Tracing quality metrics against a reference atom list."""

    position_error_mean_pm: float
    position_error_rms_pm: float
    sigma_x_pm: float
    sigma_y_pm: float
    sigma_z_pm: float
    atoms_found_pct: float
    false_positives_pct: float
    correct_species_pct: float
    n_truth: int
    n_traced: int
    n_matched: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

def _wrapped_gaussian_kernel(shape: tuple[int, int, int], sigma: float) -> np.ndarray:
    """Unit-sum separable Gaussian centered at index (0,0,0), periodic."""
    axes = []
    for n in shape:
        r = np.arange(n, dtype=np.float64)
        r = np.minimum(r, n - r)
        g = np.exp(-(r * r) / (2.0 * sigma * sigma))
        axes.append(g / g.sum())
    return axes[0][:, None, None] * axes[1][None, :, None] * axes[2][None, None, :]


def dog_kernel(shape: tuple[int, int, int]) -> np.ndarray:
    """Zero-sum difference-of-Gaussians kernel on a periodic grid, with
    widths ``DOG_SIGMA_SMALL`` and ``DOG_SIGMA_LARGE``."""
    return (_wrapped_gaussian_kernel(shape, DOG_SIGMA_SMALL)
            - _wrapped_gaussian_kernel(shape, DOG_SIGMA_LARGE))


def dog_filter(v: PotentialVolume) -> PotentialVolume:
    """Convolve with the zero-sum DoG kernel (Fourier product, periodic).

    Wrap artifacts are confined to the border excluded by candidate
    detection.
    """
    values = np.real(v.values).astype(np.float64)
    kernel = dog_kernel(values.shape)
    axes = tuple(range(values.ndim))
    out = np.fft.irfftn(np.fft.rfftn(values) * np.fft.rfftn(kernel),
                        s=values.shape, axes=axes)
    return PotentialVolume(out, v.pitch)


def find_candidates(filtered: PotentialVolume) -> np.ndarray:
    """Strict 26-neighborhood local maxima, excluding a border of
    ``DETECTION_BORDER`` voxels.

    Plateau ties go to the lexicographically smallest (z, y, x) index.
    Returns an (N, 3) int array sorted by (z, y, x).
    """
    vals = np.real(filtered.values)
    nz, ny, nx = vals.shape
    b = DETECTION_BORDER
    if nz <= 2 * b or ny <= 2 * b or nx <= 2 * b:
        return np.zeros((0, 3), dtype=np.int64)
    core = vals[b:nz - b, b:ny - b, b:nx - b]
    ok = np.ones(core.shape, dtype=bool)
    for dz in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dz == dy == dx == 0:
                    continue
                nb = vals[b + dz:nz - b + dz, b + dy:ny - b + dy, b + dx:nx - b + dx]
                if (dz, dy, dx) > (0, 0, 0):
                    ok &= (core > nb) | (core == nb)
                else:
                    ok &= core > nb
    return np.argwhere(ok) + b


# ---------------------------------------------------------------------------
# Gaussian refinement
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _sample_grid(shape: tuple[int, int, int]) -> np.ndarray:
    """(3, n) flattened (z, y, x) voxel coordinates of a patch of ``shape``.

    Built once per window shape and shared by every fit on it, so it is
    read-only.
    """
    grid = np.indices(shape, dtype=np.float64).reshape(3, -1)
    grid.flags.writeable = False
    return grid


def _fit_patch(patch: np.ndarray, origin: np.ndarray, guess: np.ndarray | None,
               width_max: float | None = None) -> FitResult:
    """Least-squares Gaussian+background fit on an extracted patch.

    ``width_max`` caps the fitted sigma; constraining the fit to
    atom-scale widths keeps it anchored to the local peak even when
    unsubtracted neighbors shoulder into the window.
    """
    nz, ny, nx = patch.shape
    zz, yy, xx = _sample_grid(patch.shape)
    flat = patch.ravel()
    lo = max(float(flat.min()), 0.0)
    if guess is None:
        center = np.array([(nz - 1) / 2.0, (ny - 1) / 2.0, (nx - 1) / 2.0])
        guess = np.array([float(flat.max()) - lo, *center, 1.0, lo])

    # least_squares evaluates jac at the point of its last fun call, so the
    # model of the latest parameter vector serves both
    last_key, last_parts = None, None

    def model_parts(p):
        nonlocal last_key, last_parts
        key = p.tobytes()
        if key != last_key:
            a, z0, y0, x0, s, _ = p
            dz, dy, dx = zz - z0, yy - y0, xx - x0
            r2 = dz ** 2 + dy ** 2 + dx ** 2
            e = np.exp(-r2 / (2.0 * s * s))
            last_key, last_parts = key, (dz, dy, dx, r2, e, a * e)
        return last_parts

    def fun(p):
        return model_parts(p)[-1] + p[5] - flat

    def jac(p):
        dz, dy, dx, r2, e, ae = model_parts(p)
        s = p[4]
        inv_s2 = 1.0 / (s * s)
        j = np.empty((flat.size, 6))
        j[:, 0] = e
        j[:, 1] = ae * dz * inv_s2
        j[:, 2] = ae * dy * inv_s2
        j[:, 3] = ae * dx * inv_s2
        j[:, 4] = ae * r2 / s**3
        j[:, 5] = 1.0
        return j

    # bound every parameter to the patch scale. The potential (and hence
    # any local background) is non-negative; without b >= 0 the fit has a
    # degenerate direction (A up, b down) when sigma reaches window scale.
    span = float(max(nz, ny, nx))
    s_hi = span if width_max is None else min(span, width_max)
    ptp = max(float(flat.max() - flat.min()), 1e-12)
    b_hi = max(float(flat.max()), 1e-9)
    lower = [0.0, -1.0, -1.0, -1.0, 0.2, 0.0]
    upper = [4.0 * ptp, nz, ny, nx, s_hi, b_hi]
    guess = np.clip(guess, lower, upper)
    result = least_squares(fun, guess, jac=jac, bounds=(lower, upper), max_nfev=100)
    a, z0, y0, x0, s, b0 = result.x
    return FitResult(
        position=np.array([z0, y0, x0]) + origin,
        intensity=float(a),
        width=float(s),
        background=float(b0),
        residual=float(np.linalg.norm(result.fun)),
        converged=bool(result.status > 0),
    )


def _fit_box(site, half: int) -> tuple[np.ndarray, tuple[slice, slice, slice]]:
    """First voxel and index of the (2*half + 1)^3 fit cube centred on ``site``."""
    lo = np.asarray(site, dtype=np.int64) - half
    return lo, tuple(slice(a, a + 2 * half + 1) for a in lo)


def fit_gaussian_3d(v: PotentialVolume | np.ndarray, site, window: int = 7,
                    width_max: float | None = None) -> FitResult:
    """Fit A*exp(-|x-mu|^2 / 2 s^2) + b on a window centered at ``site``.

    ``site`` is an integer (z, y, x) voxel index and the window must lie
    fully inside the volume. Non-convergence within the evaluation budget
    is reported via ``converged`` so callers can drop the site.
    ``window`` is the patch edge: an odd integer >= 3.
    """
    _check_fit_window(window, "window")
    values = np.real(v.values) if isinstance(v, PotentialVolume) else np.real(np.asarray(v))
    lo, box = _fit_box(site, window // 2)
    if np.any(lo < 0) or np.any(lo + window > np.array(values.shape)):
        raise ValueError("fit window extends outside the volume")
    return _fit_patch(values[box].astype(np.float64), lo, None, width_max=width_max)


def _render_sites(shape: tuple[int, int, int], fits: list[FitResult],
                  start=(0, 0, 0)) -> np.ndarray:
    """Sum of the fitted Gaussian peaks (no backgrounds), 4-sigma windows,
    on the box of edge lengths ``shape`` whose first voxel is the volume
    index ``start`` (default: the whole volume). Coordinates are absolute
    voxel indices, so each value is the same float as in a full render.
    """
    out = np.zeros(shape)
    for f in fits:
        reach = 4.0 * f.width
        lo = np.maximum(np.floor(f.position - reach).astype(int), start)
        hi = np.minimum(np.ceil(f.position + reach).astype(int) + 1, np.add(start, shape))
        if np.any(lo >= hi):
            continue
        zz, yy, xx = np.meshgrid(
            np.arange(lo[0], hi[0], dtype=np.float64),
            np.arange(lo[1], hi[1], dtype=np.float64),
            np.arange(lo[2], hi[2], dtype=np.float64),
            indexing="ij",
        )
        r2 = ((zz - f.position[0]) ** 2 + (yy - f.position[1]) ** 2
              + (xx - f.position[2]) ** 2)
        box = tuple(slice(a, b) for a, b in zip(lo - start, hi - start))
        out[box] += f.intensity * np.exp(-r2 / (2.0 * f.width**2))
    return out


def _merge_close_sites(fits: list[FitResult], radius: float) -> tuple[list[FitResult], int]:
    """Drop the weaker of any pair closer than ``radius``, to fixpoint."""
    fits = list(fits)
    merged = 0
    while len(fits) > 1:
        pos = np.array([f.position for f in fits])
        delta = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt(np.sum(delta * delta, axis=2))
        np.fill_diagonal(dist, np.inf)
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        if dist[i, j] >= radius:
            break
        drop = i if fits[i].intensity < fits[j].intensity else j
        if fits[i].intensity == fits[j].intensity:
            drop = max(i, j, key=lambda k: tuple(fits[k].position))
        fits.pop(drop)
        merged += 1
    return fits, merged


def _site_sort_key(f: FitResult):
    return tuple(f.position)


def trace_atoms(v: PotentialVolume, params: TraceParams | None = None) -> TracedAtoms:
    """Iterative detect / fit / subtract / re-detect loop.

    Each round renders all sites once as ``model`` and refits each site
    on its fit window ``box`` to ``values[box] - (model[box] - own)``,
    ``own`` being the site rendered on that box alone: the same floats as
    a full-volume subtraction, since rendering uses absolute coordinates.

    Stops when fewer than ``MIN_REMOVED_STOP`` sites were removed in a
    round and the RMS position change is below ``RMS_STOP_VOXELS``, or
    after ``max_refine_iters`` rounds. An empty volume yields an empty
    result rather than an error.
    """
    params = params or TraceParams()
    values = np.real(v.values).astype(np.float64)
    floor = params.intensity_floor_volts * v.pitch
    width_floor = params.width_floor_voxels
    margin = params.fit_window // 2
    shape = values.shape

    def fit_ok(f: FitResult) -> bool:
        return (f.converged and f.intensity >= floor
                and width_floor <= f.width <= WIDTH_MAX_VOXELS)

    # Detection fits by (site, window bytes). Away from the fitted peaks a
    # residual volume equals the input bit for bit, so each round re-detects
    # the same rejected candidates on the same windows; the fit is a pure
    # function of its window, and a repeat reuses the earlier result.
    detection_fits: dict[tuple, FitResult] = {}

    def detect_and_fit(source: np.ndarray, existing: list[FitResult]) -> list[FitResult]:
        filtered = dog_filter(PotentialVolume(source, v.pitch))
        cands = find_candidates(filtered)
        results = []
        existing_pos = np.array([f.position for f in existing]) if existing else None
        for site in cands:
            if np.any(site < margin) or np.any(site + margin >= shape):
                continue
            if source[tuple(site)] < CANDIDATE_MIN_RATIO * floor:
                continue
            if existing_pos is not None and len(existing_pos):
                d = np.sqrt(np.sum((existing_pos - site) ** 2, axis=1))
                if d.min() < params.merge_radius_voxels:
                    continue
            key = (tuple(site), source[_fit_box(site, margin)[1]].tobytes())
            fit = detection_fits.get(key)
            if fit is None:
                fit = detection_fits[key] = fit_gaussian_3d(
                    source, site, params.fit_window, width_max=WIDTH_MAX_VOXELS)
            if fit_ok(fit):
                results.append(fit)
        return results

    sites = detect_and_fit(values, [])
    sites, _ = _merge_close_sites(sites, params.merge_radius_voxels)
    sites.sort(key=_site_sort_key)

    for _ in range(params.max_refine_iters):
        removed = 0
        moves: list[float] = []
        model = _render_sites(shape, sites)
        refined: list[FitResult] = []
        for f in sites:
            site = np.round(f.position).astype(np.int64)
            site = np.clip(site, margin, np.array(shape) - margin - 1)
            lo, box = _fit_box(site, margin)
            own = _render_sites((params.fit_window,) * 3, [f], lo)
            patch = values[box] - (model[box] - own)
            guess = np.array([f.intensity, *(f.position - lo), f.width, f.background])
            new = _fit_patch(patch, lo, guess, width_max=WIDTH_MAX_VOXELS)
            if fit_ok(new):
                moves.append(float(np.linalg.norm(new.position - f.position)))
                refined.append(new)
            else:
                removed += 1
        refined, n_merged = _merge_close_sites(refined, params.merge_radius_voxels)
        removed += n_merged
        refined.sort(key=_site_sort_key)

        residual_volume = values - _render_sites(shape, refined)
        added = detect_and_fit(residual_volume, refined)
        sites = refined + added
        sites, n_merged = _merge_close_sites(sites, params.merge_radius_voxels)
        removed += n_merged
        sites.sort(key=_site_sort_key)

        rms_move = float(np.sqrt(np.mean(np.square(moves)))) if moves else 0.0
        if removed < MIN_REMOVED_STOP and rms_move < RMS_STOP_VOXELS:
            break

    if not sites:
        return TracedAtoms.empty(v.pitch)
    return TracedAtoms(
        positions_voxels=np.array([f.position for f in sites]),
        intensity=np.array([f.intensity for f in sites]),
        width=np.array([f.width for f in sites]),
        species=np.full(len(sites), "unclassified", dtype=object),
        pitch=v.pitch,
    )


# ---------------------------------------------------------------------------
# species classification
# ---------------------------------------------------------------------------

def _two_means_split(x: np.ndarray) -> tuple[float, float]:
    """1D Lloyd iteration from the extremes, at most 100 steps; returns
    the two centers."""
    c1, c2 = float(x.min()), float(x.max())
    for _ in range(100):
        thr = (c1 + c2) / 2.0
        low, high = x[x <= thr], x[x > thr]
        if len(low) == 0 or len(high) == 0:
            break
        n1, n2 = float(low.mean()), float(high.mean())
        if n1 == c1 and n2 == c2:
            break
        c1, c2 = n1, n2
    return c1, c2


def classify_species(traced: TracedAtoms) -> TracedAtoms:
    """Split sites into light/heavy at the crossing of a two-Gaussian
    fit to the intensity histogram.

    If the fitted modes are closer than one pooled sigma the histogram is
    considered unimodal: everything stays unclassified and a warning is
    emitted.
    """
    n = len(traced)
    out = TracedAtoms(traced.positions_voxels.copy(), traced.intensity.copy(),
                      traced.width.copy(), traced.species.copy(), traced.pitch)
    if n < 4 or np.ptp(traced.intensity) == 0.0:
        warnings.warn("intensity histogram is degenerate; sites left unclassified")
        out.species[:] = "unclassified"
        return out

    nbins = max(16, math.ceil(math.sqrt(n)))
    counts, edges = np.histogram(traced.intensity, bins=nbins)
    centers = 0.5 * (edges[:-1] + edges[1:])

    c1, c2 = _two_means_split(traced.intensity)
    low = traced.intensity[traced.intensity <= (c1 + c2) / 2.0]
    high = traced.intensity[traced.intensity > (c1 + c2) / 2.0]
    bin_width = edges[1] - edges[0]
    sigma_guess = max(bin_width, 1e-12)
    p0 = np.array([
        max(counts.max(), 1.0), c1, max(float(np.std(low)), sigma_guess),
        max(counts.max(), 1.0), c2, max(float(np.std(high)), sigma_guess),
    ])

    def model(p, x):
        a1, m1, s1, a2, m2, s2 = p
        return (a1 * np.exp(-((x - m1) ** 2) / (2 * s1 * s1))
                + a2 * np.exp(-((x - m2) ** 2) / (2 * s2 * s2)))

    span = float(edges[-1] - edges[0])
    # a mode narrower than a histogram bin is not resolvable: bound sigma
    # below by half a bin so degenerate spikes read as overlapping modes
    lower = [0.0, edges[0] - span, 0.5 * bin_width] * 2
    upper = [np.inf, edges[-1] + span, span * 10] * 2
    fit = least_squares(lambda p: model(p, centers) - counts, np.clip(p0, lower, upper),
                        bounds=(lower, upper), max_nfev=2000)
    a1, m1, s1, a2, m2, s2 = fit.x
    if m1 > m2:
        a1, m1, s1, a2, m2, s2 = a2, m2, s2, a1, m1, s1

    pooled = math.sqrt((s1 * s1 + s2 * s2) / 2.0)
    if (m2 - m1) < pooled:
        warnings.warn("intensity histogram looks unimodal; sites left unclassified")
        out.species[:] = "unclassified"
        return out

    xs = np.linspace(m1, m2, 1024)
    g1 = a1 * np.exp(-((xs - m1) ** 2) / (2 * s1 * s1))
    g2 = a2 * np.exp(-((xs - m2) ** 2) / (2 * s2 * s2))
    sign_change = np.nonzero(np.diff(np.signbit(g1 - g2)))[0]
    threshold = float(xs[sign_change[0] + 1]) if len(sign_change) else (m1 + m2) / 2.0

    out.species[:] = np.where(out.intensity < threshold, "light", "heavy")
    return out


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def _match_pairs(traced_xyz: np.ndarray, truth_xyz: np.ndarray, radius: float,
                 method: str) -> list[tuple[int, int, float]]:
    _require_positive(radius, "match_radius")
    if method not in ("greedy", "optimal"):
        raise ValueError(f"matching method must be 'greedy' or 'optimal', got {method!r}")
    if len(traced_xyz) == 0 or len(truth_xyz) == 0:
        return []
    delta = traced_xyz[:, None, :] - truth_xyz[None, :, :]
    dist = np.sqrt(np.sum(delta * delta, axis=2))
    if method == "optimal":
        from scipy.optimize import linear_sum_assignment

        big = radius * 1e6
        cost = np.where(dist <= radius, dist, big)
        rows, cols = linear_sum_assignment(cost)
        return [(int(i), int(j), float(dist[i, j]))
                for i, j in zip(rows, cols) if dist[i, j] <= radius]
    order = np.argsort(dist, axis=None)
    used_traced: set[int] = set()
    used_truth: set[int] = set()
    pairs = []
    for flat in order:
        i, j = np.unravel_index(flat, dist.shape)
        if dist[i, j] > radius:
            break
        if i in used_traced or j in used_truth:
            continue
        used_traced.add(int(i))
        used_truth.add(int(j))
        pairs.append((int(i), int(j), float(dist[i, j])))
    return pairs


def score(traced: TracedAtoms, truth: AtomList, match_radius: float = 1.0,
          method: str = "greedy") -> TraceReport:
    """Match traced sites to reference atoms and compute quality metrics.

    Greedy nearest-neighbor matching within ``match_radius`` (each truth
    atom used at most once); ``method="optimal"`` switches to an
    assignment solve for sensitivity checks. Position errors are reported
    in picometers.
    """
    if len(truth) == 0:
        raise ValueError("reference atom list is empty")
    traced_xyz = traced.positions_angstrom()
    truth_xyz = truth.positions
    pairs = _match_pairs(traced_xyz, truth_xyz, match_radius, method)

    if pairs:
        errors = np.array([d for _, _, d in pairs])
        deltas = np.array([traced_xyz[i] - truth_xyz[j] for i, j, _ in pairs])
        per_axis_rms = np.sqrt(np.mean(deltas * deltas, axis=0))
        species_hits = [traced.species[i] == truth.species[j] for i, j, _ in pairs]
        correct_species = 100.0 * float(np.mean(species_hits))
        mean_err = float(errors.mean())
        rms_err = float(np.sqrt(np.mean(errors * errors)))
    else:
        per_axis_rms = np.zeros(3)
        correct_species = 0.0
        mean_err = 0.0
        rms_err = 0.0

    n_matched = len(pairs)
    return TraceReport(
        position_error_mean_pm=100.0 * mean_err,
        position_error_rms_pm=100.0 * rms_err,
        sigma_x_pm=100.0 * float(per_axis_rms[0]),
        sigma_y_pm=100.0 * float(per_axis_rms[1]),
        sigma_z_pm=100.0 * float(per_axis_rms[2]),
        atoms_found_pct=100.0 * n_matched / len(truth),
        false_positives_pct=100.0 * (len(traced) - n_matched) / len(truth),
        correct_species_pct=correct_species,
        n_truth=len(truth),
        n_traced=len(traced),
        n_matched=n_matched,
    )


# ---------------------------------------------------------------------------
# I/O
# ---------------------------------------------------------------------------

TRACED_CSV_HEADER = ["x_A", "y_A", "z_A", "species", "intensity", "width"]


def write_traced_csv(traced: TracedAtoms, path: str | Path) -> None:
    """CSV of traced sites; positions in Angstrom, width in voxels."""
    write_sites_csv(path, TRACED_CSV_HEADER, traced.positions_angstrom(), traced.species,
                    traced.intensity, traced.width)


def read_sites_csv(path: str | Path, pitch: float) -> TracedAtoms:
    """Read traced sites; also accepts ground-truth atom CSVs (their
    ``amplitude`` column is taken as the intensity)."""
    rows = read_csv_rows(Path(path), [TRACED_CSV_HEADER, ATOMS_CSV_HEADER], "site")
    if not rows:
        return TracedAtoms.empty(pitch)
    xyz = np.array([[float(r[0]), float(r[1]), float(r[2])] for r in rows])
    species = np.array([r[3] for r in rows], dtype=object)
    intensity = np.array([float(r[4]) for r in rows])
    width = np.array([float(r[5]) for r in rows])
    zyx_voxels = xyz[:, ::-1] / pitch - 0.5
    return TracedAtoms(zyx_voxels, intensity, width, species, pitch)
