"""Tracing: DoG detection, Gaussian fits, refinement loop, classification,
scoring."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import least_squares

from phasetomo import (
    AtomList,
    PotentialVolume,
    TracedAtoms,
    classify_species,
    dog_filter,
    find_candidates,
    fit_gaussian_3d,
    render_potential,
    score,
    trace_atoms,
)
from phasetomo import tracing
from phasetomo.tracing import dog_kernel


def _blob_volume(n=16, center=(8.0, 8.0, 8.0), sigma_voxels=1.0, amp=1.0):
    zz, yy, xx = np.meshgrid(*([np.arange(n, dtype=float)] * 3), indexing="ij")
    r2 = (zz - center[0]) ** 2 + (yy - center[1]) ** 2 + (xx - center[2]) ** 2
    return PotentialVolume(amp * np.exp(-r2 / (2 * sigma_voxels**2)), 0.5)


# ---------------------------------------------------------------------------
# DoG filter
# ---------------------------------------------------------------------------

def test_dog_kernel_zero_sum():
    kernel = dog_kernel((16, 16, 16))
    assert abs(kernel.sum()) < 1e-12


def test_dog_constant_volume_zero_response():
    v = PotentialVolume(np.full((12, 12, 12), 4.2), 0.5)
    out = dog_filter(v)
    assert np.max(np.abs(out.values)) < 1e-12


def test_dog_blob_positive_center_and_matches_direct_convolution():
    v = _blob_volume(16, sigma_voxels=1.0)
    out = dog_filter(v).values
    assert out[8, 8, 8] > 0.0
    # direct periodic convolution oracle: sum_k kernel[k] * roll(v, k)
    kernel = dog_kernel((16, 16, 16))
    direct = np.zeros_like(v.values)
    for dz in range(16):
        for dy in range(16):
            for dx in range(16):
                k = kernel[dz, dy, dx]
                if abs(k) > 1e-18:
                    direct += k * np.roll(v.values, (dz, dy, dx), axis=(0, 1, 2))
    assert np.allclose(out, direct, atol=1e-12)


# ---------------------------------------------------------------------------
# candidate detection
# ---------------------------------------------------------------------------

def test_find_candidates_single_blob():
    v = _blob_volume(16, center=(7.0, 8.0, 9.0))
    cands = find_candidates(v)
    assert cands.shape == (1, 3)
    assert tuple(cands[0]) == (7, 8, 9)


def test_find_candidates_two_blobs():
    v1 = _blob_volume(20, center=(6.0, 10.0, 10.0))
    v2 = _blob_volume(20, center=(12.0, 10.0, 10.0))
    v = PotentialVolume(v1.values + v2.values, 0.5)
    cands = find_candidates(v)
    assert len(cands) == 2
    assert {tuple(c) for c in cands} == {(6, 10, 10), (12, 10, 10)}


def test_find_candidates_monotone_ramp_empty():
    zz = np.arange(12, dtype=float)[:, None, None]
    v = PotentialVolume(np.broadcast_to(zz, (12, 12, 12)).copy(), 0.5)
    assert len(find_candidates(v)) == 0


def test_find_candidates_excludes_border():
    vals = np.zeros((12, 12, 12))
    vals[1, 6, 6] = 5.0  # inside the 2-voxel exclusion border
    assert len(find_candidates(PotentialVolume(vals, 0.5))) == 0


def test_find_candidates_plateau_tie_break():
    vals = np.zeros((12, 12, 12))
    vals[5, 5, 5] = vals[5, 5, 6] = 1.0  # two-voxel plateau
    cands = find_candidates(PotentialVolume(vals, 0.5))
    assert len(cands) == 1
    assert tuple(cands[0]) == (5, 5, 5)  # lowest (z, y, x) wins


# ---------------------------------------------------------------------------
# Gaussian fitting
# ---------------------------------------------------------------------------

def test_fit_recovers_subvoxel_position():
    center = (8.3, 7.8, 8.1)  # offsets (0.3, -0.2, 0.1)
    v = _blob_volume(17, center=center, sigma_voxels=1.2, amp=3.0)
    fit = fit_gaussian_3d(v, (8, 8, 8), window=7)
    assert fit.converged
    assert np.max(np.abs(fit.position - np.array(center))) < 0.02
    assert fit.intensity == pytest.approx(3.0, rel=0.01)
    assert fit.width == pytest.approx(1.2, rel=0.02)


def test_fit_flat_window_rejected():
    v = PotentialVolume(np.full((9, 9, 9), 2.0), 0.5)
    fit = fit_gaussian_3d(v, (4, 4, 4), window=7)
    assert fit.intensity < 1e-6  # A ~ 0: below any floor


def test_fit_translation_equivariant():
    base = (7.3, 7.8, 8.1)
    fits = []
    for shift in (0, 1):
        v = _blob_volume(18, center=(base[0] + shift, base[1], base[2]), sigma_voxels=1.1)
        fits.append(fit_gaussian_3d(v, (7 + shift, 8, 8), window=7))
    delta = fits[1].position - fits[0].position
    assert delta[0] == pytest.approx(1.0, abs=0.02)
    assert abs(delta[1]) < 0.02 and abs(delta[2]) < 0.02


def test_fit_window_must_be_inside():
    v = _blob_volume(10)
    with pytest.raises(ValueError, match="window"):
        fit_gaussian_3d(v, (1, 5, 5), window=7)


@pytest.mark.parametrize("window", [-1, 0, 1, 6])
def test_fit_window_must_be_odd_and_at_least_3(window):
    # an even window used to fit the next odd patch, and 0 or 1 a single
    # voxel with fewer samples than the 6 fit parameters
    v = _blob_volume(10)
    with pytest.raises(ValueError, match="window must be an odd integer >= 3"):
        fit_gaussian_3d(v, (8, 8, 8), window=window)


def _fit_patch_oracle(patch: np.ndarray, origin: np.ndarray, guess: np.ndarray | None,
                      width_max: float | None = None) -> tracing.FitResult:
    """The fit as it was before the model parts were shared between
    ``fun`` and ``jac``: a verbatim copy, kept as the byte oracle."""
    nz, ny, nx = patch.shape
    zz, yy, xx = np.meshgrid(
        np.arange(nz, dtype=np.float64),
        np.arange(ny, dtype=np.float64),
        np.arange(nx, dtype=np.float64),
        indexing="ij",
    )
    flat = patch.ravel()
    lo = max(float(flat.min()), 0.0)
    if guess is None:
        center = np.array([(nz - 1) / 2.0, (ny - 1) / 2.0, (nx - 1) / 2.0])
        guess = np.array([float(flat.max()) - lo, *center, 1.0, lo])

    def model_and_parts(p):
        a, z0, y0, x0, s, b0 = p
        r2 = (zz - z0) ** 2 + (yy - y0) ** 2 + (xx - x0) ** 2
        e = np.exp(-r2 / (2.0 * s * s))
        return a, s, e, r2, b0

    def fun(p):
        a, s, e, _, b0 = model_and_parts(p)
        return (a * e + b0 - patch).ravel()

    def jac(p):
        a, s, e, r2, _ = model_and_parts(p)
        z0, y0, x0 = p[1], p[2], p[3]
        inv_s2 = 1.0 / (s * s)
        cols = [
            e.ravel(),
            (a * e * (zz - z0) * inv_s2).ravel(),
            (a * e * (yy - y0) * inv_s2).ravel(),
            (a * e * (xx - x0) * inv_s2).ravel(),
            (a * e * r2 / s**3).ravel(),
            np.ones(flat.size),
        ]
        return np.stack(cols, axis=1)

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
    return tracing.FitResult(
        position=np.array([z0, y0, x0]) + origin,
        intensity=float(a),
        width=float(s),
        background=float(b0),
        residual=float(np.linalg.norm(result.fun)),
        converged=bool(result.status > 0),
    )


def _fit_bytes(fit):
    return (fit.position.tobytes(),
            *(np.float64(x).tobytes() for x in (fit.intensity, fit.width, fit.background,
                                                fit.residual)),
            fit.converged)


def _oracle_patch(kind, window, seed=0):
    """A fit patch and guess of the given kind; peaks are noisy Gaussians."""
    if kind == "flat":
        return np.full((window,) * 3, 2.0), None
    c = (window - 1) / 2.0
    center = {"centred": (c + 0.3, c - 0.2, c + 0.1),
              "centred_guess": (c - 0.4, c + 0.25, c),
              "off_centre": (-0.6, window - 0.5, 0.4)}[kind]
    grid = np.indices((window,) * 3, dtype=np.float64)
    r2 = sum((g - x) ** 2 for g, x in zip(grid, center))
    rng = np.random.default_rng(seed + window)
    patch = 40.0 * np.exp(-r2 / (2 * 1.1**2)) + 3.0 + rng.normal(0.0, 2.0, r2.shape)
    guess = (np.array([35.0, *(np.array(center) + 0.3), 1.3, 2.0])
             if kind != "centred" else None)
    return patch, guess


@pytest.mark.parametrize("window", [5, 7])
@pytest.mark.parametrize("width_max", [None, 3.0])
@pytest.mark.parametrize("kind", ["centred", "centred_guess", "off_centre", "flat"])
def test_fit_patch_is_byte_identical_to_the_unshared_model_fit(kind, width_max, window):
    patch, guess = _oracle_patch(kind, window)
    origin = np.array([3, 4, 5])
    new = tracing._fit_patch(patch, origin, guess, width_max=width_max)
    old = _fit_patch_oracle(patch, origin, guess, width_max=width_max)
    assert _fit_bytes(new) == _fit_bytes(old)


def test_fit_sample_grid_is_read_only_and_shared_per_window_shape():
    grid = tracing._sample_grid((7, 7, 7))
    assert grid.shape == (3, 343)
    assert tracing._sample_grid((7, 7, 7)) is grid
    assert not grid.flags.writeable and not grid[0].flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        grid[0, 0] = 1.0
    np.testing.assert_array_equal(grid.reshape(3, 7, 7, 7),
                                  np.indices((7, 7, 7), dtype=np.float64))


def test_fit_on_7_cube_is_unchanged_by_a_5_cube_fit_in_between():
    patch7, guess7 = _oracle_patch("centred_guess", 7, seed=11)
    patch5, _ = _oracle_patch("centred", 5, seed=11)
    origin = np.zeros(3)
    before = _fit_bytes(tracing._fit_patch(patch7, origin, guess7, width_max=3.0))
    tracing._fit_patch(patch5, origin, None, width_max=3.0)
    after = _fit_bytes(tracing._fit_patch(patch7, origin, guess7, width_max=3.0))
    assert before == after
    assert before == _fit_bytes(_fit_patch_oracle(patch7, origin, guess7, width_max=3.0))


_FLOAT_THRESHOLDS = [f.name for f in dataclasses.fields(tracing.TraceParams)
                     if f.type == "float"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", _FLOAT_THRESHOLDS)
def test_trace_params_reject_a_non_finite_threshold(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        tracing.TraceParams(**{name: value})


@pytest.mark.parametrize("width_floor, ok", [(-0.5, False), (0.0, True), (1.0, True)])
def test_trace_params_reject_a_negative_width_floor(width_floor, ok):
    if ok:
        assert tracing.TraceParams(width_floor_voxels=width_floor).width_floor_voxels == width_floor
    else:
        with pytest.raises(ValueError, match="width_floor_voxels must be >= 0"):
            tracing.TraceParams(width_floor_voxels=width_floor)


def _site(position, intensity, width):
    return tracing.FitResult(np.array(position), intensity, width, 0.0, 0.0, True)


def test_render_sites_on_a_box_matches_the_full_render():
    shape = (20, 18, 16)
    fits = [
        _site([6.3, 7.8, 5.1], 40.0, 1.1),     # 4-sigma reach crosses every edge of box 1
        _site([16.2, 2.4, 13.7], 25.0, 0.8),   # wholly outside box 1
        _site([0.4, 17.6, 0.9], 60.0, 1.3),    # reach clipped by the volume's edges
        _site([8.7, 9.2, 6.6], 33.0, 1.0),     # overlaps the first site
    ]
    full = tracing._render_sites(shape, fits)
    boxes = [
        ((3, 5, 2), (7, 7, 7)),
        ((13, 11, 9), (7, 7, 7)),              # ends on the volume's far faces
        ((0, 12, 0), (5, 6, 4)),               # starts on the volume's near faces
        ((0, 0, 0), shape),
    ]
    for start, box_shape in boxes:
        part = tracing._render_sites(box_shape, fits, start)
        index = tuple(slice(a, a + n) for a, n in zip(start, box_shape))
        assert part.shape == box_shape
        assert part.any()
        assert part.tobytes() == full[index].tobytes()
    outside = tracing._render_sites((7, 7, 7), [fits[1]], (3, 5, 2))
    assert not outside.any()


# ---------------------------------------------------------------------------
# trace loop
# ---------------------------------------------------------------------------

def _render_atoms(positions, n=20, amp=150.0, width=0.55):
    atoms = AtomList(
        np.asarray(positions, dtype=float),
        np.full(len(positions), "heavy", dtype=object),
        np.full(len(positions), amp),
        np.full(len(positions), width),
    )
    return atoms, render_potential(atoms, (n, n, n), 0.5)


def test_trace_empty_volume():
    v = PotentialVolume(np.zeros((16, 16, 16)), 0.5)
    traced = trace_atoms(v)
    assert len(traced) == 0


def test_trace_single_atom_noiseless():
    atoms, v = _render_atoms([[5.1, 4.9, 5.05]])
    traced = trace_atoms(v)
    assert len(traced) == 1
    err = np.linalg.norm(traced.positions_angstrom()[0] - atoms.positions[0])
    assert err < 0.05 * 0.5  # 0.05 voxels


def test_trace_two_close_atoms_merged():
    # 1 voxel apart: inside the 2.25-voxel merge radius
    _, v = _render_atoms([[5.0, 5.0, 5.0], [5.5, 5.0, 5.0]])
    traced = trace_atoms(v)
    assert len(traced) == 1


def test_trace_separated_atoms_found_and_merge_invariant():
    positions = [[4.0, 4.0, 4.0], [7.0, 4.5, 4.0], [4.5, 7.0, 6.5], [7.0, 7.0, 7.0]]
    atoms, v = _render_atoms(positions)
    traced = trace_atoms(v)
    assert len(traced) == 4
    report = score(traced, atoms, match_radius=1.0)
    assert report.atoms_found_pct == 100.0
    assert report.position_error_mean_pm < 10.0
    # merge invariant holds as a postcondition
    pos = traced.positions_voxels
    delta = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt(np.sum(delta**2, axis=2))
    np.fill_diagonal(dist, np.inf)
    assert np.min(dist) >= 2.25


def test_trace_prunes_weak_sites():
    # one real atom and one far below the 30 V floor (15 V*A at 0.5 pitch)
    atoms = AtomList(
        np.array([[4.0, 4.0, 4.0], [7.5, 7.5, 7.5]]),
        np.array(["heavy", "light"], dtype=object),
        np.array([150.0, 5.0]),
        np.array([0.55, 0.55]),
    )
    v = render_potential(atoms, (20, 20, 20), 0.5)
    traced = trace_atoms(v)
    assert len(traced) == 1


def test_trace_fits_each_detection_window_once(monkeypatch):
    # A one-voxel spike, far from the atom's rendered peak, is a candidate
    # that every detection pass rejects (too narrow) on an unchanged window.
    _, v = _render_atoms([[3.0, 3.0, 3.0]])
    values = v.values.copy()
    values[15, 15, 15] = 100.0
    windows = []

    def recording_fit(source, site, window=7, width_max=None):
        lo = np.asarray(site) - window // 2
        patch = source[lo[0]:lo[0] + window, lo[1]:lo[1] + window, lo[2]:lo[2] + window]
        windows.append((tuple(site), patch.tobytes()))
        return fit_gaussian_3d(source, site, window, width_max=width_max)

    monkeypatch.setattr(tracing, "fit_gaussian_3d", recording_fit)
    traced = trace_atoms(PotentialVolume(values, 0.5))
    assert len(traced) == 1
    assert (15, 15, 15) in [site for site, _ in windows]
    assert len(windows) == len(set(windows))


@pytest.mark.parametrize("n_atoms", [1, 4])
def test_trace_renders_two_volumes_per_round(monkeypatch, n_atoms):
    # the model and the detection residual; each site is refined on its
    # fit window, not on a volume-sized render of its own
    positions = [[4.0, 4.0, 4.0], [7.0, 4.5, 4.0], [4.5, 7.0, 6.5], [7.0, 7.0, 7.0]]
    _, v = _render_atoms(positions[:n_atoms])
    shapes = []
    render = tracing._render_sites

    def recording_render(shape, fits, *args):
        shapes.append(tuple(shape))
        return render(shape, fits, *args)

    monkeypatch.setattr(tracing, "_render_sites", recording_render)
    traced = trace_atoms(v, tracing.TraceParams(max_refine_iters=1))
    assert len(traced) == n_atoms
    assert shapes.count(v.values.shape) == 2
    assert shapes.count((7, 7, 7)) == n_atoms
    assert len(shapes) == 2 + n_atoms


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _synthetic_traced(intensities, pitch=0.5):
    n = len(intensities)
    rng = np.random.default_rng(0)
    positions = rng.uniform(5, 45, (n, 3))
    return TracedAtoms(positions, np.asarray(intensities), np.full(n, 1.2),
                       np.full(n, "unclassified", dtype=object), pitch)


def test_classify_well_separated_bimodal():
    rng = np.random.default_rng(1)
    light = rng.normal(75.0, 0.05 * 75.0, 200)
    heavy = rng.normal(150.0, 0.05 * 150.0, 200)
    traced = _synthetic_traced(np.concatenate([light, heavy]))
    out = classify_species(traced)
    correct = (np.sum(out.species[:200] == "light")
               + np.sum(out.species[200:] == "heavy"))
    assert correct >= 0.98 * 400
    # the implied threshold separates the two fitted modes
    light_max = out.intensity[out.species == "light"].max()
    heavy_min = out.intensity[out.species == "heavy"].min()
    assert 75.0 < (light_max + heavy_min) / 2 < 150.0


def test_classify_identical_intensities_unclassified():
    traced = _synthetic_traced(np.full(50, 100.0))
    with pytest.warns(UserWarning):
        out = classify_species(traced)
    assert np.all(out.species == "unclassified")


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def _truth(positions, species=None):
    n = len(positions)
    species = species or ["heavy"] * n
    return AtomList(np.asarray(positions, dtype=float),
                    np.asarray(species, dtype=object),
                    np.full(n, 150.0), np.full(n, 0.55))


def _traced_from(truth, pitch=0.5, species=None):
    zyx = truth.positions[:, ::-1] / pitch - 0.5
    species = np.asarray(species, dtype=object) if species is not None \
        else truth.species.copy()
    return TracedAtoms(zyx, truth.amplitude.copy(), np.full(len(truth), 1.2),
                       species, pitch)


def test_score_perfect_match():
    truth = _truth([[3.0, 4.0, 5.0], [8.0, 8.0, 8.0]], ["heavy", "light"])
    traced = _traced_from(truth)
    report = score(traced, truth)
    assert report.position_error_mean_pm == pytest.approx(0.0, abs=1e-9)
    assert report.atoms_found_pct == 100.0
    assert report.false_positives_pct == 0.0
    assert report.correct_species_pct == 100.0


def test_score_displaced_atom_counts_miss_and_false_positive():
    truth = _truth([[5.0, 5.0, 5.0]])
    displaced = _truth([[5.0 + 3 * 0.5, 5.0 + 4 * 0.5, 5.0]])
    traced = _traced_from(displaced)
    # Euclidean position error would be 2.5 A, beyond the 1.0 A radius
    assert np.linalg.norm(displaced.positions[0] - truth.positions[0]) == pytest.approx(2.5)
    report = score(traced, truth, match_radius=1.0)
    assert report.n_matched == 0
    assert report.atoms_found_pct == 0.0
    assert report.false_positives_pct == 100.0


def test_score_translation_invariant():
    rng = np.random.default_rng(3)
    pos = rng.uniform(4, 12, (10, 3))
    truth = _truth(pos)
    jitter = rng.normal(0, 0.05, (10, 3))
    traced = _traced_from(_truth(pos + jitter))
    r1 = score(traced, truth)
    shift = np.array([1.25, -0.75, 2.0])
    truth2 = _truth(pos + shift)
    traced2 = _traced_from(_truth(pos + jitter + shift))
    r2 = score(traced2, truth2)
    assert r1.position_error_mean_pm == pytest.approx(r2.position_error_mean_pm, rel=1e-9)
    assert r1.n_matched == r2.n_matched


def test_score_symmetric_match_count():
    rng = np.random.default_rng(4)
    a = rng.uniform(4, 12, (8, 3))
    b = a + rng.normal(0, 0.1, (8, 3))
    count_ab = score(_traced_from(_truth(a)), _truth(b)).n_matched
    count_ba = score(_traced_from(_truth(b)), _truth(a)).n_matched
    assert count_ab == count_ba


def test_score_optimal_matching_mode():
    truth = _truth([[5.0, 5.0, 5.0], [5.6, 5.0, 5.0]])
    traced = _traced_from(_truth([[5.25, 5.0, 5.0], [5.65, 5.0, 5.0]]))
    greedy = score(traced, truth, match_radius=1.0, method="greedy")
    optimal = score(traced, truth, match_radius=1.0, method="optimal")
    assert greedy.n_matched == optimal.n_matched == 2
    assert optimal.position_error_mean_pm <= greedy.position_error_mean_pm + 1e-9


def test_score_empty_truth_errors():
    traced = _traced_from(_truth([[5.0, 5.0, 5.0]]))
    with pytest.raises(ValueError, match="empty"):
        score(traced, AtomList.empty())
