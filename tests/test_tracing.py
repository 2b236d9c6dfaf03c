"""Tracing: DoG detection, Gaussian fits, refinement loop, classification,
scoring, tetrahedra."""

import numpy as np
import pytest

from phasetomo import (
    AtomList,
    PotentialVolume,
    TracedAtoms,
    classify_species,
    dog_filter,
    find_candidates,
    find_tetrahedra,
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


# ---------------------------------------------------------------------------
# tetrahedra
# ---------------------------------------------------------------------------

def _tetrahedron_atoms(bond=1.6, extra=None):
    dirs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    center = np.array([8.0, 8.0, 8.0])
    positions = [center] + [center + bond * d for d in dirs]
    if extra is not None:
        positions.append(center + np.asarray(extra))
    return _truth(positions)


def test_tetrahedron_detected():
    atoms = _tetrahedron_atoms()
    clusters = find_tetrahedra(atoms, bond=1.6, tol=0.375)
    centers = [c for c, _ in clusters]
    assert 0 in centers
    cluster = dict(clusters)[0]
    assert cluster == (1, 2, 3, 4)


def test_isolated_atom_no_tetrahedron():
    atoms = _truth([[8.0, 8.0, 8.0], [14.0, 14.0, 14.0]])
    assert find_tetrahedra(atoms) == []


def test_out_of_range_corner_excluded():
    # 2.1 A > 1.6 + 0.375 = 1.975: the fifth neighbor never joins, and a
    # center with only three in-range corners is not emitted
    dirs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1]]) / np.sqrt(3)
    center = np.array([8.0, 8.0, 8.0])
    positions = [center] + [center + 1.6 * d for d in dirs]
    positions.append(center + np.array([0, 0, 2.1]))
    atoms = _truth(positions)
    clusters = find_tetrahedra(atoms, bond=1.6, tol=0.375)
    assert all(c != 0 for c, _ in clusters)
