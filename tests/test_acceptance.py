"""Acceptance suite: one test (and one printed pass line) per criterion.

Criterion 7 and 8 run desk-scale reconstructions; the whole module takes
a few minutes. Run with ``pytest tests/test_acceptance.py -v``.
"""

import json
import time
import warnings

import numpy as np
import pytest

import phasetomo as pt
from phasetomo import (
    AcquisitionPlan,
    BinnedVolume,
    GridSpec,
    PotentialVolume,
    SolverConfig,
    TraceParams,
    TransferFunction,
    apply_poisson,
    backpropagate,
    bin_adjoint,
    bin_slices,
    classify_species,
    electron_wavelength,
    interaction_parameter,
    max_slab_thickness,
    multislice_factors,
    multislice_forward,
    prox_lasso,
    prox_positivity,
    prox_tv,
    reconstruct,
    residual,
    rotate,
    rotate_adjoint,
    score,
    simulate_tilt_series,
    trace_atoms,
    uniform_tilt_angles,
)
from phasetomo.fields import propagation_kernel
from phasetomo.solver import total_variation
from phasetomo.tracing import _match_pairs
from phasetomo.volume import from_rows, projector, to_rows

PARAMS = interaction_parameter(300.0)

# desk-scale operating point (criterion 7; the phantom is artifact-defined)
DESK = {
    "extent": 48,
    "pitch": 0.5,
    "lattice_const": 2.2,
    "radius": 5.0,
    "margin_voxels": 4.0,
    "blob_width": 0.65,
    "amplitudes": {"heavy": 200.0, "light": 100.0},  # 2:1 ratio
    "n_tilts": 30,
    "span": 180.0,
    "defoci": (250.0, 1000.0),
    "dose": 5e4,
    "n_b": 4,
    "step_size": 3e3,
    "reg_weight": 3e-3,
    "max_iter": 40,
    "seed": 12345,
}


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# desk-scale fixtures shared by criteria 7 and 8
# ---------------------------------------------------------------------------

def _desk_phantom(vacancy_fraction=0.0):
    g = pt.make_crystal(
        DESK["extent"], DESK["pitch"], DESK["lattice_const"],
        species_pattern="alternating", shape="cylinder", radius=DESK["radius"],
        margin_voxels=DESK["margin_voxels"], width=DESK["blob_width"],
        amplitudes=DESK["amplitudes"],
    )
    if vacancy_fraction:
        g = pt.inject_vacancies(g, vacancy_fraction, seed=DESK["seed"] + 1)
    return g


def _desk_series(g, dose=None, span=None, seed=None):
    plan = AcquisitionPlan(
        tuple(uniform_tilt_angles(DESK["n_tilts"], span or DESK["span"])),
        DESK["defoci"], dose or DESK["dose"], seed or DESK["seed"],
    )
    return simulate_tilt_series(g.volume, plan, PARAMS, DESK["n_b"])


def _desk_reconstruct(series, reg_kind="tv", reg_weight=None):
    cfg = SolverConfig(
        step_size=DESK["step_size"], reg_kind=reg_kind,
        reg_weight=DESK["reg_weight"] if reg_weight is None else reg_weight,
        n_b=DESK["n_b"], max_iter=DESK["max_iter"],
    )
    return reconstruct(series, cfg, PARAMS)


def _trace_and_score(volume, g):
    traced = trace_atoms(volume, TraceParams())
    if len(traced) >= 4:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            traced = classify_species(traced)
    return traced, score(traced, g.atoms, match_radius=1.0)


@pytest.fixture(scope="module")
def desk_run():
    g = _desk_phantom()
    series = _desk_series(g)
    t0 = time.time()
    volume, history = _desk_reconstruct(series)
    traced, report = _trace_and_score(volume, g)
    return {
        "g": g, "series": series, "volume": volume, "history": history,
        "traced": traced, "report": report, "runtime": time.time() - t0,
    }


# ---------------------------------------------------------------------------
# criterion 1: adjoint suite
# ---------------------------------------------------------------------------

def test_criterion_1_adjoint_suite():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0

    def check(lhs, rhs, nx_, ny_):
        nonlocal worst
        bound = 1e-9 * nx_ * ny_
        worst = max(worst, abs(lhs - rhs) / (nx_ * ny_))
        assert abs(lhs - rhs) <= bound

    # rotation, 5 random angles, 20 random input pairs each
    for theta in rng.uniform(-180.0, 180.0, 5):
        for _ in range(20):
            x = rng.normal(size=(12, 12, 12))
            y = rng.normal(size=(12, 12, 12))
            lhs = np.vdot(y, rotate(PotentialVolume(x, 0.5), theta).values)
            rhs = np.vdot(rotate_adjoint(PotentialVolume(y, 0.5), theta).values, x)
            check(lhs, rhs, np.linalg.norm(x), np.linalg.norm(y))

    # slice binning, N_B in {1, 2, 10}
    for n_b in (1, 2, 10):
        n_slabs = -(-20 // n_b)
        for _ in range(20):
            x = rng.normal(size=(20, 6, 6))
            y = rng.normal(size=(n_slabs, 6, 6))
            lhs = np.vdot(y, bin_slices(PotentialVolume(x, 0.5), n_b).values)
            rhs = np.vdot(bin_adjoint(BinnedVolume(y, 0.5, n_b), n_b, 20).values, x)
            check(lhs, rhs, np.linalg.norm(x), np.linalg.norm(y))

    # the projector of one tilt (rotation and binning as one matrix) and its
    # transpose, on the row layout, N_B in {1, 2, 10}
    for n_b in (1, 2, 10):
        n_slabs = -(-20 // n_b)
        for theta in rng.uniform(-180.0, 180.0, 2):
            matrix = projector(20, 20, theta, n_b)
            for _ in range(10):
                x = rng.normal(size=(20, 6, 20))
                y = rng.normal(size=(n_slabs, 6, 20))
                lhs = np.vdot(y, from_rows(matrix @ to_rows(x), 20))
                rhs = np.vdot(from_rows(matrix.T @ to_rows(y), 20), x)
                check(lhs, rhs, np.linalg.norm(x), np.linalg.norm(y))

    # the multislice factors with a random |H| <= 1: the adjoint of each
    # spectral multiplication (slab propagation, defocus and transfer
    # function) is multiplication by its conjugate
    grid = GridSpec(16, 16, 0.5, PARAMS.wavelength)

    def apply(factor, f):
        return np.fft.ifft2(factor * np.fft.fft2(f, norm="ortho"), norm="ortho")

    for _ in range(20):
        h = TransferFunction(grid, rng.uniform(0, 1, (16, 16))
                             * np.exp(1j * rng.uniform(0, 2 * np.pi, (16, 16))))
        factors = multislice_factors(h, rng.uniform(0.1, 10.0),
                                     tuple(rng.uniform(1.0, 1e4, 2)))
        for factor in (factors.slab_factor, *factors.exit_factors):
            x = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
            y = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
            lhs = np.vdot(y, apply(factor, x))
            rhs = np.vdot(apply(np.conj(factor), y), x)
            check(lhs, rhs, np.linalg.norm(x), np.linalg.norm(y))

    elapsed = time.time() - t0
    _report("criterion 1: adjoint suite",
            elapsed < 10.0, f"worst {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: propagator physics
# ---------------------------------------------------------------------------

def test_criterion_2_propagator_physics():
    assert electron_wavelength(300.0) == pytest.approx(0.0197, rel=2e-3)
    rng = np.random.default_rng(102)
    grid = GridSpec(64, 64, 0.5, 0.0197)
    worst_energy = worst_group = 0.0

    def propagate(f, dz):
        kernel = propagation_kernel(grid, dz)
        return np.fft.ifft2(kernel * np.fft.fft2(f, norm="ortho"), norm="ortho")

    for dz_a, dz_b in ((1e4, -3333.25), (-1e4, 777.5), (42.0, 58.0)):
        f = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        power = np.sum(np.abs(f) ** 2)
        for dz in (dz_a, dz_b, dz_a + dz_b):
            out = propagate(f, dz)
            worst_energy = max(worst_energy, abs(np.sum(np.abs(out) ** 2) - power) / power)
        lhs = propagate(propagate(f, dz_a), dz_b)
        rhs = propagate(f, dz_a + dz_b)
        worst_group = max(worst_group, np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
    ok = worst_energy <= 1e-9 and worst_group <= 1e-9
    _report("criterion 2: propagator unitarity and group property", ok,
            f"energy {worst_energy:.2e}, group {worst_group:.2e}")


# ---------------------------------------------------------------------------
# criterion 3: gradient correctness (the build's gate)
# ---------------------------------------------------------------------------

def test_criterion_3_gradient_against_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(103)
    grid = GridSpec(8, 8, 0.5, PARAMS.wavelength)
    h = TransferFunction.identity(grid)
    defoci = (250.0, 1000.0)
    w_true = rng.normal(0.0, 0.1 / PARAMS.sigma, (4, 8, 8))
    w_meas = w_true + rng.normal(0.0, 0.02 / PARAMS.sigma, w_true.shape)
    factors = multislice_factors(h, 0.5, defoci)
    exit_meas, _ = multislice_forward(BinnedVolume(w_meas, 0.5, 1), PARAMS, factors)
    measured_amp = [np.abs(e) for e in exit_meas]

    def cost_of(w_vals):
        exit_waves, inter = multislice_forward(BinnedVolume(w_vals, 0.5, 1),
                                               PARAMS, factors)
        c = sum(float(np.sum((measured_amp[j] - np.abs(e)) ** 2))
                for j, e in enumerate(exit_waves))
        return c, exit_waves, inter

    c0, exit_waves, inter = cost_of(w_true)
    res = [residual(e, measured_amp[j]) for j, e in enumerate(exit_waves)]
    g = np.stack(backpropagate(res, inter, BinnedVolume(w_true, 0.5, 1), PARAMS,
                               factors))

    # central differences at 20 random voxels; d(e^2)/dV = 2*Re(g)
    step = 1e-4 * np.max(np.abs(w_true))
    worst = 0.0
    for _ in range(20):
        m, i, j = (rng.integers(s) for s in w_true.shape)
        wp = w_true.copy(); wp[m, i, j] += step
        wm = w_true.copy(); wm[m, i, j] -= step
        fd = (cost_of(wp)[0] - cost_of(wm)[0]) / (2 * step)
        worst = max(worst, abs(fd - 2 * np.real(g[m, i, j])) / max(abs(fd), 1e-30))
    assert worst < 1e-4

    # directional-derivative order over h in {1e-2 .. 1e-5}
    direction = rng.normal(size=w_true.shape)
    inner = 2.0 * np.sum(np.real(g) * direction)
    steps = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    errs = np.array([abs(cost_of(w_true + s * direction)[0] - c0 - s * inner)
                     for s in steps])
    order = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    elapsed = time.time() - t0
    ok = worst < 1e-4 and order >= 1.9 and elapsed < 60.0
    _report("criterion 3: gradient vs finite differences", ok,
            f"fd rel {worst:.2e}, order {order:.2f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: prox oracles
# ---------------------------------------------------------------------------

def test_criterion_4_prox_oracles():
    rng = np.random.default_rng(104)

    # soft-threshold vs brute-force scan (extended precision for the scan)
    threshold = 1.1
    values = rng.normal(0.0, 3.0, 27)
    got = prox_lasso(PotentialVolume(values.reshape(3, 3, 3), 0.5), threshold).values.ravel()
    worst_scan = 0.0
    for value, out in zip(values, got):
        v_ld, t_ld = np.longdouble(value), np.longdouble(threshold)
        lo, hi = np.longdouble(0.0), np.longdouble(abs(value) + 1.0)
        for _ in range(4):
            xs = np.linspace(lo, hi, 2001, dtype=np.longdouble)
            obj = 0.5 * (xs - v_ld) ** 2 + t_ld * xs
            best = xs[np.argmin(obj)]
            span = (hi - lo) / 2000
            lo, hi = max(np.longdouble(0.0), best - 2 * span), best + 2 * span
        worst_scan = max(worst_scan, abs(out - float(best)))
    assert worst_scan < 1e-8

    # TV prox objective certificate against 100 random feasible perturbations
    base = rng.uniform(0.0, 1.0, (10, 10, 10))
    base[3:6, 3:6, 3:6] += 2.0
    weight = 0.3
    x_star = prox_tv(PotentialVolume(base, 0.5), weight, inner_iters=20).values

    def objective(x):
        return 0.5 * np.sum((x - base) ** 2) + weight * total_variation(x)

    obj_star = objective(x_star)
    certificate = obj_star <= objective(base) + 1e-9
    scale = 0.1 * np.linalg.norm(x_star)
    for _ in range(100):
        delta = rng.normal(size=base.shape)
        delta *= rng.uniform(0.0, scale) / np.linalg.norm(delta)
        certificate &= obj_star <= objective(np.maximum(x_star + delta, 0.0)) + 1e-9
    assert certificate

    # positivity idempotence
    v = PotentialVolume(rng.normal(size=(6, 6, 6)), 0.5)
    once = prox_positivity(v)
    idempotent = np.array_equal(prox_positivity(once).values, once.values)
    ok = worst_scan < 1e-8 and certificate and idempotent
    _report("criterion 4: prox oracles", ok, f"scan dev {worst_scan:.2e}")


# ---------------------------------------------------------------------------
# criterion 5: Poisson model
# ---------------------------------------------------------------------------

def test_criterion_5_poisson_model():
    ideal = np.ones((1000, 1000))
    counts = apply_poisson(ideal, 40.0, 0.5, seed=105)  # rate 10 per pixel
    again = apply_poisson(ideal, 40.0, 0.5, seed=105)
    mean_dev = abs(counts.mean() - 10.0) / 10.0
    var_dev = abs(counts.var() - 10.0) / 10.0
    ok = mean_dev < 0.01 and var_dev < 0.01 and np.array_equal(counts, again)
    _report("criterion 5: Poisson statistics and reproducibility", ok,
            f"mean dev {mean_dev:.3%}, var dev {var_dev:.3%}")


# ---------------------------------------------------------------------------
# criterion 6: binning identities and thickness bound
# ---------------------------------------------------------------------------

def test_criterion_6_binning_identities_and_bound():
    rng = np.random.default_rng(106)
    v = PotentialVolume(rng.normal(size=(20, 5, 5)), 0.5)
    identity_ok = np.array_equal(bin_slices(v, 1).values, v.values)

    slabs = BinnedVolume(rng.normal(size=(4, 5, 5)), 0.5, 10)
    back = bin_slices(bin_adjoint(slabs, 10, 40), 10)
    scaling_ok = np.array_equal(back.values, 10 * slabs.values)

    # Appendix-B-style bound at lambda = 0.0197 A, pitch = 0.5 A.
    # Independent evaluation of lambda/(1-sqrt(1-NA^2)), NA = lambda/pitch,
    # gives 25.39 A (the spec sheet's "~644 A" equals 1/NA^2, an arithmetic
    # slip; see the project notes). N_B = 10 -> 5 A slabs stay legal.
    bound = max_slab_thickness(electron_wavelength(300.0), 0.5)
    bound_ok = bound == pytest.approx(25.39, abs=0.01) and 10 * 0.5 < bound
    ok = identity_ok and scaling_ok and bound_ok
    _report("criterion 6: binning identities and slab-thickness bound", ok,
            f"bound {bound:.2f} A vs 5 A slabs")


# ---------------------------------------------------------------------------
# criterion 7: end-to-end desk reconstruction
# ---------------------------------------------------------------------------

def test_criterion_7_desk_reconstruction(desk_run):
    history = desk_run["history"]
    report = desk_run["report"]
    cost_ratio = history[-1] / history[0]
    checks = {
        "iterations <= 40": len(history) <= 40,
        "cost ratio < 0.2": cost_ratio < 0.2,
        "atoms found >= 90%": report.atoms_found_pct >= 90.0,
        "false positives <= 10%": report.false_positives_pct <= 10.0,
        "mean error <= 0.25 A": report.position_error_mean_pm <= 250.0,
        "species >= 85%": report.correct_species_pct >= 85.0,
        "runtime < 30 min": desk_run["runtime"] < 1800.0,
    }
    detail = (f"ratio {cost_ratio:.3f}, found {report.atoms_found_pct:.1f}%, "
              f"fp {report.false_positives_pct:.1f}%, "
              f"err {report.position_error_mean_pm:.0f} pm, "
              f"species {report.correct_species_pct:.1f}%, "
              f"{desk_run['runtime']:.0f}s")
    _report("criterion 7: desk-scale reconstruction", all(checks.values()),
            detail + "".join(f"; FAILED {k}" for k, v in checks.items() if not v))


# ---------------------------------------------------------------------------
# criterion 8: qualitative trend reproduction
# ---------------------------------------------------------------------------

def test_criterion_8a_dose_drop_worsens_all_metrics(desk_run):
    g = desk_run["g"]
    series_low = _desk_series(g, dose=7e3)
    volume, _ = _desk_reconstruct(series_low)
    _, low = _trace_and_score(volume, g)
    high = desk_run["report"]
    checks = {
        "position error increases": low.position_error_mean_pm > high.position_error_mean_pm,
        "atoms found decreases": low.atoms_found_pct < high.atoms_found_pct,
        "false positives increase": low.false_positives_pct > high.false_positives_pct,
        "species accuracy decreases": low.correct_species_pct < high.correct_species_pct,
    }
    detail = (f"err {high.position_error_mean_pm:.0f}->{low.position_error_mean_pm:.0f} pm, "
              f"found {high.atoms_found_pct:.1f}->{low.atoms_found_pct:.1f}%, "
              f"fp {high.false_positives_pct:.1f}->{low.false_positives_pct:.1f}%, "
              f"species {high.correct_species_pct:.1f}->{low.correct_species_pct:.1f}%")
    _report("criterion 8a: 50k -> 7k e/A^2 strictly worsens all four metrics",
            all(checks.values()),
            detail + "".join(f"; FAILED {k}" for k, v in checks.items() if not v))


def test_criterion_8b_missing_wedge_inflates_axial_error(desk_run):
    g = desk_run["g"]
    series_wedge = _desk_series(g, span=120.0)
    volume, _ = _desk_reconstruct(series_wedge)
    _, wedge = _trace_and_score(volume, g)
    full = desk_run["report"]

    def axial_ratio(rep):
        lateral = 0.5 * (rep.sigma_x_pm + rep.sigma_y_pm)
        return rep.sigma_z_pm / lateral

    ok = axial_ratio(wedge) > axial_ratio(full)
    _report("criterion 8b: 60-degree missing wedge inflates z RMS vs x/y", ok,
            f"sigma_z/lateral {axial_ratio(full):.2f} -> {axial_ratio(wedge):.2f}")


def test_criterion_8c_regularizer_ranking(desk_run):
    g, series = desk_run["g"], desk_run["series"]
    reports = {"tv": desk_run["report"]}
    for kind in ("lasso", "positivity"):
        weight = DESK["reg_weight"] if kind == "lasso" else 0.0
        volume, _ = _desk_reconstruct(series, reg_kind=kind, reg_weight=weight)
        _, reports[kind] = _trace_and_score(volume, g)
    accuracy = {kind: rep.correct_species_pct for kind, rep in reports.items()}
    ok = accuracy["tv"] >= accuracy["lasso"] >= accuracy["positivity"]
    # species accuracy saturates at this dose; false positives still tell
    # the regularisers apart, so the detail shows them
    _report("criterion 8c: species accuracy TV >= Lasso >= positivity-only", ok,
            ", ".join(f"{kind} {accuracy[kind]:.1f}% (fp {rep.false_positives_pct:.1f}%)"
                      for kind, rep in reports.items()))


def test_criterion_8d_vacancy_sites_stay_empty():
    g_vac = _desk_phantom(vacancy_fraction=0.05)
    vacancy_sites = np.array(g_vac.metadata["vacancy_sites"])
    series = _desk_series(g_vac)
    volume, _ = _desk_reconstruct(series)
    traced, rep = _trace_and_score(volume, g_vac)
    pairs = _match_pairs(traced.positions_angstrom(), vacancy_sites, 1.0, "greedy")
    empty = len(vacancy_sites) - len(pairs)
    frac = empty / len(vacancy_sites)
    ok = frac >= 0.9 and rep.atoms_found_pct >= 85.0
    _report("criterion 8d: >= 90% of 5% vacancy sites have no traced atom", ok,
            f"{empty}/{len(vacancy_sites)} empty, found {rep.atoms_found_pct:.1f}%")


# ---------------------------------------------------------------------------
# criterion 9: whole-pipeline determinism
# ---------------------------------------------------------------------------

def test_criterion_9_pipeline_bit_determinism(tmp_path):
    from phasetomo.cli import main

    cfg_phantom = tmp_path / "p.json"
    cfg_phantom.write_text(json.dumps({
        "extent": 20, "lattice_const": 2.2, "shape": "cylinder", "radius": 2.5,
        "margin_voxels": 3.0,
    }))
    cfg_sim = {}
    cfg_rec = tmp_path / "r.json"
    cfg_rec.write_text(json.dumps({
        "step_size": 3e3, "reg_kind": "tv", "reg_weight": 3e-3,
        "n_b": 4, "max_iter": 3,
    }))
    for run in ("one", "two"):
        base = tmp_path / run
        assert main(["phantom", "--config", str(cfg_phantom), "--seed", "9",
                     "--out", str(base / "gt")]) == 0
        cfg_s = tmp_path / f"s_{run}.json"
        cfg_s.write_text(json.dumps({
            "phantom_dir": str(base / "gt"), "n_tilts": 4, "defoci": [250.0, 1000.0],
            "total_dose": 2e4, "n_b": 4,
        }))
        assert main(["simulate", "--config", str(cfg_s), "--seed", "9",
                     "--out", str(base / "series")]) == 0
        assert main(["reconstruct", "--config", str(cfg_rec),
                     "--series", str(base / "series"), "--out", str(base / "recon")]) == 0
        assert main(["trace", "--volume", str(base / "recon" / "reconstruction.raw"),
                     "--out", str(base / "trace")]) == 0
        assert main(["evaluate", "--traced", str(base / "trace" / "traced.csv"),
                     "--truth", str(base / "gt" / "atoms.csv"),
                     "--volume", str(base / "recon" / "reconstruction.raw"),
                     "--out", str(base / "eval")]) == 0
    identical = True
    files = ["gt/volume.raw", "gt/atoms.csv", "series/img_t0000_f00.raw",
             "series/img_t0003_f01.raw", "recon/reconstruction.raw", "recon/cost.csv",
             "trace/traced.csv", "eval/report.json", "eval/slice_z.pgm"]
    for rel in files:
        a = (tmp_path / "one" / rel).read_bytes()
        b = (tmp_path / "two" / rel).read_bytes()
        identical &= a == b
        assert a == b, rel
    _report("criterion 9: pipeline bit-identical across reruns", identical,
            f"{len(files)} artifacts compared")
