"""End-to-end command-line pipeline: file outputs, manifests, idempotence."""

import json
import math

import numpy as np
import pytest

from phasetomo import cli, read_atoms_csv, read_tilt_series, read_volume
from phasetomo.cli import main
from phasetomo.tracing import read_sites_csv


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def phantom_dir(tmp_path):
    cfg = _write_config(tmp_path, "phantom.json", {
        "extent": 24,
        "lattice_const": 2.2,
        "shape": "cylinder",
        "radius": 3.0,
        "margin_voxels": 3.0,
    })
    out = tmp_path / "gt"
    assert main(["phantom", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
    return out


def test_phantom_outputs_roundtrip(phantom_dir):
    atoms = read_atoms_csv(phantom_dir / "atoms.csv")
    volume = read_volume(phantom_dir / "volume.raw")
    assert len(atoms) > 0
    assert volume.values.shape == (24, 24, 24)
    manifest = json.loads((phantom_dir / "run_manifest.json").read_text())
    assert manifest["command"] == "phantom"
    assert manifest["config"]["lattice_const"] == 2.2
    assert manifest["n_atoms"] == len(atoms)


def test_phantom_deterministic_bytes(tmp_path):
    cfg = _write_config(tmp_path, "p.json", {"extent": 16, "lattice_const": 2.0,
                                             "shell_thickness": 1.5})
    for name in ("a", "b"):
        assert main(["phantom", "--config", cfg, "--seed", "7",
                     "--out", str(tmp_path / name)]) == 0
    for f in ("atoms.csv", "volume.raw", "volume.json"):
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()


def test_phantom_vacancy_fraction_honored(tmp_path):
    base = _write_config(tmp_path, "b.json", {"extent": 24, "lattice_const": 2.0,
                                              "shape": "box", "margin_voxels": 2.0})
    assert main(["phantom", "--config", base, "--out", str(tmp_path / "full")]) == 0
    n_full = len(read_atoms_csv(tmp_path / "full" / "atoms.csv"))
    vac = _write_config(tmp_path, "v.json", {"extent": 24, "lattice_const": 2.0,
                                             "shape": "box", "margin_voxels": 2.0,
                                             "vacancy_fraction": 0.05})
    assert main(["phantom", "--config", vac, "--out", str(tmp_path / "vac")]) == 0
    n_vac = len(read_atoms_csv(tmp_path / "vac" / "atoms.csv"))
    assert n_full - n_vac == round(0.05 * n_full)


def test_unknown_config_key_rejected(tmp_path):
    cfg = _write_config(tmp_path, "bad.json", {"extent": 16, "latice_const": 2.0})
    assert main(["phantom", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_simulate_and_manifest(phantom_dir, tmp_path):
    cfg = _write_config(tmp_path, "sim.json", {
        "phantom_dir": str(phantom_dir),
        "n_tilts": 6,
        "defoci": [250.0, 1000.0],
        "total_dose": 2.0e4,
        "n_b": 4,
    })
    out = tmp_path / "series"
    assert main(["simulate", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    series = read_tilt_series(out)
    assert series.images.shape == (6, 2, 24, 24)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["rng_algorithm"] == "numpy-philox4x64"
    assert len(manifest["tilt_angles_deg"]) == 6
    assert len(list(out.glob("img_t*_f*.raw"))) == 12


def test_simulate_missing_wedge_span(phantom_dir, tmp_path):
    cfg = _write_config(tmp_path, "sim.json", {
        "phantom_dir": str(phantom_dir),
        "n_tilts": 8,
        "tilt_span_deg": 120.0,
        "defoci": [250.0],
        "total_dose": "infinite",
    })
    out = tmp_path / "wedge"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    series = read_tilt_series(out)
    assert math.isinf(series.plan.total_dose)
    assert max(abs(t) for t in series.plan.tilt_angles) < 60.0


def _small_series(phantom_dir, tmp_path, tag="series"):
    cfg = _write_config(tmp_path, f"sim_{tag}.json", {
        "phantom_dir": str(phantom_dir),
        "n_tilts": 6,
        "defoci": [250.0, 1000.0],
        "total_dose": "infinite",
        "n_b": 4,
    })
    out = tmp_path / tag
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    return out


def test_reconstruct_outputs(phantom_dir, tmp_path):
    series_dir = _small_series(phantom_dir, tmp_path)
    cfg = _write_config(tmp_path, "rec.json", {
        "step_size": 3e4,
        "reg_kind": "tv",
        "reg_weight": 1e-5,
        "n_b": 4,
        "max_iter": 4,
    })
    out = tmp_path / "recon"
    assert main(["reconstruct", "--config", cfg, "--series", str(series_dir),
                 "--out", str(out)]) == 0
    volume = read_volume(out / "reconstruction.raw")
    assert volume.values.shape == (24, 24, 24)
    assert np.min(volume.values) >= 0.0
    cost_lines = (out / "cost.csv").read_text().strip().splitlines()
    assert cost_lines[0] == "iteration,cost"
    assert len(cost_lines) == 1 + 4  # header + max_iter rows


def test_reconstruct_diverging_step_exits_3(phantom_dir, tmp_path):
    series_dir = _small_series(phantom_dir, tmp_path, "div")
    cfg = _write_config(tmp_path, "rec_div.json", {
        "step_size": 1e9, "reg_kind": "positivity", "n_b": 4, "max_iter": 4,
    })
    assert main(["reconstruct", "--config", cfg, "--series", str(series_dir),
                 "--out", str(tmp_path / "recdiv")]) == 3


def test_sweep_emits_one_volume_per_weight(phantom_dir, tmp_path, monkeypatch):
    series_dir = _small_series(phantom_dir, tmp_path, "sweep")
    reads = []

    def counting_read(path):
        reads.append(path)
        return read_tilt_series(path)

    monkeypatch.setattr(cli, "read_tilt_series", counting_read)
    cfg = _write_config(tmp_path, "sweep.json", {
        "step_size": 3e4,
        "reg_kind": "tv",
        "reg_weights": [0.0, 1e-5, 1e-4],
        "n_b": 4,
        "max_iter": 2,
    })
    out = tmp_path / "sweepout"
    assert main(["sweep", "--config", cfg, "--series", str(series_dir),
                 "--out", str(out)]) == 0
    volumes = sorted(out.glob("reconstruction_w*.raw"))
    assert len(volumes) == 3
    assert len(sorted(out.glob("cost_w*.csv"))) == 3
    assert len(reads) == 1  # the series is read once for all weights


def test_trace_and_evaluate_roundtrip(phantom_dir, tmp_path):
    out = tmp_path / "trace"
    assert main(["trace", "--volume", str(phantom_dir / "volume.raw"),
                 "--out", str(out)]) == 0
    traced_csv = out / "traced.csv"
    assert traced_csv.exists()
    traced = read_sites_csv(traced_csv, 0.5)
    n_truth = len(read_atoms_csv(phantom_dir / "atoms.csv"))
    assert len(traced) >= 0.9 * n_truth

    ev = tmp_path / "eval"
    assert main(["evaluate", "--traced", str(traced_csv),
                 "--truth", str(phantom_dir / "atoms.csv"),
                 "--volume", str(phantom_dir / "volume.raw"),
                 "--out", str(ev)]) == 0
    report = json.loads((ev / "report.json").read_text())
    assert report["atoms_found_pct"] >= 90.0
    assert (ev / "intensity_histogram.csv").exists()
    assert (ev / "position_error_histogram.csv").exists()
    for name in ("slice_x.pgm", "slice_y.pgm", "slice_z.pgm"):
        blob = (ev / name).read_bytes()
        assert blob.startswith(b"P5\n24 24\n255\n")
        assert len(blob) == len(b"P5\n24 24\n255\n") + 24 * 24


def test_evaluate_truth_against_itself_is_perfect(phantom_dir, tmp_path):
    ev = tmp_path / "selfeval"
    assert main(["evaluate", "--traced", str(phantom_dir / "atoms.csv"),
                 "--truth", str(phantom_dir / "atoms.csv"),
                 "--out", str(ev)]) == 0
    report = json.loads((ev / "report.json").read_text())
    assert report["atoms_found_pct"] == 100.0
    assert report["false_positives_pct"] == 0.0
    assert report["correct_species_pct"] == 100.0
    assert report["position_error_mean_pm"] == pytest.approx(0.0, abs=1e-6)


def test_missing_required_inputs_exit_2(tmp_path):
    assert main(["reconstruct", "--out", str(tmp_path / "x")]) == 2
    assert main(["trace", "--out", str(tmp_path / "y")]) == 2
    assert main(["simulate", "--out", str(tmp_path / "z")]) == 2


def test_pipeline_idempotent_bitwise(tmp_path):
    cfg_p = _write_config(tmp_path, "p.json", {"extent": 16, "lattice_const": 2.2,
                                               "shape": "sphere", "radius": 2.5})
    outputs = []
    for name in ("run1", "run2"):
        base = tmp_path / name
        assert main(["phantom", "--config", cfg_p, "--seed", "5",
                     "--out", str(base / "gt")]) == 0
        cfg_s = _write_config(tmp_path, f"s_{name}.json", {
            "phantom_dir": str(base / "gt"),
            "n_tilts": 4,
            "defoci": [250.0],
            "total_dose": 1e4,
            "n_b": 4,
        })
        assert main(["simulate", "--config", cfg_s, "--seed", "5",
                     "--out", str(base / "series")]) == 0
        cfg_r = _write_config(tmp_path, f"r_{name}.json", {
            "step_size": 3e4, "reg_kind": "tv", "reg_weight": 1e-5,
            "n_b": 4, "max_iter": 3,
        })
        assert main(["reconstruct", "--config", cfg_r, "--series", str(base / "series"),
                     "--out", str(base / "recon")]) == 0
        outputs.append(base)
    a, b = outputs
    for rel in ("gt/volume.raw", "gt/atoms.csv", "series/img_t0000_f00.raw",
                "recon/reconstruction.raw", "recon/cost.csv"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
