"""End-to-end command-line pipeline: file outputs, manifests, idempotence."""

import json
import math
from functools import partial

import numpy as np
import pytest

from phasetomo import (
    PotentialVolume,
    cli,
    read_atoms_csv,
    read_tilt_series,
    read_volume,
    write_volume,
)
from phasetomo.cli import main
from phasetomo.tracing import TRACED_CSV_HEADER, read_sites_csv


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


@pytest.mark.parametrize("key, value, message", [
    ("width", math.nan, "width must be finite and positive, got nan"),
    ("width", -0.5, "width must be finite and positive, got -0.5"),
    ("width", 0.0, "width must be finite and positive, got 0.0"),
    ("radius", math.nan, "radius must be finite and positive, got nan"),
    ("margin_voxels", math.nan, "margin_voxels must be finite and non-negative, got nan"),
    ("margin_voxels", -1.0, "margin_voxels must be finite and non-negative, got -1.0"),
    ("d_min", math.nan, "d_min must be finite and positive, got nan"),
    ("shell_thickness", math.nan, "shell_thickness must be finite and non-negative, got nan"),
    ("bond_length", math.nan, "bond_length must be finite and positive, got nan"),
    ("lattice_const", math.nan, "lattice_const must be finite and positive, got nan"),
    ("pitch", math.nan, "pitch must be finite and positive, got nan"),
    ("pitch", math.inf, "pitch must be finite and positive, got inf"),
], ids=["width-NaN", "width--0.5", "width-0", "radius-NaN", "margin_voxels-NaN",
        "margin_voxels--1", "d_min-NaN", "shell_thickness-NaN", "bond_length-NaN",
        "lattice_const-NaN", "pitch-NaN", "pitch-Infinity"])
def test_phantom_rejects_an_impossible_size_before_making_the_output_directory(
        tmp_path, capsys, key, value, message):
    # each used to exit 0 with an empty, zero or unchecked phantom, or to
    # exit 2 naming no key, one leaving a lone atoms.csv in --out
    cfg = _write_config(tmp_path, "bad.json", {"extent": 16, "lattice_const": 2.0,
                                               key: value})
    out = tmp_path / "out"
    assert main(["phantom", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_rejected(tmp_path):
    cfg = _write_config(tmp_path, "bad.json", {"extent": 16, "latice_const": 2.0})
    assert main(["phantom", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("payload, message", [
    ([], "trace.json: expected a JSON object"),
    ({"classify": "no"}, '''config key 'classify' must be true or false, got "no"'''),
], ids=["not-an-object", "classify-no"])
def test_trace_rejects_a_config_not_an_object_or_a_non_boolean_classify(
        phantom_dir, tmp_path, capsys, payload, message):
    # [] used to end in an AttributeError traceback; "no" classified anyway
    cfg = _write_config(tmp_path, "trace.json", payload)
    out = tmp_path / "trace"
    assert main(["trace", "--config", cfg, "--volume", str(phantom_dir / "volume.raw"),
                 "--out", str(out)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


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


def test_simulate_rejects_non_finite_volume(phantom_dir, tmp_path):
    v = read_volume(phantom_dir / "volume.raw")
    v.values[0, 0, 0] = np.nan  # a corner voxel that rotation drops at most tilts
    write_volume(v, tmp_path / "nan.raw")
    cfg = _write_config(tmp_path, "sim.json", {
        "volume": str(tmp_path / "nan.raw"),
        "n_tilts": 4,
        "defoci": [250.0],
        "total_dose": "infinite",
    })
    out = tmp_path / "series"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    assert not list(out.glob("img_t*_f*.raw"))


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


def test_reconstruct_rejects_non_finite_series_image(phantom_dir, tmp_path):
    series_dir = _small_series(phantom_dir, tmp_path, "nan")
    image = series_dir / "img_t0002_f01.raw"
    pixels = np.frombuffer(image.read_bytes(), dtype="<f4").copy()
    pixels[17] = np.nan  # NaN < 0 is False: the sign check alone lets it through
    image.write_bytes(pixels.tobytes())
    cfg = _write_config(tmp_path, "rec_nan.json", {"reg_kind": "tv", "reg_weight": 1e-3,
                                                   "n_b": 4, "max_iter": 2})
    out = tmp_path / "recnan"
    assert main(["reconstruct", "--config", cfg, "--series", str(series_dir),
                 "--out", str(out)]) == cli.EXIT_CONFIG
    assert not (out / "reconstruction.raw").exists()


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


@pytest.mark.parametrize("fit_window", [-1, 0, 1, 6])
def test_trace_rejects_fit_window_not_odd_and_at_least_3(tmp_path, capsys, fit_window):
    write_volume(PotentialVolume(np.zeros((12, 12, 12)), 0.5), tmp_path / "v.raw")
    cfg = _write_config(tmp_path, "trace.json", {"fit_window": fit_window})
    out = tmp_path / "trace"
    assert main(["trace", "--config", cfg, "--volume", str(tmp_path / "v.raw"),
                 "--out", str(out)]) == cli.EXIT_CONFIG
    assert "fit_window" in capsys.readouterr().err
    assert not (out / "traced.csv").exists()


def test_reconstruct_rejects_zero_tv_inner_iters(phantom_dir, tmp_path, capsys):
    series_dir = _small_series(phantom_dir, tmp_path, "tv0")
    cfg = _write_config(tmp_path, "rec_tv0.json", {
        "step_size": 3e4, "reg_kind": "tv", "reg_weight": 1e-5, "n_b": 4,
        "max_iter": 1, "tv_inner_iters": 0,
    })
    out = tmp_path / "rectv0"
    assert main(["reconstruct", "--config", cfg, "--series", str(series_dir),
                 "--out", str(out)]) == cli.EXIT_CONFIG
    assert "tv_inner_iters" in capsys.readouterr().err
    assert not (out / "reconstruction.raw").exists()


@pytest.mark.parametrize("payload, field", [
    ({"step_size": math.nan}, "step size"),
    ({"step_size": math.inf}, "step size"),
    ({"reg_kind": "lasso", "reg_weight": math.nan}, "reg_weight"),
    ({"reg_kind": "lasso", "reg_weight": math.inf}, "reg_weight"),
], ids=["step_size-nan", "step_size-inf", "reg_weight-nan", "reg_weight-inf"])
def test_reconstruct_rejects_non_finite_step_size_and_reg_weight(phantom_dir, tmp_path,
                                                                 capsys, payload, field):
    # NaN fails every comparison, so a sign check alone lets it through;
    # json reads both NaN and Infinity
    series_dir = _small_series(phantom_dir, tmp_path, "nonfinite")
    cfg = _write_config(tmp_path, "rec_nonfinite.json", dict(payload, n_b=4, max_iter=1))
    out = tmp_path / "recnonfinite"
    assert main(["reconstruct", "--config", cfg, "--series", str(series_dir),
                 "--out", str(out)]) == cli.EXIT_CONFIG
    assert field in capsys.readouterr().err
    assert not (out / "reconstruction.raw").exists()


@pytest.mark.parametrize("iters, code", [(-3, cli.EXIT_CONFIG), (0, cli.EXIT_OK)])
def test_trace_rejects_negative_max_refine_iters(phantom_dir, tmp_path, capsys, iters, code):
    cfg = _write_config(tmp_path, "trace.json", {"max_refine_iters": iters})
    out = tmp_path / "trace"
    assert main(["trace", "--config", cfg, "--volume", str(phantom_dir / "volume.raw"),
                 "--out", str(out)]) == code
    if code == cli.EXIT_CONFIG:
        assert "max_refine_iters" in capsys.readouterr().err
        assert not (out / "traced.csv").exists()
    else:  # 0 rounds: detection only
        assert len(read_sites_csv(out / "traced.csv", 0.5)) > 0


@pytest.mark.parametrize("field", ["intensity_floor_volts", "merge_radius_voxels"])
def test_trace_rejects_a_nan_threshold(phantom_dir, tmp_path, capsys, field):
    # every comparison with NaN is false, so a NaN gate used to trace
    # 0 or 1 sites and exit 0
    cfg = _write_config(tmp_path, "trace_nan.json", {field: math.nan})
    out = tmp_path / "trace_nan"
    assert main(["trace", "--config", cfg, "--volume", str(phantom_dir / "volume.raw"),
                 "--out", str(out)]) == cli.EXIT_CONFIG
    assert field in capsys.readouterr().err
    assert not (out / "traced.csv").exists()


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


@pytest.mark.parametrize("bad", ["truth", "traced"])
def test_evaluate_rejects_a_truncated_csv_row(phantom_dir, tmp_path, capsys, bad):
    # a row short of its six fields used to end in an uncaught IndexError
    lines = (phantom_dir / "atoms.csv").read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 2)[0]
    truncated = tmp_path / "truncated.csv"
    truncated.write_text("\n".join(lines) + "\n")
    files = {"truth": str(phantom_dir / "atoms.csv"), "traced": str(phantom_dir / "atoms.csv")}
    files[bad] = str(truncated)
    assert main(["evaluate", "--traced", files["traced"], "--truth", files["truth"],
                 "--out", str(tmp_path / "eval")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "truncated.csv, line 3: expected 6 fields, got 4" in err


def test_volume_sidecar_without_a_key_exits_2_and_names_it(tmp_path, capsys):
    write_volume(PotentialVolume(np.zeros((12, 12, 12)), 0.5), tmp_path / "v.raw")
    meta = json.loads((tmp_path / "v.json").read_text())
    del meta["nz"]
    (tmp_path / "v.json").write_text(json.dumps(meta))
    assert main(["trace", "--volume", str(tmp_path / "v.raw"),
                 "--out", str(tmp_path / "trace")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "v.json: missing key nz" in err


def test_series_manifest_without_a_key_exits_2_and_names_it(phantom_dir, tmp_path, capsys):
    series_dir = _small_series(phantom_dir, tmp_path, "nolambda")
    manifest = json.loads((series_dir / "manifest.json").read_text())
    del manifest["lambda_angstrom"]
    (series_dir / "manifest.json").write_text(json.dumps(manifest))
    assert main(["reconstruct", "--series", str(series_dir),
                 "--out", str(tmp_path / "rec")]) == cli.EXIT_CONFIG
    assert "manifest.json: missing key lambda_angstrom" in capsys.readouterr().err


def test_a_key_error_from_a_program_bug_propagates(tmp_path, monkeypatch):
    # a KeyError is no configuration error: it must not be reported as exit 2
    write_volume(PotentialVolume(np.zeros((12, 12, 12)), 0.5), tmp_path / "v.raw")

    def buggy_trace(v, params):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "trace_atoms", buggy_trace)
    with pytest.raises(KeyError, match="bug"):
        main(["trace", "--volume", str(tmp_path / "v.raw"), "--out", str(tmp_path / "t")])


@pytest.mark.parametrize("key, value, kind", [
    ("defoci", 250.0, "a JSON array"),
    ("n_tilts", [4], "a single value"),
    ("n_tilts", 4.7, "an integer"),
    ("n_tilts", True, "a number"),
    ("anti_alias", "no", "true or false"),
])
def test_simulate_rejects_a_config_value_of_the_wrong_kind(phantom_dir, tmp_path, capsys,
                                                           key, value, kind):
    # an array or a single value used to end in an uncaught TypeError;
    # 4.7 and true ran 4 tilts and 1 tilt, and "no" anti-aliased, exit 0
    cfg = _write_config(tmp_path, "sim_kind.json", {
        "phantom_dir": str(phantom_dir), "n_tilts": 4, "defoci": [250.0],
        "total_dose": "infinite", "n_b": 4, key: value,
    })
    out = tmp_path / "series_kind"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"config key '{key}' must be {kind}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("n_tilts", None), ("defoci", [250.0, None])])
def test_simulate_rejects_a_null_config_value(phantom_dir, tmp_path, capsys, key, value):
    # used to die in int(None) or float(None), exit 1 with a traceback
    cfg = _write_config(tmp_path, "sim_null.json", {
        "phantom_dir": str(phantom_dir), "n_tilts": 4, "defoci": [250.0], "n_b": 4,
        key: value,
    })
    out = tmp_path / "series_null"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"config key '{key}' must not be null" in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_rejects_a_null_tv_inner_iters(phantom_dir, tmp_path, capsys):
    series_dir = _small_series(phantom_dir, tmp_path, "tvnull")
    cfg = _write_config(tmp_path, "rec_tvnull.json", {
        "step_size": 3e4, "reg_kind": "tv", "n_b": 4, "max_iter": 1,
        "tv_inner_iters": None,
    })
    out = tmp_path / "rectvnull"
    assert main(["reconstruct", "--config", cfg, "--series", str(series_dir),
                 "--out", str(out)]) == cli.EXIT_CONFIG
    assert "config key 'tv_inner_iters' must not be null" in capsys.readouterr().err
    assert not out.exists()


def test_a_null_is_accepted_where_the_default_is_null(phantom_dir, tmp_path):
    series_dir = _small_series(phantom_dir, tmp_path, "stepnull")
    cfg = _write_config(tmp_path, "rec_stepnull.json", {
        "step_size": None, "aperture_qmax": None, "reg_kind": "positivity", "n_b": 4,
        "max_iter": 1,
    })
    assert main(["reconstruct", "--config", cfg, "--series", str(series_dir),
                 "--out", str(tmp_path / "recstepnull")]) == 0


@pytest.mark.parametrize("value, kind", [
    (None, "a number"), ("48", "a number"), (True, "a number"), (47.5, "an integer"),
], ids=["None", "48", "True", "47.5"])
def test_trace_on_a_sidecar_with_a_non_numeric_dimension_exits_2(tmp_path, capsys, value,
                                                                 kind):
    write_volume(PotentialVolume(np.zeros((12, 12, 12)), 0.5), tmp_path / "v.raw")
    meta = json.loads((tmp_path / "v.json").read_text())
    meta["nz"] = value
    (tmp_path / "v.json").write_text(json.dumps(meta))
    assert main(["trace", "--volume", str(tmp_path / "v.raw"),
                 "--out", str(tmp_path / "trace")]) == cli.EXIT_CONFIG
    assert f"v.json: nz must be {kind}, got {json.dumps(value)}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("nx", None, "nx must be a number, got null"),
    ("seed", "0", 'seed must be a number, got "0"'),
    ("tilt_angles_deg", [0.0, None], "tilt_angles_deg must be an array of numbers"),
    ("defoci_angstrom", 250.0, "defoci_angstrom must be an array of numbers"),
    ("total_dose_e_per_A2", None, 'total_dose_e_per_A2 must be a number or "infinite"'),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
])
def test_series_manifest_with_a_non_numeric_field_exits_2_and_names_it(
        phantom_dir, tmp_path, capsys, key, value, message):
    series_dir = _small_series(phantom_dir, tmp_path, "badfield")
    manifest = json.loads((series_dir / "manifest.json").read_text())
    manifest[key] = value
    (series_dir / "manifest.json").write_text(json.dumps(manifest))
    assert main(["reconstruct", "--series", str(series_dir),
                 "--out", str(tmp_path / "rec")]) == cli.EXIT_CONFIG
    assert f"manifest.json: {message}" in capsys.readouterr().err


def test_sweep_rejects_a_single_reg_weight(phantom_dir, tmp_path, capsys):
    series_dir = _small_series(phantom_dir, tmp_path, "sweep_kind")
    cfg = _write_config(tmp_path, "sweep_kind.json", {
        "step_size": 3e4, "reg_weights": 1e-4, "n_b": 4, "max_iter": 1,
    })
    assert main(["sweep", "--config", cfg, "--series", str(series_dir),
                 "--out", str(tmp_path / "sweep_kind")]) == cli.EXIT_CONFIG
    assert "config key 'reg_weights' must be a JSON array" in capsys.readouterr().err


def _trace_on_a_fractional_nz(phantom_dir, tmp_path):
    write_volume(PotentialVolume(np.zeros((12, 12, 12)), 0.5), tmp_path / "v.raw")
    meta = json.loads((tmp_path / "v.json").read_text())
    (tmp_path / "v.json").write_text(json.dumps(dict(meta, nz=47.5)))
    return ["trace", "--volume", str(tmp_path / "v.raw")], "nz must be an integer"


def _reconstruct_on_a_fractional_seed(phantom_dir, tmp_path):
    series_dir = _small_series(phantom_dir, tmp_path, "fracseed")
    manifest = json.loads((series_dir / "manifest.json").read_text())
    (series_dir / "manifest.json").write_text(json.dumps(dict(manifest, seed=1.5)))
    return ["reconstruct", "--series", str(series_dir)], "seed must be an integer"


def _evaluate_with_an_unknown_matching(phantom_dir, tmp_path):
    cfg = _write_config(tmp_path, "eval.json", {"matching": "bogus"})
    atoms = str(phantom_dir / "atoms.csv")
    return (["evaluate", "--config", cfg, "--traced", atoms, "--truth", atoms],
            "matching method must be")


def _phantom_with_an_unknown_shape(phantom_dir, tmp_path):
    cfg = _write_config(tmp_path, "shape.json", {"extent": 16, "shape": "bogus"})
    return ["phantom", "--config", cfg], "unknown clip shape 'bogus'"


def _trace_on_a_sidecar_pitch(phantom_dir, tmp_path, value):
    # json reads NaN and Infinity; such a pitch used to trace 0 sites and exit 0
    write_volume(PotentialVolume(np.zeros((12, 12, 12)), 0.5), tmp_path / "v.raw")
    meta = json.loads((tmp_path / "v.json").read_text())
    (tmp_path / "v.json").write_text(json.dumps(dict(meta, pitch_angstrom=value)))
    return (["trace", "--volume", str(tmp_path / "v.raw")],
            f"pitch must be finite and positive, got {value}")


def _reconstruct_on_a_manifest_value(phantom_dir, tmp_path, key, value, field):
    # a NaN wavelength used to exit 3 ("step size too large"), and a NaN
    # pitch to exit 2 with a message about slabs of nan A
    series_dir = _small_series(phantom_dir, tmp_path, "nonfinite")
    manifest = json.loads((series_dir / "manifest.json").read_text())
    (series_dir / "manifest.json").write_text(json.dumps(dict(manifest, **{key: value})))
    return (["reconstruct", "--series", str(series_dir)],
            f"{field} must be finite and positive, got {value}")


def _simulate_at_a_voltage(phantom_dir, tmp_path, value):
    # used to exit 2 naming sigma, a constant derived from the voltage
    cfg = _write_config(tmp_path, "sim.json", {
        "phantom_dir": str(phantom_dir), "n_tilts": 2, "accel_voltage_kv": value,
    })
    return (["simulate", "--config", cfg],
            f"accel_voltage_kv must be finite and positive, got {value}")


def _evaluate_with_config(phantom_dir, tmp_path, payload, message, no_sites=False):
    # each used to exit 0: a NaN match_radius matched every pair, a negative
    # one none, a NaN pitch reported nan pm, and an unknown matching method
    # passed when there was no traced site to match
    traced = phantom_dir / "atoms.csv"
    if no_sites:
        traced = tmp_path / "traced.csv"
        traced.write_text(",".join(TRACED_CSV_HEADER) + "\n")
    cfg = _write_config(tmp_path, "eval.json", payload)
    return (["evaluate", "--config", cfg, "--traced", str(traced),
             "--truth", str(phantom_dir / "atoms.csv")], message)


@pytest.mark.parametrize("case", [
    _trace_on_a_fractional_nz, _reconstruct_on_a_fractional_seed,
    _evaluate_with_an_unknown_matching, _phantom_with_an_unknown_shape,
    partial(_trace_on_a_sidecar_pitch, value=math.nan),
    partial(_trace_on_a_sidecar_pitch, value=math.inf),
    partial(_reconstruct_on_a_manifest_value, key="lambda_angstrom", value=math.nan,
            field="wavelength"),
    partial(_reconstruct_on_a_manifest_value, key="lambda_angstrom", value=math.inf,
            field="wavelength"),
    partial(_reconstruct_on_a_manifest_value, key="pitch_angstrom", value=math.nan,
            field="pitch"),
    partial(_reconstruct_on_a_manifest_value, key="pitch_angstrom", value=math.inf,
            field="pitch"),
    partial(_evaluate_with_config, payload={"match_radius": math.nan},
            message="match_radius must be finite and positive, got nan"),
    partial(_evaluate_with_config, payload={"match_radius": -1},
            message="match_radius must be finite and positive, got -1.0"),
    partial(_evaluate_with_config, payload={"pitch": math.nan},
            message="pitch must be finite and positive, got nan"),
    partial(_evaluate_with_config, payload={"matching": "bogus"}, no_sites=True,
            message="matching method must be 'greedy' or 'optimal', got 'bogus'"),
    partial(_simulate_at_a_voltage, value=math.nan),
    partial(_simulate_at_a_voltage, value=math.inf),
], ids=["trace-nz-47.5", "reconstruct-seed-1.5", "evaluate-matching-bogus",
        "phantom-shape-bogus", "trace-pitch-NaN", "trace-pitch-Infinity",
        "reconstruct-lambda-NaN", "reconstruct-lambda-Infinity", "reconstruct-pitch-NaN",
        "reconstruct-pitch-Infinity", "evaluate-radius-NaN", "evaluate-radius--1",
        "evaluate-pitch-NaN", "evaluate-matching-bogus-no-sites",
        "simulate-voltage-NaN", "simulate-voltage-Infinity"])
def test_an_input_error_exits_2_without_making_the_output_directory(
        phantom_dir, tmp_path, capsys, case):
    argv, message = case(phantom_dir, tmp_path)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


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
