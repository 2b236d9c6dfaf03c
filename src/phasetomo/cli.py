"""Command-line pipeline driver.

Commands: phantom | simulate | reconstruct | trace | evaluate | sweep.
Every command takes --config (JSON), with CLI flags overriding file
values, and writes the full effective configuration into a manifest next
to its outputs so any run is reproducible from the manifest alone.

Exit codes: 0 ok, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .fields import ConfigurationError, GridSpec, TransferFunction
from .forward import (
    AcquisitionPlan,
    TiltSeries,
    read_tilt_series,
    simulate_tilt_series,
    uniform_tilt_angles,
    write_tilt_series,
)
from .phantom import (
    add_amorphous_shell,
    inject_vacancies,
    make_crystal,
    read_atoms_csv,
    write_ground_truth,
)
from .solver import DivergenceError, SolverConfig, reconstruct, write_cost_history
from .tracing import (
    TraceParams,
    _match_pairs,
    classify_species,
    read_sites_csv,
    score,
    trace_atoms,
    write_traced_csv,
)
from .volume import interaction_parameter, read_volume, write_volume

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


PHANTOM_DEFAULTS = {
    "extent": 48,
    "pitch": 0.5,
    "lattice_const": 2.2,
    "species_pattern": "alternating",
    "shape": "cylinder",
    "radius": None,
    "margin_voxels": 4.0,
    "width": 0.55,
    "d_min": 1.2,
    "shell_thickness": 0.0,
    "bond_length": 1.6,
    "vacancy_fraction": 0.0,
    "seed": 0,
}

SIMULATE_DEFAULTS = {
    "phantom_dir": None,
    "volume": None,
    "n_tilts": 60,
    "tilt_span_deg": 180.0,
    "defoci": [250.0, 450.0, 1000.0],
    "total_dose": 50000.0,
    "accel_voltage_kv": 300.0,
    "n_b": 10,
    "anti_alias": True,
    "aperture_qmax": None,
    "seed": 0,
}

_SOLVER = SolverConfig()  # the solver's own defaults; n_b keeps the CLI's 10
RECONSTRUCT_DEFAULTS = {
    "series_dir": None,
    "step_size": _SOLVER.step_size,
    "reg_kind": _SOLVER.reg_kind,
    "reg_weight": _SOLVER.reg_weight,
    "n_b": 10,
    "max_iter": _SOLVER.max_iter,
    "tv_inner_iters": _SOLVER.tv_inner_iters,
    "anti_alias": _SOLVER.anti_alias,
    "aperture_qmax": None,
    "seed": 0,
}

TRACE_DEFAULTS = {
    "volume": None,
    "intensity_floor_volts": 30.0,
    "width_floor_voxels": 1.0,
    "merge_radius_voxels": 2.25,
    "max_refine_iters": 12,
    "fit_window": 7,
    "classify": True,
    "seed": 0,
}

EVALUATE_DEFAULTS = {
    "traced": None,
    "truth": None,
    "volume": None,
    "pitch": 0.5,
    "match_radius": 1.0,
    "matching": "greedy",
    "slice_axis": "z",
    "seed": 0,
}

SWEEP_DEFAULTS = dict(RECONSTRUCT_DEFAULTS, reg_weights=[0.0])
del SWEEP_DEFAULTS["reg_weight"]


def _load_config(defaults: dict, config_path: str | None, overrides: dict) -> dict:
    cfg = dict(defaults)
    if config_path:
        try:
            file_cfg = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            if defaults[key] is not None and (
                value is None or isinstance(value, list) and None in value
            ):
                raise ConfigError(f"config key {key!r} must not be null, got {value!r}")
            if isinstance(defaults[key], list) != isinstance(value, list):
                kind = "a JSON array" if isinstance(defaults[key], list) else "a single value"
                raise ConfigError(f"config key {key!r} must be {kind}, got {value!r}")
        cfg.update(file_cfg)
    for key, value in overrides.items():
        if value is not None:
            if key not in defaults:
                raise ConfigError(f"unknown option {key}")
            cfg[key] = value
    return cfg


def _write_manifest(out_dir: Path, command: str, cfg: dict, extra: dict | None = None) -> None:
    payload = {"command": command, "config": cfg}
    if extra:
        payload.update(extra)
    (out_dir / "run_manifest.json").write_text(json.dumps(payload, indent=2, default=str) + "\n")


def _out_dir(cfg_out: str) -> Path:
    out = Path(cfg_out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_phantom(args) -> int:
    cfg = _load_config(PHANTOM_DEFAULTS, args.config, {"seed": args.seed})
    out = _out_dir(args.out)
    g = make_crystal(
        extent=int(cfg["extent"]),
        pitch=float(cfg["pitch"]),
        lattice_const=float(cfg["lattice_const"]),
        species_pattern=cfg["species_pattern"],
        seed=int(cfg["seed"]),
        shape=cfg["shape"],
        radius=None if cfg["radius"] is None else float(cfg["radius"]),
        margin_voxels=float(cfg["margin_voxels"]),
        width=float(cfg["width"]),
        d_min=float(cfg["d_min"]),
    )
    if cfg["shell_thickness"]:
        g = add_amorphous_shell(
            g,
            thickness=float(cfg["shell_thickness"]),
            bond_length=float(cfg["bond_length"]),
            seed=int(cfg["seed"]) + 1,
            d_min=float(cfg["d_min"]),
            width=float(cfg["width"]),
        )
    if cfg["vacancy_fraction"]:
        g = inject_vacancies(g, float(cfg["vacancy_fraction"]), seed=int(cfg["seed"]) + 2)
    write_ground_truth(g, out)
    _write_manifest(out, "phantom", cfg, {"n_atoms": len(g.atoms)})
    print(f"phantom: {len(g.atoms)} atoms -> {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_config(SIMULATE_DEFAULTS, args.config, {"seed": args.seed})
    out = _out_dir(args.out)
    if cfg["volume"]:
        volume_path = Path(cfg["volume"])
    elif cfg["phantom_dir"]:
        volume_path = Path(cfg["phantom_dir"]) / "volume.raw"
    else:
        raise ConfigError("simulate needs 'volume' or 'phantom_dir'")
    v = read_volume(volume_path)
    params = interaction_parameter(float(cfg["accel_voltage_kv"]))
    angles = uniform_tilt_angles(int(cfg["n_tilts"]), float(cfg["tilt_span_deg"]))
    dose = cfg["total_dose"]
    plan = AcquisitionPlan(
        tilt_angles=tuple(angles),
        defoci=tuple(float(d) for d in cfg["defoci"]),
        total_dose=math.inf if dose == "infinite" else float(dose),
        seed=int(cfg["seed"]),
    )
    grid = GridSpec(v.nx, v.ny, v.pitch, params.wavelength)
    h = TransferFunction.identity(grid, cfg["aperture_qmax"])
    series = simulate_tilt_series(v, plan, params, int(cfg["n_b"]), h,
                                  bool(cfg["anti_alias"]))
    write_tilt_series(series, out)
    _write_manifest(out, "simulate", cfg, {"volume_path": str(volume_path)})
    print(f"simulate: {plan.n_tilts} tilts x {plan.n_defoci} defoci -> {out}")
    return EXIT_OK


def _reconstruct_once(series: TiltSeries, cfg: dict, out: Path, reg_weight: float,
                      tag: str = "") -> None:
    h = TransferFunction.identity(series.grid, cfg["aperture_qmax"])
    solver_cfg = SolverConfig(
        step_size=None if cfg["step_size"] is None else float(cfg["step_size"]),
        reg_kind=cfg["reg_kind"],
        reg_weight=reg_weight,
        n_b=int(cfg["n_b"]),
        max_iter=int(cfg["max_iter"]),
        tv_inner_iters=int(cfg["tv_inner_iters"]),
        anti_alias=bool(cfg["anti_alias"]),
    )
    volume, history = reconstruct(series, solver_cfg, h=h)
    write_volume(volume, out / f"reconstruction{tag}.raw")
    write_cost_history(history, out / f"cost{tag}.csv")


def cmd_reconstruct(args) -> int:
    cfg = _load_config(RECONSTRUCT_DEFAULTS, args.config,
                       {"series_dir": args.series, "seed": args.seed})
    if not cfg["series_dir"]:
        raise ConfigError("reconstruct needs 'series_dir'")
    out = _out_dir(args.out)
    _reconstruct_once(read_tilt_series(cfg["series_dir"]), cfg, out, float(cfg["reg_weight"]))
    _write_manifest(out, "reconstruct", cfg)
    print(f"reconstruct: wrote {out / 'reconstruction.raw'}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(SWEEP_DEFAULTS, args.config,
                       {"series_dir": args.series, "seed": args.seed})
    if not cfg["series_dir"]:
        raise ConfigError("sweep needs 'series_dir'")
    out = _out_dir(args.out)
    series = read_tilt_series(cfg["series_dir"])
    for weight in cfg["reg_weights"]:
        tag = f"_w{float(weight):g}"
        _reconstruct_once(series, cfg, out, float(weight), tag)
    _write_manifest(out, "sweep", cfg)
    print(f"sweep: {len(cfg['reg_weights'])} reconstructions -> {out}")
    return EXIT_OK


def cmd_trace(args) -> int:
    cfg = _load_config(TRACE_DEFAULTS, args.config, {"volume": args.volume, "seed": args.seed})
    if not cfg["volume"]:
        raise ConfigError("trace needs 'volume'")
    out = _out_dir(args.out)
    v = read_volume(cfg["volume"])
    params = TraceParams(
        intensity_floor_volts=float(cfg["intensity_floor_volts"]),
        width_floor_voxels=float(cfg["width_floor_voxels"]),
        merge_radius_voxels=float(cfg["merge_radius_voxels"]),
        max_refine_iters=int(cfg["max_refine_iters"]),
        fit_window=int(cfg["fit_window"]),
    )
    traced = trace_atoms(v, params)
    if cfg["classify"] and len(traced):
        traced = classify_species(traced)
    write_traced_csv(traced, out / "traced.csv")
    _write_manifest(out, "trace", cfg, {"n_sites": len(traced)})
    print(f"trace: {len(traced)} sites -> {out / 'traced.csv'}")
    return EXIT_OK


def _write_pgm_slices(volume_path: str, out: Path, pitch: float) -> None:
    # sqrt display scaling over 0..80 V, one mid-volume slice per axis
    v = read_volume(volume_path)
    volts = np.maximum(np.real(v.values), 0.0) / v.pitch
    scaled = np.sqrt(np.clip(volts, 0.0, 80.0) / 80.0)
    img8 = (scaled * 255.0 + 0.5).astype(np.uint8)
    for axis, name in ((0, "z"), (1, "y"), (2, "x")):
        mid = img8.shape[axis] // 2
        plane = np.take(img8, mid, axis=axis)
        header = f"P5\n{plane.shape[1]} {plane.shape[0]}\n255\n".encode()
        (out / f"slice_{name}.pgm").write_bytes(header + plane.tobytes())


def cmd_evaluate(args) -> int:
    cfg = _load_config(EVALUATE_DEFAULTS, args.config, {
        "traced": args.traced, "truth": args.truth, "volume": args.volume,
        "seed": args.seed,
    })
    if not cfg["traced"] or not cfg["truth"]:
        raise ConfigError("evaluate needs 'traced' and 'truth'")
    out = _out_dir(args.out)
    pitch = float(cfg["pitch"])
    if cfg["volume"]:
        pitch = read_volume(cfg["volume"]).pitch
    traced = read_sites_csv(cfg["traced"], pitch)
    truth = read_atoms_csv(cfg["truth"])
    report = score(traced, truth, float(cfg["match_radius"]), cfg["matching"])
    (out / "report.json").write_text(report.to_json())

    with (out / "intensity_histogram.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["intensity"])
        for value in traced.intensity:
            writer.writerow([repr(float(value))])
    traced_xyz = traced.positions_angstrom()
    pairs = _match_pairs(traced_xyz, truth.positions, float(cfg["match_radius"]),
                         cfg["matching"])
    with (out / "position_error_histogram.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["position_error_A"])
        for _, _, d in pairs:
            writer.writerow([repr(float(d))])
    if cfg["volume"]:
        _write_pgm_slices(cfg["volume"], out, pitch)
    _write_manifest(out, "evaluate", cfg)
    print(f"evaluate: found {report.atoms_found_pct:.2f}% "
          f"(error {report.position_error_mean_pm:.1f} pm) -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasetomo",
        description="Simulate, reconstruct, and trace phase-contrast tilt series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="RNG seed override")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("phantom", help="generate a synthetic ground truth")
    common(p)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("simulate", help="simulate a defocused tilt series")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="reconstruct a potential volume")
    common(p)
    p.add_argument("--series", help="tilt-series directory")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("sweep", help="reconstruct over a list of reg weights")
    common(p)
    p.add_argument("--series", help="tilt-series directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("trace", help="trace atoms in a reconstructed volume")
    common(p)
    p.add_argument("--volume", help="volume .raw path")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("evaluate", help="score traced atoms against a reference")
    common(p)
    p.add_argument("--traced", help="traced sites CSV")
    p.add_argument("--truth", help="reference atoms CSV")
    p.add_argument("--volume", help="optional volume for slice images")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ConfigurationError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
