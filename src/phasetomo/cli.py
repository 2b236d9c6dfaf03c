"""Command-line pipeline driver.

Commands: phantom | simulate | reconstruct | trace | evaluate | sweep.
Every command takes --config (JSON), with CLI flags overriding file
values, and writes the full effective configuration into a manifest next
to its outputs so any run is reproducible from the manifest alone. Only
phantom and simulate take --seed. A config file holds one JSON object,
and each value must be of its key's kind (see _load_config); any other
config exits 2. The output directory is made just before a command's
first write, so a run that fails before then (exit 2 or 3) leaves none.
A reconstruct or sweep run with no step_size records what the step
bracket tried and picked in its run_manifest.json (see
phasetomo.solver.bracket_step_size).

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
from .volume import (PotentialVolume, check_kind, interaction_parameter, read_manifest,
                     read_volume, write_volume)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


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

# the SolverConfig fields a reconstruct config sets
SOLVER_KEYS = ("step_size", "reg_kind", "reg_weight", "n_b", "max_iter", "tv_inner_iters",
               "anti_alias")
_SOLVER = SolverConfig()  # the solver's own defaults; n_b keeps the CLI's 10
RECONSTRUCT_DEFAULTS = {
    "series_dir": None,
    **{key: getattr(_SOLVER, key) for key in SOLVER_KEYS},
    "n_b": 10,
    "aperture_qmax": None,
}

_TRACE = TraceParams()
TRACE_DEFAULTS = {"volume": None, **vars(_TRACE), "classify": True}

EVALUATE_DEFAULTS = {
    "traced": None,
    "truth": None,
    "volume": None,
    "pitch": 0.5,
    "match_radius": 1.0,
    "matching": "greedy",
}

SWEEP_DEFAULTS = dict(RECONSTRUCT_DEFAULTS, reg_weights=[0.0])
del SWEEP_DEFAULTS["reg_weight"]

# The kinds (see volume.KINDS) of the config keys whose default does not
# show it: a null default, or a number that may also be "infinite". Every
# other key takes the kind of its default.
KEY_KINDS = {
    "radius": "number", "aperture_qmax": "number", "step_size": "number",
    "total_dose": "number or infinite", "phantom_dir": "string", "volume": "string",
    "series_dir": "string", "traced": "string", "truth": "string",
}
_DEFAULT_KINDS = {bool: "boolean", int: "integer", float: "number", str: "string",
                  list: "numbers"}


def _load_config(defaults: dict, config_path: str | None, overrides: dict) -> dict:
    """``defaults`` updated by the file's values, then by the CLI flags in
    ``overrides`` that are set. A file value must be of its key's kind,
    the one in KEY_KINDS or else that of its default, and not null where
    the default is not; a number given as a JSON integer becomes a float."""
    cfg = dict(defaults)
    if config_path:
        try:
            file_cfg = read_manifest(Path(config_path), {})
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {config_path}: {exc}") from exc
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            default = defaults[key]
            if default is not None and (
                value is None or isinstance(value, list) and None in value
            ):
                raise ConfigurationError(f"config key {key!r} must not be null, got {value!r}")
            if isinstance(default, list) != isinstance(value, list):
                kind = "a JSON array" if isinstance(default, list) else "a single value"
                raise ConfigurationError(f"config key {key!r} must be {kind}, got {value!r}")
            if value is not None:
                kind = KEY_KINDS.get(key) or _DEFAULT_KINDS[type(default)]
                check_kind(value, kind, f"config key {key!r}")
                if kind == "number":
                    value = float(value)
            cfg[key] = value
    cfg.update((key, value) for key, value in overrides.items() if value is not None)
    return cfg


def _write_manifest(out_dir: Path, command: str, cfg: dict, extra: dict | None = None) -> None:
    payload = {"command": command, "config": cfg}
    if extra:
        payload.update(extra)
    (out_dir / "run_manifest.json").write_text(json.dumps(payload, indent=2) + "\n")


def _out_dir(path: str | Path) -> Path:
    """Create the output directory ``path``. Each command calls it just
    before its first write, so an input or config error found earlier
    exits without leaving an empty directory."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_phantom(args) -> int:
    cfg = _load_config(PHANTOM_DEFAULTS, args.config, {"seed": args.seed})
    g = make_crystal(
        extent=cfg["extent"],
        pitch=cfg["pitch"],
        lattice_const=cfg["lattice_const"],
        species_pattern=cfg["species_pattern"],
        seed=cfg["seed"],
        shape=cfg["shape"],
        radius=cfg["radius"],
        margin_voxels=cfg["margin_voxels"],
        width=cfg["width"],
        d_min=cfg["d_min"],
    )
    # called at every thickness so that its size checks always run; 0 adds no atom
    g = add_amorphous_shell(
        g,
        thickness=cfg["shell_thickness"],
        bond_length=cfg["bond_length"],
        seed=cfg["seed"] + 1,
        d_min=cfg["d_min"],
        width=cfg["width"],
    )
    if cfg["vacancy_fraction"]:
        g = inject_vacancies(g, cfg["vacancy_fraction"], seed=cfg["seed"] + 2)
    out = _out_dir(args.out)
    write_ground_truth(g, out)
    _write_manifest(out, "phantom", cfg, {"n_atoms": len(g.atoms)})
    print(f"phantom: {len(g.atoms)} atoms -> {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_config(SIMULATE_DEFAULTS, args.config, {"seed": args.seed})
    if cfg["volume"]:
        volume_path = Path(cfg["volume"])
    elif cfg["phantom_dir"]:
        volume_path = Path(cfg["phantom_dir"]) / "volume.raw"
    else:
        raise ConfigurationError("simulate needs 'volume' or 'phantom_dir'")
    v = read_volume(volume_path)
    params = interaction_parameter(cfg["accel_voltage_kv"])
    angles = uniform_tilt_angles(cfg["n_tilts"], cfg["tilt_span_deg"])
    dose = cfg["total_dose"]
    plan = AcquisitionPlan(
        tilt_angles=tuple(angles),
        defoci=tuple(cfg["defoci"]),
        total_dose=math.inf if dose == "infinite" else dose,
        seed=cfg["seed"],
    )
    grid = GridSpec(v.nx, v.ny, v.pitch, params.wavelength)
    h = TransferFunction.identity(grid, cfg["aperture_qmax"])
    series = simulate_tilt_series(v, plan, params, cfg["n_b"], h, cfg["anti_alias"])
    out = _out_dir(args.out)
    write_tilt_series(series, out)
    _write_manifest(out, "simulate", cfg, {"volume_path": str(volume_path)})
    print(f"simulate: {plan.n_tilts} tilts x {plan.n_defoci} defoci -> {out}")
    return EXIT_OK


def _reconstruct_once(series: TiltSeries, cfg: dict, out: Path, tag: str = "") -> dict:
    """Reconstruct and write the volume and cost history; returns the
    run's report, which holds ``step_bracket`` for a bracketed run."""
    h = TransferFunction.identity(series.grid, cfg["aperture_qmax"])
    solver_cfg = SolverConfig(**{key: cfg[key] for key in SOLVER_KEYS})
    report: dict = {}
    volume, history = reconstruct(series, solver_cfg, h=h, report=report)
    _out_dir(out)
    write_volume(volume, out / f"reconstruction{tag}.raw")
    write_cost_history(history, out / f"cost{tag}.csv")
    return report


def cmd_reconstruct(args) -> int:
    cfg = _load_config(RECONSTRUCT_DEFAULTS, args.config, {"series_dir": args.series})
    if not cfg["series_dir"]:
        raise ConfigurationError("reconstruct needs 'series_dir'")
    out = Path(args.out)
    report = _reconstruct_once(read_tilt_series(cfg["series_dir"]), cfg, out)
    _write_manifest(out, "reconstruct", cfg, report)
    print(f"reconstruct: wrote {out / 'reconstruction.raw'}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(SWEEP_DEFAULTS, args.config, {"series_dir": args.series})
    if not cfg["series_dir"]:
        raise ConfigurationError("sweep needs 'series_dir'")
    if not cfg["reg_weights"]:
        raise ConfigurationError("config key 'reg_weights' must hold at least one weight, got []")
    out = Path(args.out)
    series = read_tilt_series(cfg["series_dir"])
    brackets = []
    for weight in cfg["reg_weights"]:
        report = _reconstruct_once(series, dict(cfg, reg_weight=weight), out, f"_w{weight:g}")
        if "step_bracket" in report:
            brackets.append({"reg_weight": weight, **report["step_bracket"]})
    _write_manifest(out, "sweep", cfg, {"step_brackets": brackets} if brackets else None)
    print(f"sweep: {len(cfg['reg_weights'])} reconstructions -> {out}")
    return EXIT_OK


def cmd_trace(args) -> int:
    cfg = _load_config(TRACE_DEFAULTS, args.config, {"volume": args.volume})
    if not cfg["volume"]:
        raise ConfigurationError("trace needs 'volume'")
    v = read_volume(cfg["volume"])
    traced = trace_atoms(v, TraceParams(**{key: cfg[key] for key in vars(_TRACE)}))
    if cfg["classify"] and len(traced):
        traced = classify_species(traced)
    out = _out_dir(args.out)
    write_traced_csv(traced, out / "traced.csv")
    _write_manifest(out, "trace", cfg, {"n_sites": len(traced)})
    print(f"trace: {len(traced)} sites -> {out / 'traced.csv'}")
    return EXIT_OK


def _write_pgm_slices(v: PotentialVolume, out: Path) -> None:
    # sqrt display scaling over 0..80 V, one mid-volume slice per axis
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
    })
    if not cfg["traced"] or not cfg["truth"]:
        raise ConfigurationError("evaluate needs 'traced' and 'truth'")
    volume = read_volume(cfg["volume"]) if cfg["volume"] else None
    pitch = cfg["pitch"] if volume is None else volume.pitch
    traced = read_sites_csv(cfg["traced"], pitch)
    truth = read_atoms_csv(cfg["truth"])
    report = score(traced, truth, cfg["match_radius"], cfg["matching"])
    out = _out_dir(args.out)
    (out / "report.json").write_text(report.to_json())

    with (out / "intensity_histogram.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["intensity"])
        for value in traced.intensity:
            writer.writerow([repr(float(value))])
    traced_xyz = traced.positions_angstrom()
    pairs = _match_pairs(traced_xyz, truth.positions, cfg["match_radius"], cfg["matching"])
    with (out / "position_error_histogram.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["position_error_A"])
        for _, _, d in pairs:
            writer.writerow([repr(float(d))])
    if volume is not None:
        _write_pgm_slices(volume, out)
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
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("phantom", help="generate a synthetic ground truth")
    common(p)
    p.add_argument("--seed", type=int, help="RNG seed override")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("simulate", help="simulate a defocused tilt series")
    common(p)
    p.add_argument("--seed", type=int, help="RNG seed override")
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
    except (ConfigurationError, FileNotFoundError) as exc:
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
