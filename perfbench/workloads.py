"""The benchmark workloads: inputs from a seed, the timed stage, checks.

Each workload times one user-facing stage run in-process through
``phasetomo.cli.main``, exactly as the command-line pipeline runs it, so
argument parsing, configuration and the on-disk formats are on the timed
path. Inputs are generated from the seed during set-up; the stage sees
only the files set-up wrote.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from phasetomo.cli import main as cli_main
from phasetomo.forward import read_tilt_series
from phasetomo.phantom import read_atoms_csv
from phasetomo.tracing import read_sites_csv, score
from phasetomo.volume import PotentialVolume, read_volume, write_volume

REFERENCE_PATH = Path(__file__).resolve().parent / "reference" / "simulate_noiseless.f32"
# Small fixed input whose noiseless images are stored in REFERENCE_PATH.
REFERENCE_PHANTOM = {"extent": 24, "lattice_const": 2.2, "shape": "cylinder",
                     "radius": 3.0, "margin_voxels": 3.0}
REFERENCE_SIMULATE = {"n_tilts": 4, "defoci": [250.0, 450.0, 1000.0],
                      "total_dose": "infinite", "n_b": 1}
REFERENCE_SHAPE = (4, 3, 24, 24)
# The CLI stores images as float32, so two float64 pipelines that agree to
# float64 rounding differ by at most one float32 rounding of each pixel;
# four float32 ulps of the brightest pixel leave room for reordered sums.
REFERENCE_RTOL = 4 * float(np.finfo(np.float32).eps)


class CheckFailed(Exception):
    """A stage ran but its outputs are wrong."""


def cli(argv: list[str]) -> int:
    """Run one ``phasetomo`` command in-process, discarding its progress line."""
    with redirect_stdout(io.StringIO()):
        return cli_main(argv)


def _config(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def _phantom(d: Path, seed: int, payload: dict) -> Path:
    out = d / "gt"
    code = cli(["phantom", "--config", _config(d / "phantom.json", payload),
                "--seed", str(seed), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"phantom set-up failed with exit code {code}")
    return out


def _relative_error(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def reference_series(work: Path) -> np.ndarray:
    """Noiseless images of the fixed reference input, through the CLI."""
    work.mkdir(parents=True, exist_ok=True)
    gt = _phantom(work, 0, REFERENCE_PHANTOM)
    series_dir = work / "series"
    cfg = _config(work / "simulate.json", dict(REFERENCE_SIMULATE, phantom_dir=str(gt)))
    code = cli(["simulate", "--config", cfg, "--seed", "0", "--out", str(series_dir)])
    if code != 0:
        raise CheckFailed(f"reference simulate exited with {code}")
    return read_tilt_series(series_dir).images


@dataclass(frozen=True)
class ReconstructDesk:
    """Desk-scale TV reconstruction with the default step bracket: rotation
    and its adjoint, backprop and prox_tv on an L2-resident volume."""

    name: str = "reconstruct-desk"
    extent: int = 48
    n_tilts: int = 20
    n_b: int = 4
    max_iter: int = 3

    def setup(self, d: Path, seed: int) -> dict:
        d.mkdir(parents=True)
        gt = _phantom(d, seed, {"extent": self.extent, "lattice_const": 2.2,
                                "shape": "cylinder", "radius": 5.0, "margin_voxels": 4.0,
                                "width": 0.65, "vacancy_fraction": 0.02})
        series = d / "series"
        sim = _config(d / "simulate.json", {"phantom_dir": str(gt), "n_tilts": self.n_tilts,
                                            "defoci": [250.0, 1000.0], "n_b": self.n_b})
        code = cli(["simulate", "--config", sim, "--seed", str(seed), "--out", str(series)])
        if code != 0:
            raise RuntimeError(f"simulate set-up failed with exit code {code}")
        cfg = _config(d / "reconstruct.json", {"reg_kind": "tv", "reg_weight": 1e-5,
                                               "n_b": self.n_b, "max_iter": self.max_iter})
        return {"gt": gt, "series": series, "config": cfg, "seed": seed}

    def argv(self, inputs: dict, out: Path, call: int) -> list[str]:
        return ["reconstruct", "--config", inputs["config"], "--series", str(inputs["series"]),
                "--out", str(out)]

    def check(self, inputs: dict, out: Path, call: int) -> dict:
        with (out / "cost.csv").open(newline="") as fh:
            costs = [float(row["cost"]) for row in csv.DictReader(fh)]
        if len(costs) != self.max_iter or not all(math.isfinite(c) for c in costs):
            raise CheckFailed(f"cost history {costs!r}")
        if not costs[-1] < costs[0]:
            raise CheckFailed(f"cost did not fall: {costs[0]:.6g} -> {costs[-1]:.6g}")
        v = read_volume(out / "reconstruction.raw").values
        truth = read_volume(inputs["gt"] / "volume.raw").values
        if v.shape != truth.shape or not np.all(np.isfinite(v)) or np.any(v < 0):
            raise CheckFailed("reconstruction is not a finite non-negative volume "
                              "of the right shape")
        rel = _relative_error(v, truth)
        if not rel < 1.0:
            raise CheckFailed(f"relative error {rel:.4g} is no better than an empty volume")
        return {"input": 0, "output_error": rel, "recon_rel_error": rel,
                "recon_cost_final": costs[-1]}

    def run_once_checks(self, work: Path) -> dict:
        """Noiseless images of the reference input match the stored ones."""
        images = reference_series(work / "reference")
        ref = np.fromfile(REFERENCE_PATH, dtype="<f4").reshape(REFERENCE_SHAPE)
        dev = float(np.max(np.abs(images - ref)) / np.max(np.abs(ref)))
        if not dev <= REFERENCE_RTOL:
            raise CheckFailed(f"noiseless images deviate from the reference by {dev:.3g}"
                              f" (tolerance {REFERENCE_RTOL:.3g})")
        return {"simulate_ref_dev": dev, "simulate_ref_rtol": REFERENCE_RTOL}


@dataclass(frozen=True)
class TraceShell:
    """Detect / fit / subtract atom tracing on a crystalline core with an
    amorphous shell; seeded Gaussian noise stands in for reconstruction
    background. No multislice and no solver."""

    name: str = "trace-shell"
    extent: int = 24
    shell_thickness: float = 2.0
    # V*A per voxel; light atoms peak at 75. Stronger noise makes the number
    # of noise peaks fitted, and so the work, depend on the seed.
    noise_sigma: float = 2.0
    max_refine_iters: int = 3
    # Stage calls cycle through this many noise draws. The tracing error of
    # one draw of ~50 atoms varies by 15 % between draws; the run averages.
    noise_draws: int = 12

    def setup(self, d: Path, seed: int) -> dict:
        d.mkdir(parents=True)
        # One fixed structure for every seed: how many shell atoms land too
        # close to resolve varies a lot between shell draws, and would swamp
        # the run-to-run comparison. The seed draws the background noise.
        gt = _phantom(d, 0, {"extent": self.extent, "lattice_const": 2.2,
                             "shape": "cylinder", "margin_voxels": 4.0,
                             "shell_thickness": self.shell_thickness})
        clean = read_volume(gt / "volume.raw")
        volumes = []
        for k in range(self.noise_draws):
            rng = np.random.default_rng([seed, k])
            noisy = PotentialVolume(
                clean.values + rng.normal(0.0, self.noise_sigma, clean.values.shape),
                clean.pitch)
            volumes.append(d / f"noisy{k:02d}.raw")
            write_volume(noisy, volumes[-1])
        cfg = _config(d / "trace.json", {"max_refine_iters": self.max_refine_iters})
        return {"gt": gt, "volumes": volumes, "pitch": clean.pitch,
                "config": cfg, "seed": seed}

    def argv(self, inputs: dict, out: Path, call: int) -> list[str]:
        volume = inputs["volumes"][call % len(inputs["volumes"])]
        return ["trace", "--config", inputs["config"], "--volume", str(volume),
                "--out", str(out)]

    def check(self, inputs: dict, out: Path, call: int) -> dict:
        traced = read_sites_csv(out / "traced.csv", inputs["pitch"])
        truth = read_atoms_csv(inputs["gt"] / "atoms.csv")
        report = score(traced, truth)
        if report.n_matched == 0:
            raise CheckFailed(f"none of {len(traced)} traced sites matches an atom")
        return {
            "input": call % len(inputs["volumes"]),
            # RMS position error in voxel pitches (pitch in pm = 100 * A)
            "output_error": report.position_error_rms_pm / (100.0 * inputs["pitch"]),
            "atoms_found_pct": report.atoms_found_pct,
            "false_positives_pct": report.false_positives_pct,
            "position_error_rms_pm": report.position_error_rms_pm,
            "correct_species_pct": report.correct_species_pct,
            "n_truth": report.n_truth,
            "n_traced": report.n_traced,
        }

    def run_once_checks(self, work: Path) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (ReconstructDesk(), TraceShell())}
