"""Multislice forward model and measurement simulation.

The imaging chain per tilt angle: rotate the volume, bin slices into
slabs, then alternate transmittance multiplication and free-space
propagation through the slabs. The exit wave is defocused (one more
free-space propagation), filtered by the microscope transfer function,
and detected as intensity. Measurements are Poisson draws at the chosen
electron dose.

The spectral factors of that chain (slab propagator, per-defocus exit
factors) are built once by :func:`multislice_factors`; the caller passes
the one value to :func:`multislice_forward` and to the adjoint pass,
:func:`phasetomo.gradients.backpropagate`.

Ideal intensities are kept relative to unit incident flux; conversion to
electron counts happens only in :func:`apply_poisson`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fields import (
    GridSpec,
    TransferFunction,
    WaveField,
    _require_finite,
    band_mask,
    propagation_kernel,
)
from .volume import (
    BinnedVolume,
    InteractionParams,
    PotentialVolume,
    project,
    read_manifest,
)
# Not called here (simulation projects each tilt with one matrix); the two
# names stay importable from this module because perfbench/layers.py wraps them.
from .volume import bin_slices, rotate  # noqa: F401

RNG_ALGORITHM = "numpy-philox4x64"
ANTI_ALIAS_FRACTION = 2.0 / 3.0


def uniform_tilt_angles(n_tilts: int, span_deg: float = 180.0, center_deg: float = 0.0) -> np.ndarray:
    """Strictly increasing tilt angles covering ``span_deg`` uniformly.

    Angles sit at midpoints of equal bins, so a 180-degree span never
    contains both ends of an equivalent (theta, theta+180) pair.
    """
    if n_tilts < 1:
        raise ValueError("need at least one tilt")
    k = np.arange(n_tilts)
    return center_deg - span_deg / 2.0 + (k + 0.5) * span_deg / n_tilts


@dataclass(frozen=True)
class AcquisitionPlan:
    """Tilt angles, defocus ladder, electron budget, and RNG seed."""

    tilt_angles: tuple[float, ...]
    defoci: tuple[float, ...]
    total_dose: float = math.inf
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "tilt_angles", tuple(float(t) for t in self.tilt_angles))
        object.__setattr__(self, "defoci", tuple(float(d) for d in self.defoci))
        object.__setattr__(self, "total_dose", float(self.total_dose))
        if len(self.tilt_angles) == 0 or len(self.defoci) == 0:
            raise ValueError("plan needs at least one tilt and one defocus")
        if np.any(np.diff(self.tilt_angles) <= 0):
            raise ValueError("tilt angles must be strictly increasing")
        if min(self.defoci) <= 0:
            raise ValueError("defoci must be strictly positive")
        if self.total_dose <= 0:
            raise ValueError("total dose must be positive")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")

    @property
    def n_tilts(self) -> int:
        return len(self.tilt_angles)

    @property
    def n_defoci(self) -> int:
        return len(self.defoci)

    @property
    def dose_per_image(self) -> float:
        """Electrons per square Angstrom for each (tilt, defocus) image."""
        return self.total_dose / (self.n_tilts * self.n_defoci)


@dataclass
class TiltSeries:
    """Measured (or simulated) intensity images in electron counts.

    ``images`` has shape (n_tilts, n_defoci, ny, nx). For an infinite
    dose the images hold the ideal unit-background intensities directly.
    """

    plan: AcquisitionPlan
    grid: GridSpec
    images: np.ndarray

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        expected = (self.plan.n_tilts, self.plan.n_defoci) + self.grid.shape
        if self.images.shape != expected:
            raise ValueError(f"images shape {self.images.shape} != {expected}")
        if not np.all(np.isfinite(self.images)):
            raise ValueError("intensity images must be finite")
        if np.any(self.images < 0):
            raise ValueError("intensity images must be non-negative")

    @property
    def background_counts(self) -> float:
        """Expected electron counts per pixel of unit background intensity,
        dose_per_image * pitch^2; infinite for the noiseless sentinel."""
        return self.plan.dose_per_image * self.grid.pitch**2

    def normalized(self) -> np.ndarray:
        """Images rescaled to unit incident background."""
        if math.isinf(self.background_counts):
            return self.images.copy()
        return self.images / self.background_counts


@dataclass(frozen=True, eq=False)
class MultisliceFactors:
    """The spectral factors of one multislice operator on ``grid``, in fft
    order: the slab propagator P_dz and the exit factors P_df * H stacked
    as (n_defoci, ny, nx). Both arrays are read-only."""

    grid: GridSpec
    slab_thickness: float
    slab_factor: np.ndarray
    exit_factors: np.ndarray

    def require_slabs_of(self, w: BinnedVolume) -> None:
        """Raise ValueError unless these factors were built for the slabs of ``w``."""
        if self.slab_thickness != w.slab_thickness:
            raise ValueError(f"factors built for {self.slab_thickness} A slabs, "
                             f"volume has {w.slab_thickness} A slabs")


def multislice_factors(
    h: TransferFunction,
    slab_thickness: float,
    defoci: tuple[float, ...] | list[float],
    anti_alias: bool = True,
) -> MultisliceFactors:
    """Factors of the multislice operator on ``h.grid`` for slabs of
    ``slab_thickness``: P_dz (2/3-Nyquist band-limited when ``anti_alias``)
    and P_df * H for each defocus. Build them once per volume and pass the
    same value to :func:`multislice_forward` and to
    :func:`phasetomo.gradients.backpropagate`, whose adjoint pass
    multiplies by their complex conjugates.
    """
    slab_factor = propagation_kernel(h.grid, slab_thickness)
    if anti_alias:
        slab_factor = slab_factor * band_mask(h.grid, ANTI_ALIAS_FRACTION)
    exit_factors = np.stack([propagation_kernel(h.grid, df) * h.values for df in defoci])
    slab_factor.flags.writeable = False
    exit_factors.flags.writeable = False
    return MultisliceFactors(h.grid, slab_thickness, slab_factor, exit_factors)


def multislice_forward(
    w: BinnedVolume,
    params: InteractionParams,
    factors: MultisliceFactors,
) -> tuple[list[WaveField], list[np.ndarray]]:
    """Propagate a unit plane wave through the slabs of ``w``.

    Per slab m: t_m = exp(i sigma W_m); psi_{m+1} = P_dz(t_m * psi_m),
    with the band limit of ``factors`` (if any) folded into each slab
    propagation (applied right after the transmittance multiplication).
    Each defocus then yields an exit wave H{P_df(psi_exit)}.

    Returns the per-defocus exit waves and all intermediate waves
    psi_1..psi_{n+1} (needed by the backward pass).
    """
    ny, nx = w.values.shape[1:]
    grid = factors.grid
    if (grid.ny, grid.nx) != (ny, nx):
        raise ValueError("factors grid does not match volume slabs")
    if abs(grid.wavelength - params.wavelength) > 1e-9 * params.wavelength:
        raise ValueError("grid wavelength does not match interaction parameters")
    factors.require_slabs_of(w)
    _require_finite(w.values, "binned volume")

    psi = np.ones(grid.shape, dtype=np.complex128)
    intermediates = [psi]
    for m in range(w.n_slabs):
        t_m = np.exp(1j * params.sigma * w.values[m])
        g_m = t_m * psi
        psi = np.fft.ifft2(factors.slab_factor * np.fft.fft2(g_m, norm="ortho"), norm="ortho")
        intermediates.append(psi)

    exit_spectra = np.fft.fft2(psi, norm="ortho") * factors.exit_factors
    exit_waves = [WaveField(grid, e) for e in np.fft.ifft2(exit_spectra, norm="ortho")]
    return exit_waves, intermediates


def intensity(exit_wave: WaveField) -> np.ndarray:
    """|psi|^2, pointwise."""
    return np.abs(exit_wave.values) ** 2


def _image_rng(seed: int, tilt_index: int, defocus_index: int) -> np.random.Generator:
    # Counter-based streams: one Philox key per (seed, tilt, defocus), so
    # simulation order (or parallelism) cannot change the draws.
    key = np.array(
        [seed, ((tilt_index & 0xFFFFFFFF) << 32) | (defocus_index & 0xFFFFFFFF)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def apply_poisson(
    ideal: np.ndarray,
    dose_per_image: float,
    pitch: float,
    seed: int,
    tilt_index: int = 0,
    defocus_index: int = 0,
) -> np.ndarray:
    """Poisson counting noise at ``dose_per_image`` electrons/Angstrom^2.

    Expected counts per pixel are ideal * dose * pitch^2. An infinite
    dose is a sentinel for the noiseless path and returns the ideal
    image unchanged.
    """
    ideal = np.asarray(ideal, dtype=np.float64)
    _require_finite(ideal, "ideal intensity")
    if np.any(ideal < 0):
        raise ValueError("ideal intensities must be non-negative")
    if math.isinf(dose_per_image):
        return ideal.copy()
    if dose_per_image <= 0:
        raise ValueError("dose must be positive")
    expected = ideal * dose_per_image * pitch**2
    rng = _image_rng(seed, tilt_index, defocus_index)
    return rng.poisson(expected).astype(np.float64)


def simulate_tilt_series(
    v: PotentialVolume,
    plan: AcquisitionPlan,
    params: InteractionParams,
    n_b: int,
    h: TransferFunction | None = None,
    anti_alias: bool = True,
) -> TiltSeries:
    """Per tilt: rotate and bin (one :func:`~phasetomo.volume.project`),
    multislice, detect, add Poisson noise."""
    grid = GridSpec(nx=v.nx, ny=v.ny, pitch=v.pitch, wavelength=params.wavelength)
    if h is None:
        h = TransferFunction.identity(grid)
    elif h.grid != grid:
        raise ValueError("transfer function grid does not match volume")

    # checked once here: rotation may drop a bad voxel before any slab sees it
    _require_finite(v.values, "volume")
    factors = multislice_factors(h, n_b * v.pitch, plan.defoci, anti_alias)
    images = np.empty((plan.n_tilts, plan.n_defoci) + grid.shape)
    dose = plan.dose_per_image
    for i, theta in enumerate(plan.tilt_angles):
        w = project(v, theta, n_b)
        exit_waves, _ = multislice_forward(w, params, factors)
        for j, exit_wave in enumerate(exit_waves):
            ideal = intensity(exit_wave)
            images[i, j] = apply_poisson(ideal, dose, grid.pitch, plan.seed, i, j)
    return TiltSeries(plan, grid, images)


# ---------------------------------------------------------------------------
# on-disk tilt-series format
# ---------------------------------------------------------------------------

def _image_filename(tilt_index: int, defocus_index: int) -> str:
    return f"img_t{tilt_index:04d}_f{defocus_index:02d}.raw"


def write_tilt_series(series: TiltSeries, out_dir: str | Path) -> None:
    """One raw float32 file per image plus a manifest.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    plan, grid = series.plan, series.grid
    for i in range(plan.n_tilts):
        for j in range(plan.n_defoci):
            data = np.ascontiguousarray(series.images[i, j], dtype="<f4")
            (out_dir / _image_filename(i, j)).write_bytes(data.tobytes())
    manifest = {
        "nx": grid.nx,
        "ny": grid.ny,
        "pitch_angstrom": grid.pitch,
        "lambda_angstrom": grid.wavelength,
        "tilt_angles_deg": list(plan.tilt_angles),
        "defoci_angstrom": list(plan.defoci),
        "total_dose_e_per_A2": "infinite" if math.isinf(plan.total_dose) else plan.total_dose,
        "seed": int(plan.seed),
        "rng_algorithm": RNG_ALGORITHM,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def read_tilt_series(in_dir: str | Path) -> TiltSeries:
    """Read a series directory, validating image count and sizes."""
    in_dir = Path(in_dir)
    manifest = read_manifest(in_dir / "manifest.json", {
        "nx": "integer", "ny": "integer", "pitch_angstrom": "number",
        "lambda_angstrom": "number", "tilt_angles_deg": "numbers",
        "defoci_angstrom": "numbers", "total_dose_e_per_A2": "number or infinite",
        "seed": "integer"})
    if manifest.get("rng_algorithm") != RNG_ALGORITHM:
        raise ValueError(f"unsupported rng algorithm {manifest.get('rng_algorithm')!r}")
    dose = manifest["total_dose_e_per_A2"]
    plan = AcquisitionPlan(
        tilt_angles=tuple(manifest["tilt_angles_deg"]),
        defoci=tuple(manifest["defoci_angstrom"]),
        total_dose=math.inf if dose == "infinite" else dose,
        seed=manifest["seed"],
    )
    grid = GridSpec(
        nx=manifest["nx"],
        ny=manifest["ny"],
        pitch=float(manifest["pitch_angstrom"]),
        wavelength=float(manifest["lambda_angstrom"]),
    )
    images = np.empty((plan.n_tilts, plan.n_defoci) + grid.shape)
    expected_bytes = 4 * grid.nx * grid.ny
    for i in range(plan.n_tilts):
        for j in range(plan.n_defoci):
            blob = (in_dir / _image_filename(i, j)).read_bytes()
            if len(blob) != expected_bytes:
                raise ValueError(f"{_image_filename(i, j)}: {len(blob)} bytes, "
                                 f"expected {expected_bytes}")
            images[i, j] = np.frombuffer(blob, dtype="<f4").reshape(grid.shape)
    return TiltSeries(plan, grid, images)
