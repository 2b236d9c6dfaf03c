"""Synthetic ground truth: atom lattices, amorphous shells, vacancies.

Atoms are rendered as isotropic Gaussian blobs. A blob's ``amplitude`` is
the per-slice projected-potential peak in V*Angstrom for an atom centered
in a slice; the z extent is integrated analytically per slice so the
rendered mass has a closed form. Two species ("heavy" and "light", 2:1
default amplitude ratio) give the bimodal intensity statistics the
tracing stage classifies on.

Positions are in Angstrom relative to the corner of voxel (0, 0, 0);
voxel ``i`` is centered at ``(i + 0.5) * pitch``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import ndtr  # standard normal CDF

from .fields import ConfigurationError, _require_non_negative, _require_positive
from .volume import PotentialVolume, read_volume, write_volume

SPECIES = ("light", "heavy")
DEFAULT_AMPLITUDES = {"heavy": 150.0, "light": 75.0}  # V*A per-slice peak
DEFAULT_WIDTH = 0.55  # Angstrom (sigma of the blob)
DEFAULT_D_MIN = 1.2   # Angstrom, enforced minimum atom spacing
ATOMS_CSV_HEADER = ["x_A", "y_A", "z_A", "species", "amplitude", "width"]
PHANTOM_RNG_ALGORITHM = "numpy-pcg64"


@dataclass
class AtomList:
    """Columnar atom records: positions (N, 3) as (x, y, z) in Angstrom."""

    positions: np.ndarray
    species: np.ndarray      # array of str, "light" | "heavy"
    amplitude: np.ndarray    # V*A per-slice peak
    width: np.ndarray        # Angstrom

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        n = len(self.positions)
        self.species = np.asarray(self.species, dtype=object).reshape(n)
        self.amplitude = np.asarray(self.amplitude, dtype=np.float64).reshape(n)
        self.width = np.asarray(self.width, dtype=np.float64).reshape(n)

    def __len__(self) -> int:
        return len(self.positions)

    @classmethod
    def empty(cls) -> "AtomList":
        return cls(np.zeros((0, 3)), np.zeros(0, dtype=object), np.zeros(0), np.zeros(0))

    def concatenated(self, other: "AtomList") -> "AtomList":
        return AtomList(
            np.concatenate([self.positions, other.positions]),
            np.concatenate([self.species, other.species]),
            np.concatenate([self.amplitude, other.amplitude]),
            np.concatenate([self.width, other.width]),
        )

    def subset(self, mask_or_indices) -> "AtomList":
        return AtomList(
            self.positions[mask_or_indices],
            self.species[mask_or_indices],
            self.amplitude[mask_or_indices],
            self.width[mask_or_indices],
        )

    def min_pairwise_distance(self) -> float:
        if len(self) < 2:
            return math.inf
        tree = cKDTree(self.positions)
        d, _ = tree.query(self.positions, k=2)
        return float(d[:, 1].min())


@dataclass
class GroundTruth:
    """Atoms on an (nz, ny, nx) ``shape`` grid of voxel ``pitch``.

    ``volume`` is their render, made on first use and kept: a phantom
    edited in steps (shell, vacancies) renders only its final atom list.
    """

    atoms: AtomList
    shape: tuple[int, int, int]
    pitch: float
    metadata: dict = field(default_factory=dict)

    @cached_property
    def volume(self) -> PotentialVolume:
        return render_potential(self.atoms, self.shape, self.pitch)


def _species_defaults(name: str, amplitudes: dict | None) -> float:
    table = dict(DEFAULT_AMPLITUDES)
    if amplitudes:
        table.update(amplitudes)
    return table[name]


def render_potential(atoms: AtomList, extent: tuple[int, int, int], pitch: float) -> PotentialVolume:
    """Accumulate Gaussian blobs into an (nz, ny, nx) volume.

    Lateral profile: amplitude * exp(-(dx^2+dy^2)/(2 w^2)) sampled at voxel
    centers. Axial profile: the slab integral of the same Gaussian,
    normalized so an atom centered in a slab contributes its amplitude
    at the peak voxel. Contributions are truncated at 4 sigma.
    """
    nz, ny, nx = extent
    values = np.zeros((nz, ny, nx))
    for idx in range(len(atoms)):
        x0, y0, z0 = atoms.positions[idx]
        amp = atoms.amplitude[idx]
        w = atoms.width[idx]
        reach = 4.0 * w
        # voxel index ranges covering +- reach
        zc = np.arange(max(0, int((z0 - reach) / pitch)), min(nz, int((z0 + reach) / pitch) + 1))
        yc = np.arange(max(0, int((y0 - reach) / pitch)), min(ny, int((y0 + reach) / pitch) + 1))
        xc = np.arange(max(0, int((x0 - reach) / pitch)), min(nx, int((x0 + reach) / pitch) + 1))
        if zc.size == 0 or yc.size == 0 or xc.size == 0:
            continue
        gx = np.exp(-((xc + 0.5) * pitch - x0) ** 2 / (2.0 * w * w))
        gy = np.exp(-((yc + 0.5) * pitch - y0) ** 2 / (2.0 * w * w))
        # analytic slab integrals, normalized to the centered-slab mass
        lo = (zc * pitch - z0) / w
        hi = ((zc + 1) * pitch - z0) / w
        slab_mass = ndtr(hi) - ndtr(lo)
        center_mass = 2.0 * ndtr(pitch / (2.0 * w)) - 1.0
        gz = slab_mass / center_mass
        values[np.ix_(zc, yc, xc)] += amp * gz[:, None, None] * gy[None, :, None] * gx[None, None, :]
    return PotentialVolume(values, pitch)


def analytic_blob_sum(amplitude: float, width: float, pitch: float) -> float:
    """Closed-form total of one rendered blob over an unbounded grid."""
    lateral = 2.0 * np.pi * width**2 / pitch**2
    center_mass = 2.0 * ndtr(pitch / (2.0 * width)) - 1.0
    return amplitude * lateral / center_mass


def _inside(shape: str, xyz: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    if shape == "box":
        return np.ones(len(xyz), dtype=bool)
    if shape == "sphere":
        return np.sum((xyz - center) ** 2, axis=1) <= radius**2
    if shape == "cylinder":
        # axis along y, through the volume center
        d2 = (xyz[:, 0] - center[0]) ** 2 + (xyz[:, 2] - center[2]) ** 2
        return d2 <= radius**2
    raise ValueError(f"unknown clip shape {shape!r}")


def make_crystal(
    extent: int,
    pitch: float,
    lattice_const: float,
    species_pattern: str = "alternating",
    seed: int = 0,
    shape: str = "box",
    radius: float | None = None,
    margin_voxels: float = 2.0,
    amplitudes: dict | None = None,
    width: float = DEFAULT_WIDTH,
    d_min: float = DEFAULT_D_MIN,
) -> GroundTruth:
    """Simple-cubic lattice on a cubic ``extent^3`` grid, clipped to a
    box, sphere, or y-axis cylinder.

    Lattice sites sit at ``(i + 1/2) * lattice_const`` per axis. The
    species pattern is "heavy", "light", or "alternating" (parity of
    i+j+k). ``seed`` only matters for downstream edits; the lattice
    itself is deterministic. ``pitch``, ``lattice_const``, ``width``,
    ``d_min`` and a given ``radius`` must be finite and positive,
    ``margin_voxels`` finite and non-negative, and ``extent`` an integer
    of at least 2, the smallest grid (:class:`~phasetomo.fields.GridSpec`).
    """
    if not (isinstance(extent, (int, np.integer)) and extent >= 2):
        raise ConfigurationError(f"extent must be an integer >= 2, got {extent}")
    _require_positive(pitch, "pitch")
    _require_positive(lattice_const, "lattice_const")
    _require_positive(width, "width")
    _require_positive(d_min, "d_min")
    _require_non_negative(margin_voxels, "margin_voxels")
    if radius is not None:
        _require_positive(radius, "radius")
    if lattice_const < d_min:
        raise ValueError("lattice constant below the minimum atom distance")
    size = extent * pitch
    margin = margin_voxels * pitch
    center = np.full(3, size / 2.0)
    if radius is None:
        radius = size / 2.0 - margin

    n_cells = int(size / lattice_const) + 1
    idx = np.arange(n_cells)
    ii, jj, kk = np.meshgrid(idx, idx, idx, indexing="ij")
    ijk = np.stack([ii, jj, kk], axis=-1).reshape(-1, 3)
    xyz = (ijk + 0.5) * lattice_const
    keep = np.all((xyz >= margin) & (xyz <= size - margin), axis=1)
    keep &= _inside(shape, xyz, center, radius)
    ijk, xyz = ijk[keep], xyz[keep]

    if species_pattern == "alternating":
        species = np.where(np.sum(ijk, axis=1) % 2 == 0, "heavy", "light").astype(object)
    elif species_pattern in SPECIES:
        species = np.full(len(xyz), species_pattern, dtype=object)
    else:
        raise ValueError(f"unknown species pattern {species_pattern!r}")

    amplitude = np.array([_species_defaults(s, amplitudes) for s in species])
    atoms = AtomList(xyz, species, amplitude, np.full(len(xyz), width))
    if len(atoms) >= 2 and atoms.min_pairwise_distance() < d_min:
        raise AssertionError("lattice violates the minimum distance")
    metadata = {
        "generator": "crystal",
        "extent": extent,
        "pitch": pitch,
        "lattice_const": lattice_const,
        "species_pattern": species_pattern,
        "shape": shape,
        "radius": radius,
        "margin_voxels": margin_voxels,
        "width": width,
        "d_min": d_min,
        "seed": seed,
        "rng_algorithm": PHANTOM_RNG_ALGORITHM,
    }
    return GroundTruth(atoms, (extent, extent, extent), pitch, metadata)


def add_amorphous_shell(
    g: GroundTruth,
    thickness: float,
    bond_length: float = 1.6,
    seed: int = 0,
    d_min: float = DEFAULT_D_MIN,
    amplitudes: dict | None = None,
    width: float = DEFAULT_WIDTH,
) -> GroundTruth:
    """Random sequential adsorption of a disordered shell.

    Candidate positions are sampled uniformly in a radial band of the
    given thickness just outside the current outermost atom (sphere or
    cylinder band, following the core geometry), rejected when closer
    than ``d_min`` to any atom. Insertion stops once the mean
    nearest-neighbor distance of the shell atoms drops to
    ``bond_length``, or after 200 000 sampled positions. Each shell atom
    is light or heavy with equal odds. ``thickness`` (the manifest's
    ``shell_thickness``) must be finite and non-negative; ``bond_length``,
    ``d_min`` and ``width`` finite and positive.
    """
    _require_non_negative(thickness, "shell_thickness")
    _require_positive(bond_length, "bond_length")
    _require_positive(d_min, "d_min")
    _require_positive(width, "width")
    if thickness == 0.0:
        return GroundTruth(g.atoms, g.shape, g.pitch, dict(g.metadata))
    nz, ny, nx = g.shape
    pitch = g.pitch
    size = nx * pitch
    margin = float(g.metadata.get("margin_voxels", 2.0)) * pitch
    center = np.array([size / 2.0, ny * pitch / 2.0, size / 2.0])
    geometry = g.metadata.get("shape", "sphere")
    if geometry == "box":
        geometry = "sphere"

    def radial(pos: np.ndarray) -> np.ndarray:
        if geometry == "cylinder":
            return np.sqrt((pos[:, 0] - center[0]) ** 2 + (pos[:, 2] - center[2]) ** 2)
        return np.sqrt(np.sum((pos - center) ** 2, axis=1))

    r_core = float(radial(g.atoms.positions).max()) if len(g.atoms) else 0.0
    r_lo, r_hi = r_core, r_core + thickness

    rng = np.random.default_rng(seed)
    existing = list(g.atoms.positions)
    shell_positions: list[np.ndarray] = []
    lo = np.full(3, margin)
    hi = np.array([size - margin, ny * pitch - margin, size - margin])

    def mean_nn() -> float:
        if not shell_positions:
            return math.inf
        tree = cKDTree(np.array(existing))
        d, _ = tree.query(np.array(shell_positions), k=2)
        return float(d[:, 1].mean())

    attempts = 0
    check_every = 8
    since_check = 0
    while attempts < 200_000:
        attempts += 1
        p = rng.uniform(lo, hi)
        r = radial(p[None, :])[0]
        if not (r_lo < r <= r_hi):
            continue
        arr = np.array(existing)
        if len(arr) and np.min(np.sum((arr - p) ** 2, axis=1)) < d_min**2:
            continue
        existing.append(p)
        shell_positions.append(p)
        since_check += 1
        if since_check >= check_every:
            since_check = 0
            if mean_nn() <= bond_length:
                break
    n_shell = len(shell_positions)
    if n_shell == 0:
        return GroundTruth(g.atoms, g.shape, g.pitch, dict(g.metadata))

    species = np.where(rng.random(n_shell) < 0.5, "light", "heavy").astype(object)
    amplitude = np.array([_species_defaults(s, amplitudes) for s in species])
    shell = AtomList(np.array(shell_positions), species, amplitude,
                     np.full(n_shell, width))
    atoms = g.atoms.concatenated(shell)
    metadata = dict(g.metadata)
    metadata.update({
        "shell_thickness": thickness,
        "shell_bond_length": bond_length,
        "shell_seed": seed,
        "shell_atoms": n_shell,
    })
    return GroundTruth(atoms, g.shape, pitch, metadata)


def inject_vacancies(g: GroundTruth, fraction: float, seed: int = 0) -> GroundTruth:
    """Remove round(fraction * N) uniformly chosen atoms.

    Returns the defected ground truth; the removed sites are recorded in
    the metadata for later vacancy checks.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    n = len(g.atoms)
    n_remove = round(fraction * n)  # round-half-even
    if n_remove == 0:
        return GroundTruth(g.atoms, g.shape, g.pitch, dict(g.metadata))
    rng = np.random.default_rng(seed)
    removed = np.sort(rng.choice(n, size=n_remove, replace=False))
    keep = np.ones(n, dtype=bool)
    keep[removed] = False
    atoms = g.atoms.subset(keep)
    metadata = dict(g.metadata)
    metadata.update({
        "vacancy_fraction": fraction,
        "vacancy_seed": seed,
        "vacancy_sites": g.atoms.positions[removed].tolist(),
    })
    return GroundTruth(atoms, g.shape, g.pitch, metadata)


# ---------------------------------------------------------------------------
# atom list and ground-truth I/O
# ---------------------------------------------------------------------------

def write_sites_csv(path: str | Path, header: list[str], positions: np.ndarray,
                    species, values, widths) -> None:
    """UTF-8 CSV under ``header``, one row per site: x, y, z (the rows of
    ``positions``), species, value and width, floats at full
    (round-trippable) precision. Atom and traced-site CSVs both use it."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for (x, y, z), name, value, width in zip(positions, species, values, widths):
            writer.writerow([repr(float(x)), repr(float(y)), repr(float(z)), name,
                             repr(float(value)), repr(float(width))])


def write_atoms_csv(atoms: AtomList, path: str | Path) -> None:
    """Ground-truth atoms as a CSV under ``ATOMS_CSV_HEADER``."""
    write_sites_csv(path, ATOMS_CSV_HEADER, atoms.positions, atoms.species,
                    atoms.amplitude, atoms.width)


def read_csv_rows(path: Path, headers: list[list[str]], what: str) -> list[list[str]]:
    """Data rows of a CSV whose header is one of ``headers``; a row with
    another number of fields is a ``ValueError`` naming the file and line."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header not in headers:
            raise ValueError(f"unexpected {what} CSV header {header}")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path}, line {reader.line_num}: expected "
                                 f"{len(header)} fields, got {len(row)}")
            rows.append(row)
    return rows


def read_atoms_csv(path: str | Path) -> AtomList:
    rows = read_csv_rows(Path(path), [ATOMS_CSV_HEADER], "atom")
    if not rows:
        return AtomList.empty()
    positions = np.array([[float(r[0]), float(r[1]), float(r[2])] for r in rows])
    species = np.array([r[3] for r in rows], dtype=object)
    amplitude = np.array([float(r[4]) for r in rows])
    width = np.array([float(r[5]) for r in rows])
    return AtomList(positions, species, amplitude, width)


def write_ground_truth(g: GroundTruth, out_dir: str | Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_atoms_csv(g.atoms, out_dir / "atoms.csv")
    write_volume(g.volume, out_dir / "volume.raw")
    (out_dir / "manifest.json").write_text(json.dumps(g.metadata, indent=2) + "\n")


def read_ground_truth(in_dir: str | Path) -> GroundTruth:
    in_dir = Path(in_dir)
    atoms = read_atoms_csv(in_dir / "atoms.csv")
    volume = read_volume(in_dir / "volume.raw")
    metadata = json.loads((in_dir / "manifest.json").read_text())
    g = GroundTruth(atoms, volume.values.shape, volume.pitch, metadata)
    g.volume = volume  # the stored volume, not a new render
    return g
