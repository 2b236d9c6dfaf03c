"""The lateral sampling grid and the spectral factors of the multislice chain.

Provides the grid (:class:`GridSpec`), the microscope transfer function
H(q) (:class:`TransferFunction`), the angular-spectrum propagation kernel
and the circular band mask. :func:`phasetomo.forward.multislice_factors`
combines them into the slab and exit factors that simulation, the
forward pass and the backward pass apply; exit waves are plain complex
arrays. The module also holds the package's shared value checks and
their errors (:class:`ConfigurationError`, :class:`NonFiniteError`).

Conventions:
    * arrays are indexed ``(y, x)`` with x the fastest axis,
    * spatial frequencies ``q`` are in 1/Angstrom, stored in numpy fft
      order (DC at index 0),
    * the factors multiply spectra of the unitary FFT pair
      (``norm="ortho"``), so the adjoint of a factor is its complex
      conjugate and Parseval's identity holds without extra bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    """Grid or microscope parameters are inconsistent, or a CLI config is
    invalid (the CLI exits 2)."""


class NonFiniteError(ValueError):
    """An array that must be finite holds an inf or a nan."""


def _require_finite(values: np.ndarray, what: str = "field") -> None:
    if not np.all(np.isfinite(values)):
        raise NonFiniteError(f"non-finite {what}")


def _require_positive(value: float, what: str) -> None:
    """Raise unless ``0 < value < inf``, which a NaN fails too."""
    if not 0.0 < value < np.inf:
        raise ConfigurationError(f"{what} must be finite and positive, got {value}")


def _require_non_negative(value: float, what: str) -> None:
    """Raise unless ``0 <= value < inf``, which a NaN fails too."""
    if not 0.0 <= value < np.inf:
        raise ConfigurationError(f"{what} must be finite and non-negative, got {value}")


@dataclass(frozen=True)
class GridSpec:
    """Lateral sampling grid shared by exit waves and transfer functions.

    Parameters
    ----------
    nx, ny : int
        Pixel counts; arrays on this grid have shape ``(ny, nx)``.
    pitch : float
        Real-space sampling in Angstrom, isotropic.
    wavelength : float
        Electron wavelength in Angstrom.
    """

    nx: int
    ny: int
    pitch: float
    wavelength: float

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ConfigurationError("grid needs at least 2 pixels per axis")
        _require_positive(self.pitch, "pitch")
        _require_positive(self.wavelength, "wavelength")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)

    @property
    def nyquist(self) -> float:
        """Largest representable |q| component, 1/(2*pitch)."""
        return 1.0 / (2.0 * self.pitch)

    def frequency_grids(self) -> tuple[np.ndarray, np.ndarray]:
        """(qy, qx) broadcastable frequency coordinates in fft order."""
        qx = np.fft.fftfreq(self.nx, d=self.pitch)
        qy = np.fft.fftfreq(self.ny, d=self.pitch)
        return qy[:, None], qx[None, :]

    def q_squared(self) -> np.ndarray:
        qy, qx = self.frequency_grids()
        return qy * qy + qx * qx


@dataclass
class TransferFunction:
    """Frequency-domain filter H(q) applied to exit waves.

    ``values`` are stored in fft order on the same grid as the waves they
    filter. |H| <= 1 everywhere; when ``aperture_qmax`` is set, H is zero
    beyond that radius.
    """

    grid: GridSpec
    values: np.ndarray
    aperture_qmax: float | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != self.grid.shape:
            raise ValueError("transfer function shape does not match grid")
        _require_finite(self.values, "transfer function")
        if np.any(np.abs(self.values) > 1.0 + 1e-12):
            raise ValueError("|H(q)| must not exceed 1")
        if self.aperture_qmax is not None:
            outside = self.grid.q_squared() > self.aperture_qmax**2
            if np.any(self.values[outside] != 0):
                raise ValueError("H(q) must vanish beyond the aperture cutoff")

    @classmethod
    def identity(cls, grid: GridSpec, aperture_qmax: float | None = None) -> "TransferFunction":
        """H == 1, optionally truncated by a hard circular aperture."""
        values = np.ones(grid.shape, dtype=np.complex128)
        if aperture_qmax is not None:
            values[grid.q_squared() > aperture_qmax**2] = 0.0
        return cls(grid, values, aperture_qmax)


def propagation_kernel(grid: GridSpec, dz: float) -> np.ndarray:
    """Angular-spectrum factor exp[i 2 pi dz sqrt(1/lambda^2 - |q|^2)].

    Frequencies beyond 1/lambda (evanescent) are zeroed rather than
    attenuated, which keeps the propagator exactly unitary on its band
    and makes the adjoint equal to propagation by ``-dz``.
    """
    lam = grid.wavelength
    q2 = grid.q_squared()
    kz2 = 1.0 / lam**2 - q2
    band = kz2 > 0.0
    kernel = np.zeros(grid.shape, dtype=np.complex128)
    kernel[band] = np.exp(2j * np.pi * dz * np.sqrt(kz2[band]))
    return kernel


def band_mask(grid: GridSpec, fraction: float = 2.0 / 3.0) -> np.ndarray:
    """Boolean circular mask |q| <= fraction * Nyquist, in fft order.

    Multislice anti-aliasing uses the conventional 2/3 band limit after
    each transmittance multiplication.
    """
    qmax = fraction * grid.nyquist
    return grid.q_squared() <= qmax**2
