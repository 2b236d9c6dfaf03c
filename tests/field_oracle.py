"""Reference field operators for the forward tests, one FFT pair per step.

Each operator transforms the wave, multiplies by one spectral factor and
transforms back, on plain complex arrays. The program folds the same
steps into the fused slab and exit factors of
:func:`phasetomo.forward.multislice_factors`; these oracles apply them
one at a time.
"""

import numpy as np

from phasetomo.fields import band_mask, propagation_kernel


def filtered(values, factor):
    """F^-1 { factor * F { values } } with the unitary FFT pair."""
    spectrum = np.fft.fft2(values, norm="ortho")
    return np.fft.ifft2(spectrum * factor, norm="ortho")


def transmittance(slab, sigma):
    """Phase screen t = exp(i sigma W) of one slab."""
    return np.exp(1j * sigma * np.asarray(slab))


def propagate(values, grid, dz):
    """Free-space propagation by ``dz`` Angstrom."""
    return filtered(values, propagation_kernel(grid, dz))


def band_limit(values, grid, fraction=2.0 / 3.0):
    """Zero all spatial frequencies beyond ``fraction`` of Nyquist."""
    return filtered(values, band_mask(grid, fraction))


def apply_ctf(values, h):
    """Spectral multiplication by the transfer function H(q)."""
    return filtered(values, h.values)
