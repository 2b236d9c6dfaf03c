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


def backpropagate(residuals, waves, w, params, factors):
    """The backward pass with each slab's transmittance evaluated again by
    :func:`transmittance`; returns the (n_slabs, ny, nx) slab gradients.

    Every float operation runs in the program's order, operands included:
    numpy's complex product is not bitwise commutative.
    """
    spectra = np.fft.fft2(np.asarray(residuals, dtype=np.complex128), norm="ortho")
    phi = np.fft.ifft2(spectra * np.conj(factors.exit_factors), norm="ortho").sum(axis=0)
    slab_factor_back = np.conj(factors.slab_factor)
    gradients = [None] * w.n_slabs
    for m in range(w.n_slabs - 1, -1, -1):
        phi = np.fft.ifft2(slab_factor_back * np.fft.fft2(phi, norm="ortho"), norm="ortho")
        t_conj = np.conj(transmittance(w.values[m], params.sigma))
        gradients[m] = -1j * params.sigma * t_conj * np.conj(waves[m]) * phi
        phi = t_conj * phi
    return np.stack(gradients)
