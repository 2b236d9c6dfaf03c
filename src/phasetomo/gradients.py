"""Amplitude cost, per-defocus residuals, and the gradient backward pass.

The data term compares wave amplitudes, sum ||sqrt(I) - sqrt(I_hat)||^2,
which suits Poisson-dominated counting noise. Its gradient with respect
to each slab of projected potential is computed by running the exact
adjoint of the forward multislice chain over the residual fields.

The backward pass runs the forward chain's factors in reverse, each
replaced by its complex conjugate (the adjoint of a spectral
multiplication). With P_dz the slab propagator and P_df_j H the exit
factor of defocus j, both from :func:`phasetomo.forward.multislice_factors`,
phi the adjoint field and t_m the forward transmittance of slab m:

    phi <- sum_j F^-1 { conj(P_df_j H) F { r_j } }
    for m = n_slabs .. 1:
        phi <- F^-1 { conj(P_dz) F { phi } }   # adjoint of slab m's propagation
        g_m  = -i sigma conj(t_m) conj(psi_m) phi
        phi <- conj(t_m) phi

Each returned slab gradient ``g_m`` is complex; the derivative of the
scalar cost with respect to the (real) slab potential is ``2 * Re(g_m)``.
The factor 2 is deliberately left to the caller's step size.
"""

from __future__ import annotations

import numpy as np

from .fields import TransferFunction, WaveField
# Not called here (the backward pass conjugates forward's factors); the two
# names stay importable from this module because perfbench/layers.py wraps them.
from .fields import band_mask, propagation_kernel  # noqa: F401
from .forward import multislice_factors
from .volume import BinnedVolume, InteractionParams

AMPLITUDE_EPS = 1e-12


def amplitude_cost(measured: np.ndarray, predicted: np.ndarray) -> float:
    """sum (sqrt(I) - sqrt(I_hat))^2 over all pixels of the given stacks.

    Both inputs are intensities normalized to unit incident background.
    """
    measured = np.asarray(measured, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if np.any(measured < 0) or np.any(predicted < 0):
        raise ValueError("intensities must be non-negative")
    diff = np.sqrt(measured) - np.sqrt(predicted)
    return float(np.sum(diff * diff))


def residual(exit_wave: WaveField, measured_amplitude: np.ndarray) -> np.ndarray:
    """r = psi - sqrt(I) * psi/|psi|, with the unit-phase factor replaced
    by 1 wherever |psi| < 1e-12."""
    psi = exit_wave.values
    amp = np.abs(psi)
    unit_phase = np.where(amp < AMPLITUDE_EPS, 1.0 + 0j, psi / np.where(amp < AMPLITUDE_EPS, 1.0, amp))
    return psi - np.asarray(measured_amplitude) * unit_phase


def backpropagate(
    residuals: list[np.ndarray],
    intermediates: list[np.ndarray],
    w: BinnedVolume,
    params: InteractionParams,
    defoci: tuple[float, ...] | list[float],
    h: TransferFunction,
    anti_alias: bool = True,
) -> list[np.ndarray]:
    """Backward pass producing one complex gradient field per slab.

    ``intermediates`` must be exactly the list returned by
    :func:`phasetomo.forward.multislice_forward` on the same slabs and
    settings; the same band-limit choice must be passed so the adjoint
    matches the forward operator.
    """
    n_slabs = w.n_slabs
    if len(intermediates) != n_slabs + 1:
        raise ValueError(
            f"expected {n_slabs + 1} intermediate waves, got {len(intermediates)}"
        )
    if len(residuals) != len(defoci):
        raise ValueError("one residual field per defocus is required")

    slab_factor, exit_factors = multislice_factors(h, w.slab_thickness, defoci, anti_alias)
    # refocus all residuals to the end of the sample
    spectra = np.fft.fft2(np.asarray(residuals, dtype=np.complex128), norm="ortho")
    phi = np.fft.ifft2(spectra * np.conj(exit_factors), norm="ortho").sum(axis=0)
    slab_factor_back = np.conj(slab_factor)

    gradients: list[np.ndarray | None] = [None] * n_slabs
    sigma = params.sigma
    for m in range(n_slabs - 1, -1, -1):
        phi = np.fft.ifft2(slab_factor_back * np.fft.fft2(phi, norm="ortho"), norm="ortho")
        t_conj = np.conj(np.exp(1j * sigma * w.values[m]))
        psi_m = intermediates[m]
        gradients[m] = -1j * sigma * t_conj * np.conj(psi_m) * phi
        phi = t_conj * phi
    return gradients  # type: ignore[return-value]
