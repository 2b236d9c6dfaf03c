"""Per-defocus residuals and the gradient backward pass.

The data term compares wave amplitudes, sum ||sqrt(I) - sqrt(I_hat)||^2,
which suits Poisson-dominated counting noise; the solver's sweep
accumulates it tilt by tilt. Its gradient with respect to each slab of projected
potential is computed by running the exact adjoint of the forward
multislice chain over the residual waves.

The backward pass takes the same factors value as the forward pass and
runs its factors in reverse, each replaced by its complex conjugate (the
adjoint of a spectral multiplication). With P_dz the slab propagator and
P_df_j H the exit factor of defocus j, both held by the
:class:`phasetomo.forward.MultisliceFactors` the caller built, phi the
adjoint field, and psi_m and t_m the wave entering slab m and its
transmittance, both taken from the forward pass's
:class:`phasetomo.forward.MultisliceIntermediates` (the backward pass
evaluates no exponential):

    phi <- sum_j F^-1 { conj(P_df_j H) F { r_j } }
    for m = n_slabs .. 1:
        phi <- F^-1 { conj(P_dz) F { phi } }   # adjoint of slab m's propagation
        g_m  = -i sigma conj(t_m) conj(psi_m) phi
        phi <- conj(t_m) phi

The slab gradients ``g_m`` are returned as one complex stack; the
derivative of the scalar cost with respect to the (real) slab potential
is ``2 * Re(g_m)``. The factor 2 is deliberately left to the caller's
step size.
"""

from __future__ import annotations

import numpy as np

# Not called here (the backward pass conjugates forward's factors); the two
# names stay importable from this module because perfbench/layers.py wraps them.
from .fields import band_mask, propagation_kernel  # noqa: F401
from .forward import MultisliceFactors, MultisliceIntermediates
from .volume import BinnedVolume, InteractionParams

AMPLITUDE_EPS = 1e-12


def residual(psi: np.ndarray, measured_amplitude: np.ndarray) -> np.ndarray:
    """r = psi - sqrt(I) * psi/|psi|, pointwise for exit waves ``psi`` of
    any shape, with the unit-phase factor replaced by 1 wherever
    |psi| < 1e-12."""
    amp = np.abs(psi)
    unit_phase = np.where(amp < AMPLITUDE_EPS, 1.0 + 0j, psi / np.where(amp < AMPLITUDE_EPS, 1.0, amp))
    return psi - np.asarray(measured_amplitude) * unit_phase


def backpropagate(
    residuals: np.ndarray,
    intermediates: MultisliceIntermediates,
    w: BinnedVolume,
    params: InteractionParams,
    factors: MultisliceFactors,
) -> np.ndarray:
    """Backward pass producing one complex gradient field per slab.

    ``intermediates`` must be exactly the value returned by
    :func:`phasetomo.forward.multislice_forward` on the same slabs and
    ``factors``: its waves psi_m and transmittances t_m are used as they
    are, and the pass applies the conjugates of those factors, so it is
    the adjoint of that forward operator. ``residuals`` holds one
    residual wave per defocus, shape (n_defoci, ny, nx).

    Returns the slab gradients as one complex (n_slabs, ny, nx) array.
    """
    n_slabs = w.n_slabs
    waves, transmittances = intermediates.waves, intermediates.transmittances
    if len(waves) != n_slabs + 1:
        raise ValueError(f"expected {n_slabs + 1} intermediate waves, got {len(waves)}")
    if len(transmittances) != n_slabs:
        raise ValueError(f"expected {n_slabs} transmittances, got {len(transmittances)}")
    if len(residuals) != len(factors.exit_factors):
        raise ValueError("one residual field per defocus is required")
    factors.require_slabs_of(w)

    # refocus all residuals to the end of the sample
    spectra = np.fft.fft2(np.asarray(residuals, dtype=np.complex128), norm="ortho")
    phi = np.fft.ifft2(spectra * np.conj(factors.exit_factors), norm="ortho").sum(axis=0)
    slab_factor_back = np.conj(factors.slab_factor)

    gradients = np.empty(transmittances.shape, dtype=np.complex128)
    sigma = params.sigma
    for m in range(n_slabs - 1, -1, -1):
        phi = np.fft.ifft2(slab_factor_back * np.fft.fft2(phi, norm="ortho"), norm="ortho")
        t_conj = np.conj(transmittances[m])
        # keep the operand order: numpy's complex product is not bitwise commutative
        np.multiply(-1j * sigma * t_conj * np.conj(waves[m]), phi, out=gradients[m])
        phi = t_conj * phi
    return gradients
