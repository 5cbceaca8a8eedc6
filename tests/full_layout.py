"""Test-side references for the modal layout: modes k = -K..K and their sum.

The package stores modes k = 0..K of real fields.  The references here
rebuild the full k = -K..K layout by conjugation and synthesize it from
all of its rows, as the full-layout code did, so they share no layout
code with ``cpflow.channel``.
"""

import numpy as np

from cpflow.channel import n_x_points


def full_layout(modes):
    """Modes k = -K..K (rows on axis -2) of the real field with modes k = 0..K in ``modes``."""
    return np.concatenate([np.conj(modes[..., :0:-1, :]), modes], axis=-2)


def full_sum(full):
    """Real part of sum_k full[..., k, :] exp(i k xi0 x), k = -K..K, on ``x_grid``: the
    inverse real FFT of the Hermitian part d_k = (c_k + conj c_-k) / 2, k = 0..K."""
    K = (full.shape[-2] - 1) // 2
    half = 0.5 * (full[..., K:, :] + np.conj(full[..., K::-1, :]))
    return np.fft.irfft(half, n=n_x_points(K), axis=-2, norm="forward")
