"""Test support: the detail magnitude of a Haar subband set, from which the
wavelet and diffusion tests build their reference gates."""

import numpy as np

from pmtk.wavelet import SubbandSet


def detail_magnitude(s: SubbandSet) -> np.ndarray:
    """Pointwise magnitude of the two first-order detail bands."""
    return np.sqrt(s.lh * s.lh + s.hl * s.hl)
