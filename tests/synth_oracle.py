"""Sample-at-a-time pulse-train excitation: the reference for voxmask.synth.pulse_train.

This is the excitation code as it was before its loop ran once per glottal
pulse: the phase takes one increment per sample, and a pulse, with its
shimmer drawn on the spot, fires on each sample where the phase reaches 1.
It is kept only as a test oracle: synth.pulse_train must be bitwise equal to
it, and must leave the generator in the same state.
"""

from __future__ import annotations

import numpy as np


def pulse_train_oracle(f0_curve: np.ndarray, fs: float, rng=None, shimmer: float = 0.0) -> np.ndarray:
    n = f0_curve.size
    out = np.zeros(n)
    phase = 0.0
    for k in range(n):
        phase += f0_curve[k] / fs
        if phase >= 1.0:
            phase -= 1.0
            amp = 1.0
            if rng is not None and shimmer > 0:
                amp += shimmer * float(rng.standard_normal())
            out[k] = amp
    return out
