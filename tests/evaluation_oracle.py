"""Per-segment STOI, looped overlap-add and looped MFCC mean normalization: the references for evaluation.

This is the evaluation code as it was before it became array operations:
one Python pass per (segment, band) cell in STOI, one per kept frame in the
overlap-add, and one per frame in the sliding mean subtraction. Silent-frame
removal and the band envelopes frame, window and transform each whole signal
at once. It is kept only as a test oracle; evaluation.stoi must agree with it
to 1e-12 and raise the same errors, the overlap-add and the block-at-a-time
framing must be bitwise equal, and the mean normalization must agree to
1e-12 of the coefficients' peak.
"""

from __future__ import annotations

import numpy as np

from voxmask.audio import Waveform, frame_signal, num_frames, resample
from voxmask.evaluation import (
    STOI_BETA,
    STOI_DYN_RANGE,
    STOI_FIRST_CENTER,
    STOI_FRAME,
    STOI_HOP,
    STOI_N_BANDS,
    STOI_NFFT,
    STOI_RATE,
    STOI_SEGMENT,
)


def third_octave_bands(nfft: int, fs: float):
    """Boolean bin-membership matrix for the 15 one-third-octave bands."""
    freqs = np.arange(nfft // 2 + 1) * fs / nfft
    centers = STOI_FIRST_CENTER * 2.0 ** (np.arange(STOI_N_BANDS) / 3.0)
    lo = centers * 2.0 ** (-1.0 / 6.0)
    hi = centers * 2.0 ** (1.0 / 6.0)
    return (freqs[None, :] >= lo[:, None]) & (freqs[None, :] < hi[:, None])


def overlap_add(frames: np.ndarray) -> np.ndarray:
    """Sum the frames at STOI_HOP spacing, one frame at a time."""
    out = np.zeros((frames.shape[0] - 1) * STOI_HOP + STOI_FRAME)
    for k in range(frames.shape[0]):
        out[k * STOI_HOP : k * STOI_HOP + STOI_FRAME] += frames[k]
    return out


def remove_silent_frames(x: np.ndarray, y: np.ndarray):
    win = np.hanning(STOI_FRAME + 2)[1:-1]
    n_fr = num_frames(x.size, STOI_FRAME, STOI_HOP)
    if n_fr == 0:
        raise ValueError("signal shorter than one analysis frame")
    xf = frame_signal(x, STOI_FRAME, STOI_HOP) * win
    yf = frame_signal(y, STOI_FRAME, STOI_HOP) * win
    energy = 20.0 * np.log10(np.linalg.norm(xf, axis=1) + 1e-30)
    keep = energy > energy.max() - STOI_DYN_RANGE
    if not np.any(keep) or energy.max() < -200.0:
        raise ValueError("reference signal is silent")
    return overlap_add(xf[keep]), overlap_add(yf[keep])


def band_envelopes(x: np.ndarray, bands: np.ndarray) -> np.ndarray:
    win = np.hanning(STOI_FRAME + 2)[1:-1]
    frames = frame_signal(x, STOI_FRAME, STOI_HOP) * win
    spec = np.fft.rfft(frames, STOI_NFFT, axis=1)
    power = np.abs(spec) ** 2
    return np.sqrt(power @ bands.T)  # (n_frames, n_bands)


def envelope_correlation(ex: np.ndarray, ey: np.ndarray) -> float:
    """Mean clipped correlation, one (segment, band) cell at a time."""
    m = ex.shape[0]
    if m < STOI_SEGMENT:
        raise ValueError(f"too little speech after silence removal ({m} frames < {STOI_SEGMENT})")
    clip_bound = 1.0 + 10.0 ** (-STOI_BETA / 20.0)
    total = 0.0
    count = 0
    for seg_end in range(STOI_SEGMENT, m + 1):
        xs = ex[seg_end - STOI_SEGMENT : seg_end]  # (30, 15)
        ys = ey[seg_end - STOI_SEGMENT : seg_end]
        xn = np.linalg.norm(xs, axis=0)
        yn = np.linalg.norm(ys, axis=0)
        for j in range(ex.shape[1]):
            if xn[j] == 0.0:
                continue  # reference carries nothing in this band/segment
            alpha = xn[j] / yn[j] if yn[j] > 0 else 0.0
            yc = np.minimum(alpha * ys[:, j], clip_bound * xs[:, j])
            xd = xs[:, j] - xs[:, j].mean()
            yd = yc - yc.mean()
            dx, dy = np.linalg.norm(xd), np.linalg.norm(yd)
            if dx == 0.0:
                continue  # constant reference envelope, correlation undefined
            total += float(xd @ yd) / (dx * dy) if dy > 0 else 0.0
            count += 1
    if count == 0:
        raise ValueError("no valid band segments; inputs degenerate")
    return total / count


def stoi(clean: Waveform, processed: Waveform) -> float:
    if clean.sample_rate != processed.sample_rate:
        raise ValueError("sample rates differ")
    x = resample(clean, STOI_RATE).samples
    y = resample(processed, STOI_RATE).samples
    if abs(x.size - y.size) > STOI_HOP:
        raise ValueError(f"length mismatch of {abs(x.size - y.size)} samples exceeds one hop")
    n = min(x.size, y.size)
    x, y = x[:n], y[:n]

    x, y = remove_silent_frames(x, y)
    bands = third_octave_bands(STOI_NFFT, STOI_RATE)
    return envelope_correlation(band_envelopes(x, bands), band_envelopes(y, bands))


def subtract_sliding_mean(coeffs: np.ndarray, half: int) -> np.ndarray:
    """Each frame minus the mean of the frames within half frames of it, one frame at a time."""
    cmn = np.empty_like(coeffs)
    for k in range(coeffs.shape[0]):
        a, b = max(0, k - half), min(coeffs.shape[0], k + half + 1)
        cmn[k] = coeffs[k] - coeffs[a:b].mean(axis=0)
    return cmn
