"""Scalar per-frame autocorrelation tracker: the reference for pitch.extract_f0.

This is the tracker as it was before frame batching: one FFT, one Python
candidate scan and one parabolic fit per peak for every frame. It is kept
only as a test oracle; extract_f0 must reproduce its values and voicing
bitwise, and raise the same errors.
"""

from __future__ import annotations

import math

import numpy as np

from voxmask.audio import Waveform, num_frames
from voxmask.pitch import (
    HOP_S,
    OCTAVE_COST,
    OCTAVE_JUMP_COST,
    SILENCE_THRESHOLD,
    VOICING_THRESHOLD,
    WINDOW_PERIODS,
    F0Trajectory,
    PitchConfig,
)


def _window_acf(window: np.ndarray, nfft: int) -> np.ndarray:
    spec = np.fft.rfft(window, nfft)
    r = np.fft.irfft((spec * np.conj(spec)).real + 0j, nfft)
    return r / r[0]


def _parabolic_peak(y: np.ndarray, i: int):
    """Refine peak position i by fitting a parabola to (i-1, i, i+1)."""
    a, b, c = y[i - 1], y[i], y[i + 1]
    denom = a - 2 * b + c
    if denom >= 0:  # not a proper maximum, fall back to the grid point
        return float(i), float(b)
    delta = 0.5 * (a - c) / denom
    delta = float(np.clip(delta, -0.5, 0.5))
    value = b - 0.25 * (a - c) * delta
    return i + delta, float(value)


def _frame_candidates(rn, lag_lo, lag_hi, fs, cfg):
    """Voiced candidates (freq, adjusted strength) for one frame.

    Returns an empty list when the dominant periodicity sits above the
    ceiling, which signals the frame should be treated as unvoiced.
    """
    cands = []
    best_adj, best_freq = -np.inf, None
    for i in range(lag_lo, min(lag_hi + 1, rn.size - 1)):
        if rn[i] > rn[i - 1] and rn[i] >= rn[i + 1]:
            lag, val = _parabolic_peak(rn, i)
            freq = fs / lag
            val = min(val, 1.0)
            adj = val + OCTAVE_COST * math.log2(max(freq, 1e-9) / cfg.floor)
            if adj > best_adj:
                best_adj, best_freq = adj, freq
            if cfg.floor <= freq <= cfg.ceiling and val > 0:
                cands.append((freq, adj))
    if best_freq is not None and best_freq > cfg.ceiling:
        return []
    cands.sort(key=lambda c: -c[1])
    return cands[:4]


def _select_path_greedy(candidates):
    values = []
    prev = None
    for cands in candidates:
        best, best_score = None, VOICING_THRESHOLD
        for freq, adj in cands:
            score = adj
            if prev is not None:
                score -= OCTAVE_JUMP_COST * abs(math.log2(freq / prev))
            if score > best_score:
                best, best_score = freq, score
        values.append(best)
        prev = best if best is not None else prev
    return values


def frame_candidates_scalar(w: Waveform, cfg: PitchConfig, nfft=None) -> list:
    """Every frame's candidate list [(freq, adj), ...], strongest first.

    nfft is the FFT size of every frame's ACF. By default it is extract_f0's: the
    smallest power of two of at least win_n + lag_hi + 2 points, so no lag up to
    lag_hi + 1 wraps around.
    """
    fs = w.sample_rate
    if cfg.ceiling >= fs / 2:
        raise ValueError("ceiling must stay below the Nyquist frequency")
    win_n = int(round(WINDOW_PERIODS / cfg.floor * fs))
    hop_n = max(1, int(round(HOP_S * fs)))
    x = w.samples
    if x.size < win_n:
        raise ValueError(
            f"signal of {x.size} samples is shorter than one analysis window ({win_n})"
        )

    n_fr = num_frames(x.size, win_n, hop_n)
    search_fmax = min(2.0 * cfg.ceiling, 0.45 * fs)
    lag_lo = max(2, int(np.floor(fs / search_fmax)))
    lag_hi = int(np.ceil(fs / cfg.floor))
    if nfft is None:
        nfft = 1 << int(np.ceil(np.log2(win_n + lag_hi + 2)))
    window = np.hanning(win_n)
    rw = _window_acf(window, nfft)
    global_peak = float(np.max(np.abs(x))) if x.size else 0.0

    candidates = []
    for k in range(n_fr):
        seg = x[k * hop_n : k * hop_n + win_n]
        if global_peak == 0.0 or np.max(np.abs(seg)) < SILENCE_THRESHOLD * global_peak:
            candidates.append([])
            continue
        segw = (seg - seg.mean()) * window
        spec = np.fft.rfft(segw, nfft)
        r = np.fft.irfft((spec * np.conj(spec)).real + 0j, nfft)
        if r[0] <= 0:
            candidates.append([])
            continue
        rn = (r[: lag_hi + 2] / r[0]) / np.maximum(rw[: lag_hi + 2], 1e-12)
        candidates.append(_frame_candidates(rn, lag_lo, lag_hi, fs, cfg))
    return candidates


def extract_f0_scalar(w: Waveform, cfg: PitchConfig, nfft=None) -> F0Trajectory:
    candidates = frame_candidates_scalar(w, cfg, nfft)
    chosen = _select_path_greedy(candidates)

    fs = w.sample_rate
    win_n = int(round(WINDOW_PERIODS / cfg.floor * fs))
    hop_n = max(1, int(round(HOP_S * fs)))
    n_fr = len(candidates)
    times = (np.arange(n_fr) * hop_n + win_n / 2) / fs
    values = np.full(n_fr, np.nan)
    voiced = np.zeros(n_fr, dtype=bool)
    for k, freq in enumerate(chosen):
        if freq is not None:
            values[k] = float(np.clip(freq, cfg.floor, cfg.ceiling))
            voiced[k] = True
    return F0Trajectory(times, values, voiced)
