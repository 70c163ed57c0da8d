"""Autocorrelation f0 tracking and unvoiced-gap interpolation, all in Hz.

Frames go in blocks split by audio.blocks, of FFT_BLOCK_FRAMES and PEAK_BLOCK_FRAMES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio import Waveform, blocks, frame_signal, frozen

HOP_S = 0.010
VOICING_THRESHOLD = 0.45
WINDOW_PERIODS = 3.0  # analysis window spans this many periods of the floor
SILENCE_THRESHOLD = 0.01  # frames below this fraction of the global peak are unvoiced
OCTAVE_COST = 0.05  # per octave above the floor, favors the higher candidate
OCTAVE_JUMP_COST = 0.35  # per octave of frame-to-frame f0 change
MAX_CANDIDATES = 4  # strongest peaks per frame offered to path selection
# Frames per ACF FFT, and frames above the silence level per round of peak
# picking. _candidates over perfbench's 24-utterance fit corpus (medians of 8
# runs, 2 vCPUs):
# - with rounds of 256, FFT blocks of 16 / 32 / 64 / 128 / 256 frames took
#   69 / 69 / 69 / 70 / 71 ms at 16 kHz and 246 / 248 / 252 / 247 / 306 ms at
#   44.1 kHz: a larger FFT batch gains nothing and outgrows the cache;
# - a round costs some 35 numpy calls whatever its size: with FFT blocks of 32,
#   rounds of 32 / 128 / 256 / 512 frames took 90 / 70 / 69 / 67 ms at 16 kHz.
#   A round holds PEAK_BLOCK_FRAMES x (lag_hi + 2) floats of ACF, so 512 would
#   double that for 4%.
FFT_BLOCK_FRAMES = 32
PEAK_BLOCK_FRAMES = 256


@dataclass(frozen=True)
class PitchConfig:
    """Tracker settings. floor/ceiling bound the f0 search range in Hz."""

    floor: float
    ceiling: float

    def __post_init__(self):
        if not (0 < self.floor < self.ceiling):
            raise ValueError("need 0 < floor < ceiling")


@dataclass(frozen=True)
class F0Trajectory:
    """Framewise f0 samples in Hz. Unvoiced frames carry NaN values."""

    times: np.ndarray
    values: np.ndarray
    voiced: np.ndarray

    def __post_init__(self):
        times = frozen(self.times, np.float64)
        values = frozen(self.values, np.float64)
        voiced = frozen(self.voiced, bool)
        if not (times.shape == values.shape == voiced.shape) or times.ndim != 1:
            raise ValueError("times/values/voiced must be 1-D arrays of equal length")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        if np.any(~np.isfinite(values[voiced])):
            raise ValueError("voiced frames must carry finite values")
        for name, arr in (("times", times), ("values", values), ("voiced", voiced)):
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.times.size

    @property
    def n_voiced(self) -> int:
        return int(np.count_nonzero(self.voiced))


def _window_acf(window: np.ndarray, nfft: int) -> np.ndarray:
    spec = np.fft.rfft(window, nfft)
    r = np.fft.irfft((spec * np.conj(spec)).real + 0j, nfft)
    return r / r[0]


def _frame_acf(frames: np.ndarray, window: np.ndarray, nfft: int) -> np.ndarray:
    """Raw ACF of each mean-removed, windowed frame, circular over nfft points."""
    spec = np.fft.rfft((frames - frames.mean(axis=1, keepdims=True)) * window, nfft, axis=1)
    return np.fft.irfft((spec * np.conj(spec)).real, nfft, axis=1)


def _block_candidates(frames, rows, window, nfft, rw, lag_lo, fs, cfg):
    """Voiced candidates of frames[rows], up to MAX_CANDIDATES per frame.

    Returns (frame, rank, freq, adj), one entry per candidate, rank 0 the
    strongest. The ACFs are taken FFT_BLOCK_FRAMES frames at a time and
    written into one array, which the peak picking reads in one pass.
    A frame gets no candidates when it has no energy after mean removal, or
    when its strongest periodicity sits above the ceiling: subharmonics in
    range are then aliases of a pitch we are not allowed to report.
    """
    rn = np.empty((rows.size, rw.size))
    for block in blocks(rows.size, FFT_BLOCK_FRAMES):
        rn[block] = _frame_acf(frames[rows[block]], window, nfft)[:, : rw.size]
    energy = rn[:, 0] > 0  # a constant frame has none left after mean removal
    if not energy.all():
        rows, rn = rows[energy], rn[energy]
    # normalized in place, so a round holds one ACF array
    rn /= rn[:, :1].copy()
    rn /= rw

    # local maxima at lags lag_lo .. rw.size-2, so each has both neighbours
    b = rn[:, lag_lo:-1]
    row, col = np.nonzero((b > rn[:, lag_lo - 1 : -2]) & (b >= rn[:, lag_lo + 1 :]))
    i = col + lag_lo
    a, b, c = rn[row, i - 1], rn[row, i], rn[row, i + 1]
    # parabolic refinement; a non-concave triple keeps the grid point
    denom = a - 2 * b + c
    proper = denom < 0
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.clip(0.5 * (a - c) / denom, -0.5, 0.5)
    lag = np.where(proper, i + delta, i)
    val = np.minimum(np.where(proper, b - 0.25 * (a - c) * delta, b), 1.0)
    freq = fs / lag
    adj = val + OCTAVE_COST * np.log2(np.maximum(freq, 1e-9) / cfg.floor)

    # frame by frame, strongest first; the stable sort keeps equal strengths
    # in lag order, so a frame's first peak is the one a running strict >
    # over increasing lags would pick
    order = np.lexsort((-adj, row))
    row, freq, adj, val = row[order], freq[order], adj[order], val[order]
    first = np.flatnonzero(np.diff(row, prepend=-1))
    above = row[first[freq[first] > cfg.ceiling]]
    cand = (cfg.floor <= freq) & (freq <= cfg.ceiling) & (val > 0) & ~np.isin(row, above)
    row, freq, adj = row[cand], freq[cand], adj[cand]
    rank = np.arange(row.size) - np.searchsorted(row, row)
    top = rank < MAX_CANDIDATES
    return rows[row[top]], rank[top], freq[top], adj[top]


def _select_path_greedy(freqs: np.ndarray, adjs: np.ndarray) -> np.ndarray:
    """Per frame, the candidate that best trades strength against the octave
    jump from the last voiced choice; NaN where none scores above
    VOICING_THRESHOLD. Candidates come strongest first, NaN-padded."""
    chosen = np.full(freqs.shape[0], np.nan)
    prev = None
    frames = np.flatnonzero(np.isfinite(adjs[:, 0]))
    # rows become lists a round at a time: all at once, on a 120 s file, they
    # doubled extract_f0's tracemalloc peak (5.4 MB against 2.8 MB)
    for block in blocks(frames.size, PEAK_BLOCK_FRAMES):
        rows = frames[block]
        for k, row_f, row_a in zip(rows.tolist(), freqs[rows].tolist(), adjs[rows].tolist()):
            best, best_score = None, VOICING_THRESHOLD
            for freq, adj in zip(row_f, row_a):
                if math.isnan(freq):
                    break
                score = adj
                if prev is not None:
                    score -= OCTAVE_JUMP_COST * abs(math.log2(freq / prev))
                if score > best_score:
                    best, best_score = freq, score
            if best is not None:
                chosen[k] = prev = best
    return chosen


def _candidates(w: Waveform, cfg: PitchConfig):
    """Frame times and every frame's candidates as (times, freqs, adjs).

    freqs/adjs are (n_frames, MAX_CANDIDATES), strongest first, with empty
    slots NaN / -inf.
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

    frames = frame_signal(x, win_n, hop_n)
    n_fr = frames.shape[0]
    times = (np.arange(n_fr) * hop_n + win_n / 2) / fs
    freqs = np.full((n_fr, MAX_CANDIDATES), np.nan)
    adjs = np.full((n_fr, MAX_CANDIDATES), -np.inf)
    # max(max, -min) is max |x| without a signal-sized temporary
    global_peak = float(max(x.max(), -x.min()))
    if global_peak == 0.0:
        return times, freqs, adjs

    window = np.hanning(win_n)
    search_fmax = min(2.0 * cfg.ceiling, 0.45 * fs)
    lag_lo = max(2, int(np.floor(fs / search_fmax)))
    lag_hi = int(np.ceil(fs / cfg.floor))
    # normalized ACF up to lag_hi + 1, so every lag up to lag_hi has both neighbours.
    # A win_n-point signal's linear ACF ends at lag win_n - 1, so over nfft points
    # lag k wraps onto lag nfft - k; with nfft >= win_n + lag_hi + 2 that partner is
    # past the end for every lag read, and the circular ACF equals the linear one.
    nfft = 1 << int(np.ceil(np.log2(win_n + lag_hi + 2)))
    rw = np.maximum(_window_acf(window, nfft)[: lag_hi + 2], 1e-12)
    # frames whose peak is below the silence level get no candidates
    live = np.flatnonzero(np.maximum(frames.max(axis=1), -frames.min(axis=1)) >= SILENCE_THRESHOLD * global_peak)
    for block in blocks(live.size, PEAK_BLOCK_FRAMES):
        row, rank, freq, adj = _block_candidates(frames, live[block], window, nfft, rw, lag_lo, fs, cfg)
        freqs[row, rank] = freq
        adjs[row, rank] = adj
    return times, freqs, adjs


def extract_f0(w: Waveform, cfg: PitchConfig) -> F0Trajectory:
    """Track f0 with the window-normalized autocorrelation method (Boersma 1993).

    Frames are Hanning-windowed after mean removal; the frame ACF is divided
    by the window ACF and candidate peaks are refined by parabolic
    interpolation. Both ACFs come from FFTs of the smallest power of two of
    at least win_n + lag_hi + 2 points, win_n being the window and lag_hi the
    floor's period in samples, so the circular ACF equals the linear one at
    every lag read, 0 .. lag_hi + 1. Frames below the silence level are
    skipped. The others are taken PEAK_BLOCK_FRAMES at a time: their ACFs
    come from one FFT per FFT_BLOCK_FRAMES frames and fill one array, whose
    peaks are then picked, refined and ranked in one pass. Only the path
    through the candidates is chosen frame by frame. Neither block size
    changes a bit of the result. Voiced values always lie within
    [floor, ceiling].
    """
    times, freqs, adjs = _candidates(w, cfg)
    chosen = _select_path_greedy(freqs, adjs)
    return F0Trajectory(times, np.clip(chosen, cfg.floor, cfg.ceiling), ~np.isnan(chosen))


def interpolate_unvoiced(t: F0Trajectory) -> F0Trajectory:
    """Fill unvoiced frames by linear interpolation in Hz.

    Leading/trailing gaps take the nearest voiced value. Voiced frames and
    voicing flags are untouched.
    """
    if t.n_voiced == 0:
        raise ValueError("trajectory has no voiced frames; utterance unusable")
    idx = np.arange(len(t))
    vi = idx[t.voiced]
    values = np.interp(idx, vi, t.values[t.voiced])
    values[t.voiced] = t.values[t.voiced]
    return F0Trajectory(t.times, values, t.voiced)
