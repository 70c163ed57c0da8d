"""Autocorrelation f0 tracking, unvoiced-gap interpolation, and semitone conversion."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .audio import Waveform, num_frames

HZ = "hz"
SEMITONE = "semitone"

#: Default reference for semitone conversion (12*log2(f/ref)).
DEFAULT_SEMITONE_REF_HZ = 100.0

HOP_S = 0.010
VOICING_THRESHOLD = 0.45
WINDOW_PERIODS = 3.0  # analysis window spans this many periods of the floor
SILENCE_THRESHOLD = 0.01  # frames below this fraction of the global peak are unvoiced
OCTAVE_COST = 0.05  # per octave above the floor, favors the higher candidate
OCTAVE_JUMP_COST = 0.35  # per octave of frame-to-frame f0 change


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
    """Framewise f0 samples. Unvoiced frames carry NaN values."""

    times: np.ndarray
    values: np.ndarray
    voiced: np.ndarray
    unit: str = HZ

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        voiced = np.asarray(self.voiced, dtype=bool)
        if not (times.shape == values.shape == voiced.shape) or times.ndim != 1:
            raise ValueError("times/values/voiced must be 1-D arrays of equal length")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        if np.any(~np.isfinite(values[voiced])):
            raise ValueError("voiced frames must carry finite values")
        if self.unit not in (HZ, SEMITONE):
            raise ValueError(f"unknown unit {self.unit!r}")
        for name, arr in (("times", times), ("values", values), ("voiced", voiced)):
            arr = arr.copy()
            arr.setflags(write=False)
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
        # periodicity above the search band: subharmonics in range are
        # aliases of a pitch we are not allowed to report
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


def extract_f0(w: Waveform, cfg: PitchConfig) -> F0Trajectory:
    """Track f0 with the window-normalized autocorrelation method.

    Frames are Hanning-windowed after mean removal; the frame ACF is divided
    by the window ACF and candidate peaks are refined by parabolic
    interpolation. Voiced values always lie within [floor, ceiling].
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
    window = np.hanning(win_n)
    nfft = 1 << int(np.ceil(np.log2(2 * win_n)))
    rw = _window_acf(window, nfft)

    search_fmax = min(2.0 * cfg.ceiling, 0.45 * fs)
    lag_lo = max(2, int(np.floor(fs / search_fmax)))
    lag_hi = int(np.ceil(fs / cfg.floor))
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

    chosen = _select_path_greedy(candidates)

    times = (np.arange(n_fr) * hop_n + win_n / 2) / fs
    values = np.full(n_fr, np.nan)
    voiced = np.zeros(n_fr, dtype=bool)
    for k, freq in enumerate(chosen):
        if freq is not None:
            values[k] = float(np.clip(freq, cfg.floor, cfg.ceiling))
            voiced[k] = True
    return F0Trajectory(times, values, voiced, HZ)


def interpolate_unvoiced(t: F0Trajectory) -> F0Trajectory:
    """Fill unvoiced frames by linear interpolation in Hz.

    Leading/trailing gaps take the nearest voiced value. Voiced frames and
    voicing flags are untouched.
    """
    if t.unit != HZ:
        raise ValueError("interpolation is defined on Hz trajectories")
    if t.n_voiced == 0:
        raise ValueError("trajectory has no voiced frames; utterance unusable")
    idx = np.arange(len(t))
    vi = idx[t.voiced]
    values = np.interp(idx, vi, t.values[t.voiced])
    values[t.voiced] = t.values[t.voiced]
    return F0Trajectory(t.times, values, t.voiced, HZ)


def hz_to_semitones(t: F0Trajectory, ref: float = DEFAULT_SEMITONE_REF_HZ) -> F0Trajectory:
    """Convert to semitones relative to ref: 12*log2(f/ref)."""
    if t.unit != HZ:
        raise ValueError("trajectory is not in Hz")
    if ref <= 0:
        raise ValueError("ref must be positive")
    finite = np.isfinite(t.values)
    if np.any(t.values[finite] <= 0):
        raise ValueError("all finite f0 values must be positive")
    values = 12.0 * np.log2(np.where(finite, t.values, np.nan) / ref)
    return F0Trajectory(t.times, values, t.voiced, SEMITONE)


def semitones_to_hz(t: F0Trajectory, ref: float = DEFAULT_SEMITONE_REF_HZ) -> F0Trajectory:
    """Inverse of hz_to_semitones: ref * 2**(st/12)."""
    if t.unit != SEMITONE:
        raise ValueError("trajectory is not in semitones")
    values = ref * np.exp2(t.values / 12.0)
    return F0Trajectory(t.times, values, t.voiced, HZ)


def save_trajectory_csv(path, t: F0Trajectory) -> None:
    """Write `time_s,f0_hz,voiced` rows; NaN serialized as an empty field."""
    if t.unit != HZ:
        raise ValueError("CSV export expects an Hz trajectory")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "f0_hz", "voiced"])
        for time, value, v in zip(t.times, t.values, t.voiced):
            writer.writerow([f"{time:.6f}", "" if np.isnan(value) else f"{value:.6f}", int(v)])


def load_trajectory_csv(path) -> F0Trajectory:
    """Read a trajectory written by save_trajectory_csv."""
    times, values, voiced = [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["time_s", "f0_hz", "voiced"]:
            raise ValueError(f"unexpected trajectory CSV header: {reader.fieldnames}")
        for row in reader:
            times.append(float(row["time_s"]))
            values.append(float(row["f0_hz"]) if row["f0_hz"] else np.nan)
            voiced.append(bool(int(row["voiced"])))
    return F0Trajectory(np.array(times), np.array(values), np.array(voiced), HZ)
