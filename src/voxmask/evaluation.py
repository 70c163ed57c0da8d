"""Objective evaluation: STOI intelligibility, MFCC-statistics speaker scoring, EER.

The speaker scorer is a deliberately lightweight stand-in for a trained
verification system: 23 MFCCs with short-time mean subtraction, summarized
by per-coefficient mean and standard deviation, compared by cosine. EER
numbers from it are internally comparable across methods, not calibrated
against any external system. Every analysis setting, STOI's published values
and the MFCC front end alike, is a module constant, so stoi, mfcc_frames and
mfcc_embed take only waveforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.fft import dct

from .audio import Waveform, frame_signal, num_frames, resample

STOI_RATE = 10000
STOI_FRAME = 256
STOI_HOP = 128
STOI_NFFT = 512
STOI_N_BANDS = 15
STOI_FIRST_CENTER = 150.0
STOI_SEGMENT = 30
STOI_BETA = -15.0
STOI_DYN_RANGE = 40.0

MFCC_RATE = 16000
MFCC_FRAME_S = 0.025
MFCC_HOP_S = 0.010
MFCC_NFFT = 512
MFCC_N_MEL = 30
MFCC_N_COEFFS = 23
MFCC_CMN_WINDOW_S = 3.0  # span of the sliding mean subtracted from each frame
MFCC_VAD_THRESHOLD_DB = 30.0  # frames further below the loudest are not speech


@dataclass(frozen=True)
class TrialSet:
    genuine: np.ndarray
    impostor: np.ndarray

    def __post_init__(self):
        for name in ("genuine", "impostor"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError(f"{name} scores must be a 1-D list")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} scores must be finite")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _third_octave_bands(nfft: int, fs: float):
    """Boolean bin-membership matrix for the 15 one-third-octave bands."""
    freqs = np.arange(nfft // 2 + 1) * fs / nfft
    centers = STOI_FIRST_CENTER * 2.0 ** (np.arange(STOI_N_BANDS) / 3.0)
    lo = centers * 2.0 ** (-1.0 / 6.0)
    hi = centers * 2.0 ** (1.0 / 6.0)
    return (freqs[None, :] >= lo[:, None]) & (freqs[None, :] < hi[:, None])


def _remove_silent_frames(x: np.ndarray, y: np.ndarray):
    """Drop frames where the reference is more than 40 dB below its loudest frame.

    Both signals are cut by the reference mask and rebuilt by overlap-add of
    the Hann-windowed kept frames (unit amplitude at 50% overlap).
    """
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
    xf, yf = xf[keep], yf[keep]
    out_len = (xf.shape[0] - 1) * STOI_HOP + STOI_FRAME
    xr = np.zeros(out_len)
    yr = np.zeros(out_len)
    for k in range(xf.shape[0]):
        xr[k * STOI_HOP : k * STOI_HOP + STOI_FRAME] += xf[k]
        yr[k * STOI_HOP : k * STOI_HOP + STOI_FRAME] += yf[k]
    return xr, yr


def _band_envelopes(x: np.ndarray, bands: np.ndarray) -> np.ndarray:
    win = np.hanning(STOI_FRAME + 2)[1:-1]
    frames = frame_signal(x, STOI_FRAME, STOI_HOP) * win
    spec = np.fft.rfft(frames, STOI_NFFT, axis=1)
    power = np.abs(spec) ** 2
    return np.sqrt(power @ bands.T)  # (n_frames, n_bands)


def stoi(clean: Waveform, processed: Waveform) -> float:
    """Short-time objective intelligibility of processed against clean.

    Published constants throughout: 10 kHz, 15 one-third-octave bands from
    150 Hz, 384 ms segments, -15 dB clipping bound. Returns the average
    clipped envelope correlation; 1.0 for identical non-silent signals.
    """
    if clean.sample_rate != processed.sample_rate:
        raise ValueError("sample rates differ")
    x = resample(clean, STOI_RATE).samples
    y = resample(processed, STOI_RATE).samples
    if abs(x.size - y.size) > STOI_HOP:
        raise ValueError(f"length mismatch of {abs(x.size - y.size)} samples exceeds one hop")
    n = min(x.size, y.size)
    x, y = x[:n], y[:n]

    x, y = _remove_silent_frames(x, y)
    bands = _third_octave_bands(STOI_NFFT, STOI_RATE)
    ex = _band_envelopes(x, bands)
    ey = _band_envelopes(y, bands)
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
        for j in range(STOI_N_BANDS):
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


def _mel_filterbank(n_filters: int, nfft: int, fs: float) -> np.ndarray:
    mel = lambda f: 2595.0 * np.log10(1.0 + f / 700.0)
    imel = lambda m: 700.0 * (10.0 ** (m / 2595.0) - 1.0)
    pts = imel(np.linspace(mel(0.0), mel(fs / 2), n_filters + 2))
    freqs = np.arange(nfft // 2 + 1) * fs / nfft
    fb = np.zeros((n_filters, freqs.size))
    for j in range(n_filters):
        lo, ctr, hi = pts[j], pts[j + 1], pts[j + 2]
        rising = (freqs - lo) / (ctr - lo)
        falling = (hi - freqs) / (hi - ctr)
        fb[j] = np.clip(np.minimum(rising, falling), 0.0, None)
    return fb


def mfcc_frames(w: Waveform):
    """Per-frame MFCCs after sliding-window mean subtraction, plus the VAD mask."""
    w = resample(w, MFCC_RATE)
    fl = int(round(MFCC_FRAME_S * MFCC_RATE))
    hp = int(round(MFCC_HOP_S * MFCC_RATE))
    x = w.samples
    if x.size < fl:
        raise ValueError("signal shorter than one analysis frame")
    frames = frame_signal(x, fl, hp)
    energies = 10.0 * np.log10(np.sum(frames**2, axis=1) + 1e-30)
    windowed = frames * np.hamming(fl)
    power = np.abs(np.fft.rfft(windowed, MFCC_NFFT, axis=1)) ** 2
    fb = _mel_filterbank(MFCC_N_MEL, MFCC_NFFT, MFCC_RATE)
    logmel = np.log(np.maximum(power @ fb.T, 1e-30))
    coeffs = dct(logmel, type=2, norm="ortho", axis=1)[:, :MFCC_N_COEFFS]

    half = max(1, int(round(MFCC_CMN_WINDOW_S / MFCC_HOP_S)) // 2)
    cmn = np.empty_like(coeffs)
    for k in range(coeffs.shape[0]):
        a, b = max(0, k - half), min(coeffs.shape[0], k + half + 1)
        cmn[k] = coeffs[k] - coeffs[a:b].mean(axis=0)

    mask = energies > energies.max() - MFCC_VAD_THRESHOLD_DB
    # digital silence has uniform floor energy; require real dynamics
    if energies.max() <= 10.0 * np.log10(1e-30) + 1.0:
        mask = np.zeros_like(mask)
    return cmn, mask


def mfcc_embed(w: Waveform) -> np.ndarray:
    """46-dim utterance embedding: per-coefficient means and stds, unit length."""
    coeffs, mask = mfcc_frames(w)
    if not np.any(mask):
        raise ValueError("no frames passed voice activity detection")
    kept = coeffs[mask]
    emb = np.concatenate([kept.mean(axis=0), kept.std(axis=0)])
    norm = np.linalg.norm(emb)
    if norm == 0:
        raise ValueError("degenerate embedding (all-zero statistics)")
    return emb / norm


def score_trials(enroll: Sequence[np.ndarray], test: np.ndarray) -> float:
    """Cosine similarity of the test embedding against the mean enrollment embedding."""
    if len(enroll) == 0:
        raise ValueError("empty enrollment")
    model = np.mean(np.stack(enroll), axis=0)
    norm = np.linalg.norm(model)
    if norm == 0:
        raise ValueError("degenerate enrollment model")
    model = model / norm
    t = test / np.linalg.norm(test)
    return float(model @ t)


def compute_eer(trials: TrialSet):
    """Equal error rate in percent, plus the crossing threshold.

    FAR(t) = fraction of impostor scores >= t, FRR(t) = fraction of genuine
    scores < t. Both are step functions of t; the FAR = FRR point is found
    by linear interpolation between the adjacent sweep points where
    FAR - FRR changes sign.
    """
    gen, imp = trials.genuine, trials.impostor
    if gen.size == 0 or imp.size == 0:
        raise ValueError("both genuine and impostor scores are required")
    thresholds = np.unique(np.concatenate([gen, imp]))
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)
    # scores below each threshold, counted by binary search in the sorted lists
    far = (imp.size - np.searchsorted(np.sort(imp), thresholds, "left")) / imp.size
    frr = np.searchsorted(np.sort(gen), thresholds, "left") / gen.size
    diff = far - frr

    idx = int(np.argmax(diff <= 0))  # first nonpositive; diff is nonincreasing
    if diff[idx] == 0.0:
        return 100.0 * far[idx], float(thresholds[idx])
    if idx == 0:
        return 100.0 * max(far[0], frr[0]), float(thresholds[0])
    d0, d1 = diff[idx - 1], diff[idx]
    t = d0 / (d0 - d1)
    eer = far[idx - 1] + t * (far[idx] - far[idx - 1])
    threshold = thresholds[idx - 1] + t * (thresholds[idx] - thresholds[idx - 1])
    return 100.0 * eer, float(threshold)


@dataclass(frozen=True)
class MethodResult:
    """One evaluated anonymization method."""

    label: str
    eer_percent: float
    eer_threshold: float
    stoi_mean: float
    stoi_min: float
    stoi_max: float
    n_genuine: int
    n_impostor: int


@dataclass(frozen=True)
class EvalReport:
    corpus_id: str
    config_hash: str
    rows: tuple = field(default=())

    def to_json_dict(self) -> dict:
        def num(v: float):
            return float(v) if np.isfinite(v) else None  # NaN is not valid JSON

        return {
            "corpus_id": self.corpus_id,
            "config_hash": self.config_hash,
            "rows": [
                {
                    "label": r.label,
                    "eer_percent": num(r.eer_percent),
                    "eer_threshold": num(r.eer_threshold),
                    "stoi_mean": num(r.stoi_mean),
                    "stoi_min": num(r.stoi_min),
                    "stoi_max": num(r.stoi_max),
                    "n_genuine": r.n_genuine,
                    "n_impostor": r.n_impostor,
                }
                for r in self.rows
            ],
        }

    def format_table(self) -> str:
        header = f"{'method':<28} {'EER(%)':>8}  {'STOI mean (min-max)':<24}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            eer_col = f"{r.eer_percent:.2f}" if np.isfinite(r.eer_percent) else "-"
            if np.isfinite(r.stoi_mean):
                stoi_col = f"{r.stoi_mean:.2f} ({r.stoi_min:.2f}-{r.stoi_max:.2f})"
            else:
                stoi_col = "-"
            lines.append(f"{r.label:<28} {eer_col:>8}  {stoi_col:<24}")
        return "\n".join(lines)
