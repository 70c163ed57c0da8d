"""Objective evaluation: STOI intelligibility, MFCC-statistics speaker scoring, EER.

The speaker scorer is a deliberately lightweight stand-in for a trained
verification system: 23 MFCCs with short-time mean subtraction, summarized
by per-coefficient mean and standard deviation, compared by cosine. EER
numbers from it are internally comparable across methods, not calibrated
against any external system. Every analysis setting, STOI's published values
and the MFCC front end alike, is a module constant, so stoi, mfcc_frames and
mfcc_embed take only waveforms. The analysis windows, the band matrix and
the mel filterbank are built once, read-only. No Python code runs per frame
or per segment: STOI frames, windows and transforms the signals
STOI_BLOCK_FRAMES frames at a time and scores its (segment, band) cells as
arrays, STOI_BLOCK_SEGMENTS segments at a time, so its memory does not grow
with a framed copy of the whole file; the MFCC sliding mean is a running sum.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import dct

from .audio import Waveform, frame_signal, frozen, num_frames, overlap_add, resample

STOI_RATE = 10000
STOI_FRAME = 256
STOI_HOP = 128
STOI_NFFT = 512
STOI_N_BANDS = 15
STOI_FIRST_CENTER = 150.0
STOI_SEGMENT = 30
STOI_BETA = -15.0
STOI_DYN_RANGE = 40.0
STOI_BLOCK_SEGMENTS = 256  # segments scored per array pass, so a long file's memory stays bounded
STOI_BLOCK_FRAMES = 1024  # analysis frames windowed and transformed per array pass, for the same reason

MFCC_RATE = 16000
MFCC_FRAME_S = 0.025
MFCC_HOP_S = 0.010
MFCC_NFFT = 512
MFCC_N_MEL = 30
MFCC_N_COEFFS = 23
MFCC_CMN_WINDOW_S = 3.0  # span of the sliding mean subtracted from each frame
MFCC_VAD_THRESHOLD_DB = 30.0  # frames further below the loudest are not speech
MFCC_FRAME = int(round(MFCC_FRAME_S * MFCC_RATE))
MFCC_HOP = int(round(MFCC_HOP_S * MFCC_RATE))
MFCC_CMN_HALF = max(1, int(round(MFCC_CMN_WINDOW_S / MFCC_HOP_S)) // 2)  # frames on each side


@dataclass(frozen=True)
class TrialSet:
    genuine: np.ndarray
    impostor: np.ndarray

    def __post_init__(self):
        for name in ("genuine", "impostor"):
            arr = frozen(getattr(self, name), np.float64)
            if arr.ndim != 1:
                raise ValueError(f"{name} scores must be a 1-D list")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} scores must be finite")
            object.__setattr__(self, name, arr)


def _third_octave_bands(nfft: int, fs: float) -> np.ndarray:
    """Boolean bin-membership matrix for the 15 one-third-octave bands."""
    freqs = np.arange(nfft // 2 + 1) * fs / nfft
    centers = STOI_FIRST_CENTER * 2.0 ** (np.arange(STOI_N_BANDS) / 3.0)
    lo = centers * 2.0 ** (-1.0 / 6.0)
    hi = centers * 2.0 ** (1.0 / 6.0)
    return (freqs[None, :] >= lo[:, None]) & (freqs[None, :] < hi[:, None])


def _mel_filterbank(n_filters: int, nfft: int, fs: float) -> np.ndarray:
    mel = lambda f: 2595.0 * np.log10(1.0 + f / 700.0)
    imel = lambda m: 700.0 * (10.0 ** (m / 2595.0) - 1.0)
    pts = imel(np.linspace(mel(0.0), mel(fs / 2), n_filters + 2))
    freqs = np.arange(nfft // 2 + 1) * fs / nfft
    lo, ctr, hi = pts[:-2, None], pts[1:-1, None], pts[2:, None]
    rising = (freqs - lo) / (ctr - lo)
    falling = (hi - freqs) / (hi - ctr)
    return np.clip(np.minimum(rising, falling), 0.0, None)


STOI_WINDOW = frozen(np.hanning(STOI_FRAME + 2)[1:-1])
# boolean, not 0/1 floats. Both go through BLAS: numpy multiplies by a C-ordered
# float copy of the boolean STOI_BANDS.T, but by a float matrix's transposed view.
# OpenBLAS rounds the two layouts differently in products of up to about 80 rows
# (frames) and alike in larger ones; STOI amplifies that in near-empty bands, and
# the test oracle multiplies by the boolean matrix
STOI_BANDS = frozen(_third_octave_bands(STOI_NFFT, STOI_RATE))  # (bands, bins)
MFCC_WINDOW = frozen(np.hamming(MFCC_FRAME))
MFCC_FILTERBANK = frozen(_mel_filterbank(MFCC_N_MEL, MFCC_NFFT, MFCC_RATE))  # (filters, bins)


def _frame_blocks(n: int) -> list:
    """Slices of STOI_BLOCK_FRAMES frames that cover n frames.

    A lone last frame joins the block before it: numpy takes a one-row matrix
    product down another code path, which rounds the band sums differently
    from the one-pass product over all frames.
    """
    starts = list(range(0, n, STOI_BLOCK_FRAMES))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _remove_silent_frames(x: np.ndarray, y: np.ndarray):
    """Drop frames where the reference is more than 40 dB below its loudest frame.

    Both signals are cut by the reference mask and rebuilt by overlap-add of
    the Hann-windowed kept frames (unit amplitude at 50% overlap). Frames are
    windowed a block at a time (_frame_blocks), once for the energies and
    once for the rebuild, so no framed copy of a whole signal is held.
    """
    n_fr = num_frames(x.size, STOI_FRAME, STOI_HOP)
    if n_fr == 0:
        raise ValueError("signal shorter than one analysis frame")
    xf = frame_signal(x, STOI_FRAME, STOI_HOP)
    norms = [np.linalg.norm(xf[block] * STOI_WINDOW, axis=1) for block in _frame_blocks(n_fr)]
    energy = 20.0 * np.log10(np.concatenate(norms) + 1e-30)
    keep = energy > energy.max() - STOI_DYN_RANGE
    if not np.any(keep) or energy.max() < -200.0:
        raise ValueError("reference signal is silent")
    kept = np.flatnonzero(keep)
    return _rebuild(xf, kept), _rebuild(frame_signal(y, STOI_FRAME, STOI_HOP), kept)


def _rebuild(frames: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Overlap-add of the windowed frames listed in kept, a block at a time.

    Each block's overlap-add is added in at its hop offset, so a block's
    first row meets the previous block's last second half: the same sums,
    bitwise, as one overlap-add of all kept frames.
    """
    out = np.zeros((kept.size + 1) * STOI_HOP)
    for block in _frame_blocks(kept.size):
        part = overlap_add(frames[kept[block]] * STOI_WINDOW, STOI_HOP)
        out[block.start * STOI_HOP : block.start * STOI_HOP + part.size] += part
    return out


def _band_envelopes(x: np.ndarray) -> np.ndarray:
    """(frames, bands) one-third-octave envelopes: frame, rfft and band sums a block at a time."""
    frames = frame_signal(x, STOI_FRAME, STOI_HOP)
    out = np.empty((frames.shape[0], STOI_N_BANDS))
    for block in _frame_blocks(frames.shape[0]):
        power = np.abs(np.fft.rfft(frames[block] * STOI_WINDOW, STOI_NFFT, axis=1)) ** 2
        out[block] = np.sqrt(power @ STOI_BANDS.T)
    return out


def _cell_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, one BLAS dot per cell as np.dot takes them."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _envelope_correlation(ex: np.ndarray, ey: np.ndarray) -> float:
    """Mean clipped correlation over every (30-frame segment, band) cell.

    ex and ey are (frames, bands) envelopes. Segments are scored
    STOI_BLOCK_SEGMENTS at a time as (segments, bands, frames) arrays. A cell
    whose reference is all zero or constant has no defined correlation and is
    left out; a cell whose clipped processed envelope is flat counts as 0.
    Norms, means, dot products and the running total are taken in the order
    a per-cell computation takes them, so the result rounds the same way.
    """
    m = ex.shape[0]
    if m < STOI_SEGMENT:
        raise ValueError(f"too little speech after silence removal ({m} frames < {STOI_SEGMENT})")
    xw = sliding_window_view(ex, STOI_SEGMENT, axis=0)  # (segments, bands, frames)
    yw = sliding_window_view(ey, STOI_SEGMENT, axis=0)
    clip_bound = 1.0 + 10.0 ** (-STOI_BETA / 20.0)
    total = 0.0
    count = 0
    for start in range(0, xw.shape[0], STOI_BLOCK_SEGMENTS):
        block = slice(start, start + STOI_BLOCK_SEGMENTS)
        # over (segments, frames, bands) views, norms add up frames as one segment's (frames, bands) norm does
        xn = np.linalg.norm(xw[block].transpose(0, 2, 1), axis=1)
        yn = np.linalg.norm(yw[block].transpose(0, 2, 1), axis=1)
        xs = np.ascontiguousarray(xw[block])
        ys = np.ascontiguousarray(yw[block])
        alpha = np.divide(xn, yn, out=np.zeros_like(xn), where=yn > 0)
        yc = np.minimum(alpha[..., None] * ys, clip_bound * xs)
        xd = xs - xs.mean(axis=2, keepdims=True)
        yd = yc - yc.mean(axis=2, keepdims=True)
        dx = np.sqrt(_cell_dot(xd, xd))
        dy = np.sqrt(_cell_dot(yd, yd))
        valid = (xn != 0.0) & (dx != 0.0)
        corr = np.divide(_cell_dot(xd, yd), dx * dy, out=np.zeros_like(dx), where=valid & (dy > 0))
        total = float(np.cumsum(np.concatenate(([total], corr[valid])))[-1])
        count += int(np.count_nonzero(valid))
    if count == 0:
        raise ValueError("no valid band segments; inputs degenerate")
    return total / count


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
    return _envelope_correlation(_band_envelopes(x), _band_envelopes(y))


def _subtract_sliding_mean(coeffs: np.ndarray, half: int) -> np.ndarray:
    """Each frame minus the mean of the frames within half frames of it, by running sums.

    The column means come off before the cumsum and go back on after, so the
    running sums stay near zero and long inputs lose no precision to them.
    """
    n = coeffs.shape[0]
    centre = coeffs.mean(axis=0)
    sums = np.zeros((n + 1, coeffs.shape[1]))
    np.cumsum(coeffs - centre, axis=0, out=sums[1:])
    k = np.arange(n)
    lo = np.maximum(k - half, 0)
    hi = np.minimum(k + half + 1, n)
    means = (sums[hi] - sums[lo]) / (hi - lo)[:, None] + centre
    return coeffs - means


def mfcc_frames(w: Waveform):
    """Per-frame MFCCs after sliding-window mean subtraction, plus the VAD mask."""
    w = resample(w, MFCC_RATE)
    x = w.samples
    if x.size < MFCC_FRAME:
        raise ValueError("signal shorter than one analysis frame")
    frames = frame_signal(x, MFCC_FRAME, MFCC_HOP)
    energies = 10.0 * np.log10(np.sum(frames**2, axis=1) + 1e-30)
    windowed = frames * MFCC_WINDOW
    power = np.abs(np.fft.rfft(windowed, MFCC_NFFT, axis=1)) ** 2
    logmel = np.log(np.maximum(power @ MFCC_FILTERBANK.T, 1e-30))
    coeffs = dct(logmel, type=2, norm="ortho", axis=1)[:, :MFCC_N_COEFFS]
    cmn = _subtract_sliding_mean(coeffs, MFCC_CMN_HALF)

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

    # diff falls from +1 at the lowest score (FAR 1, FRR 0) to -1 past the
    # highest, so its first nonpositive entry always has one before it
    idx = int(np.argmax(diff <= 0))
    if diff[idx] == 0.0:
        return 100.0 * far[idx], float(thresholds[idx])
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


def summarize(label: str, scores, genuine, groups, stoi_scores, stoi_groups, eer: bool) -> tuple:
    """The report rows: label over every trial, then label/<group> per group in sorted order.

    scores, genuine (a bool mask) and groups hold one value per trial;
    stoi_scores and stoi_groups one per distinct test utterance, so each
    utterance counts once however many trials test it. EER is NaN when eer is
    false or a row lacks genuine or impostor trials; STOI is NaN over no values.
    """
    scores, genuine, groups = np.asarray(scores, dtype=np.float64), np.asarray(genuine, dtype=bool), np.asarray(groups)
    stoi_scores, stoi_groups = np.asarray(stoi_scores, dtype=np.float64), np.asarray(stoi_groups)

    def row(name: str, trials: np.ndarray, utterances: np.ndarray) -> MethodResult:
        gen, imp = scores[trials & genuine], scores[trials & ~genuine]
        if eer and gen.size and imp.size:
            eer_percent, threshold = compute_eer(TrialSet(gen, imp))
            # fold at the chance line: a worse-than-chance operating point
            # means inverted polarity, which an attacker would just flip
            eer_percent = min(eer_percent, 100.0 - eer_percent)
        else:
            eer_percent = threshold = float("nan")
        s = stoi_scores[utterances]
        mean, lo, hi = (float(s.mean()), float(s.min()), float(s.max())) if s.size else (float("nan"),) * 3
        return MethodResult(
            label=name, eer_percent=float(eer_percent), eer_threshold=float(threshold),
            stoi_mean=mean, stoi_min=lo, stoi_max=hi, n_genuine=gen.size, n_impostor=imp.size,
        )

    overall = row(label, np.ones(scores.size, bool), np.ones(stoi_scores.size, bool))
    return (overall, *(row(f"{label}/{g}", groups == g, stoi_groups == g) for g in np.unique(groups)))


@dataclass(frozen=True)
class EvalReport:
    corpus_id: str
    config_hash: str
    rows: tuple

    def to_json_dict(self) -> dict:
        def num(v):
            return None if isinstance(v, float) and not np.isfinite(v) else v  # NaN is not valid JSON

        return {
            "corpus_id": self.corpus_id,
            "config_hash": self.config_hash,
            "rows": [{k: num(v) for k, v in dataclasses.asdict(r).items()} for r in self.rows],
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
