"""Waveform resynthesis: pitch modification by TD-PSOLA and formant shifting by Burg LPC.

Both transforms are time-domain and deterministic. PSOLA moves two-period
windowed grains anchored at glottal epochs. The formant shifter,
shift_formants_detailed, fits Burg LPC to all frames of an utterance in one
batch, takes every frame's poles from one batched eigenvalue call, and
re-filters each frame's LPC residual through its pole-modified all-pole
filter before overlap-adding; _formant_band and _frame_poles are its
analysis front end. Only the factor and the number of shifted formants are
configurable; the LPC frame, hop, pre-emphasis, analysis band and order rule
are module constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.signal import butter, lfilter, sosfiltfilt

from .audio import Waveform, frame_signal, num_frames, resample
from .pitch import F0Trajectory, interpolate_unvoiced

UNVOICED_ANCHOR_S = 0.010
MIN_PERIOD_S = 0.002
MAX_PERIOD_S = 0.050
PSOLA_F0_MIN = 20.0


@dataclass(frozen=True)
class EpochSequence:
    """Glottal-cycle anchor samples; unvoiced stretches carry synthetic anchors."""

    positions: np.ndarray
    voiced: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.int64)
        v = np.asarray(self.voiced, dtype=bool)
        if pos.shape != v.shape or pos.ndim != 1:
            raise ValueError("positions and voiced flags must be matching 1-D arrays")
        if pos.size > 1 and not np.all(np.diff(pos) > 0):
            raise ValueError("positions must be strictly increasing")
        if pos.size and pos[0] < 0:
            raise ValueError("positions must be nonnegative")
        for name, arr in (("positions", pos), ("voiced", v)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.positions.size


@dataclass(frozen=True)
class FormantShiftConfig:
    """factor scales the angles of the n_formants lowest formant pole pairs."""

    factor: float
    n_formants: int = 3

    def __post_init__(self):
        if self.factor <= 0:
            raise ValueError("factor must be positive")
        if self.n_formants < 1:
            raise ValueError("n_formants must be at least 1")


def _voiced_sample_spans(f0: F0Trajectory, fs: float, n: int):
    """Half-hop-padded sample ranges covered by runs of voiced frames."""
    spans = []
    start = None
    hop = float(np.median(np.diff(f0.times))) if len(f0) > 1 else UNVOICED_ANCHOR_S
    for k in range(len(f0)):
        if f0.voiced[k] and start is None:
            start = f0.times[k] - hop / 2
        elif not f0.voiced[k] and start is not None:
            spans.append((start, f0.times[k - 1] + hop / 2))
            start = None
    if start is not None:
        spans.append((start, f0.times[-1] + hop / 2))
    out = []
    for t0, t1 in spans:
        a, b = max(0, int(t0 * fs)), min(n, int(t1 * fs))
        if b - a > 2:
            out.append((a, b))
    return out


def detect_epochs(w: Waveform, f0: F0Trajectory) -> EpochSequence:
    """Peak-following epoch marker.

    Voiced spans: one anchor per local period, found on the low-passed
    signal by searching [0.7p, 1.4p] ahead of the previous anchor. Unvoiced
    spans: uniform 10 ms anchors, so PSOLA passes them through unchanged.
    """
    fs = w.sample_rate
    x = w.samples
    n = x.size
    if f0.n_voiced > 0 and not np.all(np.isfinite(f0.values)):
        raise ValueError("epoch detection needs an interpolated (all-finite) trajectory")

    voiced_spans = _voiced_sample_spans(f0, fs, n)
    positions, flags = [], []

    if voiced_spans:
        cutoff = min(1000.0, 0.45 * fs)
        sos = butter(4, cutoff / (fs / 2), output="sos")
        lp = sosfiltfilt(sos, x)
        period_at = lambda s: fs / float(np.interp(s / fs, f0.times, f0.values))
        for a, b in voiced_spans:
            seg = lp[a:b]
            sign = 1.0 if np.max(seg) >= -np.min(seg) else -1.0
            ref = sign * lp
            p0 = int(np.clip(period_at(a), MIN_PERIOD_S * fs, MAX_PERIOD_S * fs))
            cur = a + int(np.argmax(ref[a : min(a + p0, b)]))
            span_marks = [cur]
            while True:
                p = np.clip(period_at(cur), MIN_PERIOD_S * fs, MAX_PERIOD_S * fs)
                lo = cur + int(0.7 * p)
                hi = min(cur + int(1.4 * p) + 1, b)
                if lo >= hi:
                    break
                cur = lo + int(np.argmax(ref[lo:hi]))
                span_marks.append(cur)
            positions.extend(span_marks)
            flags.extend([True] * len(span_marks))

    hop = max(1, int(round(UNVOICED_ANCHOR_S * fs)))
    gaps = []
    prev_end = 0
    for a, b in voiced_spans:
        if a > prev_end:
            gaps.append((prev_end, a))
        prev_end = max(prev_end, b)
    if prev_end < n:
        gaps.append((prev_end, n))
    for a, b in gaps:
        anchors = list(range(a, b, hop))
        if not anchors:
            anchors = [a]
        positions.extend(anchors)
        flags.extend([False] * len(anchors))

    order = np.argsort(positions, kind="stable")
    pos = np.asarray(positions, dtype=np.int64)[order]
    v = np.asarray(flags, dtype=bool)[order]
    keep = np.concatenate([[True], np.diff(pos) >= 2])
    return EpochSequence(pos[keep], v[keep])


@lru_cache(maxsize=512)
def _grain_window(pl: int, pr: int) -> np.ndarray:
    """Asymmetric two-period Hanning: rises over pl samples, falls over pr.

    Neighbouring grains repeat the same period pairs, so windows are cached
    and therefore read-only.
    """
    rise = np.hanning(2 * pl + 1)[: pl + 1]
    fall = np.hanning(2 * pr + 1)[pr:]
    win = np.concatenate([rise, fall[1:]])
    win.setflags(write=False)
    return win


def _add_grain(out, norm, x, center_src, center_out, pl, pr):
    n = x.size
    win = _grain_window(pl, pr)
    src_lo, src_hi = center_src - pl, center_src + pr + 1
    out_lo, out_hi = center_out - pl, center_out + pr + 1
    # clip against both signal and output bounds, keeping window alignment
    cut_lo = max(0, -src_lo, -out_lo)
    cut_hi = max(0, src_hi - n, out_hi - out.size)
    if cut_lo + cut_hi >= win.size:
        return
    sl_src = slice(src_lo + cut_lo, src_hi - cut_hi)
    sl_out = slice(out_lo + cut_lo, out_hi - cut_hi)
    wpart = win[cut_lo : win.size - cut_hi]
    out[sl_out] += x[sl_src] * wpart
    norm[sl_out] += wpart


def psola_modify(w: Waveform, source_f0: F0Trajectory, target_f0: F0Trajectory) -> Waveform:
    """Impose target_f0 on the waveform; duration and unvoiced spans are preserved.

    Synthesis marks march through voiced spans at the measured epoch spacing
    scaled by f0_source/f0_target, and are pinned to the source anchors
    elsewhere; each mark receives the grain of the nearest source epoch.
    Scaling the measured spacing (rather than stepping by fs/f0_target)
    keeps the identity mapping exact: equal trajectories give ratio 1 and
    marks that never leave the anchors.
    """
    fs = w.sample_rate
    x = w.samples
    n = x.size
    if len(source_f0) != len(target_f0) or not np.allclose(source_f0.times, target_f0.times):
        raise ValueError("source and target trajectories must share the frame grid")
    tv = target_f0.values[target_f0.voiced]
    if tv.size and (np.min(tv) < PSOLA_F0_MIN or np.max(tv) > fs / 4):
        raise ValueError(f"target f0 must lie within [{PSOLA_F0_MIN:g} Hz, sample_rate/4]")

    src = interpolate_unvoiced(source_f0) if source_f0.n_voiced else source_f0
    epochs = detect_epochs(w, src)
    pos = epochs.positions
    n_ep = len(epochs)
    if n_ep == 0:
        return Waveform(x.copy(), fs)

    # per-epoch one-sided periods from neighbor distances
    dist = np.diff(pos)
    pl = np.empty(n_ep, dtype=np.int64)
    pr = np.empty(n_ep, dtype=np.int64)
    pl[1:] = dist
    pr[:-1] = dist
    pl[0] = pr[0] if n_ep > 1 else int(UNVOICED_ANCHOR_S * fs)
    pr[-1] = pl[-1]
    lo, hi = int(MIN_PERIOD_S * fs), int(MAX_PERIOD_S * fs)
    pl = np.clip(pl, lo, hi)
    pr = np.clip(pr, lo, hi)

    if target_f0.n_voiced and source_f0.n_voiced:
        tgt = interpolate_unvoiced(target_f0)
        ratio_at = lambda s: float(
            np.interp(s / fs, src.times, src.values) / np.interp(s / fs, tgt.times, tgt.values)
        )
    else:
        ratio_at = lambda s: 1.0

    # stepping uses the spacing to the following epoch (the local period),
    # unclipped; pl/pr above are clipped only for window sizing
    step_src = np.empty(n_ep, dtype=np.float64)
    if n_ep > 1:
        step_src[:-1] = dist
        step_src[-1] = dist[-1]
    else:
        step_src[0] = UNVOICED_ANCHOR_S * fs

    out = np.zeros(n)
    norm = np.zeros(n)

    # walk runs of equal voicing over the epoch sequence
    run_starts = [0] + [k for k in range(1, n_ep) if epochs.voiced[k] != epochs.voiced[k - 1]] + [n_ep]
    for r in range(len(run_starts) - 1):
        a, b = run_starts[r], run_starts[r + 1]
        if not epochs.voiced[a]:
            for k in range(a, b):
                _add_grain(out, norm, x, int(pos[k]), int(pos[k]), int(pl[k]), int(pr[k]))
            continue
        run_pos = pos[a:b]
        tau = float(run_pos[0])
        end = float(run_pos[-1])
        while tau <= end + 1:
            k = a + int(np.argmin(np.abs(run_pos - tau)))
            _add_grain(out, norm, x, int(pos[k]), int(round(tau)), int(pl[k]), int(pr[k]))
            step = step_src[k] * ratio_at(tau)
            tau += float(np.clip(step, MIN_PERIOD_S * fs, MAX_PERIOD_S * fs))

    covered = norm > 1e-3
    out[covered] /= norm[covered]
    out[~covered] = 0.0
    return Waveform(out, fs)


def burg_lpc(x: np.ndarray, order: int) -> np.ndarray:
    """Burg-method AR coefficients [1, a1..a_order] for the prediction filter A(z).

    Lattice recursion minimizing forward plus backward prediction error;
    reflection coefficients stay in [-1, 1] so the model is stable. A
    (frames, n) array gives one row of coefficients per frame. Energies are
    einsum row reductions, not BLAS dot products, so a row's fit depends neither on the
    other rows nor on the BLAS thread count.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError("expected a 1-D signal or a (frames, n) array")
    f = b = np.atleast_2d(x)
    if order < 1:
        raise ValueError("order must be at least 1")
    if f.shape[1] <= order:
        raise ValueError(f"need more than order ({order}) samples, got {f.shape[1]}")
    a = np.zeros((f.shape[0], order + 1))
    a[:, 0] = 1.0
    for m in range(order):
        fm = f[:, 1:]
        bm = b[:, :-1]
        den = np.einsum("ij,ij->i", fm, fm) + np.einsum("ij,ij->i", bm, bm)
        num = -2.0 * np.einsum("ij,ij->i", bm, fm)
        k = np.divide(num, den, out=np.zeros_like(den), where=den > 0)[:, None]
        a[:, 1 : m + 2] = a[:, 1 : m + 2] + k * a[:, m::-1]
        f, b = fm + k * bm, bm + k * fm
    return a[0] if x.ndim == 1 else a


FORMANT_MIN_HZ = 90.0
FORMANT_EDGE_HZ = 200.0  # keep clear of DC and Nyquist tilt poles
FORMANT_MAX_BW = 400.0
LPC_FRAME_S = 0.025
LPC_HOP_S = 0.010
PREEMPHASIS_HZ = 50.0
# Analysis runs at 2*MAX_FORMANT_HZ (signal resampled down when needed): LPC
# poles then cover only the formant band instead of being spent on the empty
# top octaves.
MAX_FORMANT_HZ = 5500.0


def _lpc_order(sample_rate: float) -> int:
    """One pole pair per kHz of analysis band, plus two poles for spectral tilt."""
    return int(round(sample_rate / 1000.0)) + 2


def _formant_band(w: Waveform):
    """The LPC analysis input of w: (y, fs, alpha, fl, hp).

    y is w resampled to the formant band and pre-emphasized by 1 - alpha/z,
    fs its sample rate, fl and hp the analysis frame and hop in samples.
    """
    if w.sample_rate > 2.0 * MAX_FORMANT_HZ:
        w = resample(w, 2.0 * MAX_FORMANT_HZ)
    fs = w.sample_rate
    alpha = float(np.exp(-2 * np.pi * PREEMPHASIS_HZ / fs))
    y = lfilter([1.0, -alpha], [1.0], w.samples)
    return y, fs, alpha, int(round(LPC_FRAME_S * fs)), int(round(LPC_HOP_S * fs))


def _frame_poles(y: np.ndarray, fs: float, fl: int, hp: int, order: int):
    """Burg fits and poles of the Hann-windowed frames of y (frame_signal framing).

    Returns (active, segs, a, roots, freqs, bws, formant): active flags the
    frames that are not all zero; the rest has one row per active frame, its
    windowed samples, A(z), the roots of A(z) with their frequencies and
    bandwidths, and the mask of formant poles among them. The roots come from
    one batched eigenvalue call on the companion matrices np.roots builds.
    """
    frames = frame_signal(y, fl, hp) * np.hanning(fl)
    active = np.any(frames, axis=1)
    segs = frames[active]
    a = burg_lpc(segs, order)
    companion = np.zeros((a.shape[0], order, order))
    companion[:, 0] = -a[:, 1:]
    companion[:, np.arange(1, order), np.arange(order - 1)] = 1.0
    roots = np.linalg.eigvals(companion)
    freqs = np.angle(roots) * fs / (2 * np.pi)
    bws = -np.log(np.maximum(np.abs(roots), 1e-12)) * fs / np.pi
    formant = (roots.imag > 1e-9) & (bws < FORMANT_MAX_BW)
    formant &= (freqs >= FORMANT_MIN_HZ) & (freqs <= fs / 2 - FORMANT_EDGE_HZ)
    return active, segs, a, roots, freqs, bws, formant


@dataclass(frozen=True)
class FormantShift:
    """Shifted waveform plus pole diagnostics.

    clamped_poles counts pole radii clamped for stability; skipped_poles counts
    selected formant poles left unshifted because the scaled angle would pass 0.95*pi.
    """

    waveform: Waveform
    clamped_poles: int
    skipped_poles: int


def shift_formants_detailed(w: Waveform, cfg: FormantShiftConfig) -> FormantShift:
    """Scale the lowest n_formants formant frequencies by cfg.factor.

    One batched Burg analysis covers all frames of the utterance: formant
    pole pairs get their angles scaled with radii (bandwidths) preserved;
    each frame's inverse-filtered residual is re-filtered through its
    modified all-pole filter and overlap-added. The shifted waveform comes
    with the pole diagnostics of FormantShift.
    """
    fs = w.sample_rate
    n = w.samples.size
    if n < int(round(LPC_FRAME_S * fs)):
        raise ValueError("signal shorter than one analysis frame")
    if cfg.factor == 1.0:
        return FormantShift(Waveform(w.samples.copy(), fs), 0, 0)

    y, fa, alpha, fl, hp = _formant_band(w)
    order = _lpc_order(fa)
    na = y.size
    n_fr = num_frames(na, fl, hp) + 1  # one extra to cover the tail
    pad = (n_fr - 1) * hp + fl
    y = np.concatenate([y, np.zeros(pad - na)])
    active, seg, a, roots, freqs, _, formant = _frame_poles(y, fa, fl, hp, order)

    # Edit the upper-half-plane and real roots only. Each upper root and its
    # conjugate become one real quadratic factor of A_mod, which mirrors the
    # edit to the lower half plane; lower roots contribute the factor 1.
    degree = np.select([roots.imag > 1e-9, np.abs(roots.imag) <= 1e-9], [2.0, 1.0])
    rank = np.argsort(np.argsort(np.where(formant, freqs, np.inf), axis=1), axis=1)
    chosen = formant & (rank < cfg.n_formants)
    angle = np.angle(roots)
    fits = angle * cfg.factor < 0.95 * np.pi
    angle = np.where(chosen & fits, angle * cfg.factor, angle)
    skipped = int(np.count_nonzero(chosen & ~fits))
    radius = np.abs(roots)
    clamp = (degree > 0) & (radius >= 1.0)
    radius = np.where(clamp, 0.998, radius)
    c1 = -degree * radius * np.cos(angle)
    c2 = np.where(degree == 2.0, radius**2, 0.0)
    a_mod = np.zeros_like(a)
    a_mod[:, 0] = 1.0
    for j in range(order):
        step = c1[:, j, None] * a_mod[:, :-1]
        step[:, 1:] += c2[:, j, None] * a_mod[:, :-2]
        a_mod[:, 1:] += step

    resid = seg.copy()  # FIR A(z) on each frame; a0 is 1
    for j in range(1, order + 1):
        resid[:, j:] += a[:, j, None] * seg[:, :-j]
    rms_in = np.sqrt(np.sum(seg * seg, axis=1))

    win = np.hanning(fl)
    out = np.zeros(pad)
    den = np.zeros(pad)
    for i, k in enumerate(np.flatnonzero(active)):
        resyn = lfilter([1.0], a_mod[i], resid[i])
        # moving poles off the harmonic comb changes the frame gain; restore it
        rms_out = np.sqrt(np.sum(resyn * resyn))
        if rms_out > 0:
            resyn *= np.clip(rms_in[i] / rms_out, 0.25, 4.0)
        out[k * hp : k * hp + fl] += resyn * win
        den[k * hp : k * hp + fl] += win**2

    covered = den > 1e-8
    out[covered] /= den[covered]
    out = out[:na]
    result = lfilter([1.0], [1.0, -alpha], out)
    if fa != fs:
        result = resample(Waveform(result, fa), fs).samples
        result = np.pad(result, (0, max(0, n - result.size)))[:n]
    return FormantShift(Waveform(result, fs), int(np.count_nonzero(clamp)), skipped)
