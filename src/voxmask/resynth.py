"""Waveform resynthesis: pitch modification by TD-PSOLA and formant shifting by Burg LPC.

Both transforms are time-domain and deterministic, and neither loops over
frames or grains in Python. PSOLA moves two-period windowed grains anchored
at glottal epochs: detect_epochs reads the local period from one table per
voiced span, the synthesis marks are collected in one scalar march, and all
grains are overlap-added in blocks with bincount. The formant shifter,
shift_formants_detailed, fits Burg LPC to all frames of an utterance in one
batch, from each frame's autocorrelation and edge errors rather than a pass
over its samples per order, takes every frame's poles from one batched
eigenvalue call, inverse-filters every frame with one einsum, and re-filters
the residuals through their pole-modified all-pole filters in one recursion
over the frame's samples before overlap-adding; _formant_band and
_frame_poles are its analysis front end. Each array path is bitwise equal to
the per-frame or per-grain loop it replaced, which the tests keep as
oracles, except Burg LPC: its fits agree with the lattice to rounding, and
a frame with too little prediction error to keep that precision is refitted
by the lattice. Only the factor and the number of shifted formants are
configurable; the LPC frame, hop, pre-emphasis, analysis band and order rule
are module constants.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import butter, lfilter, sosfiltfilt

from .audio import Waveform, frame_signal, frozen, num_frames, overlap_add, resample
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
        pos = frozen(self.positions, np.int64)
        v = frozen(self.voiced, bool)
        if pos.shape != v.shape or pos.ndim != 1:
            raise ValueError("positions and voiced flags must be matching 1-D arrays")
        if pos.size > 1 and not np.all(np.diff(pos) > 0):
            raise ValueError("positions must be strictly increasing")
        if pos.size and pos[0] < 0:
            raise ValueError("positions must be nonnegative")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "voiced", v)

    def __len__(self) -> int:
        return self.positions.size


@dataclass(frozen=True)
class FormantShiftConfig:
    """factor scales the angles of the n_formants lowest formant pole pairs; 1.0 leaves the waveform as it is."""

    factor: float = 1.0
    n_formants: int = 3

    def __post_init__(self):
        if self.factor <= 0:
            raise ValueError("factor must be positive")
        if self.n_formants < 1:
            raise ValueError("n_formants must be at least 1")


def _voiced_sample_spans(f0: F0Trajectory, fs: float, n: int):
    """Half-hop-padded sample ranges covered by runs of voiced frames."""
    hop = float(np.median(np.diff(f0.times))) if len(f0) > 1 else UNVOICED_ANCHOR_S
    edges = np.flatnonzero(np.diff(np.concatenate([[0], f0.voiced.astype(np.int8), [0]])))
    t0 = f0.times[edges[::2]] - hop / 2
    t1 = f0.times[edges[1::2] - 1] + hop / 2
    out = []
    for a, b in zip((t0 * fs).tolist(), (t1 * fs).tolist()):
        a, b = max(0, int(a)), min(n, int(b))
        if b - a > 2:
            out.append((a, b))
    return out


def detect_epochs(w: Waveform, f0: F0Trajectory) -> EpochSequence:
    """Peak-following epoch marker.

    Voiced spans: one anchor per local period, found on the low-passed
    signal by searching [0.7p, 1.4p] ahead of the previous anchor, where p is
    read from a table of the clipped period at every sample of the span.
    Unvoiced spans: uniform 10 ms anchors, so PSOLA passes them through
    unchanged.
    """
    fs = w.sample_rate
    x = w.samples
    n = x.size
    if f0.n_voiced > 0 and not np.all(np.isfinite(f0.values)):
        raise ValueError("epoch detection needs an interpolated (all-finite) trajectory")

    voiced_spans = _voiced_sample_spans(f0, fs, n)
    positions, flags = [], []

    if voiced_spans:
        # sosfilt's compiled kernel takes writable buffers only, so it gets a copy
        lp = sosfiltfilt(_epoch_lowpass(fs).copy(), x)
        for a, b in voiced_spans:
            seg = lp[a:b]
            ref = (1.0 if np.max(seg) >= -np.min(seg) else -1.0) * seg
            period = fs / np.interp(np.arange(a, b) / fs, f0.times, f0.values)
            period = np.clip(period, MIN_PERIOD_S * fs, MAX_PERIOD_S * fs).tolist()
            # positions relative to a from here on
            cur = int(ref[: min(int(period[0]), b - a)].argmax())
            span_marks = [cur]
            while True:
                p = period[cur]
                lo = cur + int(0.7 * p)
                hi = min(cur + int(1.4 * p) + 1, b - a)
                if lo >= hi:
                    break
                cur = lo + int(ref[lo:hi].argmax())
                span_marks.append(cur)
            positions.append(np.asarray(span_marks, dtype=np.int64) + a)
            flags.append(np.ones(len(span_marks), dtype=bool))

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
        anchors = np.arange(a, b, hop, dtype=np.int64)
        positions.append(anchors)
        flags.append(np.zeros(anchors.size, dtype=bool))

    if not positions:  # an empty signal
        return EpochSequence(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool))
    pos = np.concatenate(positions)
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    v = np.concatenate(flags)[order]
    keep = np.concatenate([[True], np.diff(pos) >= 2])
    return EpochSequence(pos[keep], v[keep])


@lru_cache(maxsize=64)
def _epoch_lowpass(fs: int) -> np.ndarray:
    """detect_epochs' 4th-order Butterworth low-pass at rate fs, as sos; designed once per rate, read-only."""
    cutoff = min(1000.0, 0.45 * fs)
    return frozen(butter(4, cutoff / (fs / 2), output="sos"))


@lru_cache(maxsize=1024)
def _hanning(half: int) -> np.ndarray:
    """np.hanning(2 * half + 1), cached and therefore read-only.

    A grain window rises over the first half of one of these and falls over
    the second half of another; neighbouring grains repeat the same periods.
    """
    return frozen(np.hanning(2 * half + 1))


def _interpolator(xp: np.ndarray, fp: np.ndarray):
    """np.interp(x, xp, fp) for one float x at a time, in Python floats with np.interp's bits.

    fp[0] left of xp[0], fp[-1] from xp[-1] on, fp[j] at x == xp[j], else the
    slope of the bracketing pair times (x - xp[j]) plus fp[j], as numpy's C
    loop computes it. The trajectories here are finite, so numpy's fallbacks
    for a NaN result never apply.
    """
    xs, ys = xp.tolist(), fp.tolist()
    last = len(xs) - 1

    def at(x: float) -> float:
        j = bisect_right(xs, x) - 1
        if j < 0:
            return ys[0]
        if j >= last:
            return ys[-1]
        if x == xs[j]:
            return ys[j]
        slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
        return slope * (x - xs[j]) + ys[j]

    return at


def _synthesis_marks(epochs: EpochSequence, period: np.ndarray, ratio_at, lo: float, hi: float):
    """(source epoch, output centre) of every grain, in the order grains are added.

    Unvoiced runs keep their anchors. Voiced runs march from the first epoch
    by the epoch's period times ratio_at, clipped to [lo, hi], and each mark
    takes the nearest epoch of its run; at an exact midpoint the earlier one,
    as argmin over the distances picks it.
    """
    pos, voiced = epochs.positions, epochs.voiced
    steps = period.tolist()
    bounds = np.concatenate([[0], np.flatnonzero(voiced[1:] != voiced[:-1]) + 1, [len(epochs)]]).tolist()
    ks, centres = [], []
    for a, b in zip(bounds[:-1], bounds[1:]):
        if not voiced[a]:
            ks.append(np.arange(a, b))
            centres.append(pos[a:b])
            continue
        run = pos[a:b].tolist()
        run_k, run_c = [], []
        tau = float(run[0])
        end = float(run[-1])
        while tau <= end + 1:
            i = bisect_left(run, tau)
            if i == len(run) or (i > 0 and tau - run[i - 1] <= run[i] - tau):
                i -= 1
            run_k.append(a + i)
            run_c.append(round(tau))
            tau += min(max(steps[a + i] * ratio_at(tau), lo), hi)
        ks.append(np.asarray(run_k, dtype=np.int64))
        centres.append(np.asarray(run_c, dtype=np.int64))
    return np.concatenate(ks), np.concatenate(centres)


GRAIN_BLOCK = 256  # grains summed per np.bincount call; bounds the index arrays


def _overlap_add_grains(x, src, centre, pl, pr):
    """(sum of windowed grains, sum of windows) over the grains g in order.

    Grain g is x around src[g], windowed by an asymmetric two-period Hanning
    that rises over pl[g] samples and falls over pr[g], and added around
    centre[g]. Parts of a grain outside the signal, on the source or the
    output side, are cut with the window kept aligned. Each sample sums its
    grains in order starting from zero, the running sum carried from block to
    block as bincount's first weight, so the sums are bitwise those of adding
    one grain at a time.
    """
    n = x.size
    cut_lo = np.maximum(0, pl - np.minimum(src, centre))
    cut_hi = np.maximum(0, np.maximum(src, centre) + pr + 1 - n)
    length = np.maximum(0, pl + pr + 1 - cut_lo - cut_hi)

    # every distinct window once, in one table: window u rises over the first
    # half of one cached Hanning and falls over the second half of another
    span = int(pr.max()) + 1
    pairs, which = np.unique(pl * span + pr, return_inverse=True)
    upl, upr = pairs // span, pairs % span
    halves = np.unique(np.concatenate([upl, upr]))
    hann = np.concatenate([_hanning(int(h)) for h in halves])
    hann_at = np.cumsum(2 * halves + 1) - (2 * halves + 1)
    size = upl + upr + 1
    r = np.arange(int(size.sum())) - np.repeat(np.cumsum(size) - size, size)
    rise = np.repeat(hann_at[np.searchsorted(halves, upl)], size)
    fall = np.repeat(hann_at[np.searchsorted(halves, upr)] + upr - upl, size)
    table = hann[np.where(r <= np.repeat(upl, size), rise, fall) + r]

    # where each grain's kept part starts in the table, the source and the output
    win_at = (np.cumsum(size) - size)[which] + cut_lo
    src_at = src - pl + cut_lo
    out_at = centre - pl + cut_lo
    out = np.zeros(n)
    norm = np.zeros(n)
    for b in range(0, length.size, GRAIN_BLOCK):
        g = slice(b, b + GRAIN_BLOCK)
        count = length[g]
        kept = count > 0
        if not kept.any():
            continue
        lo = int(out_at[g][kept].min())
        hi = int((out_at[g] + count)[kept].max())
        step = np.arange(int(count.sum()))
        first = np.cumsum(count) - count
        win = table[step + np.repeat(win_at[g] - first, count)]
        grains = x[step + np.repeat(src_at[g] - first, count)] * win
        bins = np.concatenate([np.arange(hi - lo), step + np.repeat(out_at[g] - first - lo, count)])
        out[lo:hi] = np.bincount(bins, np.concatenate([out[lo:hi], grains]), hi - lo)
        norm[lo:hi] = np.bincount(bins, np.concatenate([norm[lo:hi], win]), hi - lo)
    return out, norm


def psola_modify(w: Waveform, source_f0: F0Trajectory, target_f0: F0Trajectory) -> Waveform:
    """Impose target_f0 on the waveform; duration and unvoiced spans are preserved.

    Synthesis marks march through voiced spans at the measured epoch spacing
    scaled by f0_source/f0_target, and are pinned to the source anchors
    elsewhere; each mark receives the grain of the nearest source epoch.
    Scaling the measured spacing (rather than stepping by fs/f0_target)
    keeps the identity mapping exact: equal trajectories give ratio 1 and
    marks that never leave the anchors. The marks are collected first, then
    all grains are overlap-added in blocks.
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
        return Waveform(x, fs)

    # each epoch's local period, the spacing to the next (the last epoch takes
    # the last spacing, a lone one the anchor spacing): marks step by it, and a
    # grain falls over it clipped and rises over the previous epoch's period
    dist = np.diff(pos)
    period = np.append(dist, dist[-1] if n_ep > 1 else UNVOICED_ANCHOR_S * fs)
    pr = np.clip(period, int(MIN_PERIOD_S * fs), int(MAX_PERIOD_S * fs)).astype(np.int64)
    pl = np.concatenate([pr[:1], pr[:-1]])

    if target_f0.n_voiced and source_f0.n_voiced:
        tgt = interpolate_unvoiced(target_f0)
        src_at = _interpolator(src.times, src.values)
        tgt_at = _interpolator(tgt.times, tgt.values)
        ratio_at = lambda s: src_at(s / fs) / tgt_at(s / fs)
    else:
        ratio_at = lambda s: 1.0

    k, centre = _synthesis_marks(epochs, period, ratio_at, MIN_PERIOD_S * fs, MAX_PERIOD_S * fs)
    out, norm = _overlap_add_grains(x, pos[k], centre, pl[k], pr[k])
    covered = norm > 1e-3
    out[covered] /= norm[covered]
    out[~covered] = 0.0
    return Waveform(out, fs)


# burg_lpc refits a row by the lattice when the share of its energy left in
# Burg's error sums falls below this: the recursion's sums are then small
# differences of large terms (on a pure tone, order-13 fits from the recursion
# would move the shifted tone by 2e-6 of its peak)
BURG_MIN_ERROR_RATIO = 1e-6


def burg_lpc(x: np.ndarray, order: int) -> np.ndarray:
    """Burg-method AR coefficients [1, a1..a_order] for the prediction filter A(z).

    Burg's reflection coefficients minimize the forward plus backward
    prediction error and stay in [-1, 1], so the model is stable. They come
    from each frame's autocorrelation (_burg_recursion), at O(n p + p^2) per
    frame of n samples, not from one pass over the samples per order. A row
    whose error ratio falls below BURG_MIN_ERROR_RATIO is refitted by the
    lattice (_burg_lattice), because the recursion loses precision there;
    the other rows agree with the lattice to rounding, not bitwise. A
    (frames, n) array gives one row of coefficients per frame. Every
    reduction is an einsum over one row, not a BLAS call, so a row's fit
    depends neither on the other rows nor on the BLAS thread count.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError("expected a 1-D signal or a (frames, n) array")
    rows = np.atleast_2d(x)
    if order < 1:
        raise ValueError("order must be at least 1")
    if rows.shape[1] <= order:
        raise ValueError(f"need more than order ({order}) samples, got {rows.shape[1]}")
    a, ratio = _burg_recursion(rows, order)
    ill = ratio < BURG_MIN_ERROR_RATIO
    if ill.any():
        a[ill] = _burg_lattice(rows[ill], order)
    return a[0] if x.ndim == 1 else a


def _burg_recursion(x: np.ndarray, order: int):
    """(Burg coefficients, error ratio) of the (frames, n) rows of x, from their autocorrelation.

    Vos, "A Fast Implementation of Burg's Method" (2013). With the frame
    zero-padded, the forward and backward errors of A(z) at order m hold
    together 2 a.g, where g_j = sum_i a_i c_|i-j| over the autocorrelation
    c, and their cross term is reverse(a).g[1:]. Burg sums only where both
    errors are defined, so the terms at t <= m and t >= n are subtracted:
    just those edge errors go through the lattice. Each order updates g as
    g + k reverse(g) and computes one new entry from c.

    The error ratio is the smallest share of 2 c_0 left in Burg's error sum
    at any order, the last order's share counted times (1 - k**2). It is at
    most prod(1 - k**2), and falls faster when the frame's energy sits at
    its edges; the relative error of the coefficients grows as its inverse.
    """
    rows, n = x.shape
    p = order
    c = np.empty((rows, p + 1))
    for j in range(p + 1):
        c[:, j] = np.einsum("ij,ij->i", x[:, : n - j], x[:, j:])

    # e[0, w, j] holds the forward error f[t] and e[1, w, j] the backward
    # error b[t - 1] at t = j - p - 1 around the start (w = 0) and at
    # t = n + j - p - 1 around the end (w = 1), one frame per last index.
    # Order m leaves out columns p+1..p+1+m of both. A window's first column
    # goes stale each order, which never reaches the columns read.
    xp = np.zeros((rows, n + 4 * p + 4))
    xp[:, 2 * p + 2 : n + 2 * p + 2] = x  # x[t] at column t + 2p + 2
    at = np.array([[p + 1], [p]]) + np.arange(2 * p + 2)
    e = np.ascontiguousarray(np.stack([xp[:, at], xp[:, at + n]], axis=2).transpose(1, 2, 3, 0))

    a = np.zeros((rows, p + 1))
    a[:, 0] = 1.0
    g = np.zeros((rows, p + 1))
    g[:, :2] = c[:, :2]
    ratio = np.ones(rows)
    for m in range(p):
        # reductions run over contiguous rows, as every row's do in a batch of one
        edge = np.ascontiguousarray(e[..., p + 1 : p + 2 + m, :].transpose(3, 0, 1, 2))
        den = 2.0 * np.einsum("ij,ij->i", a[:, : m + 1], g[:, : m + 1]) - np.einsum("istj,istj->i", edge, edge)
        cross = np.einsum("ij,ij->i", a[:, m::-1], g[:, 1 : m + 2]) - np.einsum("itj,itj->i", edge[:, 0], edge[:, 1])
        share = np.divide(den, 2.0 * c[:, 0], out=np.ones_like(den), where=c[:, 0] > 0)
        ratio = np.minimum(ratio, share)
        k = np.divide(-2.0 * cross, den, out=np.zeros_like(den), where=den > 0)
        a[:, 1 : m + 2] = a[:, 1 : m + 2] + k[:, None] * a[:, m::-1]
        if m + 1 < p:
            g[:, : m + 2] = g[:, : m + 2] + k[:, None] * g[:, m + 1 :: -1]
            g[:, m + 2] = np.einsum("ij,ij->i", a[:, : m + 2], c[:, m + 2 : 0 : -1])
            e[0], e[1, :, 1:] = e[0] + k * e[1], e[1, :, :-1] + k * e[0, :, :-1]
    return a, np.minimum(ratio, share * (1.0 - k * k))


def _burg_lattice(x: np.ndarray, order: int) -> np.ndarray:
    """Burg coefficients of the (frames, n) rows of x by the lattice: one pass over the samples per order.

    The forward and backward errors are updated in full at each order and
    their energies summed directly, which keeps full precision however
    small the prediction error gets.
    """
    f = b = x
    a = np.zeros((x.shape[0], order + 1))
    a[:, 0] = 1.0
    for m in range(order):
        fm = f[:, 1:]
        bm = b[:, :-1]
        den = np.einsum("ij,ij->i", fm, fm) + np.einsum("ij,ij->i", bm, bm)
        num = -2.0 * np.einsum("ij,ij->i", bm, fm)
        k = np.divide(num, den, out=np.zeros_like(den), where=den > 0)[:, None]
        a[:, 1 : m + 2] = a[:, 1 : m + 2] + k * a[:, m::-1]
        f, b = fm + k * bm, bm + k * fm
    return a


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
    bandwidths, and the mask of formant poles among them. The fits come from
    one burg_lpc call over the active frames (looked up as a module global
    at call time), so they agree with the lattice to rounding, and a frame
    left with under BURG_MIN_ERROR_RATIO of its energy in Burg's error sums
    is fitted by the lattice itself. The roots come from one batched
    eigenvalue call on the companion matrices np.roots builds.
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


def _fir(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row i of x through A_i(z), a[i] = [1, a1..ap]: lfilter(a[i], [1], x[i]) for all rows at once.

    One einsum over a sliding window of the zero-padded rows sums each
    output as a0 x[t] + a1 x[t-1] + ... in that order, as adding one
    shifted copy of x per tap does, so the values are that loop's bit for
    bit. Only the sign of an exact zero can differ: the loop starts from x
    and keeps its -0.0, the einsum starts from +0.0. _all_pole adds its
    input to a +0.0 state, so the filtered frames cannot tell them apart.
    """
    order = a.shape[1] - 1
    padded = np.concatenate([np.zeros((x.shape[0], order)), x], axis=1)
    taps = sliding_window_view(padded, order + 1, axis=1)[..., ::-1]  # taps[i, t, j] = x[i, t - j]
    return np.einsum("itj,ij->it", taps, a)


def _all_pole(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row i of x through 1/A_i(z), a[i] = [1, a1..ap]: lfilter([1], a[i], x[i]) for all rows at once.

    lfilter's direct-form-II-transposed recursion, one step per sample over
    every row: y = z0 + x, then z[j] = z[j+1] - y*a[j+1], the last z being
    -y*ap. The state is (order + 1, rows) with a last row of zeros, so each
    step is one product and one shifted sum. Every row takes lfilter's
    products and sums in lfilter's order, so its values are lfilter's bit
    for bit. lfilter also adds x*0 to each state, which can only flip the
    sign of an exact zero; a sum that starts from +0, as the overlap-add
    does, cannot tell the two apart.
    """
    rows, n = x.shape
    order = a.shape[1] - 1
    neg = -np.ascontiguousarray(a[:, 1:].T)  # y * -a is -(y * a), bitwise
    z = np.zeros((order + 1, rows))
    z_next = np.zeros((order + 1, rows))
    prod = np.empty((order, rows))
    xt = np.ascontiguousarray(x.T)
    y = np.empty((n, rows))
    for t in range(n):
        np.add(z[0], xt[t], out=y[t])
        np.multiply(neg, y[t], out=prod)
        np.add(z[1:], prod, out=z_next[:-1])
        z, z_next = z_next, z
    return np.ascontiguousarray(y.T)


def _resynthesize_frames(active, a_mod, resid, rms_in, hp):
    """(windowed overlap-add of the re-filtered frames, overlap-add of the squared windows).

    Each active frame's residual goes through its pole-modified all-pole
    filter, is scaled back to the frame's input energy and windowed; frames
    that are all zero add nothing.
    """
    fl = resid.shape[1]
    resyn = _all_pole(a_mod, resid)
    # moving poles off the harmonic comb changes the frame gain; restore it
    rms_out = np.sqrt(np.sum(resyn * resyn, axis=1))
    gain = np.divide(rms_in, rms_out, out=np.ones_like(rms_out), where=rms_out > 0)
    resyn *= np.clip(gain, 0.25, 4.0)[:, None]
    win = np.hanning(fl)
    frames = np.zeros((active.size, fl))
    frames[active] = resyn * win
    return overlap_add(frames, hp), overlap_add(np.where(active[:, None], win**2, 0.0), hp)


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
        return FormantShift(Waveform(w.samples, fs), 0, 0)

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

    resid = _fir(a, seg)
    rms_in = np.sqrt(np.sum(seg * seg, axis=1))
    out, den = _resynthesize_frames(active, a_mod, resid, rms_in, hp)

    covered = den > 1e-8
    out[covered] /= den[covered]
    out = out[:na]
    result = lfilter([1.0], [1.0, -alpha], out)
    if fa != fs:
        result = resample(Waveform(result, fa), fs).samples
        result = np.pad(result, (0, max(0, n - result.size)))[:n]
    return FormantShift(Waveform(result, fs), int(np.count_nonzero(clamp)), skipped)
