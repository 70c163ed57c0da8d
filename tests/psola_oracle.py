"""Grain-at-a-time TD-PSOLA and period-at-a-time epoch marking: the references for voxmask.resynth.

This is the resynthesis code as it was before its loops became array
operations: voiced spans are found by a walk over the f0 frames, every epoch
search reads the local period through a scalar np.interp and np.clip,
synthesis marks take their nearest epoch by argmin over the whole run, and
each grain is windowed and added by its own call. It is kept only as a test
oracle: resynth.psola_modify and resynth.detect_epochs must be bitwise equal
to it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.signal import butter, sosfiltfilt

from voxmask.audio import Waveform
from voxmask.pitch import F0Trajectory, interpolate_unvoiced
from voxmask.resynth import (
    MAX_PERIOD_S,
    MIN_PERIOD_S,
    PSOLA_F0_MIN,
    UNVOICED_ANCHOR_S,
    EpochSequence,
)


def voiced_sample_spans_oracle(f0: F0Trajectory, fs: float, n: int):
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


def detect_epochs_oracle(w: Waveform, f0: F0Trajectory) -> EpochSequence:
    fs = w.sample_rate
    x = w.samples
    n = x.size
    if f0.n_voiced > 0 and not np.all(np.isfinite(f0.values)):
        raise ValueError("epoch detection needs an interpolated (all-finite) trajectory")

    voiced_spans = voiced_sample_spans_oracle(f0, fs, n)
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
def grain_window(pl: int, pr: int) -> np.ndarray:
    rise = np.hanning(2 * pl + 1)[: pl + 1]
    fall = np.hanning(2 * pr + 1)[pr:]
    win = np.concatenate([rise, fall[1:]])
    win.setflags(write=False)
    return win


def add_grain(out, norm, x, center_src, center_out, pl, pr):
    n = x.size
    win = grain_window(pl, pr)
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


def psola_modify_oracle(w: Waveform, source_f0: F0Trajectory, target_f0: F0Trajectory) -> Waveform:
    fs = w.sample_rate
    x = w.samples
    n = x.size
    if len(source_f0) != len(target_f0) or not np.allclose(source_f0.times, target_f0.times):
        raise ValueError("source and target trajectories must share the frame grid")
    tv = target_f0.values[target_f0.voiced]
    if tv.size and (np.min(tv) < PSOLA_F0_MIN or np.max(tv) > fs / 4):
        raise ValueError(f"target f0 must lie within [{PSOLA_F0_MIN:g} Hz, sample_rate/4]")

    src = interpolate_unvoiced(source_f0) if source_f0.n_voiced else source_f0
    epochs = detect_epochs_oracle(w, src)
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
                add_grain(out, norm, x, int(pos[k]), int(pos[k]), int(pl[k]), int(pr[k]))
            continue
        run_pos = pos[a:b]
        tau = float(run_pos[0])
        end = float(run_pos[-1])
        while tau <= end + 1:
            k = a + int(np.argmin(np.abs(run_pos - tau)))
            add_grain(out, norm, x, int(pos[k]), int(round(tau)), int(pl[k]), int(pr[k]))
            step = step_src[k] * ratio_at(tau)
            tau += float(np.clip(step, MIN_PERIOD_S * fs, MAX_PERIOD_S * fs))

    covered = norm > 1e-3
    out[covered] /= norm[covered]
    out[~covered] = 0.0
    return Waveform(out, fs)
