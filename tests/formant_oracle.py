"""Scalar references for the frame-batched formant shifter in voxmask.resynth, and a formant tracker.

shift_formants_oracle makes one Burg fit, one ``np.roots`` call and one
``np.poly`` call per frame; the shipped path batches the same analysis over
all frames of an utterance, and the tests compare the two within a bound.
resynthesize_frames_oracle is the shifter's resynthesis as it was before
its gain and overlap-add became array code: per active frame, the same
lfilter call, a gain and one overlap-add; the shipped _resynthesize_frames
must be bitwise equal to it. track_formants reads each frame's formants
through the shifter's own analysis front end; criterion 5 and the
resynthesis tests measure formant shifts with it.
"""

import numpy as np
from scipy.signal import lfilter

from voxmask.audio import Waveform, num_frames, resample
from voxmask.resynth import (
    FORMANT_EDGE_HZ,
    FORMANT_MAX_BW,
    FORMANT_MIN_HZ,
    LPC_FRAME_S,
    LPC_HOP_S,
    MAX_FORMANT_HZ,
    PREEMPHASIS_HZ,
    FormantShift,
    FormantShiftConfig,
    _formant_band,
    _frame_poles,
    _lpc_order,
)


def burg_lpc_oracle(x: np.ndarray, order: int) -> np.ndarray:
    """Burg lattice on one frame, with BLAS dot products."""
    x = np.asarray(x, dtype=np.float64)
    a = np.zeros(order + 1)
    a[0] = 1.0
    f = x.copy()
    b = x.copy()
    for m in range(order):
        fm = f[1:]
        bm = b[:-1]
        den = fm @ fm + bm @ bm
        k = 0.0 if den <= 0 else -2.0 * (bm @ fm) / den
        prev = a[: m + 2].copy()
        a[1 : m + 2] = prev[1 : m + 2] + k * prev[m::-1]
        f, b = fm + k * bm, bm + k * fm
    return a


def shift_formants_oracle(w: Waveform, cfg: FormantShiftConfig) -> FormantShift:
    fs = w.sample_rate
    n = w.samples.size
    if n < int(round(LPC_FRAME_S * fs)):
        raise ValueError("signal shorter than one analysis frame")
    if cfg.factor == 1.0:
        return FormantShift(Waveform(w.samples.copy(), fs), 0, 0)

    wa = resample(w, 2.0 * MAX_FORMANT_HZ) if fs > 2.0 * MAX_FORMANT_HZ else w
    fa = wa.sample_rate
    order = _lpc_order(fa)
    alpha = float(np.exp(-2 * np.pi * PREEMPHASIS_HZ / fa))
    x = wa.samples
    na = x.size
    fl = int(round(LPC_FRAME_S * fa))
    hp = int(round(LPC_HOP_S * fa))

    y = lfilter([1.0, -alpha], [1.0], x)
    n_fr = num_frames(na, fl, hp) + 1
    pad = (n_fr - 1) * hp + fl
    y = np.concatenate([y, np.zeros(pad - na)])
    win = np.hanning(fl)

    out = np.zeros(pad)
    den = np.zeros(pad)
    clamped = 0
    skipped = 0
    max_angle = 0.95 * np.pi

    for k in range(n_fr):
        seg = y[k * hp : k * hp + fl] * win
        if not np.any(seg):
            continue
        a = burg_lpc_oracle(seg, order)
        roots = np.roots(a)
        upper = np.nonzero(np.imag(roots) > 1e-9)[0]
        freqs = np.angle(roots[upper]) * fa / (2 * np.pi)
        bws = -np.log(np.maximum(np.abs(roots[upper]), 1e-12)) * fa / np.pi
        is_formant = (
            (freqs >= FORMANT_MIN_HZ)
            & (freqs <= fa / 2 - FORMANT_EDGE_HZ)
            & (bws < FORMANT_MAX_BW)
        )
        by_freq = upper[is_formant][np.argsort(freqs[is_formant])]
        to_shift = set(by_freq[: cfg.n_formants].tolist())

        new_upper = []
        for ri in upper:
            radius = abs(roots[ri])
            angle = np.angle(roots[ri])
            if ri in to_shift:
                if angle * cfg.factor < max_angle:
                    angle *= cfg.factor
                else:
                    skipped += 1
            if radius >= 1.0:
                radius = 0.998
                clamped += 1
            new_upper.append(radius * np.exp(1j * angle))
        new_real = []
        for rr in np.real(roots[np.abs(np.imag(roots)) <= 1e-9]):
            if abs(rr) >= 1.0:
                rr = np.sign(rr) * 0.998
                clamped += 1
            new_real.append(rr)
        new_upper = np.asarray(new_upper, dtype=complex)
        a_mod = np.real(np.poly(np.concatenate([new_upper, np.conj(new_upper), new_real])))
        resid = lfilter(a, [1.0], seg)
        resyn = lfilter([1.0], a_mod, resid)
        rms_in = float(np.sqrt(seg @ seg))
        rms_out = float(np.sqrt(resyn @ resyn))
        if rms_out > 0:
            resyn *= np.clip(rms_in / rms_out, 0.25, 4.0)
        out[k * hp : k * hp + fl] += resyn * win
        den[k * hp : k * hp + fl] += win**2

    covered = den > 1e-8
    out[covered] /= den[covered]
    out = out[:na]
    result = lfilter([1.0], [1.0, -alpha], out)
    if fa != fs:
        result = resample(Waveform(result, fa), fs).samples
        if result.size < n:
            result = np.concatenate([result, np.zeros(n - result.size)])
        else:
            result = result[:n]
    return FormantShift(Waveform(result, fs), clamped, skipped)


def track_formants(w: Waveform, lpc_order: int):
    """Per-frame formant (frequency, bandwidth) lists; None marks an unusable frame.

    Frames are analysed in the formant band (see MAX_FORMANT_HZ). All-zero
    frames are unusable, and so is every frame when the batched analysis
    fails (frames too short for lpc_order, or no eigenvalue convergence).
    """
    if lpc_order < 8:
        raise ValueError("tracking three formants needs lpc_order >= 8")
    y, fs, _, fl, hp = _formant_band(w)
    result = [None] * num_frames(y.size, fl, hp)
    try:
        active, _, _, _, angle, radius, formant = _frame_poles(y, fs, fl, hp, lpc_order)
    except (ValueError, np.linalg.LinAlgError):
        return result
    freqs = angle * fs / (2 * np.pi)
    bws = -np.log(np.maximum(radius, 1e-12)) * fs / np.pi
    for k, fq, bw, is_formant in zip(np.flatnonzero(active), freqs, bws, formant):
        fq, bw = fq[is_formant], bw[is_formant]
        result[k] = [(float(fq[i]), float(bw[i])) for i in np.argsort(fq)]
    return result


def resynthesize_frames_oracle(active, a, a_mod, seg, hp):
    """resynth._resynthesize_frames as one lfilter call, one gain and one overlap-add per active frame."""
    fl = seg.shape[1]
    pad = (active.size - 1) * hp + fl
    win = np.hanning(fl)
    out = np.zeros(pad)
    den = np.zeros(pad)
    for i, k in enumerate(np.flatnonzero(active)):
        resyn = lfilter(a[i], a_mod[i], seg[i])
        # moving poles off the harmonic comb changes the frame gain; restore it
        rms_in = np.sqrt(np.sum(seg[i] * seg[i]))
        rms_out = np.sqrt(np.sum(resyn * resyn))
        if rms_out > 0:
            resyn *= np.clip(rms_in / rms_out, 0.25, 4.0)
        out[k * hp : k * hp + fl] += resyn * win
        den[k * hp : k * hp + fl] += win**2
    return out, den
