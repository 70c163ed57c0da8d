"""Deterministic synthetic speech corpus: pulse-train vowels through resonator cascades.

Two speaker groups with well-separated pitch ranges, per-speaker vocal-tract
scaling and vowel targets, sentence-like f0 contours with declination and
accent peaks, a modal and a raised-pitch "disguised" condition, two
sessions. Every sample is a pure function of (seed, speaker, condition,
session, utterance), so a fixed seed reproduces the corpus byte for byte.
This module owns what it synthesizes: speakers, signals, and the disguised
condition and its factors. generate_corpus writes the manifest and trial
tables in pipeline's schema, as ManifestRows through pipeline.write_table.

The glottal pulse train is found one period at a time, each period by one
cumsum, and is bitwise equal to the sample-at-a-time phase loop kept as a
test oracle in tests/synth_oracle.py.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

from .audio import Waveform, write_wav
from .pipeline import CONDITION_MODAL, ENROLL_SESSION, MANIFEST_FIELDS, TRIAL_FIELDS, ManifestRow, write_table

SAMPLE_RATE = 16000

# (F1, F2, F3, F4) targets in Hz for a neutral vocal tract
VOWEL_FORMANTS = {
    "a": (730.0, 1090.0, 2440.0, 3400.0),
    "e": (530.0, 1840.0, 2480.0, 3500.0),
    "i": (270.0, 2290.0, 3010.0, 3700.0),
    "o": (570.0, 840.0, 2410.0, 3300.0),
    "u": (300.0, 870.0, 2240.0, 3500.0),
}
FORMANT_BANDWIDTHS = (90.0, 110.0, 170.0, 250.0)
VOWEL_RAMP_S = 0.030  # Hann fade-in and fade-out at each end of a vowel

GROUP_LOW = "low"
GROUP_HIGH = "high"
GROUP_BASE_F0 = {GROUP_LOW: 110.0, GROUP_HIGH: 210.0}

CONDITION_DISGUISED = "disguised"
DISGUISE_F0_FACTOR = 1.5
DISGUISE_FORMANT_FACTOR = 1.1
NOISE_FLOOR_RMS = 0.3 * 10 ** (-55.0 / 20.0)  # -55 dB below nominal peak


@dataclass(frozen=True)
class SpeakerSpec:
    speaker_id: str
    group: str
    base_f0: float
    vt_scale: float
    formant_jitter: tuple  # per-vowel multiplicative offsets, shape (n_vowels, 4)
    tilt: float  # glottal pole; higher = darker voice
    breath: float  # aspiration noise level


def make_speakers(seed: int, n_per_group: int = 5):
    """Speaker inventory with per-speaker pitch and vocal-tract deviations.

    The spread of the vocal-tract parameters is what makes speakers
    identifiable to an envelope-based scorer; each speaker's jitter pattern
    is fixed once here and shared by every utterance and session. base_f0 is
    stratified across the group's range rather than drawn iid so every pair
    of same-group speakers stays separable by pitch alone; without that,
    pitch-preserving anonymization can erase all within-group identity and
    the privacy metrics saturate.
    """
    speakers = []
    for gi, group in enumerate((GROUP_LOW, GROUP_HIGH)):
        for si in range(n_per_group):
            rng = np.random.default_rng([seed, 101, gi, si])
            frac = (si + 0.5) / n_per_group
            base = GROUP_BASE_F0[group] * (0.84 + 0.35 * frac) * float(rng.uniform(0.98, 1.02))
            vt = float(rng.uniform(0.88, 1.15))
            jitter = rng.uniform(0.94, 1.06, size=(len(VOWEL_FORMANTS), 4))
            tilt = float(rng.uniform(0.945, 0.975))
            breath = float(rng.uniform(0.01, 0.04))
            speakers.append(
                SpeakerSpec(
                    speaker_id=f"{group}{si:02d}",
                    group=group,
                    base_f0=base,
                    vt_scale=vt,
                    formant_jitter=tuple(map(tuple, jitter)),
                    tilt=tilt,
                    breath=breath,
                )
            )
    return speakers


def pulse_train(f0_curve: np.ndarray, fs: float, rng=None, shimmer: float = 0.0) -> np.ndarray:
    """Impulse excitation by phase accumulation; f0_curve gives Hz per sample, each in (0, fs).

    The phase gains f0/fs per sample; a pulse fires on each sample where it
    reaches 1, and it then drops by 1. The loop runs once per pulse: each step
    adds the carried phase to the first of the next ~1.5 periods of
    increments, so one cumsum makes the per-sample sums in the per-sample
    order and every pulse lands where a sample-at-a-time sum puts it. (One
    cumsum over the whole curve rounds differently and moves pulses by a
    sample.) A step that reaches no pulse, as when f0 falls fast, carries its
    sum to the next. Shimmer draws one normal per pulse, in pulse order.
    """
    inc = np.asarray(f0_curve, dtype=np.float64) / fs
    if inc.ndim != 1:
        raise ValueError(f"f0 curve must be 1-D, got shape {inc.shape}")
    if not np.all(np.isfinite(inc)):
        raise ValueError("f0 curve must be finite")
    # f0 / fs < 1 exactly when f0 < fs: each step's sums then rise, and the phase after a pulse is below 1
    if not np.all((inc > 0) & (inc < 1)):
        raise ValueError(f"f0 curve must lie strictly between 0 and fs = {fs} Hz")
    n = inc.size
    widths = (np.minimum(1.5 / inc, n) + 1).astype(np.intp).tolist()
    pulses = []
    phase = 0.0
    k = 0  # first sample whose increment is not yet in the phase
    while k < n:
        run = inc[k : k + widths[k]].copy()
        run[0] += phase
        np.add.accumulate(run, out=run)  # cumsum, in place
        j = int(run.searchsorted(1.0))
        if j == run.size:
            phase = run[-1]
        else:
            pulses.append(k + j)
            phase = run[j] - 1.0
            j += 1
        k += j
    out = np.zeros(n)
    out[pulses] = 1.0 + shimmer * rng.standard_normal(len(pulses)) if rng is not None and shimmer > 0 else 1.0
    return out


def resonator_cascade(x: np.ndarray, formants, bandwidths, fs: float) -> np.ndarray:
    """Series of unit-DC-gain two-pole resonators, one per formant."""
    y = x
    for f, bw in zip(formants, bandwidths):
        r = np.exp(-np.pi * bw / fs)
        theta = 2 * np.pi * f / fs
        b1, b2 = 2 * r * np.cos(theta), -(r**2)
        a0 = 1.0 - b1 - b2
        y = lfilter([a0], [1.0, -b1, -b2], y)
    return y


def make_vowel(
    duration: float,
    f0,
    formants,
    fs: float = SAMPLE_RATE,
    bandwidths=FORMANT_BANDWIDTHS,
    seed: int = 0,
    noise_level: float = 0.02,
    tilt: float = 0.96,
) -> Waveform:
    """One synthetic vowel: steady or per-sample f0, fixed formant set.

    The excitation gets a -12 dB/oct glottal tilt and +6 dB/oct radiation
    lift, then passes through the resonator cascade. Peak-normalized.
    """
    n = int(round(duration * fs))
    f0_curve = np.full(n, float(f0)) if np.isscalar(f0) else np.asarray(f0, dtype=np.float64)
    if f0_curve.size != n:
        raise ValueError("f0 curve length does not match duration")
    rng = np.random.default_rng([seed, 7])
    src = pulse_train(f0_curve, fs, rng, shimmer=0.03)
    src = lfilter([1.0], [1.0, -tilt], src)
    src = lfilter([1.0], [1.0, -tilt], src)
    src = src + noise_level * rng.standard_normal(n) * np.sqrt(np.mean(src**2) + 1e-12)
    src = np.diff(src, prepend=0.0)
    y = resonator_cascade(src, formants[: len(bandwidths)], bandwidths, fs)
    nr = min(int(VOWEL_RAMP_S * fs), n // 2)
    if nr > 0:
        edge = np.hanning(2 * nr)
        y[:nr] *= edge[:nr]
        y[-nr:] *= edge[nr:]
    peak = np.max(np.abs(y))
    if peak > 0:
        y = 0.3 * y / peak
    return Waveform(y, fs)


def _sentence_contour(rng, base_f0: float, seg_lengths, gap_lengths, fs: float):
    """Declining f0 line with one accent bump per segment and slow jitter.

    Returns per-sample f0 for each segment (gaps carry no excitation).
    """
    total = sum(seg_lengths) + sum(gap_lengths)
    t_cursor = gap_lengths[0]
    curves = []
    peak_height = rng.uniform(0.15, 0.30)
    for i, seg_n in enumerate(seg_lengths):
        t = (t_cursor + np.arange(seg_n)) / total
        decl = base_f0 * (1.12 - 0.30 * t)  # start high, fall ~30%
        accent_pos = rng.uniform(0.25, 0.75)
        accent_w = rng.uniform(0.12, 0.25)
        local = np.linspace(0.0, 1.0, seg_n)
        bump = peak_height * (0.5 + 0.5 / (i + 1)) * np.exp(-0.5 * ((local - accent_pos) / accent_w) ** 2)
        wobble = 0.015 * np.sin(2 * np.pi * rng.uniform(2.0, 4.0) * np.arange(seg_n) / fs + rng.uniform(0, 6.28))
        curves.append(decl * (1.0 + bump + wobble))
        t_cursor += seg_n + (gap_lengths[i + 1] if i + 1 < len(gap_lengths) else 0)
    return curves


def synth_utterance(
    spk: SpeakerSpec,
    condition: str,
    session: int,
    utt_index: int,
    seed: int,
    fs: float = SAMPLE_RATE,
) -> Waveform:
    """One multi-vowel utterance for a speaker/condition/session cell."""
    return _utterance_and_contour(spk, condition, session, utt_index, seed, fs)[0]


def _utterance_and_contour(spk, condition, session, utt_index, seed, fs):
    """synth_utterance's waveform, and the f0 in Hz its pulse train followed, per sample.

    The contour is NaN in the gaps between vowels, which carry no excitation.
    """
    ci = 0 if condition == CONDITION_MODAL else 1
    rng = np.random.default_rng([seed, 202, hash_speaker(spk.speaker_id), ci, session, utt_index])
    vowel_names = sorted(VOWEL_FORMANTS)
    n_segments = int(rng.integers(6, 9))
    # every utterance covers the full vowel inventory once, then repeats;
    # a stable vowel mix keeps utterance-level spectra speaker-typical
    order = list(rng.permutation(len(vowel_names)))
    extra = [int(v) for v in rng.integers(0, len(vowel_names), size=n_segments - len(order))]
    vowel_seq = (order + extra)[:n_segments]
    seg_lengths = [int(rng.uniform(0.28, 0.45) * fs) for _ in range(n_segments)]
    gap_lengths = [int(rng.uniform(0.05, 0.12) * fs) for _ in range(n_segments + 1)]

    f0_factor = 1.0 if condition == CONDITION_MODAL else DISGUISE_F0_FACTOR
    fmt_factor = 1.0 if condition == CONDITION_MODAL else DISGUISE_FORMANT_FACTOR
    contour = _sentence_contour(rng, spk.base_f0 * f0_factor, seg_lengths, gap_lengths, fs)

    pieces = [np.zeros(gap_lengths[0])]
    truth = [np.full(gap_lengths[0], np.nan)]
    for i in range(n_segments):
        vi = vowel_seq[i]
        targets = np.asarray(VOWEL_FORMANTS[vowel_names[vi]])
        jitter = np.asarray(spk.formant_jitter[vi])
        formants = targets * jitter * spk.vt_scale * fmt_factor
        seg = make_vowel(
            seg_lengths[i] / fs,
            contour[i],
            formants,
            fs=fs,
            seed=int(rng.integers(0, 2**31)),
            noise_level=spk.breath,
            tilt=spk.tilt,
        )
        level = float(rng.uniform(0.8, 1.0))
        pieces.append(seg.samples * level)
        truth.append(contour[i])
        if i + 1 < len(gap_lengths):
            pieces.append(np.zeros(gap_lengths[i + 1]))
            truth.append(np.full(gap_lengths[i + 1], np.nan))
    x = np.concatenate(pieces)
    peak = np.max(np.abs(x))
    if peak > 0:
        x = 0.3 * x / peak
    # recording floor: real captures never contain digital silence
    x = x + NOISE_FLOOR_RMS * rng.standard_normal(x.size)
    return Waveform(x, fs), np.concatenate(truth)


def hash_speaker(speaker_id: str) -> int:
    """Stable small integer from a speaker id (no dependence on PYTHONHASHSEED)."""
    h = 0
    for ch in speaker_id:
        h = (h * 131 + ord(ch)) % 1000003
    return h


def generate_corpus(
    out_dir,
    seed: int = 1234,
    n_per_group: int = 5,
    n_modal: int = 4,
    n_disguised: int = 2,
    fs: float = SAMPLE_RATE,
):
    """Write WAVs, manifest.csv, and trials.csv in pipeline's schema; returns the manifest path.

    Every speaker records sessions 1 and 2. Enrollment material is modal speech
    of pipeline.ENROLL_SESSION; trial targets are the other modal utterances,
    paired genuine plus within-group impostor.
    """
    if n_per_group < 1 or n_modal < 1 or n_disguised < 0:
        raise ValueError("need n_per_group >= 1, n_modal >= 1 and n_disguised >= 0")
    out = Path(out_dir)
    (out / "wav").mkdir(parents=True, exist_ok=True)
    speakers = make_speakers(seed, n_per_group)
    rows = []
    for spk in speakers:
        for session in (1, 2):
            cells = [(CONDITION_MODAL, k) for k in range(n_modal)]
            cells += [(CONDITION_DISGUISED, k) for k in range(n_disguised)]
            for condition, k in cells:
                utt_id = f"{spk.speaker_id}_{condition}_s{session}_u{k:02d}"
                w = synth_utterance(spk, condition, session, k, seed, fs)
                rel = f"wav/{utt_id}.wav"
                write_wav(out / rel, w, encoding="pcm16")
                rows.append(ManifestRow(utt_id, rel, spk.speaker_id, spk.group, condition, str(session)))

    manifest_path = out / "manifest.csv"
    write_table(manifest_path, MANIFEST_FIELDS, map(astuple, rows))
    tests = [r for r in rows if r.condition == CONDITION_MODAL and r.session != ENROLL_SESSION]
    trials = (
        (s.speaker_id, r.utterance_id, "genuine" if s.speaker_id == r.speaker_id else "impostor")
        for r in tests for s in speakers if s.group == r.group
    )
    write_table(out / "trials.csv", TRIAL_FIELDS, trials)
    return manifest_path
