"""STOI, the MFCC-statistics speaker scorer, and EER computation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voxmask import audio, evaluation, pipeline, resynth, synth
from voxmask.audio import Waveform, overlap_add, read_wav, resample
from voxmask.evaluation import (
    MFCC_CMN_HALF,
    MFCC_CMN_WINDOW_S,
    MFCC_FRAME_S,
    MFCC_HOP_S,
    MFCC_N_COEFFS,
    MFCC_N_MEL,
    STOI_BLOCK_FRAMES,
    STOI_BLOCK_SEGMENTS,
    STOI_FRAME,
    STOI_HOP,
    STOI_NFFT,
    STOI_RATE,
    STOI_SEGMENT,
    EvalReport,
    MethodResult,
    TrialSet,
    compute_eer,
    mfcc_embed,
    mfcc_frames,
    score_trials,
    stoi,
    summarize,
)

import evaluation_oracle as oracle
from conftest import make_noise, make_test_vowel, traced_peak


def speechlike(seed: int = 0) -> Waveform:
    """A multi-segment utterance with pauses, like the evaluation corpus."""
    spk = synth.make_speakers(seed, 1)[0]
    return synth.synth_utterance(spk, pipeline.CONDITION_MODAL, 1, 0, seed)


def sweep_thresholds(gen: np.ndarray, imp: np.ndarray, n: int) -> np.ndarray:
    lo = min(gen.min(), imp.min()) - 1e-6
    hi = max(gen.max(), imp.max()) + 1e-6
    return np.linspace(lo, hi, n)


def broadcast_far_frr(gen: np.ndarray, imp: np.ndarray, n: int = 100_000):
    """FAR/FRR at n thresholds by a thresholds x scores comparison: the reference for sorted_far_frr."""
    ts = sweep_thresholds(gen, imp, n)
    far = (imp[None, :] >= ts[:, None]).mean(axis=1)
    frr = (gen[None, :] < ts[:, None]).mean(axis=1)
    return far, frr


def sorted_far_frr(gen: np.ndarray, imp: np.ndarray, n: int = 100_000):
    """The same FAR/FRR in O((n + scores) log scores): counts below each threshold by searchsorted."""
    ts = sweep_thresholds(gen, imp, n)
    far = (imp.size - np.searchsorted(np.sort(imp), ts, "left")) / imp.size
    frr = np.searchsorted(np.sort(gen), ts, "left") / gen.size
    return far, frr


def brute_force_eer(gen: np.ndarray, imp: np.ndarray, n: int = 100_000) -> float:
    far, frr = sorted_far_frr(gen, imp, n)
    k = np.argmin(np.abs(far - frr))
    return 100.0 * 0.5 * (far[k] + frr[k])


def per_threshold_eer(gen: np.ndarray, imp: np.ndarray):
    """compute_eer with FAR/FRR taken one threshold at a time: the reference for its sorted sweep."""
    thresholds = np.unique(np.concatenate([gen, imp]))
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)
    far = np.array([np.mean(imp >= t) for t in thresholds])
    frr = np.array([np.mean(gen < t) for t in thresholds])
    diff = far - frr
    idx = int(np.argmax(diff <= 0))
    if diff[idx] == 0.0:
        return 100.0 * far[idx], float(thresholds[idx])
    if idx == 0:
        return 100.0 * max(far[0], frr[0]), float(thresholds[0])
    t = diff[idx - 1] / (diff[idx - 1] - diff[idx])
    eer = far[idx - 1] + t * (far[idx] - far[idx - 1])
    return 100.0 * eer, float(thresholds[idx - 1] + t * (thresholds[idx] - thresholds[idx - 1]))


# ------------------------------------------------------------------ stoi


class TestStoi:
    def test_identity_is_one(self):
        w = speechlike(1)
        assert stoi(w, w) == pytest.approx(1.0, abs=1e-6)

    def test_identity_on_vowel(self):
        w = make_test_vowel(130.0)
        assert stoi(w, w) == pytest.approx(1.0, abs=1e-6)

    def test_noise_scores_low(self):
        w = speechlike(2)
        noise = make_noise(w.duration, fs=w.sample_rate, seed=99)
        assert stoi(w, noise) < 0.2

    def test_polarity_inversion_of_both_is_neutral(self):
        w = speechlike(3)
        d = Waveform(w.samples * 0.9 + 0.01 * np.random.default_rng(0).standard_normal(w.samples.size), w.sample_rate)
        a = stoi(w, d)
        b = stoi(Waveform(-w.samples, w.sample_rate), Waveform(-d.samples, w.sample_rate))
        assert a == pytest.approx(b, abs=1e-9)

    def test_common_gain_invariance(self):
        w = speechlike(4)
        d = Waveform(np.roll(w.samples, 3), w.sample_rate)
        a = stoi(w, d)
        b = stoi(
            Waveform(0.25 * w.samples, w.sample_rate),
            Waveform(0.25 * d.samples, w.sample_rate),
        )
        assert a == pytest.approx(b, abs=1e-7)

    def test_degradation_is_graded(self):
        w = speechlike(5)
        rng = np.random.default_rng(1)
        noise = rng.standard_normal(w.samples.size)
        rms = np.sqrt(np.mean(w.samples**2))
        light = Waveform(w.samples + 0.05 * rms * noise, w.sample_rate)
        heavy = Waveform(w.samples + 2.0 * rms * noise, w.sample_rate)
        assert stoi(w, light) > stoi(w, heavy)

    def test_sample_rate_mismatch_rejected(self):
        w = speechlike(6)
        other = Waveform(w.samples, w.sample_rate + 1000)
        with pytest.raises(ValueError):
            stoi(w, other)

    def test_length_mismatch_beyond_tolerance_rejected(self):
        w = speechlike(7)
        short = Waveform(w.samples[: w.samples.size // 2], w.sample_rate)
        with pytest.raises(ValueError):
            stoi(w, short)

    def test_trailing_samples_truncated(self):
        w = speechlike(8)
        longer = Waveform(np.concatenate([w.samples, np.zeros(80)]), w.sample_rate)
        assert stoi(w, longer) == pytest.approx(1.0, abs=1e-6)

    def test_silence_rejected(self):
        z = Waveform(np.zeros(16000), 16000)
        with pytest.raises(ValueError):
            stoi(z, z)


# ------------------------------------------------------------------ stoi oracle


def assert_stoi_matches_oracle(clean: Waveform, processed: Waveform) -> float:
    """stoi within 1e-12 of the per-segment oracle, or the same ValueError text."""
    try:
        expected = oracle.stoi(clean, processed)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            stoi(clean, processed)
        assert str(got.value) == str(exc)
        return float("nan")
    value = stoi(clean, processed)
    assert abs(value - expected) <= 1e-12, (value, expected)
    return value


def assert_correlation_matches_oracle(ex: np.ndarray, ey: np.ndarray) -> float:
    expected = oracle.envelope_correlation(ex, ey)
    value = evaluation._envelope_correlation(ex, ey)
    assert abs(value - expected) <= 1e-12, (value, expected)
    return value


def envelope_frames(clean: Waveform, processed: Waveform) -> int:
    x = resample(clean, STOI_RATE).samples
    y = resample(processed, STOI_RATE).samples
    return evaluation._band_envelopes(evaluation._remove_silent_frames(x, y)[0]).shape[0]


def noise_pair(frames: int, seed: int = 0):
    """Reference noise and a noisier copy at the STOI rate, exactly `frames` analysis frames long."""
    rng = np.random.default_rng(seed)
    n = STOI_FRAME + (frames - 1) * STOI_HOP
    x = 0.1 * rng.standard_normal(n)
    return Waveform(x, STOI_RATE), Waveform(x + 0.1 * rng.standard_normal(n), STOI_RATE)


@pytest.fixture(scope="module")
def benchmark_pairs(tmp_path_factory):
    """The 18 test utterances of a seed-1234 corpus of the benchmark's evaluate shape.

    Each is paired with its 1.2 formant shift, the formant half of the preset the benchmark scores.
    """
    manifest = pipeline.load_manifest(
        synth.generate_corpus(tmp_path_factory.mktemp("eval1234"), seed=1234, n_per_group=3, n_modal=3, n_disguised=0)
    )
    rows = sorted(manifest.filter(conditions=("modal",), sessions=("2",)), key=lambda r: r.utterance_id)
    pairs = []
    for r in rows:
        w = read_wav(manifest.resolve(r))
        pairs.append((w, resynth.shift_formants_detailed(w, resynth.FormantShiftConfig(factor=1.2)).waveform))
    return pairs


@pytest.fixture(scope="module")
def long_oracle(long_pair):
    """The 120 s pair, and the oracle's STOI on it with its tracemalloc peak (one slow run, shared)."""
    clean, processed = long_pair
    expected, peak = traced_peak(oracle.stoi, clean, processed)
    return clean, processed, expected, peak


def random_envelopes(frames: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.1, 1.0, (frames, 15)), rng.uniform(0.1, 1.0, (frames, 15))


class TestStoiOracle:
    """stoi is tests/evaluation_oracle.py's per-segment STOI as array operations: within 1e-12, same errors."""

    def test_overlap_add_is_bitwise_the_loop(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 57):
            frames = rng.standard_normal((n, STOI_FRAME))
            assert np.array_equal(overlap_add(frames, STOI_HOP), oracle.overlap_add(frames))

    def test_silent_frame_removal_is_bitwise_the_loop(self, benchmark_pairs):
        for clean, processed in benchmark_pairs[:6]:
            x = resample(clean, STOI_RATE).samples
            y = resample(processed, STOI_RATE).samples[: x.size]
            for got, want in zip(evaluation._remove_silent_frames(x, y), oracle.remove_silent_frames(x, y)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "frames", [STOI_BLOCK_FRAMES - 1, STOI_BLOCK_FRAMES, STOI_BLOCK_FRAMES + 1, 2 * STOI_BLOCK_FRAMES + 1]
    )
    def test_blocked_framing_is_bitwise_one_pass(self, frames):
        """Both framing helpers, a block of frames at a time, equal the oracle's whole-signal framing."""
        clean, processed = noise_pair(frames)
        x, y = clean.samples, processed.samples
        for got, want in zip(evaluation._remove_silent_frames(x, y), oracle.remove_silent_frames(x, y)):
            assert np.array_equal(got, want)
        bands = oracle.third_octave_bands(STOI_NFFT, STOI_RATE)
        assert np.array_equal(evaluation._band_envelopes(x), oracle.band_envelopes(x, bands))

    @pytest.mark.parametrize("kept", [STOI_BLOCK_FRAMES - 1, STOI_BLOCK_FRAMES, STOI_BLOCK_FRAMES + 1])
    def test_blocked_rebuild_around_dropped_frames(self, kept):
        """A silent stretch drops frames, so the kept frames meet the block edges elsewhere than all frames do."""
        total = 2 * STOI_BLOCK_FRAMES + 1
        clean, processed = noise_pair(total)
        x, y = clean.samples.copy(), processed.samples
        gap = total - kept + 1  # hops of silence: the gap - 1 frames wholly inside it are dropped
        x[100 * STOI_HOP : (100 + gap) * STOI_HOP] = 0.0
        want = oracle.remove_silent_frames(x, y)
        assert want[0].size == (kept + 1) * STOI_HOP
        for got, expected in zip(evaluation._remove_silent_frames(x, y), want):
            assert np.array_equal(got, expected)

    def test_benchmark_pairs(self, benchmark_pairs):
        assert len(benchmark_pairs) == 18
        for clean, processed in benchmark_pairs:
            assert 0.0 < assert_stoi_matches_oracle(clean, processed) < 1.0

    @pytest.mark.parametrize("case", ["zero_reference", "constant_reference", "silent_processed", "all_three"])
    def test_degenerate_cells(self, case):
        ex, ey = random_envelopes(90)
        if case in ("zero_reference", "all_three"):
            ex[10:70, 3] = 0.0  # xn == 0 in the 31 segments inside the stretch
        if case in ("constant_reference", "all_three"):
            # a value whose sums and means are exact, so dx == 0 exactly
            ex[20:75, 5] = 0.75
        if case in ("silent_processed", "all_three"):
            ey[:, 7] = 0.0  # yn == 0, so alpha == 0 and dy == 0: the cells count as 0
        assert_correlation_matches_oracle(ex, ey)

    def test_all_degenerate_input_raises(self):
        ex, ey = random_envelopes(40)
        for flat in (np.zeros_like(ex), np.full_like(ex, 0.5)):
            with pytest.raises(ValueError, match="no valid band segments; inputs degenerate"):
                evaluation._envelope_correlation(flat, ey)
            with pytest.raises(ValueError, match="no valid band segments; inputs degenerate"):
                oracle.envelope_correlation(flat, ey)

    @pytest.mark.parametrize(
        "frames",
        [
            STOI_SEGMENT - 1,
            STOI_SEGMENT,
            STOI_SEGMENT + 1,
            STOI_SEGMENT - 2 + STOI_BLOCK_SEGMENTS,  # block - 1 segments
            STOI_SEGMENT - 1 + STOI_BLOCK_SEGMENTS,  # block segments
            STOI_SEGMENT + STOI_BLOCK_SEGMENTS,  # block + 1 segments
            STOI_SEGMENT - 1 + 2 * STOI_BLOCK_SEGMENTS + 7,
        ],
    )
    def test_frame_and_block_boundaries(self, frames):
        clean, processed = noise_pair(frames)
        assert envelope_frames(clean, processed) == frames
        value = assert_stoi_matches_oracle(clean, processed)
        assert np.isnan(value) == (frames < STOI_SEGMENT)
        ex, ey = random_envelopes(frames, seed=frames)
        if frames >= STOI_SEGMENT:
            assert_correlation_matches_oracle(ex, ey)

    def test_silent_processed_signal(self, benchmark_pairs):
        clean, _ = benchmark_pairs[0]
        assert assert_stoi_matches_oracle(clean, Waveform(np.zeros_like(clean.samples), clean.sample_rate)) == 0.0

    def test_same_errors(self, benchmark_pairs):
        clean, processed = benchmark_pairs[0]
        cases = [
            (clean, Waveform(processed.samples, processed.sample_rate + 1000)),  # sample rates differ
            (clean, Waveform(processed.samples[: processed.samples.size // 2], processed.sample_rate)),  # length
            (Waveform(np.zeros(16000), 16000), Waveform(np.zeros(16000), 16000)),  # silent reference
            (Waveform(np.ones(100), STOI_RATE), Waveform(np.ones(100), STOI_RATE)),  # shorter than one frame
            noise_pair(STOI_SEGMENT - 1),  # too little speech
        ]
        for a, b in cases:
            assert np.isnan(assert_stoi_matches_oracle(a, b))

    def test_120_second_pair(self, long_oracle):
        clean, processed, expected, _ = long_oracle
        assert abs(stoi(clean, processed) - expected) <= 1e-12

    def test_120_second_pair_memory(self, long_oracle):
        clean, processed, expected, oracle_peak = long_oracle
        value, peak = traced_peak(stoi, clean, processed)
        assert abs(value - expected) <= 1e-12
        assert peak <= 1.1 * oracle_peak, (peak, oracle_peak)

    def test_120_second_pair_memory_is_half_the_oracle(self, long_oracle):
        clean, processed, _, oracle_peak = long_oracle
        _, peak = traced_peak(stoi, clean, processed)
        assert peak <= 0.5 * oracle_peak, (peak, oracle_peak)

    def test_120_second_resample_memory_is_two_outputs_and_a_block(self, long_oracle):
        clean = long_oracle[0]
        out, peak = traced_peak(resample, clean, STOI_RATE)
        table = audio._polyphase_table(5, 8)  # 16 kHz to 10 kHz
        depth, row_in, row_out = table.shape
        rows = audio.RESAMPLE_ROWS
        assert rows * row_out <= out.samples.size // 16  # a block is a small part of the signal
        block = ((rows + depth - 1) * row_in + rows * row_out) * 8  # a block's input rows and one product
        # the result and Waveform's frozen copy; its finiteness check takes no full-length mask
        outputs = 2 * out.samples.nbytes
        assert peak <= outputs + block + table.nbytes, (peak, outputs)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        fs=st.sampled_from([8000, 11025, 16000, 22050, 44100]),
        f0=st.floats(80.0, 3500.0),
        noise=st.floats(0.0, 2.0),
        seconds=st.floats(0.3, 1.5),
    )
    # near-empty bands above 4 kHz: a 0/1 float band matrix moved this one by 1.2e-12
    @example(seed=0, fs=8000, f0=2450.0, noise=3.712512474207393e-09, seconds=1.0)
    def test_random_tone_in_noise(self, seed, fs, f0, noise, seconds):
        rng = np.random.default_rng(seed)
        n = int(seconds * fs)
        tone = np.sin(2 * np.pi * f0 * np.arange(n) / fs + rng.uniform(0, 2 * np.pi))
        clean = Waveform(0.3 * (tone + noise * rng.standard_normal(n)), fs)
        processed = Waveform(0.3 * (tone + noise * rng.standard_normal(n)), fs)
        assert_stoi_matches_oracle(clean, processed)


# ------------------------------------------------------------------ mfcc


class TestMfcc:
    def test_config_defaults_match_front_end(self):
        assert MFCC_N_COEFFS == 23
        assert MFCC_FRAME_S == pytest.approx(0.025)
        assert MFCC_HOP_S == pytest.approx(0.010)
        assert MFCC_N_MEL == 30
        assert MFCC_CMN_WINDOW_S == pytest.approx(3.0)

    def test_embedding_is_unit_norm(self):
        for seed in range(3):
            e = mfcc_embed(speechlike(seed))
            assert e.shape == (46,)
            assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-9)

    def test_identical_utterances_identical_embeddings(self):
        w = speechlike(10)
        a, b = mfcc_embed(w), mfcc_embed(w)
        np.testing.assert_array_equal(a, b)
        assert float(a @ b) == pytest.approx(1.0, abs=1e-9)

    def test_silence_rejected_by_vad(self):
        with pytest.raises(ValueError):
            mfcc_embed(Waveform(np.zeros(16000), 16000))

    def test_frames_shape(self):
        w = speechlike(11)
        coeffs, vad = mfcc_frames(w)
        assert coeffs.shape[1] == 23
        assert vad.shape == (coeffs.shape[0],)
        assert vad.any()

    def test_same_speaker_scores_higher_than_other(self):
        # two utterances per speaker; scorer must rank same-speaker closer
        spk = synth.make_speakers(3, 2)
        cond = pipeline.CONDITION_MODAL
        a1 = mfcc_embed(synth.synth_utterance(spk[0], cond, 1, 0, 31))
        a2 = mfcc_embed(synth.synth_utterance(spk[0], cond, 2, 1, 31))
        b1 = mfcc_embed(synth.synth_utterance(spk[1], cond, 1, 0, 31))
        same = score_trials([a1], a2)
        cross = score_trials([a1], b1)
        assert same > cross


class TestSlidingMeanOracle:
    """The cumsum mean normalization is tests/evaluation_oracle.py's per-frame loop, to 1e-12 of the peak."""

    @pytest.mark.parametrize(
        "frames",
        [1, 2, MFCC_CMN_HALF, MFCC_CMN_HALF + 1, 2 * MFCC_CMN_HALF, 2 * MFCC_CMN_HALF + 1,
         2 * MFCC_CMN_HALF + 2, 1000, 60_000],
    )
    def test_matches_loop(self, frames):
        rng = np.random.default_rng(frames)
        # MFCC-like columns: a large c0 offset, slow drift and frame noise
        offset = np.concatenate([[-300.0], rng.uniform(-40.0, 40.0, MFCC_N_COEFFS - 1)])
        drift = np.cumsum(rng.standard_normal((frames, MFCC_N_COEFFS)), axis=0) * 0.05
        coeffs = offset + drift + rng.standard_normal((frames, MFCC_N_COEFFS)) * 5.0
        for half in (1, 3, MFCC_CMN_HALF):
            got = evaluation._subtract_sliding_mean(coeffs, half)
            want = oracle.subtract_sliding_mean(coeffs, half)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(coeffs)), (frames, half)


class TestAnalysisConstants:
    def test_windows_bands_and_filterbank_are_read_only(self):
        for name in ("STOI_WINDOW", "STOI_BANDS", "MFCC_WINDOW", "MFCC_FILTERBANK"):
            arr = getattr(evaluation, name)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_constants_are_the_per_call_arrays(self):
        assert np.array_equal(evaluation.STOI_WINDOW, np.hanning(STOI_FRAME + 2)[1:-1])
        assert evaluation.STOI_BANDS.dtype == bool
        assert np.array_equal(evaluation.STOI_BANDS, oracle.third_octave_bands(512, STOI_RATE))
        assert np.array_equal(evaluation.MFCC_WINDOW, np.hamming(evaluation.MFCC_FRAME))
        assert evaluation.MFCC_FILTERBANK.shape == (MFCC_N_MEL, 257)


# ------------------------------------------------------------------ scoring


class TestScoreTrials:
    def test_self_similarity_is_one(self):
        e = mfcc_embed(speechlike(12))
        assert score_trials([e], e) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_embeddings_score_zero(self):
        a = np.zeros(46)
        a[0] = 1.0
        b = np.zeros(46)
        b[1] = 1.0
        assert score_trials([a], b) == pytest.approx(0.0, abs=1e-12)

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(46), rng.standard_normal(46)
        s1 = score_trials([a], b)
        s2 = score_trials([7.3 * a], b * 0.02)
        assert s1 == pytest.approx(s2, abs=1e-12)

    def test_empty_enrollment_rejected(self):
        with pytest.raises(ValueError):
            score_trials([], np.ones(46))


# ------------------------------------------------------------------ eer


class TestEer:
    def test_worked_three_by_three(self):
        eer, thr = compute_eer(TrialSet([0.9, 0.6, 0.4], [0.7, 0.5, 0.2]))
        assert eer == pytest.approx(100.0 / 3.0, abs=1e-9)
        assert 0.5 < thr <= 0.6

    def test_perfect_separation(self):
        eer, _ = compute_eer(TrialSet([0.9, 0.8], [0.2, 0.1]))
        assert eer == pytest.approx(0.0, abs=1e-12)

    def test_identical_distributions(self):
        scores = [0.1, 0.4, 0.7]
        eer, _ = compute_eer(TrialSet(scores, scores))
        assert eer == pytest.approx(50.0, abs=1e-9)

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            compute_eer(TrialSet([], [0.5]))
        with pytest.raises(ValueError):
            compute_eer(TrialSet([0.5], []))

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(ValueError):
            TrialSet([np.nan], [0.5])

    def test_matches_brute_force_sweep(self):
        # FAR/FRR move in steps of 100/n pp, so a 0.1 pp agreement bound is
        # only meaningful once both classes have >= 1000 trials
        rng = np.random.default_rng(123)
        for _ in range(100):
            n_g = int(rng.integers(1000, 3000))
            n_i = int(rng.integers(1000, 3000))
            sep = rng.uniform(0.0, 2.0)
            gen = rng.normal(sep, 1.0, n_g)
            imp = rng.normal(0.0, 1.0, n_i)
            eer, _ = compute_eer(TrialSet(gen, imp))
            bf = brute_force_eer(gen, imp)
            assert abs(eer - bf) < 0.1, (eer, bf, n_g, n_i, sep)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_sorted_sweep_equals_broadcast_reference(self, seed):
        rng = np.random.default_rng(seed)
        gen = rng.normal(1.0, 1.0, int(rng.integers(50, 300)))
        imp = rng.normal(0.0, 1.0, int(rng.integers(50, 300)))
        if seed % 2:
            # ties within and across classes, and scores lying exactly on thresholds of
            # the 1001-point sweep (interior values only, so the sweep's ends stay put)
            gen, imp = np.sort(np.round(gen, 1)), np.sort(np.round(imp, 1))
            ts = sweep_thresholds(gen, imp, 1001)
            gen[1:-1:4] = ts[200 : 200 + gen[1:-1:4].size]
            imp[1:-1:4] = ts[300 : 300 + imp[1:-1:4].size]
            assert np.array_equal(sweep_thresholds(gen, imp, 1001), ts)
        for n in (7, 1001, 100_000):
            far, frr = sorted_far_frr(gen, imp, n)
            ref_far, ref_frr = broadcast_far_frr(gen, imp, n)
            assert np.array_equal(far, ref_far) and np.array_equal(frr, ref_frr)

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_per_threshold_reference(self, seed):
        rng = np.random.default_rng(seed)
        gen = rng.normal(rng.uniform(0.0, 2.0), 1.0, int(rng.integers(200, 800)))
        imp = rng.normal(0.0, 1.0, int(rng.integers(200, 800)))
        if seed % 2:
            gen, imp = np.round(gen, 1), np.round(imp, 1)  # ties within and across classes
        assert compute_eer(TrialSet(gen, imp)) == per_threshold_eer(gen, imp)

    @given(
        st.lists(st.integers(min_value=-5000, max_value=5000), min_size=2, max_size=40),
        st.lists(st.integers(min_value=-5000, max_value=5000), min_size=2, max_size=40),
        st.sampled_from(["affine", "cube", "exp"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_transform_invariance(self, gen_i, imp_i, kind):
        # scores on a 1e-3 grid so the float transforms stay strictly
        # increasing (exp collapses near-equal doubles into ties)
        gen = np.asarray(gen_i, dtype=float) / 1000.0
        imp = np.asarray(imp_i, dtype=float) / 1000.0
        transforms = {
            "affine": lambda x: 3.0 * x + 11.0,
            "cube": lambda x: x**3 + x,
            "exp": lambda x: np.exp(0.5 * x),
        }
        f = transforms[kind]
        base, _ = compute_eer(TrialSet(gen, imp))
        mapped, _ = compute_eer(TrialSet(f(gen), f(imp)))
        assert base == pytest.approx(mapped, abs=1e-6)

    def test_threshold_is_operational(self):
        # at the returned threshold, FAR and FRR must straddle the EER value
        rng = np.random.default_rng(7)
        gen = rng.normal(1.2, 1.0, 300)
        imp = rng.normal(0.0, 1.0, 400)
        eer, thr = compute_eer(TrialSet(gen, imp))
        far = 100.0 * np.mean(imp >= thr)
        frr = 100.0 * np.mean(gen < thr)
        assert abs(far - frr) < 5.0
        assert min(far, frr) - 1.0 <= eer <= max(far, frr) + 1.0


# ------------------------------------------------------------------ report


class TestReport:
    def row(self, **kw):
        base = dict(
            label="m",
            eer_percent=25.0,
            eer_threshold=0.4,
            stoi_mean=0.8,
            stoi_min=0.7,
            stoi_max=0.9,
            n_genuine=10,
            n_impostor=90,
        )
        base.update(kw)
        return MethodResult(**base)

    def test_json_round_trip(self):
        import json

        report = EvalReport(corpus_id="c", config_hash="h", rows=(self.row(),))
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["rows"][0]["eer_percent"] == 25.0
        assert payload["corpus_id"] == "c"

    def test_nonfinite_serialized_as_null(self):
        report = EvalReport(
            corpus_id="c",
            config_hash="h",
            rows=(self.row(stoi_mean=float("nan"), stoi_min=float("nan"), stoi_max=float("nan")),),
        )
        d = report.to_json_dict()
        assert d["rows"][0]["stoi_mean"] is None

    def test_table_layout(self):
        report = EvalReport(corpus_id="c", config_hash="h", rows=(self.row(label="f0_S"),))
        table = report.format_table()
        lines = table.splitlines()
        assert "EER(%)" in lines[0] and "STOI" in lines[0]
        assert "f0_S" in lines[2]
        assert "25.00" in lines[2]


class TestSummarize:
    """The report rows from hand-made score and STOI arrays; no audio."""

    def test_rows_are_overall_then_each_group_in_sorted_order(self):
        rows = summarize(
            "m", [0.9, 0.1, 0.8, 0.2, 0.7, 0.3], [True, False, True, False, True, True],
            ["low", "low", "high", "high", "mid", "low"], [], [], True,
        )
        assert [r.label for r in rows] == ["m", "m/high", "m/low", "m/mid"]
        assert [(r.n_genuine, r.n_impostor) for r in rows] == [(4, 2), (1, 1), (2, 1), (1, 0)]

    def test_eer_below_chance_is_folded_at_50(self):
        gen, imp = [0.1, 0.2, 0.3, 0.45], [0.4, 0.5, 0.25, 0.6, 0.7]
        raw, threshold = compute_eer(TrialSet(np.array(gen), np.array(imp)))
        assert raw > 50.0  # genuine scores sit below the impostors
        overall, group = summarize("m", gen + imp, [True] * 4 + [False] * 5, ["g"] * 9, [], [], True)
        assert overall.eer_percent == group.eer_percent == 100.0 - raw
        assert overall.eer_threshold == group.eer_threshold == threshold

    def test_eer_above_chance_is_not_folded(self):
        gen, imp = [0.9, 0.8, 0.3, 0.75], [0.4, 0.5, 0.25, 0.6, 0.1]
        raw, threshold = compute_eer(TrialSet(np.array(gen), np.array(imp)))
        assert raw < 50.0
        overall, group = summarize("m", gen + imp, [True] * 4 + [False] * 5, ["g"] * 9, [], [], True)
        assert overall.eer_percent == group.eer_percent == raw
        assert overall.eer_threshold == group.eer_threshold == threshold

    def test_eer_is_nan_for_a_group_of_one_class(self):
        rows = summarize(
            "m", [0.9, 0.2, 0.8, 0.7, 0.1], [True, False, True, True, False], ["a", "a", "b", "b", "c"], [], [],
            True,
        )
        assert [r.label for r in rows] == ["m", "m/a", "m/b", "m/c"]
        assert np.isfinite(rows[0].eer_percent) and np.isfinite(rows[1].eer_percent)
        for r in rows[2:]:  # b holds only genuine trials, c only impostors
            assert np.isnan(r.eer_percent) and np.isnan(r.eer_threshold)
        assert [(r.n_genuine, r.n_impostor) for r in rows[2:]] == [(2, 0), (0, 1)]

    def test_eer_is_nan_when_off(self):
        rows = summarize("m", [0.9, 0.2, 0.8, 0.1], [True, False, True, False], ["a", "a", "b", "b"], [], [], False)
        assert all(np.isnan(r.eer_percent) and np.isnan(r.eer_threshold) for r in rows)
        assert [(r.n_genuine, r.n_impostor) for r in rows] == [(2, 2), (1, 1), (1, 1)]

    def test_stoi_is_nan_without_values(self):
        rows = summarize("m", [0.9, 0.2], [True, False], ["a", "a"], [], [], True)
        assert all(np.isnan([r.stoi_mean, r.stoi_min, r.stoi_max]).all() for r in rows)
        assert np.isfinite(rows[0].eer_percent)

    def test_stoi_statistics_are_over_utterances_not_trials(self):
        # utterance u1 (STOI 0.2) is tested by three trials and u2 (0.8) by one, both in group a;
        # a trial-weighted mean of group a would be 0.35
        rows = summarize(
            "m", [0.9, 0.1, 0.2, 0.8, 0.7], [True, False, False, True, True], ["a", "a", "a", "a", "b"],
            [0.2, 0.8, 0.6], ["a", "a", "b"], True,
        )
        assert [(r.stoi_mean, r.stoi_min, r.stoi_max) for r in rows] == [
            (np.mean([0.2, 0.8, 0.6]), 0.2, 0.8), (0.5, 0.2, 0.8), (0.6, 0.6, 0.6),
        ]
        assert all(type(v) is float for r in rows for v in (r.eer_percent, r.stoi_mean, r.stoi_min, r.stoi_max))
