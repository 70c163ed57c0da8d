"""Tests for the synthetic evaluation corpus generator."""

import copy
import csv
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from synth_oracle import pulse_train_oracle

from voxmask import pipeline, pitch, synth
from voxmask.audio import read_wav

RATES = (8000, 11025, 16000, 22050, 44100)
# perfbench's corpus shapes: fit and anonymize, then evaluate
BENCH_SHAPES = ({"n_per_group": 3, "n_modal": 2, "n_disguised": 0}, {"n_per_group": 3, "n_modal": 3, "n_disguised": 0})


def _tree_hashes(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestSpeakers:
    def test_inventory_shape(self):
        spk = synth.make_speakers(7, n_per_group=4)
        assert len(spk) == 8
        assert sum(s.group == synth.GROUP_LOW for s in spk) == 4
        ids = [s.speaker_id for s in spk]
        assert len(set(ids)) == len(ids)

    def test_same_seed_same_speakers(self):
        assert synth.make_speakers(7) == synth.make_speakers(7)
        assert synth.make_speakers(7) != synth.make_speakers(8)

    def test_group_pitch_separation(self):
        # group medians must stay well apart so cross-group transfer is visible
        spk = synth.make_speakers(1234)
        low = [s.base_f0 for s in spk if s.group == synth.GROUP_LOW]
        high = [s.base_f0 for s in spk if s.group == synth.GROUP_HIGH]
        gap = 12.0 * np.log2(np.median(high) / np.median(low))
        assert gap >= 6.0
        assert max(low) < min(high)

    def test_hash_speaker_stable(self):
        assert synth.hash_speaker("low00") == synth.hash_speaker("low00")
        assert synth.hash_speaker("low00") != synth.hash_speaker("low01")
        assert 0 <= synth.hash_speaker("high04") < 1000003


def assert_matches_oracle(curve, fs, shimmer=0.03, seed=0):
    """pulse_train is bitwise the sample-at-a-time loop and leaves the generator where the loop does."""
    rng, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    out = synth.pulse_train(curve, fs, rng, shimmer)
    ref = pulse_train_oracle(curve, fs, rng_oracle, shimmer)
    assert np.array_equal(out, ref), f"pulses at {np.flatnonzero(out != ref)[:5]} differ"
    assert rng.bit_generator.state == rng_oracle.bit_generator.state
    return ref


@st.composite
def f0_curves(draw):
    """(fs, per-sample f0): smooth glides, piecewise-constant steps, or a fall by half within one period."""
    fs = draw(st.sampled_from(RATES))
    n = draw(st.integers(1, 3000))
    f0 = draw(st.floats(50.0, 500.0))
    t = np.arange(n)
    kind = draw(st.sampled_from(["smooth", "stepped", "halving"]))
    if kind == "smooth":
        slope = draw(st.floats(-0.5, 0.5))
        depth = draw(st.floats(0.0, 0.5))
        cycles = draw(st.floats(0.0, 20.0))
        return fs, f0 * (1.0 + slope * t / n) * (1.0 + depth * np.sin(2 * np.pi * cycles * t / n))
    if kind == "stepped":
        factors = draw(st.lists(st.floats(0.5, 2.0), min_size=1, max_size=8))
        edges = sorted(draw(st.lists(st.integers(0, n), min_size=len(factors) - 1, max_size=len(factors) - 1)))
        return fs, f0 * np.repeat(factors, np.diff([0, *edges, n]))
    start = draw(st.integers(0, n))
    return fs, f0 * np.interp(t, [start, start + fs / f0], [1.0, 0.5])


class TestPulseTrain:
    """pulse_train runs once per pulse; tests/synth_oracle.py is the per-sample loop it must equal bitwise."""

    @pytest.mark.parametrize("shimmer", [0.0, 0.03])
    @pytest.mark.parametrize("fs", RATES)
    def test_constant_f0_matches_the_oracle(self, fs, shimmer):
        # whole periods (fs / f0 an integer) are where one cumsum over the whole curve misplaces pulses
        whole = {f for f in range(50, 501) if fs % f == 0}
        assert whole
        for f0 in sorted({*range(50, 501, 25), *whole, 57.3, 123.4, 333.3, 499.9}):
            ref = assert_matches_oracle(np.full(fs // 2, float(f0)), fs, shimmer)
            assert np.count_nonzero(ref) >= int(f0 / 2) - 1

    @pytest.mark.parametrize("shape", BENCH_SHAPES, ids=["anonymize_shape", "evaluate_shape"])
    def test_every_vowel_of_the_bench_corpora_matches_the_oracle(self, shape, tmp_path, monkeypatch):
        pulse_train = synth.pulse_train
        checked = []

        def checked_pulse_train(f0_curve, fs, rng=None, shimmer=0.0):
            rng_oracle = copy.deepcopy(rng)
            out = pulse_train(f0_curve, fs, rng, shimmer)
            assert np.array_equal(out, pulse_train_oracle(f0_curve, fs, rng_oracle, shimmer))
            assert rng.bit_generator.state == rng_oracle.bit_generator.state
            checked.append(np.count_nonzero(out))
            return out

        monkeypatch.setattr(synth, "pulse_train", checked_pulse_train)
        synth.generate_corpus(tmp_path, seed=1234, **shape)
        n_utterances = 2 * shape["n_per_group"] * 2 * shape["n_modal"]
        assert len(checked) >= 6 * n_utterances  # 6 to 8 vowels each
        assert min(checked) > 0

    @given(f0_curves(), st.sampled_from([0.0, 0.03]), st.integers(0, 2**32 - 1))
    # f0 halves after the first sample, so the first 1.5 periods hold no pulse and the phase is carried
    @example((16000, np.r_[200.0, np.full(399, 100.0)]), 0.03, 0)
    @settings(max_examples=150, deadline=None)
    def test_varying_f0_matches_the_oracle(self, fs_curve, shimmer, seed):
        fs, curve = fs_curve
        assert_matches_oracle(curve, fs, shimmer, seed)

    @pytest.mark.parametrize(
        "curve, message",
        [
            ([100.0, np.nan, 100.0], "finite"),
            ([100.0, np.inf], "finite"),
            ([100.0, 0.0], "strictly between 0 and fs"),
            ([-100.0], "strictly between 0 and fs"),
            ([100.0, 16000.0], "strictly between 0 and fs"),
            ([20000.0], "strictly between 0 and fs"),
            (np.full((2, 3), 100.0), "1-D"),
            (100.0, "1-D"),
        ],
        ids=["nan", "inf", "zero", "negative", "f0_equals_fs", "f0_above_fs", "two_dimensional", "scalar"],
    )
    def test_bad_curve_rejected_before_any_draw(self, curve, message):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            synth.pulse_train(np.asarray(curve), 16000, rng, shimmer=0.03)
        assert rng.bit_generator.state == state

    def test_empty_curve(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        out = synth.pulse_train(np.zeros(0), 16000, rng, shimmer=0.03)
        assert out.shape == (0,)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("f0", [50.0, 8000.0, 15999.0])
    def test_one_sample_curve(self, f0):
        # the phase starts at 0 and gains less than 1, so one sample never fires
        ref = assert_matches_oracle(np.array([f0]), 16000)
        assert ref.tolist() == [0.0]


class TestUtterance:
    def test_deterministic(self):
        spk = synth.make_speakers(5)[0]
        a = synth.synth_utterance(spk, pipeline.CONDITION_MODAL, 1, 0, 5)
        b = synth.synth_utterance(spk, pipeline.CONDITION_MODAL, 1, 0, 5)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_sessions_differ(self):
        spk = synth.make_speakers(5)[0]
        a = synth.synth_utterance(spk, pipeline.CONDITION_MODAL, 1, 0, 5)
        b = synth.synth_utterance(spk, pipeline.CONDITION_MODAL, 2, 0, 5)
        assert a.samples.shape != b.samples.shape or not np.array_equal(a.samples, b.samples)

    def test_noise_floor_present(self):
        # silence between segments sits near the configured floor, not at zero
        spk = synth.make_speakers(5)[0]
        w = synth.synth_utterance(spk, pipeline.CONDITION_MODAL, 1, 0, 5)
        frame = int(0.05 * w.sample_rate)
        n = (w.samples.size // frame) * frame
        rms = np.sqrt(np.mean(w.samples[:n].reshape(-1, frame) ** 2, axis=1))
        floor = rms.min()
        assert floor > 0.2 * synth.NOISE_FLOOR_RMS
        assert floor < 10.0 * synth.NOISE_FLOOR_RMS

    @pytest.mark.parametrize(
        "condition, factor", [(pipeline.CONDITION_MODAL, 1.0), (synth.CONDITION_DISGUISED, synth.DISGUISE_F0_FACTOR)]
    )
    def test_contour_is_the_f0_of_the_vowels_and_nan_between_them(self, condition, factor):
        spk = synth.make_speakers(5)[0]
        w, truth = synth._utterance_and_contour(spk, condition, 1, 0, 5, synth.SAMPLE_RATE)
        assert np.array_equal(w.samples, synth.synth_utterance(spk, condition, 1, 0, 5).samples)
        assert truth.shape == w.samples.shape
        voiced = np.isfinite(truth)
        edges = np.flatnonzero(np.diff(voiced.astype(int)))
        assert not voiced[0] and not voiced[-1] and 6 <= edges.size // 2 <= 8  # one run per vowel
        # gaps carry the recording floor only; every vowel is far above it
        assert np.max(np.abs(w.samples[~voiced])) < 10 * synth.NOISE_FLOOR_RMS
        for run in np.split(w.samples, edges + 1)[1::2]:
            assert np.sqrt(np.mean(run**2)) > 30 * synth.NOISE_FLOOR_RMS
        # declination, accent and wobble stay within these multiples of the speaker's base
        f0 = truth[voiced] / (spk.base_f0 * factor)
        assert np.all((0.8 < f0) & (f0 < 1.12 * 1.3 * 1.015))

    def test_disguise_raises_pitch(self):
        spk = synth.make_speakers(5)[2]
        cfg = pitch.PitchConfig(floor=60.0, ceiling=520.0)
        med = {}
        for cond in (pipeline.CONDITION_MODAL, synth.CONDITION_DISGUISED):
            w = synth.synth_utterance(spk, cond, 1, 0, 5)
            tr = pitch.extract_f0(w, cfg)
            med[cond] = np.nanmedian(tr.values)
        ratio = med[synth.CONDITION_DISGUISED] / med[pipeline.CONDITION_MODAL]
        assert ratio == pytest.approx(synth.DISGUISE_F0_FACTOR, rel=0.12)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corp")
    manifest = synth.generate_corpus(out, seed=99, n_per_group=2, n_modal=2, n_disguised=1)
    return out, manifest


class TestCorpus:
    def test_layout_and_row_count(self, corpus):
        out, manifest = corpus
        with open(manifest, newline="") as fh:
            rows = list(csv.DictReader(fh))
        # 2 groups x 2 speakers x 2 sessions x (2 modal + 1 disguised)
        assert len(rows) == 24
        assert list(rows[0].keys()) == pipeline.MANIFEST_FIELDS
        ids = [r["utterance_id"] for r in rows]
        assert len(set(ids)) == len(ids)
        for r in rows:
            p = out / r["path"]
            assert p.exists()
            w = read_wav(p)
            assert w.sample_rate == synth.SAMPLE_RATE

    def test_trials_reference_session_two_modal(self, corpus):
        out, manifest = corpus
        with open(manifest, newline="") as fh:
            by_id = {r["utterance_id"]: r for r in csv.DictReader(fh)}
        with open(out / "trials.csv", newline="") as fh:
            trials = list(csv.DictReader(fh))
        assert list(trials[0].keys()) == pipeline.TRIAL_FIELDS
        assert {t["label"] for t in trials} == {"genuine", "impostor"}
        for t in trials:
            r = by_id[t["test_utterance"]]
            assert r["condition"] == pipeline.CONDITION_MODAL
            assert r["session"] == "2"
            # impostor pairs stay within group
            assert t["enroll_speaker"][:3] in r["group"] or t["enroll_speaker"].startswith(r["group"])
        n_gen = sum(t["label"] == "genuine" for t in trials)
        n_imp = sum(t["label"] == "impostor" for t in trials)
        # 8 session-2 modal utterances, each 1 genuine + 1 within-group impostor
        assert n_gen == 8
        assert n_imp == 8

    def test_regeneration_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for d in (a, b):
            synth.generate_corpus(d, seed=31, n_per_group=2, n_modal=1, n_disguised=1)
        assert _tree_hashes(a) == _tree_hashes(b)

    def test_seed_changes_audio(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        synth.generate_corpus(a, seed=31, n_per_group=1, n_modal=1, n_disguised=0)
        synth.generate_corpus(b, seed=32, n_per_group=1, n_modal=1, n_disguised=0)
        ha = _tree_hashes(a)
        hb = _tree_hashes(b)
        assert any(ha[k] != hb[k] for k in ha if k.startswith("wav/"))

    @pytest.mark.parametrize(
        "sizes",
        [{"n_per_group": 0}, {"n_modal": 0}, {"n_disguised": -1}],
        ids=["no_speakers", "no_modal", "negative_disguised"],
    )
    def test_empty_or_negative_sizes_rejected(self, sizes, tmp_path):
        out = tmp_path / "corp"
        with pytest.raises(ValueError, match="n_per_group >= 1, n_modal >= 1 and n_disguised >= 0"):
            synth.generate_corpus(out, seed=1, **sizes)
        assert not out.exists()
