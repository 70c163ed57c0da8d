"""Acceptance suite: one test per shipped guarantee, each printing a summary line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
measurements alongside the pass/fail status.
"""

import csv
import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

import voxmask
from voxmask import deid, evaluation, fda, pipeline, pitch, resynth, synth
from voxmask.audio import Waveform, read_wav
from voxmask.evaluation import compute_eer, stoi

from conftest import make_test_vowel
from test_evaluation import brute_force_eer
from test_deid import with_fractions
from test_fda import dense_grid_pca, make_family
from test_resynth import median_formants

PRESETS = Path(voxmask.__file__).parent / "presets"


def preset(name: str) -> Path:
    return PRESETS / f"{name}.json"


# ------------------------------------------------------------ shared pipeline run


@pytest.fixture(scope="session")
def full_run(tmp_path_factory):
    """Corpus -> fit -> three anonymization passes -> four evaluations.

    Shared by the intelligibility-ordering and de-identification criteria so
    the expensive audio work happens once.
    """
    root = tmp_path_factory.mktemp("accept")
    timings = {}

    t0 = time.perf_counter()
    manifest = synth.generate_corpus(root / "corpus", seed=1234)
    timings["corpus"] = time.perf_counter() - t0

    model = root / "model.json"
    t0 = time.perf_counter()
    # fit over every condition: the disguised curves are what give the
    # donor-based strategies their targets
    pipeline.cmd_fit(manifest, preset("f0_S"), model)
    timings["fit"] = time.perf_counter() - t0

    anon_dirs = {}
    for name in ("f0_S", "F1-3_20", "f0_S-F1-3_20"):
        out = root / f"anon_{name}"
        t0 = time.perf_counter()
        failures = pipeline.cmd_anonymize(
            manifest, preset(name), model, out, sessions=("2",)
        )
        timings[f"anon_{name}"] = time.perf_counter() - t0
        assert failures == 0, f"{name}: {failures} utterances failed"
        anon_dirs[name] = out

    trials = root / "corpus" / "trials.csv"
    reports = {}
    t0 = time.perf_counter()
    reports["none"] = pipeline.cmd_evaluate(
        manifest, preset("none"), root / "corpus" / "wav", trials, root / "eval_none"
    )
    timings["eval_none"] = time.perf_counter() - t0
    for name, anon in anon_dirs.items():
        t0 = time.perf_counter()
        reports[name] = pipeline.cmd_evaluate(
            manifest, preset(name), anon, trials, root / f"eval_{name}"
        )
        timings[f"eval_{name}"] = time.perf_counter() - t0

    timings["pipeline"] = (
        timings["corpus"]
        + timings["fit"]
        + timings["anon_f0_S-F1-3_20"]
        + timings["eval_f0_S-F1-3_20"]
    )
    return {
        "root": root,
        "manifest": manifest,
        "model": model,
        "anon_dirs": anon_dirs,
        "reports": reports,
        "timings": timings,
    }


def _overall(report) -> evaluation.MethodResult:
    return report.rows[0]


# ------------------------------------------------------------ criteria


def test_criterion_01_fpca_matches_dense_grid_pca():
    t0 = time.perf_counter()
    worst_val, worst_fun = 0.0, 0.0
    for seed, kind in ((11, "trig"), (12, "poly"), (13, "bumps")):
        curves, labels = make_family(seed, n_curves=20, kind=kind)
        model = fda.fpca_fit(curves, labels)
        ref_vals, ref_funcs, grid = dense_grid_pca(curves)
        w = np.full(grid.size, 1.0 / (grid.size - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        # compare every component that carries measurable variance
        keep = [j for j in range(model.n_components) if model.variance_fraction[j] > 1e-6]
        for j in keep:
            rel = abs(model.eigenvalues[j] - ref_vals[j]) / ref_vals[j]
            worst_val = max(worst_val, rel)
            assert rel < 1e-4, (kind, j, model.eigenvalues[j], ref_vals[j])
        # eigenfunctions: the leading, well-separated components
        for j in range(3):
            f = model.components[j](grid)
            err = min(
                np.sqrt(np.mean((f - ref_funcs[j]) ** 2)),
                np.sqrt(np.mean((f + ref_funcs[j]) ** 2)),
            )
            worst_fun = max(worst_fun, err)
            assert err < 1e-3, (kind, j, err)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"\ncriterion 1: PASS eigenvalue rel err {worst_val:.2e} (tol 1e-4), "
        f"eigenfunction RMS {worst_fun:.2e} (tol 1e-3), {elapsed:.1f}s (< 10s)"
    )


def test_criterion_02_reconstruction_completeness():
    curves, labels = make_family(21, n_curves=20, kind="trig")
    model = fda.fpca_fit(curves, labels)
    grid = np.linspace(0.0, 1.0, 600)
    worst_full = 0.0
    for curve in curves:
        scores = fda.fpca_project(curve, model)
        target = curve(grid)
        errs = []
        for n in range(model.n_components + 1):
            recon = fda.reconstruct(model, scores, n)(grid)
            errs.append(np.sqrt(np.mean((recon - target) ** 2)))
        worst_full = max(worst_full, errs[-1])
        assert errs[-1] < 1e-6
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-9
    print(
        f"\ncriterion 2: PASS full-reconstruction RMS {worst_full:.2e} (tol 1e-6), "
        "error nonincreasing in n for all 20 curves"
    )


def test_criterion_03_variance_accounting():
    curves, labels = make_family(33, n_curves=12, kind="poly")
    model = fda.fpca_fit(curves, labels)
    total = float(np.sum(model.variance_fraction))
    assert abs(total - 1.0) <= 1e-9
    fake = with_fractions(model, [0.5, 0.3, 0.15, 0.05])
    n = deid.select_n_components(fake, threshold=0.9, cap=30)
    assert n == 3
    print(
        f"\ncriterion 3: PASS variance fractions sum to {total:.12f} (1 +/- 1e-9), "
        f"select_n_components([0.5,0.3,0.15,0.05], 0.9) = {n}"
    )


def test_criterion_04_psola_identity_and_shift():
    t0 = time.perf_counter()
    cfg = pitch.PitchConfig(floor=65.0, ceiling=380.0)
    min_stoi, worst_shift = 1.0, 0.0
    cases = [(fs, f0) for fs in synth.VOWEL_FORMANTS.values() for f0 in (110.0, 150.0)]
    assert len(cases) == 10
    for k, (formants, f0) in enumerate(cases):
        w = make_test_vowel(f0, formants=formants, seed=k)
        traj = pitch.extract_f0(w, cfg)

        same = resynth.psola_modify(w, traj, traj)
        s = stoi(w, same)
        min_stoi = min(min_stoi, s)
        assert s >= 0.95, (f0, formants, s)

        target = deid.constant_pitch_shift(traj, 15.0)
        shifted = resynth.psola_modify(w, traj, target)
        got = pitch.extract_f0(shifted, cfg)
        want = float(np.median(target.values[target.voiced]))
        have = float(np.median(got.values[got.voiced]))
        rel = abs(have - want) / want
        worst_shift = max(worst_shift, rel)
        assert rel < 0.03, (f0, formants, have, want)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"\ncriterion 4: PASS identity STOI min {min_stoi:.3f} (>= 0.95), "
        f"+15% median f0 err max {worst_shift:.2%} (< 3%), {elapsed:.1f}s (< 30s)"
    )


def test_criterion_05_formant_shift_fidelity():
    # f0 at 100/120/140 Hz: low enough that harmonic spacing does not
    # quantize the LPC formant reads used for verification
    targets = np.array([840.0, 1440.0, 3120.0])
    worst = 0.0
    for k, f0 in enumerate((100.0, 120.0, 140.0)):
        w = make_test_vowel(f0, seed=40 + k)
        shifted = resynth.shift_formants_detailed(w, resynth.FormantShiftConfig(factor=1.2)).waveform
        med = np.array(median_formants(shifted))
        rel = np.abs(med - targets) / targets
        worst = max(worst, float(rel.max()))
        assert np.all(rel < 0.05), (f0, med)

    from scipy.signal import welch

    w = make_test_vowel(120.0, seed=50)
    out = resynth.shift_formants_detailed(w, resynth.FormantShiftConfig(factor=1.0)).waveform
    f, p_in = welch(w.samples, fs=w.sample_rate, nperseg=1024)
    _, p_out = welch(out.samples, fs=w.sample_rate, nperseg=1024)
    band = (f >= 200.0) & (f <= 5000.0)
    db = 10.0 * np.log10(p_out[band] / p_in[band])
    env_rms = float(np.sqrt(np.mean(db**2)))
    assert env_rms < 1.0
    print(
        f"\ncriterion 5: PASS factor 1.2 formant err max {worst:.2%} (< 5%), "
        f"factor 1.0 envelope change {env_rms:.3f} dB RMS (< 1 dB)"
    )


def test_criterion_06_stoi_correctness(full_run):
    manifest = pipeline.load_manifest(full_run["manifest"])
    worst_identity = 1.0
    for row in manifest.rows:
        w = read_wav(manifest.resolve(row))
        s = stoi(w, w)
        worst_identity = min(worst_identity, s)
        assert abs(s - 1.0) <= 1e-6, row.utterance_id

    speech = read_wav(manifest.resolve(manifest.rows[0]))
    rng = np.random.default_rng(8)
    noise = Waveform(0.1 * rng.standard_normal(speech.samples.size), speech.sample_rate)
    s_noise = stoi(speech, noise)
    assert s_noise < 0.2

    s_f0 = _overall(full_run["reports"]["f0_S"]).stoi_mean
    s_both = _overall(full_run["reports"]["f0_S-F1-3_20"]).stoi_mean
    assert s_f0 >= s_both
    print(
        f"\ncriterion 6: PASS stoi(x,x) min {worst_identity:.8f} on 120 utterances, "
        f"speech-vs-noise {s_noise:.3f} (< 0.2), "
        f"STOI f0_S {s_f0:.3f} >= f0_S-F1-3_20 {s_both:.3f}"
    )


def test_criterion_07_eer_harness():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        n_g = int(rng.integers(1000, 3000))
        n_i = int(rng.integers(1000, 3000))
        gen = rng.normal(rng.uniform(0.0, 2.0), 1.0, n_g)
        imp = rng.normal(0.0, 1.0, n_i)
        eer, _ = compute_eer(gen, imp)
        bf = brute_force_eer(gen, imp)
        worst = max(worst, abs(eer - bf))
        assert abs(eer - bf) < 0.1

    perfect, _ = compute_eer([2.0, 3.0, 4.0], [0.0, 0.5, 1.0])
    assert perfect == 0.0
    x = np.array([0.1, 0.4, 0.4, 0.7])
    chance, _ = compute_eer(x, x)
    assert chance == pytest.approx(50.0, abs=1e-9)
    worked, _ = compute_eer([0.9, 0.6, 0.4], [0.7, 0.5, 0.2])
    assert worked == pytest.approx(100.0 / 3.0, abs=1e-9)
    print(
        f"\ncriterion 7: PASS brute-force delta max {worst:.4f} pp (< 0.1) on 100 sets, "
        f"perfect {perfect:.1f}%, identical {chance:.2f}%, worked case {worked:.2f}%"
    )


def _realized_medians(manifest: pipeline.Manifest, anon_dir: Path, group: str):
    """Median voiced f0 of each session-2 modal utterance, original vs output."""
    cfg = pitch.PitchConfig(floor=65.0, ceiling=520.0)  # wide: outputs cross groups
    deltas = []
    for row in manifest.filter(groups=(group,), conditions=("modal",), sessions=("2",)):
        orig = pitch.extract_f0(read_wav(manifest.resolve(row)), cfg)
        anon = pitch.extract_f0(read_wav(anon_dir / f"{row.utterance_id}.anon.wav"), cfg)
        deltas.append(
            float(np.median(anon.values[anon.voiced]) - np.median(orig.values[orig.voiced]))
        )
    return float(np.median(deltas))


def test_criterion_08_directional_deidentification(full_run):
    eer_none = _overall(full_run["reports"]["none"]).eer_percent
    eer_formant = _overall(full_run["reports"]["F1-3_20"]).eer_percent
    eer_both = _overall(full_run["reports"]["f0_S-F1-3_20"]).eer_percent
    assert eer_none < eer_formant
    assert eer_formant <= eer_both

    manifest = pipeline.load_manifest(full_run["manifest"])
    anon = full_run["anon_dirs"]["f0_S"]
    d_low = _realized_medians(manifest, anon, "low")
    d_high = _realized_medians(manifest, anon, "high")
    assert d_low > 0.0
    assert d_high < 0.0

    elapsed = full_run["timings"]["pipeline"]
    assert elapsed < 300.0
    print(
        f"\ncriterion 8: PASS EER none {eer_none:.2f}% < F1-3_20 {eer_formant:.2f}% "
        f"<= f0_S-F1-3_20 {eer_both:.2f}%, cross-group f0 swap moves medians "
        f"low {d_low:+.1f} Hz / high {d_high:+.1f} Hz, pipeline {elapsed:.0f}s (< 300s)"
    )


def _hash_tree(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def _pipeline_once(base: Path) -> dict:
    corpus = base / "corpus"
    manifest = synth.generate_corpus(corpus, seed=777, n_per_group=3, n_modal=2, n_disguised=1)
    cfg = preset("f0_S-F1-3_20")
    model = base / "model.json"
    pipeline.cmd_fit(manifest, cfg, model, workers=2)
    failures = pipeline.cmd_anonymize(manifest, cfg, model, base / "anon", workers=2)
    assert failures == 0
    pipeline.cmd_evaluate(manifest, cfg, base / "anon", corpus / "trials.csv", base / "eval", workers=2)
    pipeline.cmd_export_curves(model, 1, 100, base / "curves")
    return _hash_tree(base)


def test_criterion_09_determinism(tmp_path):
    a = _pipeline_once(tmp_path / "run_a")
    b = _pipeline_once(tmp_path / "run_b")
    assert set(a) == set(b)
    mismatched = [k for k in a if a[k] != b[k]]
    assert mismatched == []
    print(
        f"\ncriterion 9: PASS two full runs byte-identical across {len(a)} files "
        "(audio, logs, model, reports, exports)"
    )
