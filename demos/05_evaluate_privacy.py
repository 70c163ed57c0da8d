"""Run the whole pipeline and measure privacy against intelligibility.

Generates a corpus, fits the contour model, anonymizes the test sessions,
and scores speaker-verification EER plus STOI, before and after.
"""

from pathlib import Path

from voxmask import pipeline, synth

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

presets = Path(pipeline.__file__).parent / "presets"
corpus = OUT / "eval_corpus"

manifest = synth.generate_corpus(corpus, seed=2024, n_per_group=3, n_modal=2, n_disguised=1)
print(f"corpus: {manifest}")

model = OUT / "eval_model.json"
pipeline.cmd_fit(manifest, presets / "f0_S.json", model, conditions=("modal",))
print(f"model: {model}")

# Anonymize the test material (session 2) with pitch swap plus a 20%
# formant shift, the strongest bundled setting.
anon = OUT / "eval_anon"
failures = pipeline.cmd_anonymize(
    manifest, presets / "f0_S-F1-3_20.json", model, anon, sessions=("2",)
)
print(f"anonymized session-2 modal utterances ({failures} failures)")

# Baseline: the evaluator falls back to the original wavs when a directory
# holds no anonymized takes.
trials = corpus / "trials.csv"
baseline = pipeline.cmd_evaluate(
    manifest, presets / "none.json", corpus / "wav", trials, OUT / "eval_baseline"
)
protected = pipeline.cmd_evaluate(
    manifest, presets / "f0_S-F1-3_20.json", anon, trials, OUT / "eval_protected"
)

print()
print(baseline.format_table())
print()
print(protected.format_table())
print()
b = baseline.rows[0]
p = protected.rows[0]
print(f"privacy: EER {b.eer_percent:.1f}% -> {p.eer_percent:.1f}% "
      "(higher is more anonymous)")
print(f"intelligibility: STOI {b.stoi_mean:.2f} -> {p.stoi_mean:.2f} "
      "(1.0 is unchanged speech)")
