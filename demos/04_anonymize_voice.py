"""Anonymize a speaker's pitch contour by score replacement.

Fits a contour model over a small two-group corpus, then rewrites one
utterance's trajectory with each available strategy and compares the
resulting median f0.
"""

from pathlib import Path

import numpy as np

from voxmask import deid, fda, pipeline, pitch, resynth, synth
from voxmask.audio import read_wav, write_wav

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

# Corpus and a model fit over its modal (non-disguised) utterances. The
# bundled preset configs carry pitch ranges and basis settings.
corpus = OUT / "anon_corpus"
manifest = synth.generate_corpus(corpus, seed=11, n_per_group=3, n_modal=2, n_disguised=2)
preset = Path(pipeline.__file__).parent / "presets" / "f0_S.json"
model_path = OUT / "anon_model.json"
pipeline.cmd_fit(manifest, preset, model_path, conditions=("modal",))
model = fda.load_model(model_path)
print(f"model: {model.n_components} components over "
      f"{model.training_scores.shape[0]} curves")

# One low-group utterance to anonymize.
rows = pipeline.load_manifest(manifest)
row = rows.filter(groups=("low",), conditions=("modal",), sessions=("1",))[0]
w = read_wav(rows.resolve(row))
cfg = pitch.PitchConfig(floor=65.0, ceiling=380.0)
traj = pitch.extract_f0(w, cfg)
print(f"{row.utterance_id}: median f0 {np.median(traj.values[traj.voiced]):.1f} Hz")

strategies = {
    # swap the first score for the other group's mean: low speakers come
    # out high-pitched and vice versa
    "cross_group": deid.DeidStrategy(kind=deid.CROSS_GROUP, donor_group="high"),
    # use the speaker's own disguised recordings as the donor
    "disguise_model": deid.DeidStrategy(kind=deid.DISGUISE_MODEL),
    # no model needed: scale every voiced frame
    "constant_shift": deid.DeidStrategy(kind=deid.CONSTANT_SHIFT, shift_percent=15.0),
}

# disguise_model draws on disguised-condition curves, so it needs a model
# that has seen them. Each model carries the curve space it was fit in
# (basis, smoothing, grid, semitone reference), and anonymize_trajectory
# projects the utterance in that space. It takes the group's PitchConfig,
# the tracker's search range, and clamps a rebuilt contour to
# [floor/2, 2*ceiling]; psola_modify refuses a target outside
# [20 Hz, sample_rate/4].
all_model_path = OUT / "anon_model_all.json"
pipeline.cmd_fit(manifest, preset, all_model_path)
all_model = fda.load_model(all_model_path)

for name, strategy in strategies.items():
    m = all_model if name == "disguise_model" else model
    target = deid.anonymize_trajectory(traj, m, strategy, speaker=row.speaker_id, pitch=cfg)
    out = resynth.psola_modify(w, traj, target)
    got = pitch.extract_f0(out, pitch.PitchConfig(floor=65.0, ceiling=520.0))
    med = np.median(got.values[got.voiced])
    print(f"  {name:>15}: median f0 -> {med:.1f} Hz")
    write_wav(OUT / f"{row.utterance_id}.{name}.wav", out)

print(f"wrote anonymized takes under {OUT}")
