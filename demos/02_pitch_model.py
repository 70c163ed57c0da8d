"""Fit a functional PCA model of pitch contours and inspect its components.

Each utterance's semitone trajectory becomes a smooth function on [0, 1];
the model captures the dominant contour shapes and where every utterance
sits along them.
"""

from pathlib import Path

import numpy as np

from voxmask import fda, pitch, synth
from voxmask.audio import read_wav

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

# A handful of utterances from two pitch groups.
corpus = OUT / "model_corpus"
manifest = synth.generate_corpus(corpus, seed=42, n_per_group=3, n_modal=2, n_disguised=0)
print(f"corpus at {corpus}")

# One smooth curve per utterance: extract f0, then curve_from_trajectory fills
# gaps, converts to semitones, resamples onto a normalized time grid and
# applies penalized smoothing. The CurveSpace fixes all of these choices (60
# cubic B-splines, smoothing lambda, grid, semitone reference) for every
# curve, and factors its smoothing system once, on the first curve.
space = fda.CurveSpace(60, 4, lam=1e-8, grid_points=200, ref_hz=100.0)
ranges = {"low": (65.0, 380.0), "high": (140.0, 520.0)}
curves, labels = [], []
import csv

with open(manifest, newline="") as fh:
    for row in csv.DictReader(fh):
        floor, ceiling = ranges[row["group"]]
        w = read_wav(corpus / row["path"])
        traj = pitch.extract_f0(w, pitch.PitchConfig(floor=floor, ceiling=ceiling))
        curves.append(fda.curve_from_trajectory(traj, space))
        labels.append(fda.CurveLabel(row["utterance_id"], row["speaker_id"],
                                     row["group"], row["condition"]))

# Every curve carries its space, and the model keeps it: its scores mean
# something only there.
model = fda.fpca_fit(curves, labels)
print(f"{len(curves)} curves -> {model.n_components} components")
print("variance fractions:", np.round(model.variance_fraction[:5], 3))

# The first component usually separates the two pitch groups: scores of
# low-group curves sit on one side of the high-group scores.
s1 = model.training_scores[:, 0]
for group in ("low", "high"):
    vals = [s1[i] for i, lab in enumerate(labels) if lab.group == group]
    print(f"  {group:>4} group s1: mean {np.mean(vals):+.2f}, "
          f"range {min(vals):+.2f} to {max(vals):+.2f}")

# mean +/- one SD of the first component, sampled for plotting.
grid = np.linspace(0.0, 1.0, 100)
mean = model.mean(grid)
pc1 = model.components[0](grid)
sd = float(np.std(s1))
np.savetxt(OUT / "component_1.csv",
           np.column_stack([grid, mean, mean + sd * pc1, mean - sd * pc1]),
           delimiter=",", header="t,mean,plus,minus", comments="")
print(f"wrote {OUT / 'component_1.csv'}")

# Models round-trip through JSON, curve space included; projection of a
# training curve returns its stored scores, one per component.
fda.save_model(OUT / "pitch_model.json", model)
reloaded = fda.load_model(OUT / "pitch_model.json")
scores = fda.fpca_project(curves[0], reloaded)
assert reloaded.space == space
assert np.allclose(scores, model.training_scores[0], atol=1e-8)
print(f"wrote {OUT / 'pitch_model.json'}")
