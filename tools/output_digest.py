"""Print the sha256 of every file one full command-line run writes.

Usage:

    python3 tools/output_digest.py [--src CHECKOUT] OUT

Runs the voxmask CLI from CHECKOUT (default: this checkout), with
CHECKOUT/src first on PYTHONPATH, into the empty or missing directory OUT:

- make-synth-corpus: seed 1234, 3 speakers per group, 3 modal and 1
  disguised utterance per session;
- the long-input step: the first LONG_FILES corpus WAVs, by name, joined
  into one signal of about 33 s, long enough to span several blocks of every
  blocked kernel. What the public kernels return for it goes under long/:
  resample to 10 and 11 kHz, psola_modify to 1.15 times the f0 that
  extract_f0 tracks, then shift_formants_detailed at 1.2, as float32 WAVs;
  the f0 track, stoi of the shifted signal against the input, mfcc_embed of
  the input, the pole counts and the sha256 of every waveform's float64
  samples in numbers.json;
- then, at --workers 1 and again at 2, each into its own directory: fit with
  the f0_S preset; evaluate the corpus wav/ directory with the none preset,
  the no-anonymization baseline, whose test files are the <id>.wav
  originals; anonymize session 2 and evaluate it with the f0_S-F1-3_20
  (cross-group swap), f0_D (disguise model) and f0_15-F1-3_10 (constant
  shift) presets; export-curves of the fitted model.

It then prints one ``sha256  relpath`` line per file under OUT, sorted by
path, and exits non-zero if any command fails. Two checkouts write the same
bytes exactly when their listings are equal, for example:

    python3 tools/output_digest.py --src ../parent /tmp/a > a.txt
    python3 tools/output_digest.py /tmp/b > b.txt
    diff a.txt b.txt

Every step runs in a subprocess from CHECKOUT's src/ and calls only public
names, so this script digests older checkouts as well. A run takes about
45 s on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ("f0_S-F1-3_20", "f0_D", "f0_15-F1-3_10")
LONG_FILES = 10  # corpus WAVs joined into the long input, about 3 s each
# runs write_long from this file in a subprocess whose voxmask is CHECKOUT's
LONG_STEP = f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); " \
    "import output_digest; output_digest.write_long(*sys.argv[1:])"


def write_long(wav_dir, out) -> None:
    """Write into out what the public kernels return for the first LONG_FILES WAVs of wav_dir, joined."""
    import numpy as np
    from voxmask.audio import Waveform, read_wav, resample, write_wav
    from voxmask.evaluation import mfcc_embed, stoi
    from voxmask.pitch import F0Trajectory, PitchConfig, extract_f0
    from voxmask.resynth import FormantShiftConfig, psola_modify, shift_formants_detailed

    parts = [read_wav(p) for p in sorted(Path(wav_dir).glob("*.wav"))[:LONG_FILES]]
    if len({p.sample_rate for p in parts}) != 1:
        raise ValueError("the joined corpus WAVs differ in sample rate")
    w = Waveform(np.concatenate([p.samples for p in parts]), parts[0].sample_rate)
    f0 = extract_f0(w, PitchConfig(65.0, 520.0))
    psola = psola_modify(w, f0, F0Trajectory(f0.times, f0.values * 1.15, f0.voiced))
    shifted = shift_formants_detailed(psola, FormantShiftConfig(factor=1.2))
    waves = {"resample_10000": resample(w, 10000), "resample_11000": resample(w, 11000),
             "psola": psola, "psola_formant": shifted.waveform}
    out = Path(out)
    out.mkdir(parents=True)
    for name, wave in waves.items():
        write_wav(out / f"{name}.wav", wave, encoding="float32")
    numbers = {
        "seconds": w.duration,
        "f0_hz": [float(v) if voiced else None for v, voiced in zip(f0.values, f0.voiced)],
        "stoi_psola_formant": stoi(w, shifted.waveform),
        "mfcc_embed": mfcc_embed(w).tolist(),
        "clamped_poles": shifted.clamped_poles,
        "skipped_poles": shifted.skipped_poles,
        # the float32 WAVs drop the last bits of float64 samples; these keep them
        "float64_sha256": {name: hashlib.sha256(wave.samples.tobytes()).hexdigest() for name, wave in waves.items()},
    }
    (out / "numbers.json").write_text(json.dumps(numbers, indent=1) + "\n")


def commands(src: Path, out: Path):
    """Every argument list of the run, in order: the CLI's, and the long-input step."""
    presets = src / "src" / "voxmask" / "presets"
    manifest, trials = out / "corpus" / "manifest.csv", out / "corpus" / "trials.csv"
    cli = [sys.executable, "-m", "voxmask.cli"]
    yield [*cli, "--out", out / "corpus", "--seed", "1234", "make-synth-corpus",
           "--n-per-group", "3", "--n-modal", "3", "--n-disguised", "1"]
    yield [sys.executable, "-c", LONG_STEP, out / "corpus" / "wav", out / "long"]
    for workers in ("1", "2"):
        run = out / f"workers{workers}"
        model = run / "model.json"
        yield [*cli, "--workers", workers, "--config", presets / "f0_S.json", "--manifest", manifest, "--out", model, "fit"]
        yield [*cli, "--workers", workers, "--config", presets / "none.json", "--manifest", manifest,
               "--out", run / "eval_none", "evaluate", "--anon-dir", out / "corpus" / "wav", "--trials", trials]
        for name in PRESETS:
            common = [*cli, "--workers", workers, "--config", presets / f"{name}.json", "--manifest", manifest]
            anon = run / f"anon_{name}"
            yield [*common, "--out", anon, "anonymize", "--model", model, "--sessions", "2"]
            yield [*common, "--out", run / f"eval_{name}", "evaluate", "--anon-dir", anon, "--trials", trials]
        yield [*cli, "--out", run / "curves", "export-curves", "--model", model]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT, help="checkout whose src/ runs (default: this one)")
    parser.add_argument("out", type=Path, help="empty or missing output directory")
    args = parser.parse_args(argv)
    src, out = args.src.resolve(), args.out.resolve()
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src / "src"), os.environ.get("PYTHONPATH")]))}
    for cmd in commands(src, out):
        argv = list(map(str, cmd))
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(f"exit {done.returncode}: {' '.join(argv)}\n{done.stderr}")
            return 1
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
