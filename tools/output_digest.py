"""Print the sha256 of every file one full command-line run writes.

Usage:

    python3 tools/output_digest.py [--src CHECKOUT] OUT

Runs the voxmask CLI from CHECKOUT (default: this checkout), with
CHECKOUT/src first on PYTHONPATH, into the empty or missing directory OUT:

- make-synth-corpus: seed 1234, 3 speakers per group, 3 modal and 1
  disguised utterance per session;
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

A run takes about half a minute on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ("f0_S-F1-3_20", "f0_D", "f0_15-F1-3_10")


def commands(src: Path, out: Path):
    """Every CLI argument list of the run, in order."""
    presets = src / "src" / "voxmask" / "presets"
    manifest, trials = out / "corpus" / "manifest.csv", out / "corpus" / "trials.csv"
    yield ["--out", out / "corpus", "--seed", "1234", "make-synth-corpus",
           "--n-per-group", "3", "--n-modal", "3", "--n-disguised", "1"]
    for workers in ("1", "2"):
        run = out / f"workers{workers}"
        model = run / "model.json"
        yield ["--workers", workers, "--config", presets / "f0_S.json", "--manifest", manifest, "--out", model, "fit"]
        yield ["--workers", workers, "--config", presets / "none.json", "--manifest", manifest,
               "--out", run / "eval_none", "evaluate", "--anon-dir", out / "corpus" / "wav", "--trials", trials]
        for name in PRESETS:
            common = ["--workers", workers, "--config", presets / f"{name}.json", "--manifest", manifest]
            anon = run / f"anon_{name}"
            yield [*common, "--out", anon, "anonymize", "--model", model, "--sessions", "2"]
            yield [*common, "--out", run / f"eval_{name}", "evaluate", "--anon-dir", anon, "--trials", trials]
        yield ["--out", run / "curves", "export-curves", "--model", model]


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
        argv = [sys.executable, "-m", "voxmask.cli", *map(str, cmd)]
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(f"exit {done.returncode}: {' '.join(argv)}\n{done.stderr}")
            return 1
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
