"""The benchmark's workloads: their inputs, the stage call each one times, and what it may touch.

Every workload runs on a synthetic corpus made from the workload seed by
``synth.generate_corpus``; the program only ever sees the WAVs, manifest and
trial list. The corpora are smaller than the 120-utterance acceptance corpus
so that one run, set-up included, ends in well under a minute. Both have 3
speakers per pitch group, 2 sessions and modal speech only. fit and
anonymize use 2 utterances per session: 24 utterances, of which the 12
session-2 ones are anonymized. evaluate uses 3 per session, so each speaker
is enrolled on 3 utterances and 18 test utterances are scored in 54 trials;
with fewer, the EER of the unprotected corpus comes too close to the
anonymized one for the privacy check to hold on every seed. Why each
workload exists is recorded beside its name in BENCHMARK.json.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import shutil
import sys
import wave
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ANON_CORPUS = {"n_per_group": 3, "n_modal": 2, "n_disguised": 0}
EVAL_CORPUS = {"n_per_group": 3, "n_modal": 3, "n_disguised": 0}
MODEL_SESSIONS = ("1",)  # the model never sees the session it anonymizes
TEST_SESSIONS = ("2",)
MODEL_PRESET = "f0_S"
FORMANT_PRESET = "f0_S-F1-3_20"
BASELINE_PRESET = "none"
SETUP_WORKERS = 2  # set-up only builds inputs, so it uses both CPUs whatever the workload


@dataclass(frozen=True)
class Workload:
    name: str
    stage: str  # "fit", "anonymize" or "evaluate"
    preset: str
    workers: int
    corpus: dict  # generate_corpus shape
    bypassed: tuple  # span-name prefixes the traced stage call must never enter


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit", "fit", MODEL_PRESET, 1, ANON_CORPUS, ("resynth.", "deid.", "evaluation.")),
        Workload("anon_formant", "anonymize", FORMANT_PRESET, 1, ANON_CORPUS, ("evaluation.",)),
        # the preset has formant factor 1.0, so shift_formants is still called but
        # returns before any Burg analysis: burg_lpc is the bypassed mechanism
        Workload("anon_pitch_w2", "anonymize", MODEL_PRESET, 2, ANON_CORPUS, ("resynth.burg_lpc", "evaluation.")),
        Workload("evaluate", "evaluate", FORMANT_PRESET, 1, EVAL_CORPUS, ("pitch.", "fda.", "deid.", "resynth.")),
    )
}


def load_voxmask():
    """Import (pipeline, synth) from this checkout's src/, never from an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pipeline = importlib.import_module("voxmask.pipeline")
    synth = importlib.import_module("voxmask.synth")
    if Path(pipeline.__file__).resolve().parent != SRC / "voxmask":
        raise ImportError(f"voxmask was imported from {pipeline.__file__}, not from {SRC}")
    return pipeline, synth


def preset(name: str) -> Path:
    return SRC / "voxmask" / "presets" / f"{name}.json"


def build_inputs(pipeline, synth, w: Workload, root: Path, seed: int) -> None:
    """Write everything the workload's stage call reads under root.

    All workloads need the corpus; anonymize also needs the model, fitted on
    session 1, and evaluate the model and the formant-shifted anonymized audio.
    """
    manifest = synth.generate_corpus(root / "corpus", seed=seed, **w.corpus)
    if w.stage == "fit":
        return
    pipeline.cmd_fit(
        manifest, preset(MODEL_PRESET), root / "model.json", sessions=MODEL_SESSIONS,
        workers=SETUP_WORKERS,
    )
    if w.stage == "anonymize":
        return
    failed = pipeline.cmd_anonymize(
        manifest, preset(FORMANT_PRESET), root / "model.json", root / "anon",
        sessions=TEST_SESSIONS, workers=SETUP_WORKERS,
    )
    if failed:
        raise RuntimeError(f"set-up anonymization failed on {failed} utterances")


def manifest_rows(inputs: Path) -> list:
    with open(inputs / "corpus" / "manifest.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def wav_seconds(path: Path) -> float:
    with wave.open(str(path), "rb") as fh:
        return fh.getnframes() / fh.getframerate()


def stage_input(w: Workload, inputs: Path) -> tuple:
    """(utterances attempted per call, seconds of audio under test per call).

    fit reads every utterance; anonymize and evaluate work on the session-2
    modal utterances (evaluate scores their anonymized versions).
    """
    rows = manifest_rows(inputs)
    if w.stage != "fit":
        rows = [r for r in rows if r["condition"] == "modal" and r["session"] in TEST_SESSIONS]
    seconds = sum(wav_seconds(inputs / "corpus" / r["path"]) for r in rows)
    return len(rows), seconds


def model_copy(out: Path) -> Path:
    return out.with_suffix(".model.json")


def prepare_call(w: Workload, inputs: Path, out: Path) -> None:
    """Untimed preparation of one stage call.

    anonymize gets its own copy of the model: a fresh path misses the
    in-process model cache, so every call loads the model as a CLI run does.
    """
    if w.stage == "anonymize":
        shutil.copyfile(inputs / "model.json", model_copy(out))


def run_stage(pipeline, w: Workload, inputs: Path, out: Path, workers: int):
    """The timed call. Returns cmd_evaluate's report for evaluate, else None."""
    manifest = inputs / "corpus" / "manifest.csv"
    config = preset(w.preset)
    if w.stage == "fit":
        pipeline.cmd_fit(manifest, config, out / "model.json", workers=workers)
        return None
    if w.stage == "anonymize":
        pipeline.cmd_anonymize(
            manifest, config, model_copy(out), out, sessions=TEST_SESSIONS,
            workers=workers,
        )
        return None
    return pipeline.cmd_evaluate(
        manifest, config, inputs / "anon", inputs / "corpus" / "trials.csv", out, workers=workers
    )


def failed_utterances(w: Workload, out: Path, attempted: int) -> int:
    """Counted from outside: anonymize's log status column; fit and evaluate fail as a whole."""
    if w.stage != "anonymize":
        return 0
    log = out / "anon_log.csv"
    with open(log, newline="") as fh:
        rows = list(csv.DictReader(fh))
    failed = sum(1 for r in rows if r["status"] != "ok")
    return failed + max(0, attempted - len(rows))


def tree_digest(path: Path) -> str:
    """sha256 over the relative paths and bytes of every file under path."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()
