"""Batch orchestration: the corpus schema, model fitting, anonymization runs, evaluation.

All commands are plain functions so they can be driven from the CLI or from
tests. The corpus schema is this module's: ManifestRow (the manifest's
columns), TRIAL_FIELDS, CONDITION_MODAL, ENROLL_SESSION and write_table, the
one CSV writer, with which synth writes its corpus. Every file a command reads
from outside passes one check, that it is a regular file; the manifest and the
trial file then go through one CSV reader, which wants UTF-8, every column and
the header's field count in each row. load_config turns the config JSON into
typed objects once: each block holds the keyword arguments of one dataclass (a
PitchConfig per pitch group, the fda.CurveSpace from the basis block and
semitone_ref_hz, the DeidStrategy, the FormantShiftConfig), which keeps every
default and check. So a key that names no field, a required key left out, a
bad value, or a missing or inconsistent model file, which one reader loads, is
a ConfigError before any audio is read. A model owns the curve space it was
fit in, and anonymize rejects a config whose space is not equal to it. fit and
anonymize factor their space and build its Gram matrix before they read any
audio, so a space the grid cannot support is a ConfigError too. Per-utterance
work is a frozen job dataclass: FitJob (a path and the group's PitchConfig)
for f0 tracking and smoothing; AnonymizeJob, which adds the manifest row, its
resolved strategy and the FormantShiftConfig; EvalJob, one file to embed and
score by STOI. fit hands its factored space, and anonymize its model (read
once per run, its space factored), to each worker once, through the pool's
initializer. _map_jobs is the one place a job's exception is caught: each
command logs an ok or failed row per utterance and goes on with the rest. A
command starts at most one pool and aggregates in utterance-id order, so the
worker count never changes output bytes. Every command and pool worker runs
OpenBLAS at one thread (see blas), so the core count and the BLAS thread
settings do not change them either: the worker count is the only parallelism.
"""

from __future__ import annotations

import csv
import gc
import dataclasses
import hashlib
import json
import typing
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import blas, deid, evaluation, fda, pitch, resynth
from .audio import read_wav, write_wav

CONFIG_FORMAT_VERSION = 1
CONFIG_KEYS = ("version", "label", "pitch", "basis", "semitone_ref_hz", "strategy", "formant", "evaluation")


class ConfigError(Exception):
    """Bad configuration or manifest; maps to exit code 2."""


@dataclass(frozen=True)
class ManifestRow:
    utterance_id: str
    path: str
    speaker_id: str
    group: str
    condition: str
    session: str


MANIFEST_FIELDS = [f.name for f in dataclasses.fields(ManifestRow)]  # manifest.csv's columns, in order
TRIAL_FIELDS = ["enroll_speaker", "test_utterance", "label"]  # trials.csv's
CONDITION_MODAL = "modal"  # the condition anonymize edits and evaluate enrolls from
ENROLL_SESSION = "1"  # evaluate enrolls each speaker on its modal utterances of this session


@dataclass(frozen=True)
class Manifest:
    rows: tuple
    root: Path

    def resolve(self, row: ManifestRow) -> Path:
        p = Path(row.path)
        return p if p.is_absolute() else self.root / p

    def filter(self, groups=None, conditions=None, sessions=None) -> list:
        """The rows, in file order, whose group, condition and session each lie in its filter, if given."""
        wanted = {"group": groups, "condition": conditions, "session": sessions}
        return [r for r in self.rows if all(w is None or getattr(r, k) in w for k, w in wanted.items())]

    @property
    def groups(self):
        return sorted({r.group for r in self.rows})


def _input_file(path, what: str) -> Path:
    """path as a Path when it is a regular file; else a ConfigError: the one check of every file a command reads."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{what} not found: {path}")
    return path


def _read_table(path, what: str, fields) -> list:
    """A CSV file's rows as dicts, once its header names all of fields and each row its width; else a ConfigError."""
    with open(_input_file(path, what), newline="") as fh:
        try:
            reader = csv.DictReader(fh)
            missing = set(fields) - set(reader.fieldnames or [])
            if missing:
                raise ConfigError(f"{what} is missing columns: {sorted(missing)}")
            rows = []
            for row in reader:  # DictReader keys extra fields by None and fills missing ones with None
                if None in row or None in row.values():
                    raise ConfigError(f"{what} {path} line {reader.line_num}: field count differs from the header's")
                rows.append(row)
            return rows
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ConfigError(f"{what} {path} is not a UTF-8 CSV table: {exc}") from exc


def write_table(path, header, rows) -> None:
    """header, then rows, as CSV in the csv module's default dialect: the one writer of every table a command makes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _no_repeats(keys, what: str) -> None:
    """A ConfigError naming up to 5 of the keys that occur more than once, after what."""
    repeated = sorted(k for k, count in Counter(keys).items() if count > 1)
    if repeated:
        raise ConfigError(f"{what}: {repeated[:5]}")


def load_manifest(path) -> Manifest:
    rows = [ManifestRow(*(raw[f] for f in MANIFEST_FIELDS)) for raw in _read_table(path, "manifest", MANIFEST_FIELDS)]
    _no_repeats([r.utterance_id for r in rows], "duplicate utterance ids in manifest")
    for i, r in enumerate(rows, start=1):
        if not (r.utterance_id and r.path and r.speaker_id and r.group):
            raise ConfigError(f"manifest row {i} ({r.utterance_id!r}) lacks an utterance id, path, speaker or group")
    return Manifest(rows=tuple(rows), root=Path(path).parent.resolve())


def load_trials(path) -> list:
    """One (enroll_speaker, test_utterance, label) per row; a bad label, repeated pair or no trials is a ConfigError."""
    trials = [
        (raw["enroll_speaker"], raw["test_utterance"], raw["label"])
        for raw in _read_table(path, "trial file", TRIAL_FIELDS)
    ]
    for _, _, label in trials:
        if label not in ("genuine", "impostor"):
            raise ConfigError(f"bad trial label {label!r}")
    _no_repeats([(spk, u) for spk, u, _ in trials], "repeated (enroll_speaker, test_utterance) pairs in trial file")
    if not trials:
        raise ConfigError("trial file contains no trials")
    return trials


@dataclass(frozen=True)
class PipelineConfig:
    label: str
    pitch: dict  # group -> pitch.PitchConfig
    curve_space: fda.CurveSpace
    strategy: deid.DeidStrategy
    formant: resynth.FormantShiftConfig
    eval_stoi: bool
    eval_eer: bool
    raw: dict

    def pitch_config(self, group: str) -> pitch.PitchConfig:
        if group not in self.pitch:
            raise ConfigError(f"no pitch range configured for group {group!r}")
        return self.pitch[group]

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _count(value, key: str) -> int:
    """A JSON integer, else a ConfigError naming key: a fraction, bool or string is no count."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be a whole number, not {value!r}")
    return value


def _number(value, key: str) -> float:
    """A JSON number as a float, else a ConfigError naming key: a bool or string is no number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, not {value!r}")
    return float(value)


def _text(value, key: str) -> str:
    """A JSON string, else a ConfigError naming key."""
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, not {value!r}")
    return value


_CHECKS = {int: _count, float: _number, str: _text}  # by field type: what a config value must be


def _block(value, path: str, keys=None) -> dict:
    """The config block at path ("" at the top) once it is a JSON object whose every key is in keys, if given."""
    if not isinstance(value, dict):
        raise ConfigError(f"config block {path!r} must be a JSON object")
    unknown = [key for key in value if keys is not None and key not in keys]
    if unknown:
        raise ConfigError(f"unknown config key {path}{'.' if path else ''}{unknown[0]}")
    return value


def _fill(cls, block, path: str, keys: Optional[dict] = None, **given):
    """Dataclass cls from the config block at path: each key fills its field, a count, number or string type-checked.

    keys maps a field to its config key where the two differ, or to None when
    the block cannot set the field; given holds fields set from outside the
    block. The dataclass holds every default and makes its own checks; a field
    without a default that the block leaves unset is a ConfigError naming its key.
    """
    keys = keys or {}
    types = typing.get_type_hints(cls)
    fields = {keys.get(f.name, f.name): f for f in dataclasses.fields(cls)}
    fields.pop(None, None)
    kwargs = dict(given)
    for key, value in _block(block, path, fields).items():
        check = _CHECKS.get(types[fields[key].name])
        kwargs[fields[key].name] = value if check is None else check(value, f"{path}.{key}")
    for key, f in fields.items():
        if f.name not in kwargs and f.default is dataclasses.MISSING:
            raise ConfigError(f"missing config key {path}.{key}")
    return cls(**kwargs)


def config_from_dict(data: dict) -> PipelineConfig:
    """Every typed object built once: each block fills its dataclass, whose checks make a bad value a ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, not {type(data).__name__}")
    if data.get("version") != CONFIG_FORMAT_VERSION:
        raise ConfigError(f"unsupported config version: {data.get('version')!r}")
    _block(data, "", CONFIG_KEYS)
    ev = _block(data.get("evaluation", {}), "evaluation", ("stoi", "eer"))
    for key, value in ev.items():
        if not isinstance(value, bool):
            raise ConfigError(f"evaluation.{key} must be true or false, not {value!r}")
    try:
        ref = {"ref_hz": _number(data["semitone_ref_hz"], "semitone_ref_hz")} if "semitone_ref_hz" in data else {}
        return PipelineConfig(
            label=_text(data.get("label", "unnamed"), "label"),
            pitch={g: _fill(pitch.PitchConfig, v, f"pitch.{g}") for g, v in _block(data["pitch"], "pitch").items()},
            curve_space=_fill(fda.CurveSpace, data.get("basis", {}), "basis", {"lam": "lambda", "ref_hz": None}, **ref),
            strategy=_fill(deid.DeidStrategy, data["strategy"], "strategy"),
            formant=_fill(resynth.FormantShiftConfig, data.get("formant", {}), "formant"),
            eval_stoi=ev.get("stoi", True),
            eval_eer=ev.get("eer", True),
            raw=data,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc


def load_config(path) -> PipelineConfig:
    with open(_input_file(path, "config file")) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # bad JSON or not UTF-8
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def _map_jobs(fn, jobs, workers: int, *shared) -> list:
    """One (value, error) per job, in job order: fn(job, *shared), optionally in a pool of one-BLAS-thread workers.

    A pool of at most one worker per job (under fork all start at once) hands
    shared to each worker once, through its initializer, not with every job.
    Each job is its own future, so a worker that dies fails only the jobs not yet done.
    """
    if workers <= 1 or len(jobs) <= 1:
        return [_outcome(fn, j, *shared) for j in jobs]
    gc.freeze()  # no collection, in a forked worker or here, writes to the pages a fork shares
    try:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs)), initializer=_init_worker, initargs=shared) as pool:
            futures = [pool.submit(_call_with_shared, fn, j) for j in jobs]
            return [pair if error is None else (None, error) for pair, error in (_outcome(f.result) for f in futures)]
    finally:
        gc.unfreeze()


def _outcome(fn, *args) -> tuple:
    """(fn(*args), None), or (None, "<Type>: <message>") when it raises: the one place a job's failure is caught."""
    try:
        return fn(*args), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


_worker_shared: tuple = ()  # what this pool worker's initializer was given


def _init_worker(*shared) -> None:
    global _worker_shared
    blas.pin_worker()
    _worker_shared = shared


def _call_with_shared(fn, job) -> tuple:
    return _outcome(fn, job, *_worker_shared)


LOG_FIELDS = [
    "utterance_id",
    "status",
    "message",
    "original_median_f0",
    "target_median_f0",
    "formant_factor",
    "clamped_poles",
    "skipped_poles",
    "output",
]  # anon_log.csv; the fit and evaluate logs hold the first three


ANON_LOG = "anon_log.csv"  # under anonymize's output directory
EVAL_LOG = "eval_log.csv"  # under evaluate's output directory


def _write_log(path, ids, outcomes, extras=None, fields=LOG_FIELDS[:3]) -> None:
    """One CSV row per job, in job order: its utterance id, ok or failed with the error, and its extra fields."""
    rows = (
        {"utterance_id": u, "status": "failed" if error else "ok", "message": error or "", **extra}
        for u, (_, error), extra in zip(ids, outcomes, extras or [{}] * len(ids))
    )
    write_table(path, fields, ([row.get(f, "") for f in fields] for row in rows))


def failed_rows(log) -> int:
    """How many rows of a per-utterance log that fit, anonymize or evaluate wrote did not end ok."""
    return sum(row["status"] != "ok" for row in _read_table(log, "log", ("status",)))


# ---------------------------------------------------------------- fit

@dataclass(frozen=True)
class FitJob:
    wav_path: str
    pitch: pitch.PitchConfig


def _fit_job(job: FitJob, space: fda.CurveSpace) -> np.ndarray:
    """The smoothed f0 curve's coefficients: a pickled curve would carry its space's cached matrices too."""
    return fda.curve_from_trajectory(pitch.extract_f0(read_wav(job.wav_path), job.pitch), space).coefficients


def model_log(model_path) -> Path:
    """fit's per-utterance log, beside the model: <model>.log.csv."""
    return Path(model_path).with_suffix(".log.csv")


@blas.one_thread()
def cmd_fit(
    manifest_path,
    config_path,
    out_path,
    groups: Optional[Sequence[str]] = None,
    conditions: Optional[Sequence[str]] = None,
    sessions: Optional[Sequence[str]] = None,
    workers: int = 1,
) -> Path:
    """Fit one functional PCA model over the filtered rows' curves; each row is logged in model_log(out_path)."""
    manifest = load_manifest(manifest_path)
    cfg = load_config(config_path)
    rows = manifest.filter(groups=groups, conditions=conditions, sessions=sessions)
    if not rows:
        raise ConfigError(
            f"no manifest rows match filter groups={groups} conditions={conditions} sessions={sessions}"
        )
    if len(rows) < 2:
        raise ConfigError("functional PCA needs at least 2 matching utterances")
    rows = sorted(rows, key=lambda r: r.utterance_id)
    out_path = check_output(out_path, directory=False)
    _prepare_space(cfg.curve_space)

    jobs = [FitJob(str(manifest.resolve(r)), cfg.pitch_config(r.group)) for r in rows]
    # each worker smooths in the one space factored above, handed over once
    outcomes = _map_jobs(_fit_job, jobs, workers, cfg.curve_space)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_log(model_log(out_path), [r.utterance_id for r in rows], outcomes)
    fitted = [(r, c) for r, (c, error) in zip(rows, outcomes) if error is None]
    if len(fitted) < 2:
        raise ConfigError(f"functional PCA needs at least 2 curves; {len(fitted)} made, see {model_log(out_path)}")
    labels = [
        fda.CurveLabel(curve_id=r.utterance_id, speaker=r.speaker_id, group=r.group, condition=r.condition)
        for r, _ in fitted
    ]
    try:
        model = fda.fpca_fit([fda.FunctionalCurve(cfg.curve_space, c) for _, c in fitted], labels)
    except ValueError as exc:  # curves with no variance: nothing to model, as with fewer than 2
        raise ConfigError(f"functional PCA over {len(fitted)} curves: {exc}") from exc
    fda.save_model(out_path, model)
    return out_path


# ---------------------------------------------------------------- anonymize

@dataclass(frozen=True)
class AnonymizeJob:
    """One modal utterance; strategy is cfg.strategy with the row's donor group resolved."""

    row: ManifestRow
    wav_path: str
    out_path: str
    pitch: pitch.PitchConfig
    strategy: deid.DeidStrategy
    formant: resynth.FormantShiftConfig


def _anonymize_job(job: AnonymizeJob, model: Optional[fda.FpcaModel]) -> dict:
    """Anonymize one utterance and write it; the log fields of its ok row."""
    w = read_wav(job.wav_path)
    traj = pitch.extract_f0(w, job.pitch)
    target = deid.anonymize_trajectory(traj, model, job.strategy, job.row.speaker_id, pitch=job.pitch)
    shifted = resynth.psola_modify(w, traj, target)
    result = resynth.shift_formants_detailed(shifted, job.formant)
    write_wav(job.out_path, result.waveform, encoding="float32")
    return dict(
        original_median_f0=f"{float(np.median(traj.values[traj.voiced])):.3f}",
        target_median_f0=f"{float(np.median(target.values[target.voiced])):.3f}",
        clamped_poles=str(result.clamped_poles),
        skipped_poles=str(result.skipped_poles),
        # relative to the log's own directory, so runs rehash identically
        output=Path(job.out_path).name,
    )


def check_output(path, directory: bool) -> Path:
    """path as a Path once it can be written as a directory (directory=True) or a file; else a ConfigError.

    Each command checks --out before it reads any audio, so a bad one ends
    the run at once: the nearest existing ancestor must be a directory, and
    an existing path must be a directory exactly when a directory is wanted.
    """
    path = Path(path)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if existing == path and path.is_dir() != directory:
        raise ConfigError(f"output path {path} is {'not ' if directory else ''}a directory")
    if existing != path and not existing.is_dir():
        raise ConfigError(f"output path {path} lies under {existing}, which is not a directory")
    return path


def _read_model(model_path) -> fda.FpcaModel:
    """The one model reader: a missing or unreadable model file is a ConfigError (exit 2)."""
    try:
        return fda.load_model(_input_file(model_path, "model file"))
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"unreadable model file {model_path}: {exc}") from exc


def _describe_space(space: fda.CurveSpace) -> str:
    return (
        f"n_basis {space.n_basis}, order {space.order}, lambda {space.lam!r}, "
        f"grid_points {space.grid_points}, semitone_ref_hz {space.ref_hz!r}"
    )


def _prepare_space(space: fda.CurveSpace) -> None:
    """Factor the space and build its Gram matrix before any audio is read; a singular one is a ConfigError."""
    try:
        space.factor, space.gram  # built once here; pool workers inherit or unpickle them
    except ValueError as exc:
        raise ConfigError(f"curve space ({_describe_space(space)}): {exc}") from exc


def _check_donors(model: fda.FpcaModel, model_path, jobs) -> None:
    """ConfigError when the model holds the donor curves of no selected utterance.

    Each distinct (speaker, resolved strategy) is looked up once. A model that
    serves some rows but not others is left to fail those rows one by one.
    """
    keys = dict.fromkeys((j.row.speaker_id, j.strategy) for j in jobs)
    errors = []
    for speaker, strategy in keys:
        try:
            deid.replacement_first_score(strategy, model, speaker)
        except ValueError as exc:
            errors.append((speaker, str(exc)))
    if len(errors) == len(keys):
        speakers = ", ".join(sorted({speaker for speaker, _ in errors}))
        raise ConfigError(
            f"model {model_path} has donor curves for none of the selected speakers ({speakers}): {errors[0][1]}"
        )


@blas.one_thread()
def cmd_anonymize(
    manifest_path,
    config_path,
    model_path,
    out_dir,
    groups: Optional[Sequence[str]] = None,
    sessions: Optional[Sequence[str]] = None,
    workers: int = 1,
) -> int:
    """Run f0 replacement then formant shifting over every selected modal utterance.

    Writes <utterance_id>.anon.wav files plus anon_log.csv under out_dir.
    Returns the number of failed utterances; inputs are never modified.
    """
    manifest = load_manifest(manifest_path)
    cfg = load_config(config_path)
    out_dir = check_output(out_dir, directory=True)
    model = None
    if cfg.strategy.kind != deid.CONSTANT_SHIFT:
        if model_path is None:
            raise ConfigError(f"strategy {cfg.strategy.kind!r} requires a model file")
        model = _read_model(model_path)  # once per run; fail fast before touching any audio
        if model.space != cfg.curve_space:
            raise ConfigError(
                f"config curve space ({_describe_space(cfg.curve_space)}) "
                f"is not the model's ({_describe_space(model.space)})"
            )
        _prepare_space(model.space)
    rows = manifest.filter(groups=groups, conditions=(CONDITION_MODAL,), sessions=sessions)
    if not rows:
        raise ConfigError("no modal utterances match the given filters")
    rows = sorted(rows, key=lambda r: r.utterance_id)

    manifest_groups = manifest.groups
    jobs = []
    for r in rows:
        strategy = cfg.strategy
        if strategy.kind == deid.CROSS_GROUP and not strategy.donor_group:
            others = [g for g in manifest_groups if g != r.group]
            if len(others) != 1:
                raise ConfigError(
                    "cross_group donor resolution needs exactly two groups; "
                    f"found {manifest_groups}; set donor_group explicitly"
                )
            strategy = dataclasses.replace(strategy, donor_group=others[0])
        jobs.append(
            AnonymizeJob(
                row=r,
                wav_path=str(manifest.resolve(r)),
                out_path=str(out_dir / f"{r.utterance_id}.anon.wav"),
                pitch=cfg.pitch_config(r.group),
                strategy=strategy,
                formant=cfg.formant,
            )
        )
    if cfg.strategy.kind != deid.CONSTANT_SHIFT:
        _check_donors(model, model_path, jobs)
    out_dir.mkdir(parents=True, exist_ok=True)
    outcomes = _map_jobs(_anonymize_job, jobs, workers, model)  # in job order, which is utterance-id order
    extras = [{"formant_factor": f"{j.formant.factor:.3f}", **(fields or {})} for j, (fields, _) in zip(jobs, outcomes)]
    _write_log(out_dir / ANON_LOG, [j.row.utterance_id for j in jobs], outcomes, extras, LOG_FIELDS)
    return sum(error is not None for _, error in outcomes)


# ---------------------------------------------------------------- evaluate

@dataclass(frozen=True)
class EvalJob:
    """One file to embed; clean_path, when given, is the original its STOI is scored against."""

    path: str
    clean_path: Optional[str] = None


def _eval_job(job: EvalJob) -> tuple:
    w = read_wav(job.path)
    score = None if job.clean_path is None else evaluation.stoi(read_wav(job.clean_path), w)
    return evaluation.mfcc_embed(w), score


def _find_test_audio(anon_dir: Path, utt_id: str) -> Path:
    """<id>.anon.wav under anon_dir, or <id>.wav when only that exists."""
    anon, plain = anon_dir / f"{utt_id}.anon.wav", anon_dir / f"{utt_id}.wav"
    return plain if plain.exists() and not anon.exists() else anon


@blas.one_thread()
def cmd_evaluate(
    manifest_path,
    config_path,
    anon_dir,
    trial_path,
    out_dir,
    workers: int = 1,
) -> evaluation.EvalReport:
    """Score the trial list with original enrollment and anonymized tests.

    Enrollment embeddings come from session-1 modal originals per speaker.
    Test audio is looked up as <id>.anon.wav under anon_dir, falling back to
    <id>.wav so a corpus directory evaluates the no-anonymization baseline.
    One pool embeds every file and scores each test file's STOI. A file that
    failed, a missing test file too, drops the trials it enters; no test file
    at all is a ConfigError. The kept trial scores and STOI values go to
    evaluation.summarize, which makes the report rows. Emits report.json,
    report.txt, scores.csv and eval_log.csv (one row per file) under out_dir.
    """
    manifest = load_manifest(manifest_path)
    cfg = load_config(config_path)
    out_dir = check_output(out_dir, directory=True)
    anon_dir = Path(anon_dir)
    trials = load_trials(trial_path)

    by_id = {r.utterance_id: r for r in manifest.rows}
    unknown = sorted({t for _, t, _ in trials if t not in by_id})
    if unknown:
        raise ConfigError(f"trial file references unknown utterances: {unknown[:5]}")

    # enrollment: the enrollment session's modal originals of every enroll speaker
    enroll = {}
    enroll_rows = manifest.filter(conditions=(CONDITION_MODAL,), sessions=(ENROLL_SESSION,))
    for r in sorted(enroll_rows, key=lambda r: r.utterance_id):
        enroll.setdefault(r.speaker_id, []).append(r.utterance_id)
    enroll_speakers = sorted({s for s, _, _ in trials})
    for spk in enroll_speakers:
        if spk not in enroll:
            raise ConfigError(f"no session-{ENROLL_SESSION} {CONDITION_MODAL} enrollment material for speaker {spk!r}")

    test_ids = sorted({t for _, t, _ in trials})
    test_paths = [_find_test_audio(anon_dir, u) for u in test_ids]
    if not any(p.exists() for p in test_paths):
        raise ConfigError(f"no test audio under {anon_dir} for: {test_ids[:5]}")

    enroll_ids = sorted(u for spk in enroll_speakers for u in enroll[spk])
    jobs = [EvalJob(str(manifest.resolve(by_id[u]))) for u in enroll_ids] + [
        EvalJob(str(p), str(manifest.resolve(by_id[u])) if cfg.eval_stoi else None)
        for u, p in zip(test_ids, test_paths)
    ]
    outcomes = _map_jobs(_eval_job, jobs, workers)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_log(out_dir / EVAL_LOG, enroll_ids + test_ids, outcomes)
    enrolled = {u: value for u, (value, error) in zip(enroll_ids, outcomes) if error is None}
    tested = {u: value for u, (value, error) in zip(test_ids, outcomes[len(enroll_ids):]) if error is None}
    trials = [(spk, u, label) for spk, u, label in trials if u in tested and all(e in enrolled for e in enroll[spk])]
    scores = np.array(
        [evaluation.score_trials([enrolled[e][0] for e in enroll[spk]], tested[u][0]) for spk, u, _ in trials]
    )
    rows = ([f"{spk}|{u}", f"{s:.8f}", label] for (spk, u, label), s in zip(trials, scores))
    write_table(out_dir / "scores.csv", ["trial_id", "score", "label"], rows)

    stoi_ids = sorted(tested) if cfg.eval_stoi else []
    report = evaluation.EvalReport(
        corpus_id=hashlib.sha256(Path(manifest_path).read_bytes()).hexdigest()[:12],
        config_hash=cfg.config_hash(),
        rows=evaluation.summarize(
            cfg.label,
            scores,
            [label == "genuine" for _, _, label in trials],
            [by_id[u].group for _, u, _ in trials],
            [tested[u][1] for u in stoi_ids],
            [by_id[u].group for u in stoi_ids],
            cfg.eval_eer,
        ),
    )
    with open(out_dir / "report.json", "w") as fh:
        json.dump(report.to_json_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(out_dir / "report.txt", "w") as fh:
        fh.write(report.format_table() + "\n")
    return report


# ---------------------------------------------------------------- exports

@blas.one_thread()
def cmd_export_curves(model_path, component_index: int, n_points: int, out_dir) -> tuple:
    """Write mean/plus/minus curves for one component and the s1-s2 scatter.

    plus/minus offset the mean by one standard deviation of the component's
    training scores. Scatter rows carry a combined group:condition:speaker
    label per training curve.
    """
    out_dir = check_output(out_dir, directory=True)
    model = _read_model(model_path)
    i = component_index
    if i < 1 or i > model.n_components:
        raise ConfigError(f"component index {i} outside 1..{model.n_components}")
    if n_points < 2:
        raise ConfigError("n_points must be at least 2")
    out_dir.mkdir(parents=True, exist_ok=True)

    sd = float(np.std(model.training_scores[:, i - 1]))
    grid = np.linspace(0.0, 1.0, n_points)
    mean = model.mean(grid)
    pc = model.components[i - 1](grid)
    curves_path = out_dir / f"component_{i}_curves.csv"
    rows = ([f"{t:.8f}", f"{m:.8f}", f"{m + sd * p:.8f}", f"{m - sd * p:.8f}"] for t, m, p in zip(grid, mean, pc))
    write_table(curves_path, ["t", "mean", "plus", "minus"], rows)

    scores = model.training_scores
    s2 = scores[:, 1] if scores.shape[1] > 1 else np.zeros(len(scores))
    labels = (f"{lab.group}:{lab.condition}:{lab.speaker}" for lab in model.labels)
    rows = ([f"{a:.8f}", f"{b:.8f}", lab] for a, b, lab in zip(scores[:, 0], s2, labels))
    scatter_path = out_dir / "scores_scatter.csv"
    write_table(scatter_path, ["s1", "s2", "label"], rows)
    return curves_path, scatter_path
