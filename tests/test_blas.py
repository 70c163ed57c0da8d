"""One OpenBLAS thread and the heap policy per command and per pool worker, and outputs that do not depend on BLAS threads."""

import functools
import hashlib
import logging
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from voxmask import blas, fda, pipeline, synth
from voxmask.pipeline import ConfigError

from test_pipeline import write_config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLER_THREADS = 3  # a count no command runs at, allowed on any core count


def thread_counts() -> dict:
    """Thread count of each loaded OpenBLAS, keyed by file path."""
    return {path: get() for path, (get, _) in blas.openblas_libraries().items()}


@pytest.fixture
def caller_counts():
    """Every loaded OpenBLAS at CALLER_THREADS threads; each old count comes back after the test."""
    libs = blas.openblas_libraries()
    if not libs:
        pytest.skip("no OpenBLAS thread control in this process")
    old = thread_counts()
    for _, set_ in libs.values():
        set_(CALLER_THREADS)
    yield dict.fromkeys(libs, CALLER_THREADS)
    for path, (_, set_) in libs.items():
        set_(old[path])


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return write_config(tmp_path_factory.mktemp("cfg") / "config.json")


@pytest.fixture(scope="module")
def fitted_model(small_corpus, config_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.json"
    pipeline.cmd_fit(small_corpus, config_path, out, conditions=("modal",))
    return out


def spy_counts(monkeypatch, module, name) -> list:
    """Thread counts seen each time module.name is called."""
    seen = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(thread_counts())
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return seen


def run_command(command, corpus, config, model, out):
    trials = Path(corpus).parent / "trials.csv"
    if command == "fit":
        pipeline.cmd_fit(corpus, config, out / "model.json", conditions=("modal",))
    elif command == "anonymize":
        assert pipeline.cmd_anonymize(corpus, config, model, out, sessions=("2",)) == 0
    elif command == "evaluate":
        pipeline.cmd_evaluate(corpus, config, Path(corpus).parent / "wav", trials, out)
    else:
        pipeline.cmd_export_curves(model, 1, 50, out)


def tree_bytes(path: Path) -> dict:
    return {str(f.relative_to(path)): f.read_bytes() for f in sorted(path.rglob("*")) if f.is_file()}


def _worker_counts(_job) -> list:
    return sorted(thread_counts().values())


def _worker_threads(_job) -> tuple:
    return len(os.listdir("/proc/self/task")), set(thread_counts().values())


def has_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, OSError, ValueError):
        return False


needs_glibc = pytest.mark.skipif(not has_glibc(), reason="the heap policy is set through glibc's mallopt")
MAX_SECOND_PASS_FAULTS = 100  # without the heap policy a second pass faults in hundreds of pages per file


def second_pass_faults(paths) -> int:
    """Minor page faults of evaluate's per-file work (STOI and MFCC embedding) over paths, run a second time."""
    import resource

    jobs = [pipeline.EvalJob(str(p), str(p)) for p in paths]
    for job in jobs:
        pipeline._eval_job(job)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for job in jobs:
        pipeline._eval_job(job)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def corpus_wavs(manifest, count=4) -> list:
    return sorted((Path(manifest).parent / "wav").glob("*.wav"))[:count]


def test_import_leaves_thread_counts_unchanged(caller_counts):
    saved = {k: m for k, m in sys.modules.items() if k == "voxmask" or k.startswith("voxmask.")}
    for k in saved:
        del sys.modules[k]
    try:
        import voxmask  # noqa: F401
        import voxmask.pipeline  # noqa: F401  runs every module's top level again

        assert thread_counts() == caller_counts
    finally:
        for k in [k for k in sys.modules if k == "voxmask" or k.startswith("voxmask.")]:
            del sys.modules[k]
        sys.modules.update(saved)


@pytest.mark.parametrize("command", ["fit", "anonymize", "evaluate", "export_curves"])
def test_command_runs_at_one_thread_and_restores_the_callers(
    command, caller_counts, small_corpus, config_path, fitted_model, tmp_path, monkeypatch
):
    seen_model = spy_counts(monkeypatch, fda, "load_model")
    seen_config = spy_counts(monkeypatch, pipeline, "load_config")
    run_command(command, small_corpus, config_path, fitted_model, tmp_path)
    seen = seen_model + seen_config
    assert seen, "no spied call ran inside the command"
    assert all(counts == dict.fromkeys(caller_counts, 1) for counts in seen)
    assert thread_counts() == caller_counts


def test_config_error_restores_the_callers_counts(caller_counts, small_corpus, tmp_path):
    with pytest.raises(ConfigError):
        pipeline.cmd_fit(small_corpus, tmp_path / "missing.json", tmp_path / "model.json")
    assert thread_counts() == caller_counts


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_pool_workers_run_one_thread(method, caller_counts, monkeypatch):
    context = multiprocessing.get_context(method)
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=context))
    for counts, _ in pipeline._map_jobs(_worker_counts, list(range(4)), workers=2):
        assert counts and set(counts) == {1}
    assert thread_counts() == caller_counts


HEAP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from test_blas import corpus_wavs, second_pass_faults
from voxmask import blas
with blas.one_thread():
    print(second_pass_faults(corpus_wavs(sys.argv[2])))
"""


@needs_glibc
def test_command_keeps_freed_memory_for_the_next_utterance(small_corpus):
    """Both passes run in a fresh interpreter that has not forked.

    A fork write-protects the pages the parent shares with its child, so in
    this process the count would depend on which earlier test forked.
    """
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", HEAP_CHILD, str(ROOT / "tests"), str(small_corpus)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < MAX_SECOND_PASS_FAULTS


@needs_glibc
@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_pool_workers_keep_freed_memory_for_the_next_utterance(method, small_corpus, monkeypatch):
    context = multiprocessing.get_context(method)
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=context))
    wavs = corpus_wavs(small_corpus)
    for faults, error in pipeline._map_jobs(second_pass_faults, [wavs, wavs], workers=2):
        assert error is None and faults < MAX_SECOND_PASS_FAULTS


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or not Path("/proc/self/task").is_dir(),
    reason="counts a forked worker's threads in /proc/self/task",
)
def test_forked_workers_start_no_blas_threads(monkeypatch):
    # a set call after fork makes OpenBLAS rebuild its thread pool, which then spins
    if not blas.openblas_libraries():
        pytest.skip("no OpenBLAS thread control in this process")
    context = multiprocessing.get_context("fork")
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=context))
    with blas.one_thread():
        results = [value for value, _ in pipeline._map_jobs(_worker_threads, list(range(4)), workers=2)]
    assert results == [(1, {1})] * 4


def test_no_openblas_runs_unpinned_with_one_warning(
    small_corpus, config_path, fitted_model, tmp_path, monkeypatch, caplog
):
    run_command("anonymize", small_corpus, config_path, fitted_model, tmp_path / "pinned")
    before = thread_counts()
    monkeypatch.setattr(blas, "openblas_libraries", lambda: {})
    with caplog.at_level(logging.WARNING, logger="voxmask.blas"):
        run_command("anonymize", small_corpus, config_path, fitted_model, tmp_path / "unpinned")
    warnings = [r for r in caplog.records if r.name == "voxmask.blas"]
    assert len(warnings) == 1 and "no OpenBLAS" in warnings[0].getMessage()
    monkeypatch.undo()
    assert thread_counts() == before
    assert tree_bytes(tmp_path / "unpinned") == tree_bytes(tmp_path / "pinned")


CHILD = """
import sys
from pathlib import Path
from voxmask import pipeline
manifest, preset, out = sys.argv[1], sys.argv[2], Path(sys.argv[3])
pipeline.cmd_fit(manifest, preset, out / "model.json")
for workers in (1, 2):
    failed = pipeline.cmd_anonymize(
        manifest, preset, out / "model.json", out / f"anon_w{workers}", sessions=("2",), workers=workers
    )
    assert failed == 0, failed
pipeline.cmd_evaluate(manifest, preset, out / "anon_w1", Path(manifest).parent / "trials.csv", out / "eval")
"""


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    """fit, anonymize at 1 and 2 workers and evaluate, in children told to use 1 and 2 BLAS threads."""
    manifest = synth.generate_corpus(tmp_path / "corpus", seed=777, n_per_group=3, n_modal=2, n_disguised=1)
    preset = SRC / "voxmask" / "presets" / "f0_S-F1-3_20.json"
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    trees = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        result = subprocess.run(
            [sys.executable, "-c", CHILD, str(manifest), str(preset), str(out)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert result.returncode == 0, result.stderr
        trees[threads] = {k: hashlib.sha256(v).hexdigest() for k, v in tree_bytes(out).items()}
    assert "model.json" in trees["1"] and len(trees["1"]) > 20
    assert trees["1"] == trees["2"], sorted(k for k in trees["1"] if trees["1"][k] != trees["2"].get(k))


RESAMPLE_CHILD = """
import hashlib
import numpy as np
from voxmask import blas
from voxmask.audio import Waveform, resample
w = Waveform(0.3 * np.random.default_rng(44100).standard_normal(50000), 44100)
digest = hashlib.sha256()
with blas.one_thread():
    for rate in (16000, 10000):
        digest.update(resample(w, rate).samples.tobytes())
print(digest.hexdigest())
"""


def test_resampling_does_not_depend_on_blas_threads():
    """Resampling is a BLAS product; children told to use 1 and 2 BLAS threads resample inside one_thread alike."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        result = subprocess.run(
            [sys.executable, "-c", RESAMPLE_CHILD], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        digests.add(result.stdout.strip())
    assert len(digests) == 1, digests
