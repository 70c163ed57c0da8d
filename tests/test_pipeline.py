"""End-to-end tests for the manifest pipeline and its command line."""

import csv
import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
import pickle
import re
import shutil
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.io import wavfile

from voxmask import cli, deid, fda, pipeline, resynth, synth
from voxmask.audio import Waveform, read_wav, resample, write_wav
from voxmask.evaluation import stoi
from voxmask.pipeline import ConfigError

from conftest import write_wide_pcm


def base_config(**over) -> dict:
    cfg = {
        "version": 1,
        "label": "test",
        "pitch": {
            "low": {"floor": 65.0, "ceiling": 380.0},
            "high": {"floor": 140.0, "ceiling": 520.0},
        },
        # smaller basis than the presets so the fits stay quick
        "basis": {"n_basis": 40, "order": 4, "lambda": 1e-8, "grid_points": 200},
        "semitone_ref_hz": 100.0,
        "strategy": {
            "kind": "cross_group",
            "donor_group": "",
            "variance_threshold": 0.9,
            "max_components": 30,
        },
        "formant": {"factor": 1.0, "n_formants": 3},
        "evaluation": {"stoi": True, "eer": True},
    }
    cfg.update(over)
    return cfg


def tree_digests(path: Path) -> dict:
    return {str(f.relative_to(path)): hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(path.rglob("*")) if f.is_file()}


def write_csv(path: Path, fields, rows) -> Path:
    """rows, dicts keyed by fields, as the CSV table pipeline.write_table makes."""
    pipeline.write_table(path, fields, ([row[f] for f in fields] for row in rows))
    return path


def write_config(path: Path, **over) -> Path:
    path.write_text(json.dumps(base_config(**over), indent=1))
    return path


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return write_config(tmp_path_factory.mktemp("cfg") / "config.json")


@pytest.fixture(scope="module")
def fitted_model(small_corpus, config_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.json"
    pipeline.cmd_fit(small_corpus, config_path, out, conditions=("modal",), workers=2)
    return out


@pytest.fixture(scope="module")
def anon_dir(small_corpus, config_path, fitted_model, tmp_path_factory):
    out = tmp_path_factory.mktemp("anon")
    failures = pipeline.cmd_anonymize(small_corpus, config_path, fitted_model, out, workers=2)
    assert failures == 0
    return out


# ---------------------------------------------------------------- manifest


class TestManifest:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            pipeline.load_manifest(tmp_path / "nope.csv")

    def test_missing_columns(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("utterance_id,path\nu1,wav/u1.wav\n")
        with pytest.raises(ConfigError, match="missing columns"):
            pipeline.load_manifest(p)

    def test_duplicate_ids(self, tmp_path):
        p = tmp_path / "m.csv"
        row = ["u1", "wav/u1.wav", "s1", "low", "modal", "1"]
        pipeline.write_table(p, pipeline.MANIFEST_FIELDS, [row, row])
        with pytest.raises(ConfigError, match="duplicate"):
            pipeline.load_manifest(p)

    def test_a_row_with_missing_fields_is_rejected_naming_its_line(self, tmp_path):
        p = tmp_path / "m.csv"
        rows = [["u0", "a.wav", "s1", "low", "modal", "1"], ["u1", "a.wav", "s1", "low"]]
        pipeline.write_table(p, pipeline.MANIFEST_FIELDS, rows)
        with pytest.raises(ConfigError, match=re.escape(f"manifest {p} line 3: field count differs from the header's")):
            pipeline.load_manifest(p)

    def test_pipeline_owns_the_schema_without_importing_synth(self):
        src = str(Path(pipeline.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys, voxmask.pipeline; assert 'voxmask.synth' not in sys.modules, sorted(sys.modules)"
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_filter_and_resolve(self, small_corpus):
        m = pipeline.load_manifest(small_corpus)
        # 6 speakers x 2 sessions x (2 modal + 1 disguised)
        assert len(m.rows) == 36
        assert m.groups == ["high", "low"]
        assert len(m.filter(conditions=("modal",))) == 24
        assert len(m.filter(groups=("low",))) == 18
        assert len(m.filter(sessions=("1",), groups=("high",), conditions=("modal",))) == 6
        for r in m.filter(sessions=("1",))[:3]:
            assert m.resolve(r).exists()


# ---------------------------------------------------------------- config


class TestConfig:
    def test_version_required(self, tmp_path):
        p = write_config(tmp_path / "c.json", version=2)
        with pytest.raises(ConfigError, match="version"):
            pipeline.load_config(p)

    def test_missing_strategy_block(self, tmp_path):
        data = base_config()
        del data["strategy"]
        p = tmp_path / "c.json"
        p.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="bad config"):
            pipeline.load_config(p)

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            pipeline.load_config(p)

    def test_optional_blocks_get_defaults(self):
        data = base_config()
        del data["basis"]
        del data["formant"]
        cfg = pipeline.config_from_dict(data)
        assert cfg.curve_space == fda.CurveSpace()
        assert (cfg.curve_space.n_basis, cfg.curve_space.order) == (fda.DEFAULT_N_BASIS, fda.DEFAULT_ORDER)
        assert cfg.formant.factor == 1.0

    def test_hash_ignores_key_order(self):
        a = base_config()
        b = {k: a[k] for k in reversed(list(a))}
        ha = pipeline.config_from_dict(a).config_hash()
        hb = pipeline.config_from_dict(b).config_hash()
        assert ha == hb
        c = base_config(label="other")
        assert pipeline.config_from_dict(c).config_hash() != ha

    @pytest.mark.parametrize(
        "over, message",
        [
            ({"pitch": {"low": {"floor": 500.0, "ceiling": 380.0}, "high": {"floor": 140.0, "ceiling": 520.0}}},
             "floor < ceiling"),
            ({"formant": {"factor": 0.0, "n_formants": 3}}, "factor must be positive"),
            ({"formant": {"factor": -1.2, "n_formants": 3}}, "factor must be positive"),
            ({"formant": {"factor": 1.2, "n_formants": 0}}, "n_formants"),
            ({"basis": {"n_basis": 3, "order": 4}}, "n_basis"),
            ({"basis": {"n_basis": 40, "order": 2, "lambda": 1e-8, "grid_points": 200}},
             r"basis.order \(2\) must be at least 3 for the second-derivative penalty"),
            ({"basis": {"n_basis": 40, "order": 4, "lambda": -1.0, "grid_points": 200}}, "lambda"),
            ({"basis": {"n_basis": 40, "order": 4, "lambda": 1e-8, "grid_points": 10}}, "grid_points"),
            ({"semitone_ref_hz": 0.0}, "semitone_ref_hz"),
            ({"evaluation": {"stoi": "false", "eer": True}}, "evaluation.stoi must be true or false, not 'false'"),
            ({"evaluation": {"stoi": True, "eer": "no"}}, "evaluation.eer must be true or false, not 'no'"),
            ({"evaluation": {"eer": 0}}, "evaluation.eer must be true or false, not 0"),
            ({"basis": {"n_basis": 40.9, "order": 4}}, r"basis.n_basis must be a whole number, not 40.9"),
            ({"basis": {"n_basis": 40.0, "order": 4}}, r"basis.n_basis must be a whole number, not 40.0"),
            ({"basis": {"n_basis": "40", "order": 4}}, r"basis.n_basis must be a whole number, not '40'"),
            ({"basis": {"n_basis": 40, "order": 4.7}}, r"basis.order must be a whole number, not 4.7"),
            ({"basis": {"n_basis": 40, "order": True}}, r"basis.order must be a whole number, not True"),
            ({"basis": {"n_basis": 40, "grid_points": 200.5}}, r"basis.grid_points must be a whole number, not 200.5"),
            ({"strategy": {"kind": "cross_group", "max_components": 2.9}},
             r"strategy.max_components must be a whole number, not 2.9"),
            ({"formant": {"factor": 1.2, "n_formants": True}}, r"formant.n_formants must be a whole number, not True"),
            ({"pitch": {"low": {"floor": True, "ceiling": 380.0}}}, r"pitch.low.floor must be a number, not True"),
            ({"pitch": {"low": {"floor": 65.0, "ceiling": "380"}}}, r"pitch.low.ceiling must be a number, not '380'"),
            ({"formant": {"factor": True, "n_formants": 3}}, r"formant.factor must be a number, not True"),
            ({"basis": {"n_basis": 40, "lambda": False}}, r"basis.lambda must be a number, not False"),
            ({"semitone_ref_hz": True}, r"semitone_ref_hz must be a number, not True"),
            ({"strategy": {"kind": "constant_shift", "shift_percent": True}},
             r"strategy.shift_percent must be a number, not True"),
            ({"strategy": {"kind": "cross_group", "variance_threshold": False}},
             r"strategy.variance_threshold must be a number, not False"),
        ],
        ids=[
            "inverted_pitch_range", "zero_factor", "negative_factor", "zero_n_formants", "n_basis_below_order",
            "order_below_three", "negative_lambda", "too_few_grid_points", "zero_semitone_ref", "stoi_string", "eer_string", "eer_number",
            "n_basis_fraction", "n_basis_float", "n_basis_string", "order_fraction", "order_bool", "grid_points_fraction",
            "max_components_fraction", "n_formants_bool", "floor_bool", "ceiling_string", "factor_bool", "lambda_bool",
            "semitone_ref_bool", "shift_percent_bool", "variance_threshold_bool",
        ],
    )
    def test_bad_values_rejected_at_load(self, over, message):
        with pytest.raises(ConfigError, match=message):
            pipeline.config_from_dict(base_config(**over))

    @pytest.mark.parametrize(
        "data, message",
        [
            ([], "config must be a JSON object, not list"),
            (base_config(pitch=[1]), "config block 'pitch' must be a JSON object"),
            (base_config(basis=[]), "config block 'basis' must be a JSON object"),
            (base_config(strategy="x"), "config block 'strategy' must be a JSON object"),
            (base_config(formant=5), "config block 'formant' must be a JSON object"),
            (base_config(evaluation="x"), "config block 'evaluation' must be a JSON object"),
        ],
        ids=["top_level_list", "pitch_list", "basis_list", "strategy_string", "formant_number", "evaluation_string"],
    )
    def test_config_that_is_not_an_object_rejected(self, data, message, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=message):
            pipeline.load_config(p)

    @pytest.mark.parametrize(
        "over, key",
        [
            ({"lable": "x"}, "lable"),
            ({"pitch": {"low": {"flor": 65.0, "ceiling": 380.0}}}, "pitch.low.flor"),
            ({"basis": {"n_basis": 40, "lam": 1e-8}}, "basis.lam"),
            ({"basis": {"n_basis": 40, "ref_hz": 100.0}}, "basis.ref_hz"),
            ({"strategy": {"kind": "cross_group", "varaince_threshold": 0.8}}, "strategy.varaince_threshold"),
            ({"formant": {"facter": 1.2}}, "formant.facter"),
            ({"evaluation": {"stio": False}}, "evaluation.stio"),
        ],
        ids=["top_level", "pitch_group", "basis_field_name", "basis_ref_hz", "strategy", "formant", "evaluation"],
    )
    def test_unknown_key_rejected_with_its_path(self, over, key):
        with pytest.raises(ConfigError, match=rf"^unknown config key {key}$"):
            pipeline.config_from_dict(base_config(**over))

    @pytest.mark.parametrize(
        "over, key",
        [
            ({"pitch": {"low": {"ceiling": 380.0}}}, "pitch.low.floor"),
            ({"pitch": {"low": {"floor": 65.0, "ceiling": 380.0}, "high": {"floor": 140.0}}}, "pitch.high.ceiling"),
            ({"strategy": {}}, "strategy.kind"),
            ({"strategy": {"shift_percent": 15.0}}, "strategy.kind"),
        ],
        ids=["pitch_floor", "pitch_ceiling", "empty_strategy", "strategy_without_kind"],
    )
    def test_missing_key_rejected_with_its_path(self, over, key):
        with pytest.raises(ConfigError, match=rf"^missing config key {key}$"):
            pipeline.config_from_dict(base_config(**over))

    @pytest.mark.parametrize(
        "over, message",
        [
            ({"label": {}}, "label must be a string, not {}"),
            ({"label": None}, "label must be a string, not None"),
            ({"label": 3}, "label must be a string, not 3"),
            ({"strategy": {"kind": 5}}, "strategy.kind must be a string, not 5"),
            ({"strategy": {"kind": "cross_group", "donor_group": 5}}, "strategy.donor_group must be a string, not 5"),
            ({"strategy": {"kind": "disguise_model", "donor_condition": ["disguised"]}},
             "strategy.donor_condition must be a string, not ['disguised']"),
        ],
        ids=["label_object", "label_null", "label_number", "kind_number", "donor_group_number", "donor_condition_list"],
    )
    def test_string_settings_must_be_strings(self, over, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            pipeline.config_from_dict(base_config(**over))

    def test_blocks_take_their_defaults_from_the_dataclasses(self):
        cfg = pipeline.config_from_dict(base_config(strategy={"kind": "cross_group"}, formant={}))
        assert cfg.strategy == deid.DeidStrategy(kind="cross_group")
        assert cfg.formant == resynth.FormantShiftConfig()

    def test_curve_space_not_factored_at_load(self, small_corpus):
        # evaluate never smooths, and anonymize jobs are pickled to workers
        cfg = pipeline.config_from_dict(base_config())
        space = cfg.curve_space
        assert (space.lam, space.grid_points, space.ref_hz) == (1e-8, 200, 100.0)
        assert "factor" not in vars(space) and "design" not in vars(space)
        row = pipeline.load_manifest(small_corpus).rows[0]
        job = pipeline.AnonymizeJob(row, "in.wav", "out.wav", cfg.pitch_config(row.group), cfg.strategy, cfg.formant)
        assert len(pickle.dumps(job)) < 20_000

    def test_pitch_config_unknown_group(self):
        cfg = pipeline.config_from_dict(base_config())
        assert cfg.pitch_config("low").floor == 65.0
        with pytest.raises(ConfigError, match="pitch range"):
            cfg.pitch_config("martian")


# ---------------------------------------------------------------- fit


class TestFit:
    def test_writes_loadable_model(self, fitted_model):
        model = fda.load_model(fitted_model)
        # 24 modal curves, 40 basis functions -> 23 components
        assert model.training_scores.shape == (24, 23)
        assert model.n_components == 23
        groups = {lab.group for lab in model.labels}
        assert groups == {"low", "high"}
        conditions = {lab.condition for lab in model.labels}
        assert conditions == {"modal"}

    def test_model_records_its_curve_space(self, fitted_model, config_path):
        space = fda.load_model(fitted_model).space
        assert space is not None
        assert space == pipeline.load_config(config_path).curve_space

    def test_empty_filter_names_predicate(self, small_corpus, config_path, tmp_path):
        with pytest.raises(ConfigError, match="nosuch"):
            pipeline.cmd_fit(small_corpus, config_path, tmp_path / "m.json", groups=("nosuch",))

    def test_single_utterance_rejected(self, small_corpus, config_path, tmp_path):
        src = pipeline.load_manifest(small_corpus)
        r = src.filter(conditions=("modal",))[0]
        p = write_csv(tmp_path / "one.csv", pipeline.MANIFEST_FIELDS, [
            {**dataclasses.asdict(r), "path": str(src.resolve(r))},
        ])
        with pytest.raises(ConfigError, match="at least 2"):
            pipeline.cmd_fit(p, config_path, tmp_path / "m.json")

    def test_model_bytes_independent_of_worker_count(self, small_corpus, config_path, fitted_model, tmp_path):
        # fitted_model ran at 2 workers, so its f0 tracks came from pool workers
        out = pipeline.cmd_fit(small_corpus, config_path, tmp_path / "m.json", conditions=("modal",), workers=1)
        assert out.read_bytes() == fitted_model.read_bytes()

    def test_unconfigured_group_rejected(self, small_corpus, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", pitch={"low": {"floor": 65.0, "ceiling": 380.0}}
        )
        with pytest.raises(ConfigError, match="pitch range"):
            pipeline.cmd_fit(small_corpus, cfg, tmp_path / "m.json")


# ---------------------------------------------------------------- anonymize


class TestAnonymize:
    def test_outputs_and_log(self, small_corpus, anon_dir):
        m = pipeline.load_manifest(small_corpus)
        modal = m.filter(conditions=("modal",))
        wavs = sorted(anon_dir.glob("*.anon.wav"))
        assert len(wavs) == len(modal) == 24
        with open(anon_dir / "anon_log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == pipeline.LOG_FIELDS
        assert len(rows) == 24
        assert all(r["status"] == "ok" for r in rows)
        for r in rows:
            assert (anon_dir / r["output"]).exists()
            assert 65.0 <= float(r["original_median_f0"]) <= 520.0
            assert 65.0 <= float(r["target_median_f0"]) <= 520.0
            assert int(r["clamped_poles"]) >= 0 and int(r["skipped_poles"]) >= 0

    def test_inputs_untouched(self, small_corpus, anon_dir, tmp_path):
        # the corpus generator is byte-deterministic, so a fresh copy is an oracle
        fresh = tmp_path / "fresh"
        synth.generate_corpus(fresh, seed=20240311, n_per_group=3, n_modal=2, n_disguised=1)
        root = Path(small_corpus).parent
        for p in sorted(root.rglob("*.wav")):
            twin = fresh / p.relative_to(root)
            assert hashlib.sha256(p.read_bytes()).digest() == hashlib.sha256(twin.read_bytes()).digest()

    def test_missing_model_is_startup_error(self, small_corpus, config_path, tmp_path):
        out = tmp_path / "anon"
        with pytest.raises(ConfigError, match="requires a model"):
            pipeline.cmd_anonymize(small_corpus, config_path, None, out)
        with pytest.raises(ConfigError, match="not found"):
            pipeline.cmd_anonymize(small_corpus, config_path, tmp_path / "ghost.json", out)
        assert not out.exists()  # fails before creating any output

    def test_output_tree_independent_of_worker_count(self, small_corpus, fitted_model, tmp_path):
        cfg = write_config(tmp_path / "c.json", formant={"factor": 1.2, "n_formants": 3})
        trees = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            failures = pipeline.cmd_anonymize(small_corpus, cfg, fitted_model, out, sessions=("2",), workers=workers)
            assert failures == 0
            trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(trees[0]) == 13  # 12 session-2 modal WAVs and the log
        assert trees[0] == trees[1]

    def test_a_partial_donor_miss_fails_row_by_row(self, small_corpus, tmp_path):
        # a model of the low group only: its speakers have disguised curves, the high group's have none
        model = tmp_path / "low.json"
        pipeline.cmd_fit(small_corpus, write_config(tmp_path / "fit.json"), model, groups=("low",), sessions=("1",))
        cfg = write_config(tmp_path / "c.json", strategy={"kind": "disguise_model", "donor_condition": "disguised"})
        out = tmp_path / "anon"
        assert pipeline.cmd_anonymize(small_corpus, cfg, model, out, sessions=("2",)) == 6
        with open(out / "anon_log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        for r in rows:
            if r["utterance_id"].startswith("low"):
                assert r["status"] == "ok"
            else:
                assert r["status"] != "ok" and "'disguised'-condition training curves" in r["message"]

    def test_each_run_reads_the_model_file_again(self, small_corpus, config_path, tmp_path):
        """fit, anonymize, refit to the same path, anonymize: the second run uses the second model."""
        model = tmp_path / "model.json"
        pipeline.cmd_fit(small_corpus, config_path, model, groups=("low",), conditions=("modal",))
        pipeline.cmd_anonymize(small_corpus, config_path, model, tmp_path / "first", sessions=("2",))
        pipeline.cmd_fit(small_corpus, config_path, model, conditions=("modal",))
        pipeline.cmd_anonymize(small_corpus, config_path, model, tmp_path / "second", sessions=("2",))
        fresh = tmp_path / "fresh.json"
        fresh.write_bytes(model.read_bytes())
        pipeline.cmd_anonymize(small_corpus, config_path, fresh, tmp_path / "fresh", sessions=("2",))
        first, second, want = (tree_digests(tmp_path / d) for d in ("first", "second", "fresh"))
        assert first != want
        assert second == want

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="the call counter reaches workers only by fork"
    )
    def test_pool_workers_do_not_load_the_model(self, small_corpus, config_path, fitted_model, tmp_path, monkeypatch):
        calls = tmp_path / "load_calls"
        real = fda.load_model

        def counted(path):
            with open(calls, "a") as fh:
                fh.write("call\n")
            return real(path)

        monkeypatch.setattr(fda, "load_model", counted)
        failures = pipeline.cmd_anonymize(
            small_corpus, config_path, fitted_model, tmp_path / "out", sessions=("2",), workers=2
        )
        assert failures == 0
        assert calls.read_text().split() == ["call"]  # the command's own read, none in the workers

    def test_pickled_job_holds_no_curve_space(self, small_corpus, config_path):
        # the one factored space travels beside the model, once per worker, never with a job
        cfg = pipeline.load_config(config_path)
        row = pipeline.load_manifest(small_corpus).rows[0]
        job = pipeline.AnonymizeJob(row, "in.wav", "out.wav", cfg.pitch_config(row.group), cfg.strategy, cfg.formant)
        data = pickle.dumps(job)
        assert b"CurveSpace" not in data and b"PipelineConfig" not in data
        assert pickle.loads(data) == job

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="the call counter reaches workers only by fork"
    )
    def test_pool_workers_factor_the_space_once_each(self, small_corpus, fitted_model, tmp_path, monkeypatch):
        calls = tmp_path / "calls"
        for name in ("penalty_matrix", "gram_matrix"):
            real = getattr(fda, name)

            def counted(space, name=name, real=real):
                with open(calls, "a") as fh:
                    fh.write(f"{name}\n")
                return real(space)

            monkeypatch.setattr(fda, name, counted)
        cfg = write_config(tmp_path / "c.json")
        failures = pipeline.cmd_anonymize(small_corpus, cfg, fitted_model, tmp_path / "out", sessions=("2",), workers=2)
        assert failures == 0
        # the command's own factor and Gram matrix, inherited by both workers
        assert sorted(calls.read_text().split()) == ["gram_matrix", "penalty_matrix"]
        calls.unlink()
        # fit's workers smooth every curve in the space the command factored
        model = pipeline.cmd_fit(small_corpus, cfg, tmp_path / "model.json", sessions=("2",), workers=2)
        assert sorted(calls.read_text().split()) == ["gram_matrix", "penalty_matrix"]
        assert len(fda.load_model(model).labels) == 18

    def test_unfactorable_model_space_exits_2(self, small_corpus, fitted_model, tmp_path):
        # 14 grid points cannot determine 40 basis functions without a penalty
        data = json.loads(Path(fitted_model).read_text())
        data["curve_space"].update({"lambda": 0.0, "grid_points": 14})
        model = tmp_path / "edited_model.json"
        model.write_text(json.dumps(data))
        cfg = write_config(tmp_path / "c.json", basis={"n_basis": 40, "order": 4, "lambda": 0.0, "grid_points": 14})
        with pytest.raises(ConfigError, match="singular normal matrix"):
            pipeline.cmd_anonymize(small_corpus, cfg, model, tmp_path / "out", sessions=("2",))
        assert not (tmp_path / "out").exists()

    def test_spawned_pool_workers_match_one_worker(self, small_corpus, config_path, fitted_model, tmp_path,
                                                   monkeypatch):
        # spawned workers get the model, its factored space included, by pickle rather than by fork
        assert pipeline.cmd_anonymize(small_corpus, config_path, fitted_model, tmp_path / "w1", sessions=("2",)) == 0
        context = multiprocessing.get_context("spawn")
        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=context))
        failures = pipeline.cmd_anonymize(
            small_corpus, config_path, fitted_model, tmp_path / "w2", sessions=("2",), workers=2
        )
        assert failures == 0
        want = tree_digests(tmp_path / "w1")
        assert len(want) == 13 and tree_digests(tmp_path / "w2") == want

    def test_constant_zero_shift_is_transparent(self, small_corpus, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            strategy={"kind": "constant_shift", "shift_percent": 0.0},
        )
        out = tmp_path / "anon"
        failures = pipeline.cmd_anonymize(
            small_corpus, cfg, None, out, groups=("low",), sessions=("1",)
        )
        assert failures == 0
        m = pipeline.load_manifest(small_corpus)
        rows = m.filter(groups=("low",), conditions=("modal",), sessions=("1",))
        assert len(rows) == 6
        for r in rows:
            orig = read_wav(m.resolve(r))
            anon = read_wav(out / f"{r.utterance_id}.anon.wav")
            assert anon.samples.size == orig.samples.size
            assert stoi(orig, anon) >= 0.95

    def test_per_utterance_failure_isolation(self, small_corpus, tmp_path):
        src = pipeline.load_manifest(small_corpus)
        good = src.filter(conditions=("modal",))[0]
        bad_wav = tmp_path / "bad.wav"
        bad_wav.write_bytes(b"this is not audio")
        p = tmp_path / "mixed.csv"
        pipeline.write_table(p, pipeline.MANIFEST_FIELDS, [
            [good.utterance_id, str(src.resolve(good)), good.speaker_id, good.group, "modal", "1"],
            ["broken", str(bad_wav), "s9", "low", "modal", "1"],
        ])
        cfg = write_config(
            tmp_path / "c.json", strategy={"kind": "constant_shift", "shift_percent": 5.0}
        )
        out = tmp_path / "anon"
        failures = pipeline.cmd_anonymize(p, cfg, None, out)
        assert failures == 1
        with open(out / "anon_log.csv", newline="") as fh:
            rows = {r["utterance_id"]: r for r in csv.DictReader(fh)}
        assert rows[good.utterance_id]["status"] == "ok"
        assert rows["broken"]["status"] == "failed"
        assert rows["broken"]["message"]
        assert rows["broken"]["clamped_poles"] == rows["broken"]["skipped_poles"] == ""
        assert (out / f"{good.utterance_id}.anon.wav").exists()


def record_pool_sizes(monkeypatch) -> list:
    """The max_workers of every process pool the pipeline starts from now on."""
    sizes = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.mark.parametrize("workers, n_jobs, started", [(4, 2, 2), (2, 3, 2)])
def test_pool_starts_no_more_workers_than_jobs(workers, n_jobs, started, monkeypatch):
    # under fork a pool starts all of its workers at once, whether or not they get a job
    sizes = record_pool_sizes(monkeypatch)
    assert [value for value, _ in pipeline._map_jobs(abs, [-j for j in range(n_jobs)], workers)] == list(range(n_jobs))
    assert sizes == [started]


def half_of_an_even(job):
    if job % 2:
        raise ValueError(f"{job} is odd")
    return job // 2


def exit_on_one(job):
    if job == 1:
        os._exit(3)  # the worker dies, as it would on a crash in native code
    return job


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failed_job_is_an_outcome_not_an_exception(workers):
    outcomes = pipeline._map_jobs(half_of_an_even, [0, 1, 2, 3, 4], workers)
    assert outcomes == [(0, None), (None, "ValueError: 1 is odd"), (1, None), (None, "ValueError: 3 is odd"), (2, None)]


def test_a_worker_that_dies_fails_the_unfinished_jobs():
    outcomes = pipeline._map_jobs(exit_on_one, [0, 1], workers=2)
    broken = "BrokenProcessPool: "
    assert outcomes[1][0] is None and outcomes[1][1].startswith(broken)
    assert outcomes[0] == (0, None) or (outcomes[0][0] is None and outcomes[0][1].startswith(broken))


# ---------------------------------------------------------------- evaluate


class TestEvaluate:
    def test_baseline_originals_score_perfect_stoi(self, small_corpus, config_path, tmp_path):
        root = Path(small_corpus).parent
        report = pipeline.cmd_evaluate(
            small_corpus, config_path, root / "wav", root / "trials.csv", tmp_path, workers=2
        )
        assert report.corpus_id == hashlib.sha256(Path(small_corpus).read_bytes()).hexdigest()[:12]
        assert [r.label for r in report.rows] == ["test", "test/high", "test/low"]
        overall = report.rows[0]
        # test audio identical to the reference: intelligibility is perfect
        assert overall.stoi_mean == pytest.approx(1.0, abs=1e-6)
        assert overall.stoi_min == pytest.approx(1.0, abs=1e-6)
        assert 0.0 <= overall.eer_percent <= 50.0
        with open(tmp_path / "scores.csv", newline="") as fh:
            scores = list(csv.DictReader(fh))
        # 12 session-2 modal utterances x 3 within-group enrollments
        assert len(scores) == 36
        assert all(-1.0 <= float(s["score"]) <= 1.0 for s in scores)
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "report.txt").exists()

    def test_anonymized_audio_degrades_stoi(self, small_corpus, config_path, anon_dir, tmp_path):
        root = Path(small_corpus).parent
        report = pipeline.cmd_evaluate(
            small_corpus, config_path, anon_dir, root / "trials.csv", tmp_path, workers=2
        )
        overall = report.rows[0]
        assert overall.stoi_mean < 0.999
        assert overall.stoi_mean > 0.2
        assert np.isfinite(overall.eer_percent)
        assert 0.0 <= overall.eer_percent <= 50.0
        assert overall.n_genuine == 12
        assert overall.n_impostor == 24

    def test_one_process_pool_per_run(self, small_corpus, config_path, anon_dir, tmp_path, monkeypatch):
        sizes = record_pool_sizes(monkeypatch)
        root = Path(small_corpus).parent
        pipeline.cmd_evaluate(small_corpus, config_path, anon_dir, root / "trials.csv", tmp_path, workers=2)
        assert sizes == [2]  # embeddings and STOI share one pool

    def test_each_test_file_is_read_once(self, small_corpus, config_path, anon_dir, tmp_path, monkeypatch):
        reads = []
        real = pipeline.read_wav
        monkeypatch.setattr(pipeline, "read_wav", lambda path: reads.append(str(path)) or real(path))
        root = Path(small_corpus).parent
        pipeline.cmd_evaluate(small_corpus, config_path, anon_dir, root / "trials.csv", tmp_path)
        tests = [r for r in reads if r.startswith(str(anon_dir))]
        assert len(tests) == 12 and len(set(tests)) == 12  # once for its embedding and its STOI

    def test_missing_trial_file(self, small_corpus, config_path, tmp_path):
        root = Path(small_corpus).parent
        with pytest.raises(ConfigError, match="trial file not found"):
            pipeline.cmd_evaluate(small_corpus, config_path, root / "wav", root / "ghost.csv", tmp_path)

    def test_empty_trial_file(self, small_corpus, config_path, tmp_path):
        t = tmp_path / "t.csv"
        pipeline.write_table(t, pipeline.TRIAL_FIELDS, [])
        root = Path(small_corpus).parent
        with pytest.raises(ConfigError, match="no trials"):
            pipeline.cmd_evaluate(small_corpus, config_path, root / "wav", t, tmp_path)

    def test_unknown_utterance_in_trials(self, small_corpus, config_path, tmp_path):
        t = tmp_path / "t.csv"
        pipeline.write_table(t, pipeline.TRIAL_FIELDS, [["low00", "ghost_utt", "genuine"]])
        root = Path(small_corpus).parent
        with pytest.raises(ConfigError, match="unknown utterances"):
            pipeline.cmd_evaluate(small_corpus, config_path, root / "wav", t, tmp_path)

    def test_bad_label_rejected(self, small_corpus, config_path, tmp_path):
        t = tmp_path / "t.csv"
        pipeline.write_table(t, pipeline.TRIAL_FIELDS, [["low00", "x", "maybe"]])
        root = Path(small_corpus).parent
        with pytest.raises(ConfigError, match="bad trial label"):
            pipeline.cmd_evaluate(small_corpus, config_path, root / "wav", t, tmp_path)

    def test_repeated_pair_rejected_naming_it(self, tmp_path):
        t = tmp_path / "t.csv"
        pairs = [["low00", "u1", "genuine"], ["low00", "u2", "impostor"], ["low00", "u1", "impostor"]]
        pipeline.write_table(t, pipeline.TRIAL_FIELDS, pairs)
        with pytest.raises(ConfigError, match=r"repeated .*: \[\('low00', 'u1'\)\]"):
            pipeline.load_trials(t)

    def test_a_row_with_an_extra_field_is_rejected_naming_its_line(self, tmp_path):
        t = tmp_path / "t.csv"
        pipeline.write_table(t, pipeline.TRIAL_FIELDS, [["low00", "u1", "genuine", "extra"]])
        message = f"trial file {t} line 2: field count differs from the header's"
        with pytest.raises(ConfigError, match=re.escape(message)):
            pipeline.load_trials(t)

    def test_corpus_id_is_the_manifest_hash(self, small_corpus, tmp_path):
        src = pipeline.load_manifest(small_corpus)
        rows = [dataclasses.replace(r, path=str(src.resolve(r))) for r in src.rows]
        edited = [*rows[:-1], dataclasses.replace(rows[-1], utterance_id="renamed")]  # a disguised row: unused
        assert rows[-1].condition == "disguised"
        cfg = write_config(tmp_path / "c.json", evaluation={"stoi": False, "eer": True})
        root = Path(small_corpus).parent
        ids = []
        for name, table in (("a/manifest.csv", rows), ("b/other.csv", rows), ("c/manifest.csv", edited)):
            (tmp_path / name).parent.mkdir()
            pipeline.write_table(tmp_path / name, pipeline.MANIFEST_FIELDS, map(dataclasses.astuple, table))
            report = pipeline.cmd_evaluate(
                tmp_path / name, cfg, root / "wav", root / "trials.csv", tmp_path / name.replace("/", "_")
            )
            ids.append(report.corpus_id)
        assert ids[0] == ids[1] == hashlib.sha256((tmp_path / "a/manifest.csv").read_bytes()).hexdigest()[:12]
        assert ids[2] != ids[0]

    def test_missing_test_audio(self, small_corpus, config_path, tmp_path):
        root = Path(small_corpus).parent
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ConfigError, match="no test audio"):
            pipeline.cmd_evaluate(small_corpus, config_path, empty, root / "trials.csv", tmp_path / "o")

    def test_stoi_off_reads_no_clean_original(self, small_corpus, anon_dir, tmp_path, monkeypatch):
        reads = []
        real = pipeline.read_wav
        monkeypatch.setattr(pipeline, "read_wav", lambda path: reads.append(str(path)) or real(path))
        cfg = write_config(tmp_path / "c.json", evaluation={"stoi": False, "eer": True})
        root = Path(small_corpus).parent
        report = pipeline.cmd_evaluate(small_corpus, cfg, anon_dir, root / "trials.csv", tmp_path / "out")
        manifest = pipeline.load_manifest(small_corpus)
        enroll = [str(manifest.resolve(r)) for r in manifest.filter(conditions=("modal",), sessions=("1",))]
        # each session-1 enrollment original is read once, and no session-2 original for STOI
        assert sorted(r for r in reads if not r.startswith(str(anon_dir))) == sorted(enroll)
        assert len([r for r in reads if r.startswith(str(anon_dir))]) == 12
        rows = json.loads((tmp_path / "out" / "report.json").read_text())["rows"]
        assert [r["label"] for r in rows] == ["test", "test/high", "test/low"]
        assert all(r[k] is None for r in rows for k in ("stoi_mean", "stoi_min", "stoi_max"))
        assert all(r["eer_percent"] is not None for r in rows)
        table = (tmp_path / "out" / "report.txt").read_text().splitlines()[2:]
        assert [line.split()[-1] for line in table] == ["-"] * 3
        assert [line.split()[1] for line in table] == [f"{r.eer_percent:.2f}" for r in report.rows]

    def test_eer_off_reports_null_eer_and_the_same_scores(self, small_corpus, config_path, anon_dir, tmp_path):
        cfg = write_config(tmp_path / "c.json", evaluation={"stoi": True, "eer": False})
        trials = Path(small_corpus).parent / "trials.csv"
        pipeline.cmd_evaluate(small_corpus, config_path, anon_dir, trials, tmp_path / "on", workers=2)
        report = pipeline.cmd_evaluate(small_corpus, cfg, anon_dir, trials, tmp_path / "off", workers=2)
        rows = json.loads((tmp_path / "off" / "report.json").read_text())["rows"]
        assert [r["label"] for r in rows] == ["test", "test/high", "test/low"]
        assert all(r["eer_percent"] is None and r["eer_threshold"] is None for r in rows)
        assert all(r["stoi_mean"] is not None for r in rows)
        assert [(r["n_genuine"], r["n_impostor"]) for r in rows] == [(12, 24), (6, 12), (6, 12)]
        assert (tmp_path / "off" / "scores.csv").read_bytes() == (tmp_path / "on" / "scores.csv").read_bytes()
        table = (tmp_path / "off" / "report.txt").read_text().splitlines()[2:]
        assert [line.split()[1] for line in table] == ["-"] * 3
        assert [r.stoi_mean for r in report.rows] == [r["stoi_mean"] for r in rows]


# ---------------------------------------------------------------- exports


class TestExportCurves:
    def test_curve_geometry_matches_model(self, fitted_model, tmp_path):
        curves_path, scatter_path = pipeline.cmd_export_curves(fitted_model, 1, 50, tmp_path)
        with open(curves_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        t = np.array([float(r["t"]) for r in rows])
        mean = np.array([float(r["mean"]) for r in rows])
        plus = np.array([float(r["plus"]) for r in rows])
        minus = np.array([float(r["minus"]) for r in rows])
        assert t[0] == 0.0 and t[-1] == 1.0
        np.testing.assert_allclose(plus + minus, 2.0 * mean, atol=2e-8)

        model = fda.load_model(fitted_model)
        sd = float(np.std(model.training_scores[:, 0]))
        pc = model.components[0](np.linspace(0.0, 1.0, 50))
        np.testing.assert_allclose(plus, mean + sd * pc, atol=1e-6)

    def test_scatter_rows_cover_training_set(self, fitted_model, tmp_path):
        _, scatter_path = pipeline.cmd_export_curves(fitted_model, 1, 10, tmp_path)
        model = fda.load_model(fitted_model)
        with open(scatter_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == model.training_scores.shape[0]
        for r in rows:
            group, condition, speaker = r["label"].split(":")
            assert group in ("low", "high")
            assert condition == "modal"
        s1 = np.array([float(r["s1"]) for r in rows])
        np.testing.assert_allclose(np.sort(s1), np.sort(model.training_scores[:, 0]), atol=1e-6)

    def test_invalid_requests(self, fitted_model, tmp_path):
        with pytest.raises(ConfigError, match="component index"):
            pipeline.cmd_export_curves(fitted_model, 0, 50, tmp_path)
        with pytest.raises(ConfigError, match="component index"):
            pipeline.cmd_export_curves(fitted_model, 9999, 50, tmp_path)
        with pytest.raises(ConfigError, match="n_points"):
            pipeline.cmd_export_curves(fitted_model, 1, 1, tmp_path)


# ---------------------------------------------------------------- CLI


def assert_config_exit(result, message):
    """Exit 2 through the CLI's ConfigError mapping: one error line, no traceback."""
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ") and message in result.stderr
    assert "Traceback" not in result.output


class TestCli:
    def test_missing_global_flag_exits_2(self):
        runner = CliRunner()
        result = runner.invoke(cli.main, ["fit"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("command", ["fit", "anonymize", "evaluate", "export-curves", "make-synth-corpus"])
    def test_config_error_exits_2_for_every_command(self, command, small_corpus, fitted_model, tmp_path):
        root = Path(small_corpus).parent
        good = write_config(tmp_path / "good.json")
        bad = write_config(tmp_path / "bad.json", version=99)
        args, message = {
            "fit": (["--config", str(bad), "--manifest", str(small_corpus), "--out", str(tmp_path / "m.json"),
                     "fit"], "unsupported config version"),
            "anonymize": (["--config", str(good), "--manifest", str(small_corpus), "--out", str(tmp_path / "a"),
                           "anonymize"], "requires a model file"),
            "evaluate": (["--config", str(good), "--manifest", str(small_corpus), "--out", str(tmp_path / "e"),
                          "evaluate", "--anon-dir", str(root / "wav"), "--trials", str(tmp_path / "ghost.csv")],
                         "trial file not found"),
            "export-curves": (["--out", str(tmp_path / "x"), "export-curves", "--model", str(fitted_model),
                               "--component", "0"], "component index"),
            "make-synth-corpus": (["make-synth-corpus"], "--out is required"),
        }[command]
        assert_config_exit(CliRunner().invoke(cli.main, args), message)

    @pytest.mark.parametrize("command", ["fit", "anonymize", "evaluate"])
    def test_missing_global_flag_names_it(self, command, tmp_path):
        extra = ["--anon-dir", str(tmp_path), "--trials", str(tmp_path / "t.csv")] if command == "evaluate" else []
        result = CliRunner().invoke(cli.main, ["--config", str(tmp_path / "c.json"), command, *extra])
        assert_config_exit(result, "--manifest is required")

    @pytest.mark.parametrize(
        "over, message",
        [
            ({"pitch": {"low": {"floor": 500.0, "ceiling": 380.0}, "high": {"floor": 140.0, "ceiling": 520.0}}},
             "floor < ceiling"),
            ({"formant": {"factor": 0.0, "n_formants": 3}}, "factor must be positive"),
            ({"basis": {"n_basis": 40, "order": 4, "lambda": -1.0, "grid_points": 200}}, "lambda"),
            ({"basis": {"n_basis": 40, "order": 2, "lambda": 1e-8, "grid_points": 200}}, "must be at least 3"),
            ({"basis": {"n_basis": 40.9, "order": 4}}, "basis.n_basis must be a whole number, not 40.9"),
            ({"formant": {"factor": 1.2, "n_formants": True}}, "formant.n_formants must be a whole number, not True"),
            ({"strategy": {"kind": "cross_group", "max_components": "30"}},
             "strategy.max_components must be a whole number, not '30'"),
            ({"pitch": {"low": {"floor": True, "ceiling": 380.0}, "high": {"floor": 140.0, "ceiling": 520.0}}},
             "pitch.low.floor must be a number, not True"),
        ],
        ids=["inverted_pitch_range", "zero_factor", "negative_lambda", "order_below_three", "n_basis_fraction",
             "n_formants_bool", "max_components_string", "floor_bool"],
    )
    @pytest.mark.parametrize("command", ["fit", "anonymize"])
    def test_bad_config_value_exits_2_before_any_output(self, command, over, message, small_corpus, fitted_model,
                                                        tmp_path):
        cfg = write_config(tmp_path / "c.json", **over)
        out = tmp_path / "out"
        extra = ["--model", str(fitted_model)] if command == "anonymize" else []
        result = CliRunner().invoke(
            cli.main, ["--config", str(cfg), "--manifest", str(small_corpus), "--out", str(out), command, *extra]
        )
        assert_config_exit(result, message)
        assert not out.exists()

    @pytest.mark.parametrize(
        "data, message",
        [([], "config must be a JSON object, not list"),
         (base_config(pitch=[1]), "config block 'pitch' must be a JSON object")],
        ids=["top_level_list", "pitch_list"],
    )
    @pytest.mark.parametrize("command", ["fit", "anonymize", "evaluate"])
    def test_config_that_is_not_an_object_exits_2(self, command, data, message, small_corpus, fitted_model,
                                                   tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        extra = {
            "fit": [],
            "anonymize": ["--model", str(fitted_model)],
            "evaluate": ["--anon-dir", str(Path(small_corpus).parent / "wav"),
                         "--trials", str(Path(small_corpus).parent / "trials.csv")],
        }[command]
        result = CliRunner().invoke(
            cli.main, ["--config", str(cfg), "--manifest", str(small_corpus), "--out", str(out), command, *extra]
        )
        assert_config_exit(result, message)
        assert not out.exists()

    @pytest.mark.parametrize("field", ["utterance_id", "path"])
    @pytest.mark.parametrize("command", ["fit", "anonymize", "evaluate"])
    def test_manifest_row_without_id_or_path_exits_2(self, command, field, small_corpus, fitted_model, tmp_path):
        with open(small_corpus, newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[3][field] = ""
        manifest = write_csv(tmp_path / "manifest.csv", pipeline.MANIFEST_FIELDS, rows)
        out = tmp_path / "out"
        extra = {
            "fit": [],
            "anonymize": ["--model", str(fitted_model)],
            "evaluate": ["--anon-dir", str(Path(small_corpus).parent / "wav"),
                         "--trials", str(Path(small_corpus).parent / "trials.csv")],
        }[command]
        result = CliRunner().invoke(
            cli.main,
            ["--config", str(write_config(tmp_path / "c.json")), "--manifest", str(manifest), "--out", str(out),
             command, *extra],
        )
        assert_config_exit(result, "manifest row 4 ")
        assert "lacks an utterance id, path, speaker or group" in result.stderr
        assert not out.exists()

    def test_a_manifest_row_with_missing_fields_exits_2(self, config_path, tmp_path):
        manifest = tmp_path / "m.csv"
        pipeline.write_table(manifest, pipeline.MANIFEST_FIELDS, [["u1", "a.wav", "s1", "low"]])
        out = tmp_path / "m.json"
        result = CliRunner().invoke(
            cli.main, ["--config", str(config_path), "--manifest", str(manifest), "--out", str(out), "fit"]
        )
        assert_config_exit(result, f"manifest {manifest} line 2: field count differs from the header's")
        assert not out.exists() and not pipeline.model_log(out).exists()

    @pytest.mark.parametrize(
        "option, value, message",
        [("--n-per-group", "0", "x>=1"), ("--n-modal", "-2", "x>=1"), ("--n-disguised", "-1", "x>=0")],
    )
    def test_make_synth_corpus_rejects_empty_or_negative_sizes(self, option, value, message, tmp_path):
        out = tmp_path / "corp"
        result = CliRunner().invoke(cli.main, ["--out", str(out), "make-synth-corpus", option, value])
        assert result.exit_code == 2, result.output
        assert f"Invalid value for '{option}'" in result.stderr and message in result.stderr
        assert not out.exists()

    def test_anonymize_with_a_misspelt_formant_key_exits_2(self, small_corpus, fitted_model, tmp_path):
        cfg = write_config(tmp_path / "c.json", formant={"facter": 1.2})
        out = tmp_path / "out"
        result = CliRunner().invoke(
            cli.main,
            ["--config", str(cfg), "--manifest", str(small_corpus), "--out", str(out), "anonymize",
             "--model", str(fitted_model)],
        )
        assert_config_exit(result, "unknown config key formant.facter")
        assert result.stderr == "error: unknown config key formant.facter\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "over, message",
        [
            ({"pitch": {"low": {"ceiling": 380.0}, "high": {"floor": 140.0, "ceiling": 520.0}}},
             "missing config key pitch.low.floor"),
            ({"strategy": {}}, "missing config key strategy.kind"),
            ({"label": {}}, "label must be a string, not {}"),
            ({"strategy": {"kind": "cross_group", "donor_group": 5}}, "strategy.donor_group must be a string, not 5"),
        ],
        ids=["pitch_floor_missing", "strategy_kind_missing", "label_object", "donor_group_number"],
    )
    @pytest.mark.parametrize("command", ["anonymize", "evaluate"])
    def test_missing_or_mistyped_setting_exits_2_before_reading_audio(
        self, command, over, message, small_corpus, fitted_model, tmp_path, monkeypatch
    ):
        reads = []
        monkeypatch.setattr(pipeline, "read_wav", lambda path: reads.append(path))
        root = Path(small_corpus).parent
        out = tmp_path / "out"
        extra = {
            "anonymize": ["--model", str(fitted_model)],
            "evaluate": ["--anon-dir", str(root / "wav"), "--trials", str(root / "trials.csv")],
        }[command]
        result = CliRunner().invoke(
            cli.main,
            ["--config", str(write_config(tmp_path / "c.json", **over)), "--manifest", str(small_corpus),
             "--out", str(out), command, *extra],
        )
        assert_config_exit(result, message)
        assert result.stderr == f"error: {message}\n"
        assert reads == []
        assert not out.exists()

    def test_a_target_beyond_a_quarter_of_the_rate_fails_its_rows_with_psolas_message(self, small_corpus, tmp_path):
        # x20 puts every high-group target above 16 kHz / 4; psola_modify is the one check of that bound
        cfg = write_config(tmp_path / "c.json", strategy={"kind": "constant_shift", "shift_percent": 1900.0})
        out = tmp_path / "anon"
        result = CliRunner().invoke(
            cli.main,
            ["--config", str(cfg), "--manifest", str(small_corpus), "--out", str(out), "anonymize",
             "--groups", "high", "--sessions", "2"],
        )
        assert result.exit_code == 1, result.output
        with open(out / "anon_log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        for r in rows:
            assert r["status"] == "failed"
            assert r["message"] == "ValueError: target f0 must lie within [20 Hz, sample_rate/4]"
        assert not list(out.glob("*.anon.wav"))

    @pytest.mark.parametrize(
        "strategy",
        [{"kind": "constant_shift", "shift_percent": 15.0}, {"kind": "cross_group"}],
        ids=["constant_shift", "cross_group"],
    )
    def test_an_unvoiced_utterance_fails_its_row(self, strategy, small_corpus, fitted_model, tmp_path):
        src = pipeline.load_manifest(small_corpus)
        rows = [src.filter(groups=(g,), conditions=("modal",), sessions=("2",))[0] for g in ("high", "low")]
        silent = tmp_path / "silent.wav"
        voiced = read_wav(src.resolve(rows[0]))
        write_wav(silent, Waveform(np.zeros_like(voiced.samples), voiced.sample_rate))
        manifest = write_csv(tmp_path / "manifest.csv", pipeline.MANIFEST_FIELDS, [
            {**dataclasses.asdict(rows[0]), "path": str(silent)},
            {**dataclasses.asdict(rows[1]), "path": str(src.resolve(rows[1]))},
        ])
        out = tmp_path / "anon"
        result = CliRunner().invoke(
            cli.main,
            ["--config", str(write_config(tmp_path / "c.json", strategy=strategy)), "--manifest", str(manifest),
             "--out", str(out), "anonymize", "--model", str(fitted_model)],
        )
        assert result.exit_code == 1, result.output
        with open(out / "anon_log.csv", newline="") as fh:
            log = {r["utterance_id"]: r for r in csv.DictReader(fh)}
        assert len(log) == 2
        assert log[rows[0].utterance_id]["status"] == "failed"
        assert log[rows[0].utterance_id]["message"] == "ValueError: no voiced frames found"
        assert log[rows[1].utterance_id]["status"] == "ok"

    def test_anonymize_rejects_a_basis_other_than_the_models(self, small_corpus, fitted_model, tmp_path):
        # fitted_model was fit with n_basis 40
        cfg = write_config(tmp_path / "c.json", basis={"n_basis": 30, "order": 4, "lambda": 1e-8, "grid_points": 200})
        out = tmp_path / "out"
        result = CliRunner().invoke(
            cli.main,
            ["--config", str(cfg), "--manifest", str(small_corpus), "--out", str(out), "anonymize",
             "--model", str(fitted_model)],
        )
        assert_config_exit(
            result,
            "config curve space (n_basis 30, order 4, lambda 1e-08, grid_points 200, semitone_ref_hz 100.0) "
            "is not the model's (n_basis 40, order 4, lambda 1e-08, grid_points 200, semitone_ref_hz 100.0)",
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "over, message",
        [
            ({"semitone_ref_hz": 200.0}, "semitone_ref_hz 200.0"),
            ({"basis": {"n_basis": 40, "order": 4, "lambda": 1e-6, "grid_points": 200}}, "lambda 1e-06"),
            ({"basis": {"n_basis": 40, "order": 4, "lambda": 1e-8, "grid_points": 300}}, "grid_points 300"),
        ],
    )
    def test_anonymize_rejects_a_curve_space_other_than_the_models(
        self, over, message, small_corpus, fitted_model, tmp_path
    ):
        # fitted_model was fit with lambda 1e-8, 200 grid points and a 100 Hz reference
        cfg = write_config(tmp_path / "c.json", **over)
        out = tmp_path / "out"
        result = CliRunner().invoke(
            cli.main,
            ["--config", str(cfg), "--manifest", str(small_corpus), "--out", str(out), "anonymize",
             "--model", str(fitted_model)],
        )
        assert_config_exit(
            result, "is not the model's (n_basis 40, order 4, lambda 1e-08, grid_points 200, semitone_ref_hz 100.0)"
        )
        assert message in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("missing", "model file not found"),
            ("truncated", "unreadable model file"),
            ("wrong_version", "unsupported model file version: 99"),
            ("not_an_object", "unsupported model file version: None"),
            ("no_curve_space", "has no curve_space block, so its scores cannot be checked; refit the model"),
            ("extra_label", "25 labels for 24 training curves"),
            ("label_with_an_extra_key", "unexpected keyword argument 'accent'"),
            ("label_without_a_key", "missing 1 required positional argument: 'condition'"),
            ("labels_null", "unreadable model file"),
        ],
        ids=["missing", "truncated", "wrong_version", "not_an_object", "no_curve_space", "extra_label",
             "label_with_an_extra_key", "label_without_a_key", "labels_null"],
    )
    @pytest.mark.parametrize("command", ["anonymize", "export-curves"])
    def test_bad_model_file_exits_2(self, command, damage, message, small_corpus, fitted_model, tmp_path):
        text = Path(fitted_model).read_text()
        data = json.loads(text)
        model = tmp_path / "model.json"
        if damage == "truncated":
            model.write_text(text[: len(text) // 2])
        elif damage == "wrong_version":
            model.write_text(json.dumps({**data, "version": 99}))
        elif damage == "not_an_object":
            model.write_text(json.dumps([data]))
        elif damage == "no_curve_space":
            del data["curve_space"]
            model.write_text(json.dumps(data))
        elif damage == "extra_label":
            data["labels"].append(data["labels"][0])
            model.write_text(json.dumps(data))
        elif damage == "label_with_an_extra_key":
            data["labels"][3]["accent"] = "none"
            model.write_text(json.dumps(data))
        elif damage == "label_without_a_key":
            del data["labels"][3]["condition"]
            model.write_text(json.dumps(data))
        elif damage == "labels_null":
            model.write_text(json.dumps({**data, "labels": None}))
        out = tmp_path / "out"
        args = ["--out", str(out), command, "--model", str(model)]
        if command == "anonymize":
            args = ["--config", str(write_config(tmp_path / "c.json")), "--manifest", str(small_corpus), *args]
        assert_config_exit(CliRunner().invoke(cli.main, args), message)
        assert not out.exists()

    def test_anonymize_rejects_a_model_without_donor_curves_before_reading_audio(
        self, small_corpus, fitted_model, tmp_path, monkeypatch
    ):
        # fitted_model was fit on modal speech only, so no speaker has a disguised donor curve
        reads = []
        monkeypatch.setattr(pipeline, "read_wav", lambda path: reads.append(path))
        cfg = write_config(tmp_path / "c.json", strategy={"kind": "disguise_model", "donor_condition": "disguised"})
        out = tmp_path / "out"
        result = CliRunner().invoke(
            cli.main,
            ["--config", str(cfg), "--manifest", str(small_corpus), "--out", str(out), "anonymize",
             "--model", str(fitted_model)],
        )
        speakers = sorted({r.speaker_id for r in pipeline.load_manifest(small_corpus).rows})
        assert len(speakers) == 6
        assert_config_exit(result, f"has donor curves for none of the selected speakers ({', '.join(speakers)})")
        assert "no 'disguised'-condition training curves for speaker" in result.stderr
        assert reads == []
        assert not out.exists()

    def test_fit_rejects_an_unfactorable_curve_space_before_reading_audio(self, small_corpus, tmp_path, monkeypatch):
        # 14 grid points cannot determine 40 basis functions without a penalty
        reads = []
        monkeypatch.setattr(pipeline, "read_wav", lambda path: reads.append(path))
        cfg = write_config(tmp_path / "c.json", basis={"n_basis": 40, "order": 4, "lambda": 0.0, "grid_points": 14})
        model = tmp_path / "model.json"
        result = CliRunner().invoke(
            cli.main, ["--config", str(cfg), "--manifest", str(small_corpus), "--out", str(model), "fit"]
        )
        assert_config_exit(result, "grid_points 14, semitone_ref_hz 100.0): singular normal matrix")
        assert reads == []
        assert not model.exists()

    @pytest.mark.parametrize("flag", ["--trials", "--config", "--manifest", "--model"])
    def test_a_directory_as_an_input_file_exits_2(self, flag, small_corpus, fitted_model, tmp_path):
        root = Path(small_corpus).parent
        directory = tmp_path / "a_directory"
        directory.mkdir()
        files = {"--config": write_config(tmp_path / "c.json"), "--manifest": small_corpus,
                 "--trials": root / "trials.csv", "--model": fitted_model, flag: directory}
        out = tmp_path / "out"
        args = ["--config", str(files["--config"]), "--manifest", str(files["--manifest"]), "--out", str(out)]
        if flag == "--model":
            args += ["anonymize", "--model", str(files["--model"])]
        else:
            args += ["evaluate", "--anon-dir", str(root / "wav"), "--trials", str(files["--trials"])]
        assert_config_exit(CliRunner().invoke(cli.main, args), str(directory))
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, message",
        [("--config", "config is not valid JSON"), ("--manifest", "is not a UTF-8 CSV table"),
         ("--trials", "is not a UTF-8 CSV table"), ("--model", "unreadable model file")],
    )
    def test_an_input_file_that_is_not_utf8_exits_2(self, flag, message, small_corpus, fitted_model, tmp_path):
        root = Path(small_corpus).parent
        latin1 = tmp_path / "latin1"
        latin1.write_bytes("utterance_id,café\n".encode("latin-1"))
        files = {"--config": write_config(tmp_path / "c.json"), "--manifest": small_corpus,
                 "--trials": root / "trials.csv", "--model": fitted_model, flag: latin1}
        out = tmp_path / "out"
        args = ["--config", str(files["--config"]), "--manifest", str(files["--manifest"]), "--out", str(out)]
        if flag == "--model":
            args += ["anonymize", "--model", str(files["--model"])]
        else:
            args += ["evaluate", "--anon-dir", str(root / "wav"), "--trials", str(files["--trials"])]
        assert_config_exit(CliRunner().invoke(cli.main, args), message)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "anonymize", "evaluate", "export-curves", "make-synth-corpus"])
    def test_out_under_a_regular_file_exits_2_before_reading_audio(
        self, command, small_corpus, fitted_model, tmp_path, monkeypatch
    ):
        reads = []
        monkeypatch.setattr(pipeline, "read_wav", lambda path: reads.append(path))
        root = Path(small_corpus).parent
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile / "model.json" if command == "fit" else afile
        args = {
            "fit": [],
            "anonymize": ["--model", str(fitted_model)],
            "evaluate": ["--anon-dir", str(root / "wav"), "--trials", str(root / "trials.csv")],
            "export-curves": ["--model", str(fitted_model)],
            "make-synth-corpus": ["--n-per-group", "1", "--n-modal", "1", "--n-disguised", "0"],
        }[command]
        result = CliRunner().invoke(
            cli.main,
            ["--config", str(write_config(tmp_path / "c.json")), "--manifest", str(small_corpus), "--out", str(out),
             command, *args],
        )
        assert_config_exit(result, f"output path {out} ")
        assert reads == []
        assert afile.read_text() == ""

    def test_fit_out_on_a_directory_exits_2_before_reading_audio(self, small_corpus, config_path, tmp_path, monkeypatch):
        reads = []
        monkeypatch.setattr(pipeline, "read_wav", lambda path: reads.append(path))
        result = CliRunner().invoke(
            cli.main, ["--config", str(config_path), "--manifest", str(small_corpus), "--out", str(tmp_path), "fit"]
        )
        assert_config_exit(result, f"output path {tmp_path} is a directory")
        assert reads == []

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_a_usage_error(self, workers, small_corpus, config_path, tmp_path):
        model = tmp_path / "model.json"
        result = CliRunner().invoke(
            cli.main,
            ["--workers", workers, "--config", str(config_path), "--manifest", str(small_corpus), "--out", str(model),
             "fit"],
        )
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--workers'" in result.stderr and "x>=1" in result.stderr
        assert not model.exists()

    def test_bad_config_exits_2(self, small_corpus, tmp_path):
        bad = write_config(tmp_path / "c.json", version=99)
        runner = CliRunner()
        result = runner.invoke(
            cli.main,
            ["--config", str(bad), "--manifest", str(small_corpus), "--out", str(tmp_path / "m.json"), "fit"],
        )
        assert result.exit_code == 2

    def test_corpus_fit_export_round_trip(self, tmp_path):
        runner = CliRunner()
        corp = tmp_path / "corp"
        result = runner.invoke(
            cli.main,
            ["--out", str(corp), "--seed", "7", "make-synth-corpus",
             "--n-per-group", "1", "--n-modal", "1", "--n-disguised", "1"],
        )
        assert result.exit_code == 0, result.output

        cfg = write_config(tmp_path / "c.json")
        model = tmp_path / "model.json"
        result = runner.invoke(
            cli.main,
            ["--config", str(cfg), "--manifest", str(corp / "manifest.csv"),
             "--out", str(model), "fit"],
        )
        assert result.exit_code == 0, result.output
        assert model.exists()

        result = runner.invoke(
            cli.main,
            ["--out", str(tmp_path / "exp"), "export-curves", "--model", str(model)],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "exp" / "component_1_curves.csv").exists()

    def test_fit_on_curves_without_variance_exits_2_after_its_log(self, small_corpus, config_path, tmp_path):
        src = pipeline.load_manifest(small_corpus)
        r = src.filter(conditions=("modal",))[0]
        # one file under two ids: two identical curves
        twice = [{**dataclasses.asdict(r), "utterance_id": u, "path": str(src.resolve(r))} for u in ("first", "second")]
        p = write_csv(tmp_path / "twice.csv", pipeline.MANIFEST_FIELDS, twice)
        model = tmp_path / "m.json"
        result = CliRunner().invoke(
            cli.main, ["--config", str(config_path), "--manifest", str(p), "--out", str(model), "fit"]
        )
        assert_config_exit(result, "functional PCA over 2 curves: zero total variance")
        assert [r["status"] for r in read_log(pipeline.model_log(model))] == ["ok", "ok"]
        assert not model.exists()

    def test_repeated_trial_pair_exits_2_before_any_output(self, small_corpus, config_path, tmp_path):
        root = Path(small_corpus).parent
        with open(root / "trials.csv", newline="") as fh:
            first = next(csv.DictReader(fh))
        t = write_csv(tmp_path / "t.csv", pipeline.TRIAL_FIELDS, [first, first, {**first, "label": "impostor"}])
        out = tmp_path / "e"
        result = CliRunner().invoke(
            cli.main,
            ["--config", str(config_path), "--manifest", str(small_corpus), "--out", str(out), "evaluate",
             "--anon-dir", str(root / "wav"), "--trials", str(t)],
        )
        assert_config_exit(result, f"repeated (enroll_speaker, test_utterance) pairs in trial file: "
                                   f"[('{first['enroll_speaker']}', '{first['test_utterance']}')]")
        assert not out.exists()

    @pytest.mark.parametrize("case", ["no_modal_rows", "donor_group_unresolvable", "speaker_not_enrolled"])
    def test_nothing_to_work_on_exits_2_before_any_output(self, case, small_corpus, config_path, fitted_model,
                                                          tmp_path):
        root = Path(small_corpus).parent
        manifest = small_corpus
        if case == "donor_group_unresolvable":
            # the low group alone: cross_group with an empty donor_group has no other group to take
            with open(small_corpus, newline="") as fh:
                rows = [r for r in csv.DictReader(fh) if r["group"] == "low"]
            rows = [{**r, "path": str(root / r["path"])} for r in rows]
            manifest = write_csv(tmp_path / "low_only.csv", pipeline.MANIFEST_FIELDS, rows)
        if case == "speaker_not_enrolled":
            with open(root / "trials.csv", newline="") as fh:
                first = next(csv.DictReader(fh))
            ghost = [["ghost", first["test_utterance"], "impostor"]]
            pipeline.write_table(tmp_path / "t.csv", pipeline.TRIAL_FIELDS, ghost)
        out = tmp_path / "out"
        args, message = {
            "no_modal_rows": (["anonymize", "--model", str(fitted_model), "--groups", "nosuch"],
                              "no modal utterances match the given filters"),
            "donor_group_unresolvable": (["anonymize", "--model", str(fitted_model)],
                                         "cross_group donor resolution needs exactly two groups; found ['low']"),
            "speaker_not_enrolled": (["evaluate", "--anon-dir", str(root / "wav"), "--trials", str(tmp_path / "t.csv")],
                                     "no session-1 modal enrollment material for speaker 'ghost'"),
        }[case]
        common = ["--config", str(config_path), "--manifest", str(manifest), "--out", str(out)]
        assert_config_exit(CliRunner().invoke(cli.main, [*common, *args]), message)
        assert not out.exists()

    def test_anonymize_failures_exit_1(self, small_corpus, tmp_path):
        src = pipeline.load_manifest(small_corpus)
        bad_wav = tmp_path / "bad.wav"
        bad_wav.write_bytes(b"junk")
        p = tmp_path / "m.csv"
        pipeline.write_table(p, pipeline.MANIFEST_FIELDS, [["broken", str(bad_wav), "s9", "low", "modal", "1"]])
        cfg = write_config(tmp_path / "c.json", strategy={"kind": "constant_shift", "shift_percent": 0.0})
        runner = CliRunner()
        result = runner.invoke(
            cli.main,
            ["--config", str(cfg), "--manifest", str(p), "--out", str(tmp_path / "anon"), "anonymize"],
        )
        assert result.exit_code == 1


# ---------------------------------------------------------------- damaged and mixed input

DAMAGED = "low00_modal_s2_u00"  # a session-2 modal file: fit, anonymize and evaluate all read it


def damage(path: Path, kind: str) -> None:
    """Rewrite the PCM-16 file at path with one of the defects real corpora hold."""
    rate, pcm = wavfile.read(path)
    x = pcm / 32768.0
    if kind == "zeroed":
        write_wav(path, Waveform(np.zeros_like(x), rate))
    elif kind == "160_samples":
        write_wav(path, Waveform(x[:160], rate))
    elif kind == "float32_nan":
        wavfile.write(path, rate, np.where(np.arange(x.size) == x.size // 2, np.nan, x).astype(np.float32))
    elif kind == "pcm24":
        write_wide_pcm(path, pcm, rate, 3)
    elif kind == "clipped_x20":
        write_wav(path, Waveform(np.clip(20.0 * x, -1.0, 1.0), rate))
    elif kind == "22050_hz":
        write_wav(path, resample(Waveform(x, rate), 22050))


def low_group_run(corpus: Path, tmp_path: Path) -> dict:
    """CLI arguments of fit, anonymize and evaluate over the low group's session-2 modal files, and each one's log."""
    with open(corpus / "trials.csv", newline="") as fh:
        trials = [t for t in csv.DictReader(fh) if t["test_utterance"].startswith("low")]
    write_csv(tmp_path / "low_trials.csv", pipeline.TRIAL_FIELDS, trials)
    cfg = write_config(tmp_path / "c.json", strategy={"kind": "constant_shift", "shift_percent": 10.0})
    common = ["--config", str(cfg), "--manifest", str(corpus / "manifest.csv")]
    out = tmp_path / "out"
    return {
        "fit": ([*common, "--out", str(out / "model.json"), "fit", "--groups", "low", "--sessions", "2"],
                out / "model.log.csv"),
        "anonymize": ([*common, "--out", str(out / "anon"), "anonymize", "--groups", "low", "--sessions", "2"],
                      out / "anon" / "anon_log.csv"),
        "evaluate": ([*common, "--out", str(out / "eval"), "evaluate", "--anon-dir", str(corpus / "wav"),
                      "--trials", str(tmp_path / "low_trials.csv")], out / "eval" / "eval_log.csv"),
    }


def read_log(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def assert_clean_exit(result, code: int) -> None:
    """The exit code the CLI chose, with no exception escaping the command and no traceback."""
    assert result.exit_code == code, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
    assert "Traceback" not in result.output


class TestDamagedInput:
    @pytest.fixture
    def corpus(self, small_corpus, tmp_path):
        return Path(shutil.copytree(Path(small_corpus).parent, tmp_path / "corpus"))

    @pytest.mark.parametrize(
        "kind, failed",
        [("zeroed", 1), ("160_samples", 1), ("float32_nan", 1), ("pcm24", 0), ("clipped_x20", 0)],
    )
    @pytest.mark.parametrize("command", ["fit", "anonymize", "evaluate"])
    def test_a_damaged_file_fails_its_row_alone(self, command, kind, failed, corpus, tmp_path):
        damage(corpus / "wav" / f"{DAMAGED}.wav", kind)
        args, log = low_group_run(corpus, tmp_path)[command]
        result = CliRunner().invoke(cli.main, args)
        assert_clean_exit(result, failed)
        rows = read_log(log)
        assert len(rows) == {"fit": 9, "anonymize": 6, "evaluate": 12}[command]
        assert [r["utterance_id"] for r in rows if r["status"] != "ok"] == [DAMAGED] * failed
        assert all(r["status"] in ("ok", "failed") for r in rows)

    def test_evaluate_scores_an_anonymize_run_with_a_failed_row(self, corpus, tmp_path):
        damage(corpus / "wav" / f"{DAMAGED}.wav", "zeroed")
        run = low_group_run(corpus, tmp_path)
        assert_clean_exit(CliRunner().invoke(cli.main, run["anonymize"][0]), 1)
        anon = tmp_path / "out" / "anon"
        args = [a if a != str(corpus / "wav") else str(anon) for a in run["evaluate"][0]]
        assert_clean_exit(CliRunner().invoke(cli.main, args), 1)
        rows = read_log(run["evaluate"][1])
        failed = [r for r in rows if r["status"] != "ok"]
        assert [r["utterance_id"] for r in failed] == [DAMAGED]
        assert failed[0]["message"].startswith("FileNotFoundError: ")
        with open(tmp_path / "out" / "eval" / "scores.csv", newline="") as fh:
            scores = list(csv.DictReader(fh))
        assert len(scores) == 15 and not any(s["trial_id"].endswith(f"|{DAMAGED}") for s in scores)
        report = json.loads((tmp_path / "out" / "eval" / "report.json").read_text())
        assert (report["rows"][0]["n_genuine"], report["rows"][0]["n_impostor"]) == (5, 10)

    def test_fit_with_fewer_than_two_curves_exits_2_after_its_log(self, corpus, tmp_path):
        rows = pipeline.load_manifest(corpus / "manifest.csv").filter(groups=("low",), sessions=("2",))
        for r in sorted(rows, key=lambda r: r.utterance_id)[1:]:
            damage(corpus / r.path, "zeroed")
        args, log = low_group_run(corpus, tmp_path)["fit"]
        assert_config_exit(CliRunner().invoke(cli.main, args), "functional PCA needs at least 2 curves; 1 made")
        assert [r["status"] for r in read_log(log)] == ["ok"] + ["failed"] * 8
        assert not (tmp_path / "out" / "model.json").exists()

    def test_a_file_at_another_rate_runs_end_to_end(self, corpus, tmp_path):
        damage(corpus / "wav" / f"{DAMAGED}.wav", "22050_hz")
        assert read_wav(corpus / "wav" / f"{DAMAGED}.wav").sample_rate == 22050
        run = low_group_run(corpus, tmp_path)
        anon = str(tmp_path / "out" / "anon")
        run["evaluate"] = ([a if a != str(corpus / "wav") else anon for a in run["evaluate"][0]], run["evaluate"][1])
        for command in ("fit", "anonymize", "evaluate"):  # evaluate scores the anonymized files
            args, log = run[command]
            assert_clean_exit(CliRunner().invoke(cli.main, args), 0)
            assert {r["status"] for r in read_log(log)} == {"ok"}
        assert read_wav(Path(anon) / f"{DAMAGED}.anon.wav").sample_rate == 22050
