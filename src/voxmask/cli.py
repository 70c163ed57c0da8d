"""Command-line entry points.

Exit codes: 0 on success, 1 when a row of the log that fit, anonymize or
evaluate writes failed, 2 on configuration or usage errors.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from . import pipeline, synth


def _split(value):
    if value is None:
        return None
    parts = [p.strip() for p in value.split(",") if p.strip()]
    return tuple(parts) or None


def _need(ctx, key, flag):
    value = ctx.obj.get(key)
    if value is None:
        raise pipeline.ConfigError(f"{flag} is required for this command")
    return value


class _Group(click.Group):
    """The one place a command's outcome becomes an exit code: 2 on a ConfigError, 1 on a failed row of its log."""

    def invoke(self, ctx):
        try:
            log = super().invoke(ctx)
            failed = log and pipeline.failed_rows(log)
        except pipeline.ConfigError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        if failed:
            sys.exit(f"{failed} utterance(s) failed; see {log}")  # to stderr, with exit code 1
        return log


@click.group(cls=_Group)
@click.option("--config", type=click.Path(), default=None, help="Pipeline config JSON.")
@click.option("--manifest", type=click.Path(), default=None, help="Corpus manifest CSV.")
@click.option("--out", type=click.Path(), default=None, help="Output file or directory.")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True, help="Parallel workers.")
@click.option("--seed", type=int, default=1234, show_default=True, help="Corpus generation seed.")
@click.pass_context
def main(ctx, config, manifest, out, workers, seed):
    """Voice anonymization via pitch-curve remodeling and formant shifting."""
    ctx.obj = {
        "config": config,
        "manifest": manifest,
        "out": out,
        "workers": workers,
        "seed": seed,
    }


@main.command()
@click.option("--groups", default=None, help="Comma-separated group filter.")
@click.option("--conditions", default=None, help="Comma-separated condition filter.")
@click.option("--sessions", default=None, help="Comma-separated session filter.")
@click.pass_context
def fit(ctx, groups, conditions, sessions):
    """Fit a functional PCA pitch model; --out names the model file."""
    path = pipeline.cmd_fit(
        _need(ctx, "manifest", "--manifest"),
        _need(ctx, "config", "--config"),
        _need(ctx, "out", "--out"),
        groups=_split(groups),
        conditions=_split(conditions),
        sessions=_split(sessions),
        workers=ctx.obj["workers"],
    )
    click.echo(f"model written to {path}")
    return pipeline.model_log(path)


@main.command()
@click.option("--model", type=click.Path(), default=None, help="Model file from fit.")
@click.option("--groups", default=None, help="Comma-separated group filter.")
@click.option("--sessions", default=None, help="Comma-separated session filter.")
@click.pass_context
def anonymize(ctx, model, groups, sessions):
    """Anonymize modal utterances into --out (WAVs plus anon_log.csv)."""
    failed = pipeline.cmd_anonymize(
        _need(ctx, "manifest", "--manifest"),
        _need(ctx, "config", "--config"),
        model,
        _need(ctx, "out", "--out"),
        groups=_split(groups),
        sessions=_split(sessions),
        workers=ctx.obj["workers"],
    )
    if not failed:
        click.echo("all utterances anonymized")
    return Path(ctx.obj["out"]) / pipeline.ANON_LOG


@main.command()
@click.option("--anon-dir", type=click.Path(), required=True, help="Directory of test audio.")
@click.option("--trials", type=click.Path(), required=True, help="Trial list CSV.")
@click.pass_context
def evaluate(ctx, anon_dir, trials):
    """Score trials and STOI; writes report.json/report.txt/scores.csv/eval_log.csv to --out."""
    report = pipeline.cmd_evaluate(
        _need(ctx, "manifest", "--manifest"),
        _need(ctx, "config", "--config"),
        anon_dir,
        trials,
        _need(ctx, "out", "--out"),
        workers=ctx.obj["workers"],
    )
    click.echo(report.format_table())
    return Path(ctx.obj["out"]) / pipeline.EVAL_LOG


@main.command("export-curves")
@click.option("--model", type=click.Path(), required=True, help="Model file from fit.")
@click.option("--component", type=int, default=1, show_default=True, help="Component index (1-based).")
@click.option("--n-points", type=int, default=200, show_default=True, help="Samples per curve.")
@click.pass_context
def export_curves(ctx, model, component, n_points):
    """Export mean/plus/minus component curves and the score scatter as CSV."""
    curves_path, scatter_path = pipeline.cmd_export_curves(
        model, component, n_points, _need(ctx, "out", "--out")
    )
    click.echo(f"wrote {curves_path} and {scatter_path}")


@main.command("make-synth-corpus")
@click.option("--n-per-group", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--n-modal", type=click.IntRange(min=1), default=4, show_default=True)
@click.option("--n-disguised", type=click.IntRange(min=0), default=2, show_default=True)
@click.pass_context
def make_synth_corpus(ctx, n_per_group, n_modal, n_disguised):
    """Generate the deterministic synthetic corpus under --out."""
    manifest_path = synth.generate_corpus(
        pipeline.check_output(_need(ctx, "out", "--out"), directory=True),
        seed=ctx.obj["seed"],
        n_per_group=n_per_group,
        n_modal=n_modal,
        n_disguised=n_disguised,
    )
    click.echo(f"manifest written to {manifest_path}")


if __name__ == "__main__":
    main()
