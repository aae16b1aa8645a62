"""Config-driven experiment orchestration and artifact plumbing.

A run builds its task suite and base policy from the seed, executes the
requested training mode, and leaves a self-describing output directory:
suite, checkpoints, trace files, evaluation report, and a manifest embedding
the fully resolved config. Every file is written by the artifacts module
under its `.partial` name and renamed: checkpoints, the best one's copy, the
manifest and compare's tables once whole, so a cut write leaves no truncated
file; the rest when the run completes, so a crashed run is recognizable by
its suffixes. Inputs are read before out_dir is made.
Checkpoints are ranked by exact Avg@k, the mean mass on each task's correct
set, which the loop computes from the policy in memory as it writes each one.
"""
from __future__ import annotations

import csv
import fnmatch
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from .artifacts import (PARTIAL_SUFFIX, csv_text, json_text, partial_path, publish_partial,
                        write_partial, write_whole)
from .config import ExperimentConfig
from .errors import CheckpointCorrupt, ConfigError, MissingArtifacts
from .metrics import evaluation_report
from .policy import derive_rng, load_checkpoint, save_checkpoint, softmax
from .sps import grpo_baseline_loop, sps_loop
from .squeeze import check_squeeze_setting, penalize_token, verify_squeeze
from .tasks import build_suite_policy, load_suite, make_benchmark_suite, suite_json

@dataclass
class RunManifest:
    run_id: str
    config: dict
    artifacts: list[str] = field(default_factory=list)
    timings: dict = field(default_factory=dict)


class _Artifacts:
    """Stage files as <name>.partial and rename them on success."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.staged: list[str] = []
        self.final: list[str] = []

    def write_text(self, name: str, text: str) -> None:
        self.staged.append(name)
        write_partial(os.path.join(self.out_dir, name), text)

    def direct(self, name: str) -> str:
        self.final.append(name)
        return os.path.join(self.out_dir, name)

    def finalize(self) -> list[str]:
        for name in self.staged:
            publish_partial(os.path.join(self.out_dir, name))
        return sorted(set(self.final + self.staged))


def _resolve_config(config) -> ExperimentConfig:
    cfg = config if isinstance(config, ExperimentConfig) else ExperimentConfig.from_file(config)
    env_seed = os.environ.get("SQUEEZELAB_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"SQUEEZELAB_SEED: not an integer: {env_seed!r}") from exc
        # from_dict applies the config rules to the override before run touches out_dir.
        cfg = ExperimentConfig.from_dict({**cfg.values, "seed": seed})
    return cfg


def run(config) -> RunManifest:
    """Execute one configured experiment and emit its artifact directory."""
    cfg = _resolve_config(config).with_mode_objective()
    mode = cfg["mode"]
    out_dir = cfg["out_dir"]
    _check_mode_config(cfg)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    if mode == "eval":
        inputs = _eval_inputs(cfg)
    elif mode != "squeeze-demo":
        suite = make_benchmark_suite(cfg["seed"], cfg.family_params())
        base = build_suite_policy(suite, cfg["suite.skew"], cfg["seed"])
    os.makedirs(out_dir, exist_ok=True)
    art = _Artifacts(out_dir)
    if mode == "squeeze-demo":
        _run_squeeze_demo(cfg, art)
    elif mode == "eval":
        _write_eval_report(art, _report(cfg, *inputs, 7200))
        timings["eval"] = time.perf_counter() - t0
    else:
        _run_training(cfg, art, suite, base, t0, timings)
    artifacts = art.finalize()
    run_id = hashlib.sha256(cfg.to_text().encode("utf-8")).hexdigest()[:12]
    manifest = RunManifest(run_id=run_id, config=dict(cfg.values),
                           artifacts=artifacts + ["manifest.json"], timings=timings)
    write_whole(os.path.join(out_dir, "manifest.json"), json_text(vars(manifest)))
    return manifest


def _check_mode_config(cfg: ExperimentConfig) -> None:
    """The mode's own config rules, checked before run creates out_dir."""
    if cfg["mode"] == "squeeze-demo":
        m, count = cfg["squeeze.m"], len(cfg["squeeze.logits"])
        if not 0 <= m < count:
            raise ConfigError(f"squeeze.m: index {m} out of range for {count} logits")
        check_squeeze_setting(softmax(cfg["squeeze.logits"]).probs, m, cfg["squeeze.eta"])
    elif cfg["mode"] == "eval":
        if not cfg["eval.checkpoint"] or not cfg["eval.suite_path"]:
            raise ConfigError("eval.checkpoint and eval.suite_path are required in eval mode")


def squeeze_demo(logits: np.ndarray, m: int, eta: float):
    """Penalize token m by eta, run the squeeze checks, and print both.

    Returns the SqueezeReport and the list of CheckResults. A setting that
    is not a squeeze raises NotASqueezeSetting before the update is made.
    """
    check_squeeze_setting(softmax(logits).probs, m, eta)
    _, report = penalize_token(logits, m, eta)
    checks = verify_squeeze(report)
    print(f"logits: {[float(v) for v in logits]}  m={m}  eta={eta}")
    print(f"before: {[round(float(p), 9) for p in report.before.probs]}")
    print(f"after:  {[round(float(p), 9) for p in report.after.probs]}")
    print(f"denominator 1 + p(m)(e^eta - 1) = {report.denom:.9f}")
    print(f"scale factor Z/Z' = {report.scale_factor:.9f}")
    print(f"mass delta on m = {report.mass_delta[m]:.9f}")
    for check in checks:
        status = "ok" if check.passed else "FAILED"
        print(f"check {check.name}: {status} (residual {check.residual:.3e})")
    return report, checks


def _run_squeeze_demo(cfg: ExperimentConfig, art: _Artifacts) -> None:
    logits = np.asarray(cfg["squeeze.logits"], dtype=float)
    report, checks = squeeze_demo(logits, cfg["squeeze.m"], cfg["squeeze.eta"])
    payload = {
        "before": [float(p) for p in report.before.probs],
        "after": [float(p) for p in report.after.probs],
        "m": report.m,
        "eta": report.eta,
        "denom": report.denom,
        "scale_factor": report.scale_factor,
        "mass_delta": [float(d) for d in report.mass_delta],
        "checks": {c.name: {"passed": c.passed, "residual": c.residual}
                   for c in checks},
    }
    art.write_text("squeeze_report.json", json_text(payload))


def _report(cfg: ExperimentConfig, policy, base, suite, stream: int) -> dict:
    """evaluation_report of policy on suite with cfg's eval keys, named suite.name,
    sampling from derive_rng(seed, stream)."""
    return evaluation_report(policy, base, suite, cfg["suite.name"], cfg["eval.n"],
                             cfg["eval.k"], cfg["eval.prob_floor"],
                             derive_rng(cfg["seed"], stream))


def eval_report(cfg: ExperimentConfig, stream: int = 7200) -> dict:
    """The evaluation report of cfg's eval.checkpoint on the suite at eval.suite_path,
    read at the checkpoint's shape; greedy drift is against eval.base_checkpoint,
    which must have that shape too, or the checkpoint itself if that is empty."""
    return _report(cfg, *_eval_inputs(cfg), stream)


def _eval_inputs(cfg: ExperimentConfig) -> tuple:
    """eval_report's (policy, base, suite), read from cfg's eval paths."""
    policy = load_checkpoint(cfg["eval.checkpoint"])
    shape = (policy.vocab.size, policy.max_len)
    suite = load_suite(cfg["eval.suite_path"], *shape)
    base = policy
    if cfg["eval.base_checkpoint"]:
        base = load_checkpoint(cfg["eval.base_checkpoint"])
        if (base.vocab.size, base.max_len) != shape:
            raise CheckpointCorrupt(
                f"base checkpoint at vocab={base.vocab.size} max_len={base.max_len}, "
                f"evaluated checkpoint at vocab={shape[0]} max_len={shape[1]}", line=1)
    return policy, base, suite


def _write_eval_report(art: _Artifacts, report: dict) -> None:
    art.write_text("eval_report.json", json_text(report))
    hist = report["histogram"]
    art.write_text("histogram.csv", csv_text(("bucket", "count"),
                                             zip(hist["edges"], hist["counts"])))


# Files a training run writes under names that depend on the run's schedule,
# or only when it fails: an earlier run into the same out_dir can leave some
# that this run would not overwrite.
STALE_TRAINING_ARTIFACTS = ("checkpoint_iter*.txt", "checkpoint_best.txt",
                            "checkpoints.csv", "*" + PARTIAL_SUFFIX)


def _remove_stale_artifacts(out_dir: str) -> None:
    """Delete the files of out_dir named in STALE_TRAINING_ARTIFACTS, and no other."""
    for name in os.listdir(out_dir):
        path = os.path.join(out_dir, name)
        if (any(fnmatch.fnmatchcase(name, pattern) for pattern in STALE_TRAINING_ARTIFACTS)
                and os.path.isfile(path)):
            os.remove(path)


def _run_training(cfg: ExperimentConfig, art: _Artifacts, suite, base, t0: float,
                  timings: dict) -> None:
    seed = cfg["seed"]
    mode = cfg["mode"]
    # Only a run that has its suite and base policy replaces an earlier run's files.
    _remove_stale_artifacts(art.out_dir)
    art.write_text("suite.json", suite_json(suite))
    save_checkpoint(base, art.direct("checkpoint_base.txt"))
    timings["setup"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    loop = sps_loop if mode == "sps" else grpo_baseline_loop
    final_policy, trace = loop(base, suite, cfg.sps_config(), seed, out_dir=art.out_dir)
    timings["train"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    art.write_text("trace.jsonl", trace.to_jsonl())
    art.write_text("steps.csv", trace.steps_csv())
    save_checkpoint(final_policy, art.direct("checkpoint_final.txt"))
    # Logits round-trip exactly through a checkpoint, so each row's mass,
    # taken from the policy in memory, is its file's mass.
    rows = trace.checkpoints
    art.final += [name for _, name, _ in rows]
    if rows:
        best = _best_row(rows)
        best_path = art.direct("checkpoint_best.txt")
        shutil.copyfile(os.path.join(art.out_dir, best[1]), partial_path(best_path))
        publish_partial(best_path)
        art.write_text("checkpoints.csv", csv_text(("iter", "path", "avg_at_k"), rows))

    _write_eval_report(art, _report(cfg, final_policy, base, suite, 7200))
    timings["eval"] = time.perf_counter() - t0


def _best_row(rows):
    """The (iter, path, avg_at_k) row of highest Avg@k, ties to the earliest iteration."""
    return max(rows, key=lambda r: (r[2], -r[0]))


_REEVAL_KEYS = ("seed", "suite.name", "eval.n", "eval.k", "eval.prob_floor")


def _best_checkpoint_report(run_dir: str) -> dict:
    manifest_path = os.path.join(run_dir, "manifest.json")
    checkpoints_path = os.path.join(run_dir, "checkpoints.csv")
    suite_path = os.path.join(run_dir, "suite.json")
    for path in (manifest_path, suite_path):
        if not os.path.exists(path):
            raise MissingArtifacts(f"missing artifact: {path}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
            config = dict(manifest["config"])
            ranked = "checkpoints.csv" in manifest.get("artifacts", ["checkpoints.csv"])
        except (ValueError, LookupError, TypeError) as exc:
            raise MissingArtifacts(f"{manifest_path}: not a run manifest: {exc}") from exc
    # The keys a re-evaluation reads obey the config rules; the other stored
    # keys are not checked again, so an older run still compares.
    try:
        ExperimentConfig.from_dict({key: config[key] for key in _REEVAL_KEYS})
    except (KeyError, ConfigError, TypeError):
        for key in _REEVAL_KEYS:  # One at a time, to name the first that fails.
            if key not in config:
                raise MissingArtifacts(f"{manifest_path}: config has no {key}") from None
            try:
                ExperimentConfig.from_dict({key: config[key]})
            except (ConfigError, TypeError) as exc:
                raise MissingArtifacts(f"{manifest_path}: config {key} = {config[key]!r}: {exc}")
    best_iter, best_path = None, "checkpoint_final.txt"  # if no checkpoints.csv is listed
    if ranked:
        if not os.path.exists(checkpoints_path):
            raise MissingArtifacts(f"missing artifact: {checkpoints_path}")
        with open(checkpoints_path, "r", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            try:
                rows = [(int(r["iter"]), r["path"], float(r["avg_at_k"])) for r in reader]
            except KeyError as exc:
                raise MissingArtifacts(f"{checkpoints_path}: no {exc} column") from exc
            except (TypeError, ValueError) as exc:
                raise MissingArtifacts(
                    f"{checkpoints_path}, line {reader.line_num}: {exc}") from exc
        if not rows:
            raise MissingArtifacts(f"no checkpoints listed in {checkpoints_path}")
        best_iter, best_path, _ = _best_row(rows)
    base_path = os.path.join(run_dir, "checkpoint_base.txt")
    cfg = ExperimentConfig({**config, "eval.checkpoint": os.path.join(run_dir, best_path),
                            "eval.suite_path": suite_path,
                            "eval.base_checkpoint": base_path if os.path.exists(base_path) else ""})
    report = eval_report(cfg, stream=7300)
    report["best_checkpoint"] = best_path
    report["best_iter"] = best_iter
    return report


def _flat_metrics(report: dict) -> dict[str, float]:
    flat = {f"pass_at_{k}": v for k, v in report["pass_at_k"].items()}
    flat["avg_at_k"] = report["avg_at_k"]
    flat["similarity_bigram_jaccard"] = report["similarity_bigram_jaccard"]
    flat["greedy_drift_mean"] = report["greedy_drift_mean"]
    flat["support_covered"] = float(report["support"]["covered"])
    flat["support_mass"] = report["support"]["mass"]
    return flat


def compare(run_a_dir: str, run_b_dir: str, out_dir: str | None = None) -> dict:
    """Tabulate two runs' best checkpoints side by side.

    Each run's best checkpoint is picked by the exact Avg@k in its
    checkpoints.csv (ties to the earliest iteration), or is its
    checkpoint_final.txt if its manifest lists no checkpoints.csv (a run
    that wrote no per-iteration checkpoint); both are re-evaluated
    with their own stored config and seed (once if both name one directory),
    and per-metric deltas (a minus b) are written as compare.json and
    compare.csv into out_dir (default: run_a_dir).
    """
    report_a = _best_checkpoint_report(run_a_dir)
    same_run = os.path.realpath(run_a_dir) == os.path.realpath(run_b_dir)
    report_b = report_a if same_run else _best_checkpoint_report(run_b_dir)
    flat_a = _flat_metrics(report_a)
    flat_b = _flat_metrics(report_b)
    metrics = sorted(set(flat_a) & set(flat_b))
    comparison = {
        "run_a": {"dir": run_a_dir, "best_checkpoint": report_a["best_checkpoint"],
                  "metrics": flat_a},
        "run_b": {"dir": run_b_dir, "best_checkpoint": report_b["best_checkpoint"],
                  "metrics": flat_b},
        "delta": {m: flat_a[m] - flat_b[m] for m in metrics},
    }
    dest = out_dir or run_a_dir
    os.makedirs(dest, exist_ok=True)
    write_whole(os.path.join(dest, "compare.json"), json_text(comparison))
    write_whole(os.path.join(dest, "compare.csv"), compare_csv(comparison))
    return comparison


def compare_csv(comparison: dict) -> str:
    """compare.csv of a comparison: each metric of both runs and their delta."""
    a, b = (comparison[run]["metrics"] for run in ("run_a", "run_b"))
    return csv_text(("metric", "run_a", "run_b", "delta"),
                    [(m, a[m], b[m], delta) for m, delta in comparison["delta"].items()])
