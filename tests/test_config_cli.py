"""Config parsing, the run orchestrator, and the command-line surface."""
from __future__ import annotations

import builtins
import contextlib
import io
import json
import os
import pathlib
import re
import shutil
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from squeezelab import cli, config, metrics, policy, runner, tasks
from squeezelab.config import ExperimentConfig, parse_config_text
from squeezelab.errors import ConfigError
from squeezelab.metrics import evaluation_report, support_coverage

from conftest import reference_save_checkpoint


@pytest.fixture(scope="module")
def training_runs(tmp_path_factory):
    """Two identical tiny training runs in separate output directories."""
    root = tmp_path_factory.mktemp("runs")
    saved = os.environ.pop("SQUEEZELAB_SEED", None)
    dirs = []
    try:
        for name in ("a", "b"):
            out_dir = root / f"run_{name}"
            cfg = root / f"{name}.cfg"
            cfg.write_text(
                "mode = sps\n"
                "seed = 7\n"
                f"out_dir = {out_dir}\n"
                "suite.count = 4\n"
                "rl.steps_per_iteration = 2\n"
                "sps.max_iterations = 2\n"
                "sps.irl_steps_per_iteration = 2\n"
                "eval.n = 8\n"
                "eval.k = 1,4\n",
                encoding="utf-8")
            assert cli.main(["run", str(cfg)]) == 0
            dirs.append(out_dir)
    finally:
        if saved is not None:
            os.environ["SQUEEZELAB_SEED"] = saved
    return dirs


# ---------------------------------------------------------------------------
# config parsing


def test_parse_empty_text_gives_defaults():
    values = parse_config_text("")
    assert values["mode"] == "sps"
    assert values["seed"] == 1234
    assert values["eval.k"] == [1, 4, 8]
    assert values["rl.eps_low"] is None
    assert values["suite.skew"] == 4.0
    assert values["sps.quantile"] is None


def test_parse_rejects_unknown_key_with_line_number():
    with pytest.raises(ConfigError, match="line 2.*grop_size"):
        parse_config_text("seed = 1\nrl.grop_size = 8\n")


@pytest.mark.parametrize("key", ["runtime.workers", "sps.holdout_count", "rl.scope"])
def test_parse_rejects_a_removed_key(key):
    with pytest.raises(ConfigError, match=f"line 1: unknown config key '{re.escape(key)}'"):
        parse_config_text(f"{key} = 1\n")


def test_parse_rejects_duplicates_and_bad_lines():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config_text("seed 1\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config_text("seed = abc\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config_text("sps.trace_metrics = maybe\n")


def test_parse_comments_blanks_and_option_values():
    values = parse_config_text(
        "# a comment\n"
        "\n"
        "sps.quantile = none\n"
        "rl.eps_low = 0.25\n"
        "rl.reuse_rollouts = yes\n"
        "eval.k = 1, 2 ,8\n")
    assert values["sps.quantile"] is None
    assert values["rl.eps_low"] == 0.25
    assert values["rl.reuse_rollouts"] is True
    assert values["eval.k"] == [1, 2, 8]


def test_parse_validates_cross_field_rules():
    with pytest.raises(ConfigError, match="mode"):
        parse_config_text("mode = warmup\n")
    with pytest.raises(ConfigError, match="rl.objective"):
        parse_config_text("rl.objective = ppo\n")
    with pytest.raises(ConfigError, match="eval.k"):
        parse_config_text("eval.k =\n")
    with pytest.raises(ConfigError, match=re.escape("sps.irl_scope")):
        parse_config_text("sps.irl_scope = per_token\n")
    with pytest.raises(ConfigError, match="seed"):
        parse_config_text("seed = -1\n")


# Values a run would reject only after writing files, each with the key the
# error must name. The constructors' own rules (SpsConfig, ClipConfig,
# FamilyParams) are reached through the config, not copied into it.
REJECTED_AT_PARSE = {
    "rl.group_size": "rl.group_size = 1\n",
    "sps.irl_batch_size": "sps.irl_batch_size = 0\n",
    "eval.n": "eval.n = 1\n",
    "rl.lr": "rl.lr = -0.1\n",
    "rl.steps_per_iteration": "rl.steps_per_iteration = 0\n",
    "suite.vocab_size": "suite.vocab_size = 2\n",
    "suite.skew": "suite.skew = -0.5\n",
    # gspo mode pins the objective, whose clip range must not be inverted.
    "rl.eps_low": "mode = gspo\nrl.eps_low = 0.5\nrl.eps_high = 0.4\n",
    # A clip key the objective does not take: a KL weight outside GRPO, and
    # an upper width off GRPO's symmetric range, each trained as the default.
    "rl.beta": "mode = dapo\nrl.beta = 0.05\n",
    "rl.eps_high": "mode = grpo\nrl.eps_high = 0.9\n",
    # Suite shapes the task generator cannot build.
    "suite.layer_width": "suite.layer_width = 0\n",
    "suite.decoy_count": "suite.decoy_count = -1\n",
    "suite.mid_layers": "suite.mid_layers = -1\n",
    "suite.max_len": "suite.max_len = 0\n",
    # A negative count leaves DAPO no sampling attempt at all.
    "rl.dapo_max_resamples": "mode = dapo\nrl.dapo_max_resamples = -1\n",
    # -1 used to turn checkpoints off, as 0 does.
    "sps.checkpoint_every": "sps.checkpoint_every = -1\n",
    # No change of the mass is below an epsilon of 0, so the run could never stop early.
    "sps.convergence_epsilon": "sps.convergence_epsilon = 0\n",
}


# Values that a range check written as `x < 0` let through: a NaN rate,
# threshold or KL weight gave a run that ignored it, and an infinite rate or
# a non-finite skew failed only at the first update, after out_dir was made.
REJECTED_NON_FINITE = [
    ("rl.lr", "nan"), ("rl.lr", "inf"), ("sps.irl_lr", "nan"), ("sps.irl_lr", "inf"),
    ("rl.beta", "nan"), ("rl.beta", "inf"), ("sps.convergence_epsilon", "nan"),
    ("eval.prob_floor", "nan"), ("suite.skew", "nan"), ("suite.skew", "inf"),
]


@pytest.mark.parametrize("key", sorted(REJECTED_AT_PARSE))
def test_values_a_run_rejects_fail_at_parse_time(key, tmp_path, capsys):
    _assert_rejected_at_parse(key, REJECTED_AT_PARSE[key], tmp_path, capsys)


@pytest.mark.parametrize("key,value", REJECTED_NON_FINITE)
def test_non_finite_values_fail_at_parse_time(key, value, tmp_path, capsys):
    _assert_rejected_at_parse(key, f"{key} = {value}\n", tmp_path, capsys)


def _assert_rejected_at_parse(key, text, tmp_path, capsys):
    """text fails parse_config_text naming key, and `squeezelab run` with it
    exits 2 with a config error naming key, before making out_dir."""
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config_text(text)
    out_dir = tmp_path / "out"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"suite.count = 2\nsps.max_iterations = 1\nout_dir = {out_dir}\n" + text,
                   encoding="utf-8")
    assert cli.main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not out_dir.exists()


def test_suites_whose_prefix_ids_pass_int64_fail_at_parse_time(tmp_path, capsys):
    # At vocab 4 a prompt spans (4**29 - 1) // 3 ids at max_len 28: 96 prompts
    # stay below 2**63, 97 do not.
    parse_config_text("suite.max_len = 28\nsuite.count = 96\n")
    for text in ("suite.max_len = 28\nsuite.count = 97\n", "suite.max_len = 29\n",
                 "suite.max_len = 100000\n"):
        with pytest.raises(ConfigError, match="suite.max_len .* beyond 2\\*\\*63"):
            parse_config_text(text)
    out_dir = tmp_path / "out"
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(f"suite.max_len = 40\nout_dir = {out_dir}\n", encoding="utf-8")
    assert cli.main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == ("config error: suite.max_len 40 at suite.vocab_size 4 and "
                                       "suite.count 32 numbers prefix ids beyond 2**63\n")
    assert not out_dir.exists()


def test_parse_keeps_settings_the_run_accepts():
    # irl_batch_size may stay unset, and grpo's symmetric range may be set
    # by rl.eps_low alone.
    parse_config_text("sps.irl_batch_size = none\nrl.group_size = 2\nsps.sampling_size = 2\n"
                      "eval.n = 2\n")
    parse_config_text("mode = grpo\nrl.eps_low = 0.5\n")
    parse_config_text("mode = grpo\nrl.eps_low = 0.5\nrl.eps_high = 0.5\nrl.beta = 0\n")
    # With no middle layer the layer width is never read.
    parse_config_text("suite.layer_width = 0\nsuite.mid_layers = 0\n")


# Keys a run's cost grows with, and the largest value the property test gives them.
SMALL_RUN = {"suite.count": 2, "sps.max_iterations": 1, "rl.steps_per_iteration": 2,
             "sps.irl_steps_per_iteration": 2, "rl.group_size": 4, "eval.n": 6}
CHOICES = {"mode": config.MODES, "rl.objective": ("grpo", "dapo", "gspo"),
           "sps.irl_scope": ("per_prompt", "full_suite")}
# Path keys keep their defaults: the test writes its own out_dir.
FIXED_KEYS = ("out_dir", "eval.checkpoint", "eval.suite_path", "eval.base_checkpoint")


def key_values(key):
    """Values for one config key, by its SCHEMA type: ordinary ones and ones a rule rejects."""
    tag, default = config.SCHEMA[key]
    if key in SMALL_RUN:
        return st.integers(-1, SMALL_RUN[key])
    return {
        "int": lambda: st.integers(-1, default + 1),
        "opt_int": lambda: st.none() | st.integers(-1, 3),
        "float": lambda: st.sampled_from([-0.5, 0.0, default, 1.0, 2 * default + 1]),
        "opt_float": lambda: st.none() | st.sampled_from([-0.5, 0.0, 0.01, 0.3, 1.5]),
        "bool": st.booleans,
        "int_list": lambda: st.lists(st.integers(-1, 8), max_size=3),
        "float_list": lambda: st.lists(st.sampled_from([-3.0, 0.0, 1.0, 2.0]), max_size=5),
        "str": lambda: st.sampled_from(CHOICES.get(key, (default,)) + ("bogus",)),
    }[tag]()


CONFIGS = st.lists(st.sampled_from([k for k in config.SCHEMA if k not in FIXED_KEYS]),
                   unique=True, max_size=6).flatmap(
    lambda keys: st.fixed_dictionaries({key: key_values(key) for key in keys}))


def render(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(map(str, value))
    return str(value)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(overrides={"suite.layer_width": 0})
@example(overrides={"suite.decoy_count": -1})
@example(overrides={"suite.mid_layers": -1})
@example(overrides={"mode": "eval"})
@example(overrides={"mode": "squeeze-demo", "squeeze.m": 9})
@given(overrides=CONFIGS)
def test_every_config_is_rejected_at_parse_time_or_runs_without_a_traceback(
        overrides, tmp_path, monkeypatch):
    # A config either fails to parse, with exit 2 and nothing written, or runs:
    # to the end, or to a named squeezelab error. No other exception escapes
    # the CLI, which would print a traceback.
    monkeypatch.delenv("SQUEEZELAB_SEED", raising=False)
    root = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
    out_dir = root / "out"
    values = {**SMALL_RUN, "eval.k": [1, 2], **overrides}
    text = "".join(f"{key} = {render(value)}\n" for key, value in values.items())
    text += f"out_dir = {out_dir}\n"
    try:
        parse_config_text(text)
        parsed = True
    except ConfigError:
        parsed = False
    (root / "run.cfg").write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["run", str(root / "run.cfg")])
    err = err.getvalue()
    if not parsed:
        assert code == 2 and err.startswith("config error: ")
        assert not out_dir.exists()
    elif code == 0:
        assert (out_dir / "manifest.json").exists()
    elif code == 2:
        # A config error found after parsing still comes before out_dir exists.
        assert err.startswith("config error: ") and not out_dir.exists(), err
    else:
        assert code == 1 and err.startswith("error: "), err


def test_config_text_round_trip():
    cfg = ExperimentConfig.from_dict({"seed": 9, "rl.objective": "dapo",
                                      "mode": "dapo", "sps.quantile": 0.25,
                                      "rl.eps_high": 0.3})
    reparsed = parse_config_text(cfg.to_text())
    assert reparsed == cfg.values


def test_with_value_is_functional():
    cfg = ExperimentConfig.from_dict()
    other = cfg.with_value("seed", 5)
    assert cfg["seed"] == 1234
    assert other["seed"] == 5
    with pytest.raises(ConfigError):
        cfg.with_value("seeed", 5)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"not.a.key": 1})


@pytest.mark.parametrize("key,value", [
    ("eval.n", 2.5), ("eval.n", True), ("eval.n", "32"), ("seed", None), ("seed", False),
    ("eval.k", [1, 2.5]), ("eval.k", [True]), ("eval.k", "1,4"), ("rl.lr", "0.1"),
    ("rl.lr", True), ("rl.reuse_rollouts", 1), ("sps.irl_batch_size", 2.0),
    ("sps.quantile", "0.5"), ("squeeze.logits", [1.0, "2"]), ("mode", 3),
])
def test_from_dict_rejects_a_value_of_another_type(key, value):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict({key: value})
    assert str(err.value) == f"{key}: {value!r} is not a value of type {config.SCHEMA[key][0]}"


def test_from_dict_keeps_an_int_given_for_a_float_key():
    cfg = ExperimentConfig.from_dict({"rl.lr": 1, "sps.quantile": 1, "squeeze.logits": [2, 1.0]})
    assert type(cfg["rl.lr"]) is int and type(cfg["sps.quantile"]) is int
    assert cfg["squeeze.logits"] == [2, 1.0] and type(cfg["squeeze.logits"][0]) is int
    assert "rl.lr = 1\n" in cfg.to_text()


def test_clip_config_mapping():
    grpo = ExperimentConfig.from_dict().clip_config()
    assert (grpo.objective_kind, grpo.eps_low, grpo.eps_high, grpo.beta) == \
        ("grpo", 0.2, 0.2, 0.01)
    dapo = ExperimentConfig.from_dict(
        {"rl.objective": "dapo", "rl.eps_high": 0.3}).clip_config()
    assert (dapo.objective_kind, dapo.eps_low, dapo.eps_high) == ("dapo", 0.2, 0.3)
    gspo = ExperimentConfig.from_dict({"rl.objective": "gspo"}).clip_config()
    assert (gspo.objective_kind, gspo.eps_low, gspo.eps_high) == \
        ("gspo", 3e-4, 4e-4)
    tuned = ExperimentConfig.from_dict({"rl.beta": 0.0}).clip_config()
    assert tuned.beta == 0.0
    wide = ExperimentConfig.from_dict({"rl.eps_low": 0.3, "rl.beta": 0.05}).clip_config()
    assert (wide.objective_kind, wide.eps_low, wide.eps_high, wide.beta) == \
        ("grpo", 0.3, 0.3, 0.05)
    narrow = ExperimentConfig.from_dict({"rl.objective": "gspo", "rl.eps_low": 5e-4,
                                         "rl.eps_high": 6e-4}).clip_config()
    assert (narrow.eps_low, narrow.eps_high, narrow.beta) == (5e-4, 6e-4, 0.0)


def test_sps_and_family_mappings():
    cfg = ExperimentConfig.from_dict({"rl.group_size": 6, "sps.sampling_size": 2,
                                      "eval.prob_floor": 1e-3,
                                      "suite.count": 5, "suite.layer_width": 2})
    sps = cfg.sps_config()
    assert sps.group_size == 6
    assert sps.sampling_size == 2
    assert sps.trace_prob_floor == 1e-3
    assert sps.clip.objective_kind == "grpo"
    fam = cfg.family_params()
    assert fam.count == 5
    assert fam.layer_width == 2


# ---------------------------------------------------------------------------
# squeeze-demo and error handling


def test_squeeze_demo_reference_output(capsys):
    assert cli.main(["squeeze-demo"]) == 0
    out = capsys.readouterr().out
    assert "denominator 1 + p(m)(e^eta - 1) = 0.997179253" in out
    assert "scale factor Z/Z' = 1.002828726" in out
    assert out.count(": ok") == 5
    assert "FAILED" not in out


def test_squeeze_demo_rejects_non_squeeze_settings(capsys):
    assert cli.main(["squeeze-demo", "--eta", "0.5"]) == 1
    assert "error:" in capsys.readouterr().err
    assert cli.main(["squeeze-demo", "--eta", "nan"]) == 1
    assert capsys.readouterr().err == "error: eta must be finite, got nan\n"
    assert cli.main(["squeeze-demo", "--m", "9"]) == 2
    assert "config error:" in capsys.readouterr().err
    assert cli.main(["squeeze-demo", "--logits", "a,b"]) == 2
    assert "--logits" in capsys.readouterr().err


@pytest.mark.parametrize("lines,message", [
    ("squeeze.eta = 0.5\n", "eta must be negative, got 0.5"),
    ("squeeze.eta = nan\n", "eta must be finite, got nan"),
    ("squeeze.eta = -inf\n", "eta must be finite, got -inf"),
    ("squeeze.m = 0\n", "penalized token is the dominant one"),
    ("squeeze.logits = 1,1\nsqueeze.m = 1\n", "penalized token is the dominant one"),
])
def test_squeeze_demo_mode_checks_the_setting_before_out_dir(lines, message, tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(f"mode = squeeze-demo\nout_dir = {out_dir}\n" + lines, encoding="utf-8")
    assert cli.main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


def test_squeeze_demo_rejects_a_large_eta_before_the_update(capsys):
    # e^800 overflows; the setting is refused before the update computes it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["squeeze-demo", "--eta", "800"]) == 1
    assert capsys.readouterr().err == "error: eta must be negative, got 800.0\n"


def test_run_with_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grop_size = 8\n", encoding="utf-8")
    assert cli.main(["run", str(cfg)]) == 2
    assert "grop_size" in capsys.readouterr().err


@pytest.mark.parametrize("lines,message", [
    ("mode = eval\n", "eval.checkpoint and eval.suite_path are required in eval mode"),
    ("mode = eval\neval.checkpoint = ckpt.txt\n",
     "eval.checkpoint and eval.suite_path are required in eval mode"),
    ("mode = squeeze-demo\nsqueeze.m = 4\n", "squeeze.m: index 4 out of range for 4 logits"),
    ("mode = squeeze-demo\nsqueeze.m = -1\n", "squeeze.m: index -1 out of range for 4 logits"),
])
def test_mode_config_errors_leave_no_out_dir(lines, message, tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = tmp_path / "mode.cfg"
    cfg.write_text(lines + f"out_dir = {out_dir}\n", encoding="utf-8")
    assert cli.main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out_dir.exists()


def test_eval_missing_checkpoint_exits_1(tmp_path, capsys):
    assert cli.main(["eval", str(tmp_path / "nope.txt"),
                     str(tmp_path / "suite.json")]) == 1
    assert "error:" in capsys.readouterr().err


# Malformed suite.json files, each with the error line it gives.
GOOD_ENTRY = ('{"prompt_id": 0, "label": 1, "nodes": 2, "edges": [[0, 1, 0]], "start": 0,'
              ' "max_len": 4}')
CORRUPT_SUITES = [
    (f'[{GOOD_ENTRY}, {{"prompt_id": 1}}]', "error: entry 1: missing key 'edges'"),
    ("[{", "error: not a JSON file: "),
    ('{"tasks": []}', "error: expected a JSON list of tasks, got dict"),
    (f'[{GOOD_ENTRY.replace("[[0, 1, 0]]", "[[0, 1, 7]]")}]',
     "error: entry 0: edge token 7 outside vocab of size 4"),
    (f'[{GOOD_ENTRY}, {GOOD_ENTRY.replace("0", "-2", 1)}]',
     "error: entry 1: prompt_id -2 is negative or repeats an earlier one"),
    (f'[{GOOD_ENTRY}, {GOOD_ENTRY}]',
     "error: entry 1: prompt_id 0 is negative or repeats an earlier one"),
    (f'[{GOOD_ENTRY}, {GOOD_ENTRY.replace("0", "1", 1).replace(": 4", ": 3")}]',
     "error: entry 1: max_len 3 is not the checkpoint's max_len 4"),
    # A well-formed suite whose prompt ids pass int64 at the checkpoint's
    # shape (vocab 4, max_len 4: 341 ids a prompt) fails when it is sampled.
    (f'[{GOOD_ENTRY.replace("0", str((1 << 63) // 341), 1)}]',
     f"error: prompts {(1 << 63) // 341}..{(1 << 63) // 341} at vocab=4 max_len=4 have "
     "prefix ids beyond 2**63"),
    # An empty list used to reach the sampler, which raised a ValueError.
    ("[]", "error: expected a non-empty JSON list of tasks"),
]


@pytest.mark.parametrize("text,message", CORRUPT_SUITES)
def test_eval_on_a_corrupt_suite_exits_1_without_a_traceback(text, message, training_runs,
                                                             tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(text, encoding="utf-8")
    checkpoint = training_runs[0] / "checkpoint_final.txt"
    assert cli.main(["eval", str(checkpoint), str(suite)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("flags,key", [
    (["--k", "0"], "eval.k"),
    (["--k", ","], "eval.k"),
    (["--n", "0", "--k", "1"], "eval.n"),
    (["--n", "1"], "eval.n"),
    (["--seed", "-1"], "seed"),
    (["--prob-floor", "-1"], "eval.prob_floor"),
    (["--prob-floor", "nan"], "eval.prob_floor"),
])
def test_eval_flags_obey_the_config_rules(flags, key, training_runs, capsys):
    run_dir = training_runs[0]
    argv = ["eval", str(run_dir / "checkpoint_final.txt"), str(run_dir / "suite.json")]
    assert cli.main(argv + flags) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")


def test_eval_flag_defaults_are_the_schema_defaults():
    args = cli.build_parser().parse_args(["eval", "checkpoint.txt", "suite.json"])
    assert (args.n, args.k, args.prob_floor, args.seed) == (
        config.SCHEMA["eval.n"][1], config.SCHEMA["eval.k"][1],
        config.SCHEMA["eval.prob_floor"][1], 0)


@pytest.mark.parametrize("size,max_len", [(5, 4), (4, 5), (4, 3)])
def test_eval_rejects_a_base_checkpoint_of_another_shape(size, max_len, training_runs, tmp_path,
                                                         capsys):
    run_dir = training_runs[0]
    base = tmp_path / "base.txt"
    policy.save_checkpoint(policy.PolicyTable(policy.Vocab(size), max_len), base)
    argv = ["eval", str(run_dir / "checkpoint_final.txt"), str(run_dir / "suite.json"),
            "--base", str(base)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: line 1: base checkpoint at vocab={size} max_len={max_len}, "
        "evaluated checkpoint at vocab=4 max_len=4\n")


def test_a_suite_of_another_max_len_stops_eval_mode_and_compare(training_runs, tmp_path, capsys):
    run_dir = training_runs[0]
    twin = tmp_path / "twin"
    shutil.copytree(run_dir, twin)
    suite = json.loads((twin / "suite.json").read_text())
    for entry in suite:
        entry["max_len"] = 3
    (twin / "suite.json").write_text(json.dumps(suite), encoding="utf-8")
    message = "error: entry 0: max_len 3 is not the checkpoint's max_len 4\n"
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(f"mode = eval\nout_dir = {tmp_path / 'eval'}\n"
                   f"eval.checkpoint = {twin / 'checkpoint_final.txt'}\n"
                   f"eval.suite_path = {twin / 'suite.json'}\n", encoding="utf-8")
    assert cli.main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err == message
    assert cli.main(["compare", str(run_dir), str(twin), "--out", str(tmp_path / "cmp")]) == 1
    assert capsys.readouterr().err == message
    assert not (tmp_path / "cmp").exists()


def test_squeeze_demo_flag_defaults_are_the_schema_defaults():
    args = cli.build_parser().parse_args(["squeeze-demo"])
    assert ([float(p) for p in args.logits.split(",")], args.m, args.eta) == (
        config.SCHEMA["squeeze.logits"][1], config.SCHEMA["squeeze.m"][1],
        config.SCHEMA["squeeze.eta"][1])


def test_eval_rejects_a_non_integer_k():
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "ckpt.txt", "suite.json", "--k", "1,a"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# training runs and their artifacts


def test_run_writes_complete_artifact_directory(training_runs):
    run_dir = training_runs[0]
    names = sorted(p.name for p in run_dir.iterdir())
    assert names == [
        "checkpoint_base.txt", "checkpoint_best.txt", "checkpoint_final.txt",
        "checkpoint_iter001.txt", "checkpoint_iter002.txt", "checkpoints.csv",
        "eval_report.json", "histogram.csv", "manifest.json", "steps.csv",
        "suite.json", "trace.jsonl",
    ]
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert len(manifest["run_id"]) == 12
    assert manifest["config"]["seed"] == 7
    assert "manifest.json" in manifest["artifacts"]
    assert set(manifest["timings"]) == {"setup", "train", "eval"}
    trace_lines = (run_dir / "trace.jsonl").read_text().splitlines()
    assert len(trace_lines) == 8  # 2 iterations x (2 RL + 2 IRL)
    phases = [json.loads(line)["phase"] for line in trace_lines]
    assert phases == ["RL", "RL", "IRL", "IRL"] * 2
    steps = (run_dir / "steps.csv").read_text().splitlines()
    assert steps[0].startswith("step,objective_kind")
    assert len(steps) == 5


def test_identical_runs_are_byte_identical(training_runs):
    run_a, run_b = training_runs
    for name in ("trace.jsonl", "eval_report.json", "steps.csv",
                 "checkpoints.csv", "checkpoint_final.txt", "suite.json",
                 "histogram.csv"):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name


def test_compare_run_against_its_twin(training_runs, capsys):
    run_a, run_b = training_runs
    assert cli.main(["compare", str(run_a), str(run_b)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "metric,run_a,run_b,delta"
    comparison = json.loads((run_a / "compare.json").read_text())
    assert comparison["delta"]
    assert all(v == 0.0 for v in comparison["delta"].values())
    csv_lines = (run_a / "compare.csv").read_text().splitlines()
    assert csv_lines[0] == "metric,run_a,run_b,delta"
    assert all(line.rsplit(",", 1)[1] == "0.0" for line in csv_lines[1:])


def test_best_checkpoint_tie_prefers_earliest(training_runs):
    run_dir = training_runs[0]
    twin = run_dir.parent / "tie_copy"
    if twin.exists():
        shutil.rmtree(twin)
    shutil.copytree(run_dir, twin)
    rows = (twin / "checkpoints.csv").read_text().splitlines()
    forced = [rows[0]] + [
        ",".join([line.split(",")[0], line.split(",")[1], "0.5"])
        for line in rows[1:]
    ]
    (twin / "checkpoints.csv").write_text("\n".join(forced) + "\n",
                                          encoding="utf-8")
    report = runner._best_checkpoint_report(str(twin))
    assert report["best_iter"] == 1
    assert report["best_checkpoint"] == "checkpoint_iter001.txt"


def test_compare_reports_eval_report_of_each_best_checkpoint(training_runs, tmp_path):
    run_a, run_b = training_runs
    comparison = runner.compare(str(run_a), str(run_b), str(tmp_path / "cmp"))
    for side, run_dir in (("run_a", run_a), ("run_b", run_b)):
        # compare picks the checkpoint the training run copied as its best.
        best = run_dir / comparison[side]["best_checkpoint"]
        assert best.read_bytes() == (run_dir / "checkpoint_best.txt").read_bytes()
        stored = json.loads((run_dir / "manifest.json").read_text())["config"]
        cfg = ExperimentConfig.from_dict({
            **stored, "eval.checkpoint": str(best), "eval.suite_path": str(run_dir / "suite.json"),
            "eval.base_checkpoint": str(run_dir / "checkpoint_base.txt")})
        report = runner.eval_report(cfg, stream=7300)
        assert comparison[side]["metrics"] == runner._flat_metrics(report)
        snapshot = policy.load_checkpoint(best)
        assert report == evaluation_report(
            snapshot, policy.load_checkpoint(run_dir / "checkpoint_base.txt"),
            tasks.load_suite(run_dir / "suite.json", 4, 4), stored["suite.name"],
            stored["eval.n"], stored["eval.k"], stored["eval.prob_floor"],
            policy.derive_rng(stored["seed"], 7300))


def test_eval_subcommand_round_trip(training_runs, tmp_path, capsys):
    run_dir = training_runs[0]
    out_file = tmp_path / "report.json"
    argv = ["eval", str(run_dir / "checkpoint_final.txt"),
            str(run_dir / "suite.json"), "--n", "8", "--k", "1,4",
            "--seed", "3", "--out", str(out_file)]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert out_file.read_text() == first
    report = json.loads(first)
    assert report["n"] == 8
    assert set(report["pass_at_k"]) == {"1", "4"}
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first


def test_env_seed_override(tmp_path, monkeypatch):
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(f"mode = squeeze-demo\nseed = 1\nout_dir = {tmp_path / 'out'}\n",
                   encoding="utf-8")
    monkeypatch.setenv("SQUEEZELAB_SEED", "99")
    manifest = runner.run(str(cfg))
    assert manifest.config["seed"] == 99
    payload = json.loads((tmp_path / "out" / "squeeze_report.json").read_text())
    assert all(c["passed"] for c in payload["checks"].values())
    monkeypatch.setenv("SQUEEZELAB_SEED", "not-a-number")
    with pytest.raises(ConfigError):
        runner.run(str(cfg))


def test_env_seed_override_obeys_the_seed_rule(tmp_path, monkeypatch, capsys):
    # A rejected override must leave an earlier run's out_dir as it was.
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    for name in ("checkpoint_iter001.txt", "checkpoint_best.txt", "suite.json.partial"):
        (out_dir / name).write_text(name, encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"suite.count = 2\nsps.max_iterations = 1\nout_dir = {out_dir}\n",
                   encoding="utf-8")
    before = {p.name: p.read_text() for p in out_dir.iterdir()}
    monkeypatch.setenv("SQUEEZELAB_SEED", "-1")
    assert cli.main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: seed: ")
    assert {p.name: p.read_text() for p in out_dir.iterdir()} == before


def test_training_modes_pin_the_objective(tmp_path):
    out_dir = tmp_path / "dapo_out"
    cfg = tmp_path / "dapo.cfg"
    cfg.write_text(
        "mode = dapo\n"
        "seed = 3\n"
        f"out_dir = {out_dir}\n"
        "suite.count = 2\n"
        "rl.steps_per_iteration = 1\n"
        "sps.max_iterations = 1\n"
        "rl.dapo_max_resamples = 2\n"
        "eval.n = 4\n"
        "eval.k = 1\n",
        encoding="utf-8")
    manifest = runner.run(str(cfg))
    assert manifest.config["rl.objective"] == "dapo"
    steps = (out_dir / "steps.csv").read_text().splitlines()
    assert all(line.split(",")[1] == "dapo" for line in steps[1:])


def test_dapo_run_records_steps_without_a_trainable_group(tmp_path):
    out_dir = tmp_path / "dapo_flat"
    cfg = tmp_path / "dapo_flat.cfg"
    cfg.write_text(
        "mode = dapo\n"
        "seed = 3\n"
        f"out_dir = {out_dir}\n"
        "suite.count = 1\n"
        "rl.group_size = 4\n"
        "rl.lr = 2.0\n",
        encoding="utf-8")
    runner.run(str(cfg))
    rows = [line.split(",") for line in (out_dir / "steps.csv").read_text().splitlines()[1:]]
    assert len(rows) == 32
    # With one prompt, a mean reward of 0 or 1 means its only group was
    # filtered out: the step is recorded with value 0 and nothing clipped.
    flat = [row for row in rows if float(row[5]) in (0.0, 1.0)]
    assert flat
    assert all(float(row[2]) == 0.0 and float(row[3]) == 0.0 for row in flat)


def test_rerun_ranks_only_the_checkpoints_it_wrote(tmp_path):
    out_dir = tmp_path / "rerun"
    common = ("mode = grpo\n"
              "seed = 5\n"
              f"out_dir = {out_dir}\n"
              "suite.count = 2\n"
              "rl.steps_per_iteration = 1\n"
              "sps.max_iterations = 3\n"
              "eval.n = 4\n"
              "eval.k = 1\n")
    out_dir.mkdir()
    (out_dir / "notes.txt").write_text("not an artifact\n", encoding="utf-8")
    for every in (1, 2):
        cfg = tmp_path / f"every{every}.cfg"
        cfg.write_text(common + f"sps.checkpoint_every = {every}\n", encoding="utf-8")
        manifest = runner.run(str(cfg))
    rows = (out_dir / "checkpoints.csv").read_text().splitlines()
    assert [row.split(",")[1] for row in rows[1:]] == ["checkpoint_iter002.txt"]
    assert "checkpoint_iter001.txt" not in manifest.artifacts
    assert "checkpoint_iter003.txt" not in manifest.artifacts
    assert not (out_dir / "checkpoint_iter001.txt").exists()
    assert not (out_dir / "checkpoint_iter003.txt").exists()
    assert (out_dir / "notes.txt").read_text(encoding="utf-8") == "not an artifact\n"


def test_default_run_trains_and_ranks_without_validate_or_reloading(tmp_path, monkeypatch):
    # Rewards come from the sampler's fused validator, and checkpoints are
    # ranked from the policies in memory, not from the files just written.
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    originals = {"validate": tasks.validate, "load_checkpoint": policy.load_checkpoint}
    for module in [m for key, m in sys.modules.items() if key.startswith("squeezelab")]:
        for name, original in originals.items():
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    monkeypatch.delenv("SQUEEZELAB_SEED", raising=False)
    cfg = ExperimentConfig.from_dict({"out_dir": str(tmp_path / "run")})
    runner.run(cfg)
    assert calls == []
    monkeypatch.undo()
    assert tasks.validate is originals["validate"]
    # The ranking is the exact mean mass of the checkpoint file's policy.
    rows = (tmp_path / "run" / "checkpoints.csv").read_text().splitlines()[1:]
    assert len(rows) == cfg["sps.max_iterations"]
    it, name, avg = rows[-1].split(",")
    suite = tasks.load_suite(str(tmp_path / "run" / "suite.json"), cfg["suite.vocab_size"],
                             cfg["suite.max_len"])
    snapshot = policy.load_checkpoint(str(tmp_path / "run" / name))
    masses = [rec.mass_on_correct for rec in support_coverage(snapshot, suite, 0.0)]
    assert repr(float(np.mean(masses))) == avg
    # The last checkpoint is the final policy, so its rank is the report's mass.
    report = json.loads((tmp_path / "run" / "eval_report.json").read_text())
    assert float(avg) == report["support"]["mass"]


@pytest.mark.parametrize("overrides", [
    # 8 iterations, each checkpointed: the final policy is the last checkpointed one.
    {},
    # Iterations 3 and 6 are checkpointed; the final policy is after iteration 8.
    {"sps.checkpoint_every": 3},
    # Stops after iteration 2, checkpointed.
    {"sps.convergence_epsilon": 10.0},
])
def test_final_checkpoint_holds_the_final_policy(overrides, tmp_path, monkeypatch):
    returned = []
    original_loop = runner.sps_loop

    def recording(*args, **kwargs):
        returned.append(original_loop(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(runner, "sps_loop", recording)
    monkeypatch.delenv("SQUEEZELAB_SEED", raising=False)
    out_dir = tmp_path / "run"
    runner.run(ExperimentConfig.from_dict({"out_dir": str(out_dir), **overrides}))
    (final, trace), = returned
    if "sps.convergence_epsilon" in overrides:
        assert [it for it, _, _ in trace.checkpoints] == [1, 2]
    reference_save_checkpoint(final, tmp_path / "fresh.txt")
    assert (out_dir / "checkpoint_final.txt").read_bytes() == (tmp_path / "fresh.txt").read_bytes()
    assert not list(out_dir.glob("*.partial"))


@pytest.mark.parametrize("seed,stop", [(3, 5), (101, 3)])
def test_the_stop_rule_reads_the_training_mass(seed, stop, tmp_path, monkeypatch):
    # The exact mass of the training tasks moves by 1e-4 to 5e-4 an iteration
    # at the default config, so an epsilon inside that range stops the run
    # partway, after the first iteration that moved it by less.
    monkeypatch.delenv("SQUEEZELAB_SEED", raising=False)
    epsilon = 3e-4

    def csv_and_trace(name, overrides):
        out_dir = tmp_path / name
        runner.run(ExperimentConfig.from_dict({"seed": seed, "out_dir": str(out_dir),
                                               **overrides}))
        csv_path = out_dir / "checkpoints.csv"
        records = [json.loads(line) for line in
                   (out_dir / "trace.jsonl").read_text().splitlines()]
        return csv_path.read_bytes() if csv_path.exists() else None, records

    full, _ = csv_and_trace("default", {})
    stopped, records = csv_and_trace("stopped", {"sps.convergence_epsilon": epsilon})
    # Stopping changes nothing before the stop: the rows are the default run's first ones.
    assert full.startswith(stopped)
    masses = [float(row.split(",")[2]) for row in stopped.decode().splitlines()[1:]]
    assert len(masses) == stop == max(r["iter"] for r in records) + 1
    moves = np.abs(np.diff(masses))
    assert moves[-1] < epsilon and (moves[:-1] >= epsilon).all()
    # With no checkpoint to rank, the rule still reads the mass and stops there.
    unranked, records = csv_and_trace("unranked", {"sps.convergence_epsilon": epsilon,
                                                   "sps.checkpoint_every": 0})
    assert unranked is None
    assert max(r["iter"] for r in records) + 1 == stop


def test_a_cut_copy_of_the_best_checkpoint_leaves_no_truncated_file(tmp_path, monkeypatch):
    def cut_copy(src, dst):
        with open(src, "rb") as a, open(dst, "wb") as b:
            b.write(a.read()[:10])
        raise OSError("no space left on device")

    monkeypatch.setattr(runner.shutil, "copyfile", cut_copy)
    monkeypatch.delenv("SQUEEZELAB_SEED", raising=False)
    out_dir = tmp_path / "run"
    with pytest.raises(OSError):
        runner.run(ExperimentConfig.from_dict({"out_dir": str(out_dir), **SMALL_RUN}))
    assert not (out_dir / "checkpoint_best.txt").exists()
    assert (out_dir / "checkpoint_best.txt.partial").stat().st_size == 10


def test_training_run_samples_only_for_its_evaluation_report(tmp_path, monkeypatch):
    # Ranking, the trace and the stop rule read exact masses; the
    # one sample_matrix call of a training run is the evaluation report's.
    callers = []
    original = metrics.sample_matrix

    def recording(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args, **kwargs)

    for module in [m for key, m in sys.modules.items() if key.startswith("squeezelab")]:
        if getattr(module, "sample_matrix", None) is original:
            monkeypatch.setattr(module, "sample_matrix", recording)
    monkeypatch.delenv("SQUEEZELAB_SEED", raising=False)
    cfg = ExperimentConfig.from_dict({
        "out_dir": str(tmp_path / "run"), "suite.count": 3, "sps.max_iterations": 2,
        "rl.steps_per_iteration": 2, "sps.trace_metrics": True,
        "sps.convergence_epsilon": 1e-9})
    runner.run(cfg)
    assert callers == ["evaluation_report"]
    records = [json.loads(line) for line in
               (tmp_path / "run" / "trace.jsonl").read_text().splitlines()]
    assert records and all(r["pass_at_k"] is not None for r in records)


def test_kl_ratio_overflow_is_a_named_error(tmp_path, capsys):
    # The reference's per-token ratio pi_ref/pi passes the exp range once
    # reused rollouts at this rate have driven the policy far from it.
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text("mode = grpo\n"
                   "seed = 489\n"
                   f"out_dir = {tmp_path / 'out'}\n"
                   "rl.reuse_rollouts = true\n"
                   "rl.lr = 200\n"
                   "rl.group_size = 3\n"
                   "suite.max_len = 3\n"
                   "suite.decoy_count = 0\n"
                   "suite.skew = 0\n"
                   "sps.trace_metrics = true\n"
                   "sps.checkpoint_every = 0\n"
                   "eval.k = 1\n"
                   "eval.prob_floor = 0\n", encoding="utf-8")
    assert cli.main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: KL ratio pi_ref/pi = exp(") and "Traceback" not in err


def test_a_suite_that_cannot_be_generated_leaves_earlier_files(tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    earlier = {name: f"{name} of an earlier run\n" for name in (
        "checkpoint_iter001.txt", "checkpoint_best.txt", "checkpoints.csv", "trace.jsonl.partial")}
    for name, text in earlier.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    cfg = tmp_path / "ungeneratable.cfg"
    cfg.write_text(f"out_dir = {out_dir}\nsuite.count = 1\nsuite.min_solutions = 100000\n",
                   encoding="utf-8")
    assert cli.main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: no valid task")
    assert {p.name: p.read_text(encoding="utf-8") for p in out_dir.iterdir()} == earlier


@pytest.mark.parametrize("inputs", ["no_checkpoint", "no_base", "ungeneratable"])
def test_a_run_that_fails_on_its_inputs_creates_no_out_dir(inputs, training_runs, tmp_path,
                                                            capsys):
    run_dir = training_runs[0]
    lines = {
        "no_checkpoint": (f"mode = eval\neval.checkpoint = {tmp_path / 'nope.txt'}\n"
                          f"eval.suite_path = {run_dir / 'suite.json'}\n"),
        "no_base": (f"mode = eval\neval.checkpoint = {run_dir / 'checkpoint_final.txt'}\n"
                    f"eval.suite_path = {run_dir / 'suite.json'}\n"
                    f"eval.base_checkpoint = {tmp_path / 'nope.txt'}\n"),
        "ungeneratable": "mode = grpo\nsuite.count = 1\nsuite.min_solutions = 100000\n",
    }[inputs]
    out_dir = tmp_path / "out"
    cfg = tmp_path / "inputs.cfg"
    cfg.write_text(lines + f"out_dir = {out_dir}\n", encoding="utf-8")
    assert cli.main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not out_dir.exists()


def _corrupt_manifest_text(path):
    text = path.read_text(encoding="utf-8")
    path.write_text(text[:len(text) // 2], encoding="utf-8")


def _corrupt_manifest_config(path):
    manifest = json.loads(path.read_text(encoding="utf-8"))
    del manifest["config"]["eval.n"]
    path.write_text(json.dumps(manifest), encoding="utf-8")


def _stored_value(key, value):
    """A corruption that stores value under key in the manifest's config."""
    def corrupt(path):
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["config"][key] = value
        path.write_text(json.dumps(manifest), encoding="utf-8")
    corrupt.__name__ = f"_stored_{key}"
    return corrupt


def _corrupt_csv_value(path):
    header, first, *rest = path.read_text(encoding="utf-8").splitlines()
    first = first.rsplit(",", 1)[0] + ",abc"
    path.write_text("\n".join([header, first, *rest]) + "\n", encoding="utf-8")


def _corrupt_csv_column(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("name,corrupt,message", [
    ("manifest.json", _corrupt_manifest_text, "manifest.json: not a run manifest: "),
    ("manifest.json", _corrupt_manifest_config, "manifest.json: config has no eval.n\n"),
    # The keys a re-evaluation reads obey the config rules.
    ("manifest.json", _stored_value("eval.n", "abc"), "manifest.json: config eval.n = 'abc': "),
    ("manifest.json", _stored_value("eval.k", [0]),
     "manifest.json: config eval.k = [0]: eval.k: every k must be >= 1\n"),
    ("manifest.json", _stored_value("seed", "x"), "manifest.json: config seed = 'x': "),
    ("manifest.json", _stored_value("eval.prob_floor", -1),
     "manifest.json: config eval.prob_floor = -1: eval.prob_floor: must be >= 0\n"),
    # Each value is checked against its key's type.
    ("manifest.json", _stored_value("eval.n", 2.5),
     "manifest.json: config eval.n = 2.5: eval.n: 2.5 is not a value of type int\n"),
    ("manifest.json", _stored_value("eval.k", [1, 2.5]),
     "manifest.json: config eval.k = [1, 2.5]: eval.k: [1, 2.5] is not a value of type "
     "int_list\n"),
    ("checkpoints.csv", _corrupt_csv_value,
     "checkpoints.csv, line 2: could not convert string to float: 'abc'\n"),
    ("checkpoints.csv", _corrupt_csv_column, "checkpoints.csv: no 'avg_at_k' column\n"),
])
def test_compare_on_a_corrupt_run_exits_1_without_a_traceback(name, corrupt, message,
                                                              training_runs, tmp_path, capsys):
    run_dir = tmp_path / "run"
    shutil.copytree(training_runs[0], run_dir)
    corrupt(run_dir / name)
    dest = tmp_path / "cmp"
    assert cli.main(["compare", str(training_runs[1]), str(run_dir), "--out", str(dest)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run_dir / message}") and err.count("\n") == 1
    assert "Traceback" not in err and not dest.exists()


def test_compare_ranks_the_final_checkpoint_of_a_run_without_checkpoints_csv(tmp_path, capsys):
    # With sps.checkpoint_every = 0 a run writes no per-iteration checkpoint,
    # so its manifest lists no checkpoints.csv: compare re-evaluates
    # checkpoint_final.txt, and reads no checkpoints.csv put there later.
    run_dir = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mode = sps\nseed = 7\nout_dir = {run_dir}\nsuite.count = 4\n"
                   "rl.steps_per_iteration = 2\nsps.max_iterations = 2\n"
                   "sps.irl_steps_per_iteration = 2\nsps.checkpoint_every = 0\n"
                   "eval.n = 8\neval.k = 1,4\n", encoding="utf-8")
    assert cli.main(["run", str(cfg)]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    assert "checkpoints.csv" not in manifest["artifacts"]
    assert not (run_dir / "checkpoints.csv").exists()
    final = runner.eval_report(ExperimentConfig({
        **manifest["config"], "eval.checkpoint": str(run_dir / "checkpoint_final.txt"),
        "eval.suite_path": str(run_dir / "suite.json"),
        "eval.base_checkpoint": str(run_dir / "checkpoint_base.txt")}), stream=7300)
    for stale in (False, True):
        if stale:
            (run_dir / "checkpoints.csv").write_text("iter,path\nx,y\n", encoding="utf-8")
        dest = tmp_path / f"cmp_{stale}"
        assert cli.main(["compare", str(run_dir), str(run_dir), "--out", str(dest)]) == 0
        comparison = json.loads((dest / "compare.json").read_text(encoding="utf-8"))
        assert comparison["run_a"]["best_checkpoint"] == "checkpoint_final.txt"
        assert comparison["run_a"]["metrics"] == runner._flat_metrics(final)
    capsys.readouterr()


def test_compare_on_a_run_that_lists_a_missing_checkpoints_csv_exits_1(training_runs, tmp_path,
                                                                       capsys):
    run_dir = tmp_path / "run"
    shutil.copytree(training_runs[0], run_dir)
    (run_dir / "checkpoints.csv").unlink()
    dest = tmp_path / "cmp"
    assert cli.main(["compare", str(run_dir), str(run_dir), "--out", str(dest)]) == 1
    assert capsys.readouterr().err == f"error: missing artifact: {run_dir / 'checkpoints.csv'}\n"
    assert not dest.exists()


class _CutFile:
    """A file whose first write stops after 10 characters, as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:10])
        raise OSError("no space left on device")


# The files a training run stages under .partial names and publishes when it completes.
STAGED_TRAINING_ARTIFACTS = ("suite.json", "trace.jsonl", "steps.csv", "checkpoints.csv",
                             "eval_report.json", "histogram.csv")


@pytest.mark.parametrize("name", ["manifest.json", "compare.json", "compare.csv", "report.json",
                                  "squeeze_report.json", *STAGED_TRAINING_ARTIFACTS])
def test_a_cut_write_leaves_the_earlier_file_whole(name, training_runs, tmp_path, monkeypatch,
                                                  capsys):
    dest = tmp_path / "out"
    dest.mkdir()
    earlier = dest / name
    earlier.write_text(f"{name} of an earlier run\n", encoding="utf-8")
    real_open = builtins.open

    def cutting_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        cut = "w" in mode and os.path.basename(os.fspath(file)) in (name, name + ".partial")
        return _CutFile(fh) if cut else fh

    monkeypatch.setattr(builtins, "open", cutting_open)
    monkeypatch.delenv("SQUEEZELAB_SEED", raising=False)
    run_dir = training_runs[0]
    if name in ("manifest.json", "squeeze_report.json"):
        with pytest.raises(OSError):
            runner.run(ExperimentConfig.from_dict({"mode": "squeeze-demo", "out_dir": str(dest)}))
    elif name in STAGED_TRAINING_ARTIFACTS:
        remove_stale = runner._remove_stale_artifacts

        def remove_stale_and_keep_earlier(out_dir):
            # A training run deletes an earlier checkpoints.csv before it
            # trains; the earlier file is the one in place after that.
            remove_stale(out_dir)
            with real_open(earlier, "w", encoding="utf-8") as fh:
                fh.write(f"{name} of an earlier run\n")

        monkeypatch.setattr(runner, "_remove_stale_artifacts", remove_stale_and_keep_earlier)
        with pytest.raises(OSError):
            runner.run(ExperimentConfig.from_dict({"out_dir": str(dest), **SMALL_RUN,
                                                   "eval.k": [1, 2]}))
        assert not (dest / "manifest.json").exists()
    elif name == "report.json":
        assert cli.main(["eval", str(run_dir / "checkpoint_final.txt"), str(run_dir / "suite.json"),
                         "--n", "4", "--k", "1", "--out", str(earlier)]) == 1
        assert capsys.readouterr().err == "error: no space left on device\n"
    else:
        with pytest.raises(OSError):
            runner.compare(str(run_dir), str(run_dir), str(dest))
    monkeypatch.undo()
    assert earlier.read_text(encoding="utf-8") == f"{name} of an earlier run\n"
    assert len((dest / (name + ".partial")).read_text(encoding="utf-8")) == 10


def test_compare_evaluates_a_run_with_itself_once(training_runs, tmp_path, monkeypatch):
    run_a, run_b = training_runs
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return evaluation_report(*args, **kwargs)

    monkeypatch.setattr(runner, "evaluation_report", counting)
    same = runner.compare(str(run_a), os.path.join(str(run_a), "."), str(tmp_path / "same"))
    assert len(calls) == 1
    twins = runner.compare(str(run_a), str(run_b), str(tmp_path / "twins"))
    assert len(calls) == 3
    assert same["run_a"]["metrics"] == same["run_b"]["metrics"] == twins["run_b"]["metrics"]
    assert all(v == 0.0 for v in same["delta"].values())
