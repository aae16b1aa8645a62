"""Flat key=value experiment configuration.

The format is deliberately plain: one `section.key = value` per line, `#`
comments, no nesting beyond the dotted section prefix. Every key is checked
against the schema below before anything runs, so a typo like `grop_size`
fails loudly with the offending key named instead of silently training with
a default. The values are also handed to the constructors that will consume
them (ClipConfig, SpsConfig, FamilyParams), so a value they reject is a
ConfigError at parse time too, with their field names replaced by the keys.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Any

from .errors import ConfigError
from .objectives import OBJECTIVE_KINDS, ClipConfig, DAPO, GRPO, GSPO
from .sps import SpsConfig
from .tasks import FamilyParams

MODES = ("grpo", "dapo", "gspo", "sps", "squeeze-demo", "eval")

_INT = "int"
_FLOAT = "float"
_STR = "str"
_BOOL = "bool"
_OPT_INT = "opt_int"
_OPT_FLOAT = "opt_float"
_INT_LIST = "int_list"
_FLOAT_LIST = "float_list"

# key -> (type tag, default)
SCHEMA: dict[str, tuple[str, Any]] = {
    "mode": (_STR, "sps"),
    "seed": (_INT, 1234),
    "out_dir": (_STR, "runs/out"),
    "suite.name": (_STR, "path-suite"),
    "suite.count": (_INT, 32),
    "suite.vocab_size": (_INT, 4),
    "suite.max_len": (_INT, 4),
    "suite.min_solutions": (_INT, 10),
    "suite.mid_layers": (_INT, 2),
    "suite.layer_width": (_INT, 3),
    "suite.edge_density": (_FLOAT, 0.95),
    "suite.decoy_count": (_INT, 1),
    "suite.skew": (_FLOAT, 4.0),
    "rl.objective": (_STR, GRPO),
    "rl.eps_low": (_OPT_FLOAT, None),
    "rl.eps_high": (_OPT_FLOAT, None),
    "rl.beta": (_OPT_FLOAT, None),
    "rl.lr": (_FLOAT, 0.05),
    "rl.group_size": (_INT, 8),
    "rl.steps_per_iteration": (_INT, 4),
    "rl.reuse_rollouts": (_BOOL, False),
    "rl.dapo_max_resamples": (_INT, 0),
    "sps.sampling_size": (_INT, 3),
    "sps.irl_steps_per_iteration": (_INT, 4),
    "sps.irl_lr": (_FLOAT, 0.005),
    "sps.irl_batch_size": (_OPT_INT, None),
    "sps.quantile": (_OPT_FLOAT, None),
    "sps.min_negatives": (_INT, 1),
    "sps.max_iterations": (_INT, 8),
    "sps.irl_scope": (_STR, "per_prompt"),
    "sps.l2te_raw_total": (_BOOL, False),
    "sps.convergence_epsilon": (_OPT_FLOAT, None),
    "sps.trace_metrics": (_BOOL, False),
    "sps.checkpoint_every": (_INT, 1),
    "eval.n": (_INT, 32),
    "eval.k": (_INT_LIST, [1, 4, 8]),
    "eval.prob_floor": (_FLOAT, 1e-4),
    "eval.checkpoint": (_STR, ""),
    "eval.suite_path": (_STR, ""),
    "eval.base_checkpoint": (_STR, ""),
    "squeeze.logits": (_FLOAT_LIST, [2.0, 1.0, 0.0, -3.0]),
    "squeeze.m": (_INT, 3),
    "squeeze.eta": (_FLOAT, -1.0),
}

# Constructor field -> the config key that sets it.
_SPS_KEYS = {
    "group_size": "rl.group_size",
    "sampling_size": "sps.sampling_size",
    "irl_steps_per_iteration": "sps.irl_steps_per_iteration",
    "irl_batch_size": "sps.irl_batch_size",
    "rl_steps_per_iteration": "rl.steps_per_iteration",
    "rl_lr": "rl.lr",
    "irl_lr": "sps.irl_lr",
    "quantile": "sps.quantile",
    "min_negatives_for_pure_l2te": "sps.min_negatives",
    "max_iterations": "sps.max_iterations",
    "l2te_raw_total": "sps.l2te_raw_total",
    "irl_scope": "sps.irl_scope",
    "dapo_max_resamples": "rl.dapo_max_resamples",
    "reuse_rollouts": "rl.reuse_rollouts",
    "convergence_epsilon": "sps.convergence_epsilon",
    "trace_metrics": "sps.trace_metrics",
    "trace_prob_floor": "eval.prob_floor",
    "checkpoint_every": "sps.checkpoint_every",
}
_FAMILY_KEYS = {field: f"suite.{field}" for field in (
    "count", "vocab_size", "max_len", "min_solutions", "mid_layers", "layer_width",
    "edge_density", "decoy_count")}
_FIELD_KEYS = {**_SPS_KEYS, **_FAMILY_KEYS,
               "eps_low": "rl.eps_low", "eps_high": "rl.eps_high", "beta": "rl.beta"}


def _parse_value(key: str, tag: str, raw: str):
    raw = raw.strip()
    try:
        if tag in (_OPT_INT, _OPT_FLOAT) and raw.lower() in ("none", ""):
            return None
        if tag in (_INT, _OPT_INT):
            return int(raw)
        if tag in (_FLOAT, _OPT_FLOAT):
            return float(raw)
        if tag == _BOOL:
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if tag == _INT_LIST:
            return [int(p) for p in raw.split(",") if p.strip()]
        if tag == _FLOAT_LIST:
            return [float(p) for p in raw.split(",") if p.strip()]
        return raw.strip("\"'")
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse value {raw!r} as {tag}") from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return _is_int(value) or isinstance(value, float)


# Type tag -> the test a value given as a Python object must pass. An int is
# a real and is kept as given; a bool is neither.
_TYPE_CHECKS = {
    _INT: _is_int,
    _FLOAT: _is_real,
    _STR: lambda value: isinstance(value, str),
    _BOOL: lambda value: isinstance(value, bool),
    _OPT_INT: lambda value: value is None or _is_int(value),
    _OPT_FLOAT: lambda value: value is None or _is_real(value),
    _INT_LIST: lambda value: isinstance(value, (list, tuple)) and all(map(_is_int, value)),
    _FLOAT_LIST: lambda value: isinstance(value, (list, tuple)) and all(map(_is_real, value)),
}


def parse_config_text(text: str) -> dict[str, Any]:
    """Parse key=value lines into a fully defaulted, validated mapping."""
    values = {key: default for key, (_, default) in SCHEMA.items()}
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        seen.add(key)
        values[key] = _parse_value(key, SCHEMA[key][0], raw)
    _validate(values)
    return values


def _validate(values: dict[str, Any]) -> None:
    if values["mode"] not in MODES:
        raise ConfigError(f"mode: must be one of {MODES}, got {values['mode']!r}")
    if values["rl.objective"] not in (GRPO, DAPO, GSPO):
        raise ConfigError(f"rl.objective: unknown objective {values['rl.objective']!r}")
    if values["seed"] < 0:
        raise ConfigError("seed: must be >= 0")
    if values["eval.n"] < 2:
        raise ConfigError("eval.n: must be >= 2, the similarity metric compares samples pairwise")
    if not values["eval.k"]:
        raise ConfigError("eval.k: need at least one k")
    if any(k < 1 for k in values["eval.k"]):
        raise ConfigError("eval.k: every k must be >= 1")
    if not values["eval.prob_floor"] >= 0:
        raise ConfigError("eval.prob_floor: must be >= 0")
    if not 0 <= values["suite.skew"] < math.inf:
        raise ConfigError("suite.skew: must be finite and >= 0")
    cfg = ExperimentConfig(values).with_mode_objective()
    try:
        cfg.sps_config()
        cfg.family_params()
    except ValueError as exc:
        raise ConfigError(re.sub(r"\w+", lambda m: _FIELD_KEYS.get(m[0], m[0]),
                                 str(exc))) from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration with every default materialized."""

    values: dict[str, Any]

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        return ExperimentConfig(parse_config_text(text))

    @staticmethod
    def from_dict(overrides: dict[str, Any] | None = None) -> "ExperimentConfig":
        """The config of Python values overrides, every other key at its default.

        Each value must be of its key's type tag, or it is a ConfigError
        naming the key: a bool is not an int, and an int serves a float key
        as it is given, so the config's text and run_id keep it.
        """
        values = {key: default for key, (_, default) in SCHEMA.items()}
        for key, val in (overrides or {}).items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            tag = SCHEMA[key][0]
            if not _TYPE_CHECKS[tag](val):
                raise ConfigError(f"{key}: {val!r} is not a value of type {tag}")
            values[key] = val
        _validate(values)
        return ExperimentConfig(values)

    def __getitem__(self, key: str):
        return self.values[key]

    def with_value(self, key: str, value) -> "ExperimentConfig":
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        updated = dict(self.values)
        updated[key] = value
        return ExperimentConfig(updated)

    def with_mode_objective(self) -> "ExperimentConfig":
        """This config with rl.objective set to the mode, in the grpo, dapo and gspo modes."""
        mode = self.values["mode"]
        if mode in OBJECTIVE_KINDS and self.values["rl.objective"] != mode:
            return self.with_value("rl.objective", mode)
        return self

    def clip_config(self) -> ClipConfig:
        """rl.objective's ClipConfig factory defaults with every clip key that is
        set in their place, so ClipConfig rejects a key its objective does not take."""
        kind = self.values["rl.objective"]
        clip = {field: self.values[f"rl.{field}"] for field in ("eps_low", "eps_high", "beta")}
        if kind == GRPO and clip["eps_high"] is None:
            clip["eps_high"] = clip["eps_low"]  # GRPO's factory takes one width for both ends.
        return replace(getattr(ClipConfig, kind)(),
                       **{field: value for field, value in clip.items() if value is not None})

    def sps_config(self) -> SpsConfig:
        return SpsConfig(clip=self.clip_config(),
                         **{field: self.values[key] for field, key in _SPS_KEYS.items()})

    def family_params(self) -> FamilyParams:
        return FamilyParams(**{field: self.values[key] for field, key in _FAMILY_KEYS.items()})

    def to_text(self) -> str:
        lines = []
        for key in SCHEMA:
            val = self.values[key]
            if val is None:
                rendered = "none"
            elif isinstance(val, bool):
                rendered = "true" if val else "false"
            elif isinstance(val, list):
                rendered = ",".join(str(p) for p in val)
            else:
                rendered = str(val)
            lines.append(f"{key} = {rendered}")
        return "\n".join(lines) + "\n"
