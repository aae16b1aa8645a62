"""Command-line entry points: run, compare, eval, squeeze-demo."""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import runner
from .artifacts import json_text, write_whole
from .config import SCHEMA, ExperimentConfig
from .errors import ConfigError, SqueezeLabError


def int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squeezelab",
        description="Desk-scale RL squeezing experiments: training loops, "
                    "evaluation, and closed-form demos.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one configured experiment")
    run_p.add_argument("config", help="path to a key=value config file")

    cmp_p = sub.add_parser("compare", help="compare two finished runs")
    cmp_p.add_argument("run_a")
    cmp_p.add_argument("run_b")
    cmp_p.add_argument("--out", default=None, help="output directory (default: run_a)")

    eval_p = sub.add_parser("eval", help="evaluate a checkpoint on a suite")
    eval_p.add_argument("checkpoint")
    eval_p.add_argument("suite")
    eval_p.add_argument("--n", type=int, default=SCHEMA["eval.n"][1], help="samples per prompt")
    eval_p.add_argument("--k", type=int_list, default=SCHEMA["eval.k"][1],
                        help="comma-separated k values")
    eval_p.add_argument("--prob-floor", type=float, default=SCHEMA["eval.prob_floor"][1])
    eval_p.add_argument("--seed", type=int, default=0)
    eval_p.add_argument("--base", default=None,
                        help="base checkpoint for greedy drift (default: the checkpoint itself)")
    eval_p.add_argument("--out", default=None, help="write the JSON report here")

    sq_p = sub.add_parser("squeeze-demo",
                          help="show the closed-form effect of one negative logit update")
    sq_p.add_argument("--logits", default=",".join(map(str, SCHEMA["squeeze.logits"][1])),
                      help="comma-separated logit vector")
    sq_p.add_argument("--m", type=int, default=SCHEMA["squeeze.m"][1],
                      help="index of the penalized token")
    sq_p.add_argument("--eta", type=float, default=SCHEMA["squeeze.eta"][1],
                      help="logit increment (negative)")
    return parser


def _cmd_run(args) -> int:
    manifest = runner.run(args.config)
    print(f"run {manifest.run_id} complete: {len(manifest.artifacts)} artifacts "
          f"in {manifest.config['out_dir']}")
    return 0


def _cmd_compare(args) -> int:
    print(runner.compare_csv(runner.compare(args.run_a, args.run_b, args.out)), end="")
    return 0


def _cmd_eval(args) -> int:
    # The flags obey the rules of the config keys they stand for.
    cfg = ExperimentConfig.from_dict({
        "seed": args.seed, "eval.n": args.n, "eval.k": args.k, "eval.prob_floor": args.prob_floor,
        "eval.checkpoint": args.checkpoint, "eval.suite_path": args.suite,
        "eval.base_checkpoint": args.base or "", "suite.name": os.path.basename(args.suite)})
    text = json_text(runner.eval_report(cfg))
    print(text, end="")
    if args.out:
        write_whole(args.out, text)
    return 0


def _cmd_squeeze_demo(args) -> int:
    try:
        logits = np.asarray([float(p) for p in args.logits.split(",") if p.strip()])
    except ValueError:
        raise ConfigError(f"--logits: expected comma-separated numbers, got {args.logits!r}")
    if logits.size < 2:
        raise ConfigError("--logits: need at least two values")
    if not 0 <= args.m < logits.size:
        raise ConfigError(f"--m: index {args.m} out of range for {logits.size} logits")
    _, checks = runner.squeeze_demo(logits, args.m, args.eta)
    return 0 if all(c.passed for c in checks) else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "eval": _cmd_eval,
        "squeeze-demo": _cmd_squeeze_demo,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SqueezeLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
