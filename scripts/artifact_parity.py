#!/usr/bin/env python3
"""Check that two source trees write byte-identical run artifacts.

    python3 scripts/artifact_parity.py PARENT_TREE TREE [--work DIR]

Each tree is a checkout of this repository (a directory holding `src/`). The
config matrix below runs once with PARENT_TREE/src on the import path and
once with TREE/src, in a fresh interpreter each, into the same scratch paths
(so paths recorded inside artifacts agree), one tree after the other. For
each config and seed it runs the training run, an eval-mode run of its final
checkpoint, `squeezelab eval --out` of the same checkpoint and `compare` of
the run with itself; the paired `sps` and `grpo` runs are also compared with
each other, and the `sps` run with the `ledger_deep` run (CROSS_SHAPE), whose
suite has another size and max_len, so one process re-evaluates two suites of
different shapes; each SQUEEZE_DEMOS setting runs in `squeeze-demo` mode. Then
every checkpoint the runs wrote is loaded and saved again as
`<name>.reloaded`, so the loader is compared too, and each reloaded file
must equal its source. Every file is hashed with sha256; a manifest.json is
hashed without its wall-clock timings. The script prints each file whose hash
differs or that only one tree wrote and, under a JSON, JSON-lines or CSV file
that both trees wrote, each key path or cell whose value differs; then the
distinct key paths and cell columns that differ anywhere. It exits 1 if any
file differs, 0 otherwise. It takes about half a minute per tree on a 2-vCPU
machine.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

SEEDS = (3, 101)

# name -> (config overrides of the training run, eval.n of the eval-mode run)
MATRIX = {
    "sps": ({"mode": "sps"}, 32),
    "grpo": ({"mode": "grpo"}, 32),
    "reuse_dapo": ({"mode": "dapo", "rl.reuse_rollouts": True, "rl.steps_per_iteration": 8,
                    "rl.dapo_max_resamples": 2, "rl.lr": 0.5}, 32),
    "ledger_deep": ({"mode": "sps", "sps.trace_metrics": True, "sps.max_iterations": 4,
                     "suite.count": 16, "suite.max_len": 5, "suite.mid_layers": 3}, 256),
    # Reused rollouts without resampling: each record keeps its degenerate
    # groups, which DAPO's filter, read once per record, drops at every step.
    "dapo_reuse_no_resample": ({"mode": "dapo", "rl.reuse_rollouts": True,
                                "rl.dapo_max_resamples": 0}, 32),
    "gspo": ({"mode": "gspo"}, 32),
    "grpo_kl_reuse": ({"mode": "grpo", "rl.beta": 0.05, "rl.reuse_rollouts": True}, 32),
    "dapo_one_prompt": ({"mode": "dapo", "suite.count": 1, "rl.group_size": 4,
                         "rl.lr": 2.0}, 32),
    "sps_full_suite": ({"mode": "sps", "sps.irl_scope": "full_suite",
                        "sps.irl_batch_size": 5}, 32),
    "sps_every_2": ({"mode": "sps", "sps.checkpoint_every": 2}, 32),
    # The last of 8 iterations is not checkpointed, so the final save starts
    # from iteration 6's rendering and prints every row changed since.
    "sps_every_3": ({"mode": "sps", "sps.checkpoint_every": 3}, 32),
    # A run that stops early: the training tasks' exact mass first moves by
    # less than epsilon after iteration 5 at seed 3 and after iteration 3 at
    # seed 101, so its checkpoints are the first 5 and 3 of the `sps` config's.
    "sps_converge": ({"mode": "sps", "sps.convergence_epsilon": 3e-4}, 32),
    # A traced run without IRL that stops early: its checkpoint ranks and
    # stop rule read the masses of the last step's trace records. The mass
    # first moves by less than epsilon after iteration 4 at seed 3 (a
    # checkpoint) and after iteration 3 at seed 101 (between checkpoints).
    "grpo_traced_converge": ({"mode": "grpo", "sps.trace_metrics": True,
                              "sps.convergence_epsilon": 1.2e-3, "sps.checkpoint_every": 2}, 32),
    # A rate large enough that IRL line searches halve, so some prompts'
    # blocks retry while others have accepted their step.
    "sps_irl_halving": ({"mode": "sps", "sps.irl_lr": 20}, 32),
    # The same with one block: every prompt's demos share one line search in
    # full_suite scope, and at this rate some of its descents halve.
    "sps_full_suite_halving": ({"mode": "sps", "sps.irl_scope": "full_suite",
                                "sps.irl_lr": 200}, 32),
    # Demos from the step-0 groups only, with a quantile window narrow enough
    # that some prompts' selections take positive_augment demos.
    "sps_reuse_l2te": ({"mode": "sps", "rl.reuse_rollouts": True, "sps.quantile": 0.5,
                        "sps.min_negatives": 3}, 32),
    # SPS on DAPO: the L2TE candidates come from records gathered out of
    # DAPO's merged resamples, not from contiguous sampler batches.
    "sps_dapo_resample": ({"mode": "sps", "rl.objective": "dapo", "rl.dapo_max_resamples": 2}, 32),
    # Circular irl_batch_size slices of each prompt's demos in per_prompt scope.
    "sps_irl_batch": ({"mode": "sps", "sps.irl_batch_size": 2}, 32),
    # Every config above ranks L2TE candidates per token; this one by raw total.
    "sps_raw_total": ({"mode": "sps", "sps.l2te_raw_total": True}, 32),
    # Every config above runs at vocabulary size 4; prefix ids depend on it.
    "wide_vocab": ({"mode": "sps", "suite.vocab_size": 5}, 32),
    # Every config above samples groups of G <= 8; the per-token group sizes
    # and the advantage cache are checked at a wider group too.
    "grpo_wide_group": ({"mode": "grpo", "rl.group_size": 16}, 32),
    # Every config above runs GSPO only on fresh rollouts (ratios exactly 1)
    # and samples at most 4 tokens; reused rollouts clip some sequences, and
    # from 8 tokens on np.mean sums a sequence ratio's terms pairwise.
    "gspo_reuse_long": ({"mode": "gspo", "rl.reuse_rollouts": True, "suite.max_len": 9}, 32),
    # Every config above starts from a skewed base; a uniform one ties every
    # greedy choice at every depth, so the lowest-id tie rule shows in
    # steps.csv, trace.jsonl and the eval report.
    "uniform_base": ({"mode": "grpo", "suite.skew": 0}, 32),
    # Every config above keeps most greedy paths from one policy version to
    # the next, so greedy_decode_batch mostly checks the parent's paths; from
    # a uniform base at a large rate they move on most steps and it walks.
    "grpo_skew0": ({"mode": "grpo", "suite.skew": 0, "rl.lr": 0.5}, 32),
    # Every config above evaluates at most 256 samples per prompt; at 600 each
    # distinct sample stands for more samples, and weighs its pairs by more.
    "eval_600": ({"mode": "sps"}, 600),
    # Every config above numbers fewer prefix ids than a dense row index
    # covers; at max_len 10 two prompts' ids span 2.8M, past that cap, so
    # every array lookup of rows takes the dict.
    "wide_ids": ({"mode": "sps", "suite.count": 2, "suite.max_len": 10}, 32),
}
PAIRED = ("sps", "grpo")
CROSS_SHAPE = ("sps", "ledger_deep")
# name -> config overrides of a squeeze-demo run: the default setting, and one
# whose penalized token is neither the last nor the least likely.
SQUEEZE_DEMOS = {
    "squeeze_default": {},
    "squeeze_mid": {"squeeze.logits": "1.5,0.5,-1,0.25,-2", "squeeze.m": 3,
                    "squeeze.eta": -2.5},
}
MANIFEST = "manifest.json"


def _render(value) -> str:
    return ("true" if value else "false") if isinstance(value, bool) else str(value)


def _write_config(path: str, values: dict) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{key} = {_render(val)}\n" for key, val in values.items())
    return path


def run_matrix(work: str) -> None:
    """Run every config of MATRIX at every seed into `work` with the importable squeezelab."""
    from squeezelab import cli, runner

    for name, overrides in SQUEEZE_DEMOS.items():
        root = os.path.join(work, name)
        os.makedirs(root)
        runner.run(_write_config(os.path.join(root, "demo.cfg"), {
            "mode": "squeeze-demo", **overrides, "out_dir": os.path.join(root, "demo")}))
    for seed in SEEDS:
        for name, (overrides, eval_n) in MATRIX.items():
            root = os.path.join(work, str(seed), name)
            run_dir = os.path.join(root, "run")
            os.makedirs(root)
            runner.run(_write_config(os.path.join(root, "train.cfg"),
                                     {**overrides, "seed": seed, "out_dir": run_dir}))
            runner.run(_write_config(os.path.join(root, "eval.cfg"), {
                "mode": "eval", "seed": seed, "out_dir": os.path.join(root, "eval"),
                "eval.n": eval_n,
                "eval.checkpoint": os.path.join(run_dir, "checkpoint_final.txt"),
                "eval.base_checkpoint": os.path.join(run_dir, "checkpoint_base.txt"),
                "eval.suite_path": os.path.join(run_dir, "suite.json")}))
            argv = ["eval", os.path.join(run_dir, "checkpoint_final.txt"),
                    os.path.join(run_dir, "suite.json"), "--n", str(eval_n), "--seed", str(seed),
                    "--base", os.path.join(run_dir, "checkpoint_base.txt"),
                    "--out", os.path.join(root, "eval_out.json")]
            if cli.main(argv) != 0:
                sys.exit(f"squeezelab {' '.join(argv)}: failed")
            runner.compare(run_dir, run_dir, os.path.join(root, "compare"))
        for pair, dest in ((PAIRED, "paired_compare"), (CROSS_SHAPE, "cross_shape_compare")):
            runner.compare(*(os.path.join(work, str(seed), name, "run") for name in pair),
                           os.path.join(work, str(seed), dest))
    reload_checkpoints(work)


def reload_checkpoints(work: str) -> None:
    """Save every checkpoint under `work` again, as loaded, to <name>.reloaded;
    exit if a reloaded file differs from its source."""
    from squeezelab.policy import load_checkpoint, save_checkpoint

    paths = sorted(os.path.join(dirpath, name) for dirpath, _dirs, files in os.walk(work)
                   for name in files if name.startswith("checkpoint_") and name.endswith(".txt"))
    for path in paths:
        save_checkpoint(load_checkpoint(path), path + ".reloaded")
        with open(path, "rb") as source, open(path + ".reloaded", "rb") as reloaded:
            if source.read() != reloaded.read():
                sys.exit(f"{path}: saved again after a load, it differs from the file")


def _read(path: str) -> bytes:
    """A file's bytes; a manifest.json's without its timings."""
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == MANIFEST:
        manifest = json.loads(data)
        del manifest["timings"]
        data = json.dumps(manifest, indent=2).encode()
    return data


def digests(work: str) -> dict[str, str]:
    out = {}
    for dirpath, _dirs, files in os.walk(work):
        for name in files:
            if name.endswith(".cfg"):  # the script's own inputs
                continue
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, work)] = hashlib.sha256(_read(path)).hexdigest()
    return out


def _leaves(value, path: str = "") -> dict[str, object]:
    """Each leaf of a JSON value by its path of keys and [indices]."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        out = {}
        for key, item in items:
            step = f"[{key}]" if isinstance(value, list) else f"{'.' if path else ''}{key}"
            out.update(_leaves(item, path + step))
        return out
    return {path: value}


def cells(path: str) -> dict[str, object] | None:
    """A JSON or JSON-lines file's leaves, or a CSV file's cells named by their
    row's first cell and their column, by name; None for any other file."""
    text = _read(path).decode("utf-8")
    if path.endswith(".json"):
        return _leaves(json.loads(text))
    if path.endswith(".jsonl"):
        return _leaves([json.loads(line) for line in text.splitlines()])
    if path.endswith(".csv"):
        header, *rows = csv.reader(io.StringIO(text))
        return {f"line {i} ({row[0]}) {column}": cell for i, row in enumerate(rows, 2)
                for column, cell in zip(header, row)}
    return None


def cell_changes(parent_path: str, path: str) -> list[tuple[str, str]]:
    """(name, "parent -> change") for each key path or cell whose value differs."""
    before, after = cells(parent_path), cells(path)
    if before is None or after is None:
        return []
    return [(name, f"{before.get(name, '(none)')!r} -> {after.get(name, '(none)')!r}")
            for name in sorted(before.keys() | after.keys()) if before.get(name) != after.get(name)]


def run_tree(tree: str, work: str) -> dict[str, str]:
    """Run the matrix with tree/src in a fresh interpreter into work, which it
    leaves in place; return the digests."""
    src = os.path.abspath(os.path.join(tree, "src"))
    if not os.path.isdir(os.path.join(src, "squeezelab")):
        sys.exit(f"{tree}: no src/squeezelab package")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("SQUEEZELAB_SEED", None)
    check = ("import os, sys, squeezelab; "
             "sys.exit(not squeezelab.__file__.startswith(sys.argv[1] + os.sep))")
    if subprocess.run([sys.executable, "-c", check, src], env=env).returncode != 0:
        sys.exit(f"{tree}: squeezelab does not import from {src}")
    subprocess.run([sys.executable, os.path.abspath(__file__), "--run-matrix", work],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    return digests(work)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_tree", nargs="?")
    parser.add_argument("tree", nargs="?")
    parser.add_argument("--work", default=None,
                        help="scratch directory the runs write to (default: a new temp dir)")
    parser.add_argument("--run-matrix", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run_matrix:
        run_matrix(args.run_matrix)
        return 0
    if not (args.parent_tree and args.tree):
        parser.error("need PARENT_TREE and TREE")
    temp = None if args.work else tempfile.mkdtemp(prefix="artifact_parity_")
    work = os.path.join(args.work or temp, "runs")
    kept = os.path.join(args.work or temp, "parent_runs")
    try:
        parent = run_tree(args.parent_tree, work)
        shutil.rmtree(kept, ignore_errors=True)
        os.rename(work, kept)
        child = run_tree(args.tree, work)
        differ = sorted(name for name in parent.keys() | child.keys()
                        if parent.get(name) != child.get(name))
        moved = set()
        for name in differ:
            where = ("" if name in parent and name in child
                     else f" (only in {args.parent_tree if name in parent else args.tree})")
            print(f"differs: {name}{where}")
            if not where:
                for cell, change in cell_changes(os.path.join(kept, name),
                                                 os.path.join(work, name)):
                    print(f"    {cell}: {change}")
                    moved.add(cell.split(" ", 2)[2] if cell.startswith("line ") else cell)
    finally:
        for path in (work, kept, temp):
            if path:
                shutil.rmtree(path, ignore_errors=True)
    print(f"{len(parent.keys() | child.keys())} files compared ({MANIFEST} without timings); "
          f"{len(differ)} differ")
    if moved:
        print("key paths and cell columns that differ: " + ", ".join(sorted(moved)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
