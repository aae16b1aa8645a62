#!/usr/bin/env python3
"""squeezelab benchmark: one closed-loop client driving the package in-process.

    python3 bench/run.py --workload paired_default --seed 1 --seconds 30 --trace 0

One process per workload runs one operation at a time, without threads. With
--trace 0 it prints the end-to-end metrics, measured with tracing off; with
--trace 1 it alternates untraced and traced operations and prints the
per-layer metrics. Every operation's outputs are checked after it finishes.
The last stdout line is a JSON object with the keys correct, attempted,
failed and metrics. See bench/README.md.
"""
import os

# Pin numeric libraries to one thread before numpy loads, and drop the
# variable that would silently replace every config seed.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SQUEEZELAB_SEED", None)

import argparse
import csv
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 11

# Workload -> (config overrides of each training run, eval.n of the eval-mode
# run, repeats of the eval-mode run and of the compare). An operation runs the
# training configs in order, then the eval-mode run on the first run's final
# checkpoint, then `compare` of the first and last run (a run with itself when
# there is one). Where those two calls take a tenth of a second, the host's
# jitter is as large as the call, so each is repeated and its fastest call
# kept; repeats rewrite the same artifacts, and the checks see them. Why each
# workload exists is in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "paired_default": (({"mode": "sps"}, {"mode": "grpo"}), 32, 3),
    "reuse_dapo": (({"mode": "dapo", "rl.reuse_rollouts": True,
                     "rl.steps_per_iteration": 8, "rl.dapo_max_resamples": 2,
                     "rl.lr": 0.5},), 32, 3),
    "ledger_deep": (({"mode": "sps", "sps.trace_metrics": True, "sps.max_iterations": 4,
                      "suite.count": 16, "suite.max_len": 5, "suite.mid_layers": 3},), 256, 1),
}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "run_cpu_s": "s", "compare_s": "s",
                    "eval_s": "s", "peak_rss_mb": "MB"}


# The host is shared: its speed changes by up to 2x from one few-second phase
# to the next, and every timing drifts with it. So a fixed reference loop,
# owned by the benchmark and independent of squeezelab, is timed before every
# timed call, and the times of an operation (or of the set-up) are scaled by
# REFERENCE_S over the median reference time measured during it. The times
# are seconds on a host that runs the reference loop in REFERENCE_S, about
# what a 2-vCPU Xeon VM takes.
REFERENCE_S = 0.015
_REFERENCE_MATRIX = np.linspace(-1.0, 1.0, 48 * 48).reshape(48, 48)


def reference_work():
    """Interpreter-bound and numpy-bound work of fixed size, like the package's."""
    total = 0
    for i in range(100_000):
        total += i * i % 7
    x = _REFERENCE_MATRIX
    for _ in range(600):
        # The offset keeps x away from zero, where subnormal floats would be slow.
        x = np.tanh(x @ _REFERENCE_MATRIX * 0.05 + _REFERENCE_MATRIX)
    return total, x


class ReferenceClock:
    """Times the reference loop between timed calls and scales times by it."""

    def __init__(self):
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.spent = 0.0

    def mark(self) -> int:
        return len(self.walls)

    def sample(self) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        reference_work()
        self.walls.append(time.perf_counter() - wall)
        self.cpus.append(time.process_time() - cpu)
        self.spent += self.walls[-1]

    def scales(self, since: int) -> tuple[float, float]:
        """Wall and CPU scale factors from the samples taken since mark() gave `since`."""
        return (REFERENCE_S / statistics.median(self.walls[since:]),
                REFERENCE_S / statistics.median(self.cpus[since:]))


def config_seed(seed: int, op_index: int) -> int:
    return seed * 1000 + op_index


def render(value) -> str:
    return ("true" if value else "false") if isinstance(value, bool) else str(value)


def write_config(path: str, values: dict) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{key} = {render(val)}\n" for key, val in values.items())
    return path


def purge_package() -> None:
    for name in [n for n in sys.modules if n == "squeezelab" or n.startswith("squeezelab.")]:
        del sys.modules[name]


def set_up(train: tuple, seed: int, clock: ReferenceClock):
    """Import squeezelab afresh, then build the first config's suite and base policy.

    Repeated SETUP_REPEATS times; returns the wall times and the last import.
    """
    walls = []
    for _ in range(SETUP_REPEATS):
        clock.sample()
        purge_package()
        start = time.perf_counter()
        lab = importlib.import_module("squeezelab")
        cfg = lab.ExperimentConfig.from_dict(dict(train[0], seed=seed))
        suite = lab.make_benchmark_suite(seed, cfg.family_params())
        lab.build_suite_policy(suite, cfg["suite.skew"], seed)
        walls.append(time.perf_counter() - start)
    return walls, lab


def prepare(work: str, train: tuple, eval_n: int, seed: int) -> tuple[list[str], str]:
    """Empty the work directory and write the operation's config files."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "config"))
    train_paths = [
        write_config(os.path.join(work, "config", f"train{i}.cfg"),
                     dict(overrides, seed=seed, out_dir=os.path.join(work, f"train{i}")))
        for i, overrides in enumerate(train)]
    first = os.path.join(work, "train0")
    eval_path = write_config(os.path.join(work, "config", "eval.cfg"), {
        "mode": "eval", "seed": seed, "out_dir": os.path.join(work, "eval"),
        "eval.n": eval_n,
        "eval.checkpoint": os.path.join(first, "checkpoint_final.txt"),
        "eval.base_checkpoint": os.path.join(first, "checkpoint_base.txt"),
        "eval.suite_path": os.path.join(first, "suite.json")})
    return train_paths, eval_path


def no_pause() -> None:
    pass


def best_wall(repeats: int, pause, fn, *args) -> float:
    """Fastest wall time of `repeats` calls of fn(*args), each after pause()."""
    walls = []
    for _ in range(repeats):
        pause()
        start = time.perf_counter()
        fn(*args)
        walls.append(time.perf_counter() - start)
    return min(walls)


def execute(lab, work: str, train_paths: list[str], eval_path: str,
            repeats: int = 1, pause=no_pause) -> dict:
    """One operation: the training runs, then the eval-mode run and the compare,
    each timed as the best of `repeats` calls. pause() runs, untimed, before
    every timed call."""
    train_wall, train_cpu = [], []
    for path in train_paths:
        pause()
        wall, cpu = time.perf_counter(), time.process_time()
        lab.runner.run(path)
        train_wall.append(time.perf_counter() - wall)
        train_cpu.append(time.process_time() - cpu)
    eval_s = best_wall(repeats, pause, lab.runner.run, eval_path)
    compare_s = best_wall(repeats, pause, lab.runner.compare, os.path.join(work, "train0"),
                          os.path.join(work, f"train{len(train_paths) - 1}"),
                          os.path.join(work, "compare"))
    return {"run_s": statistics.fmean(train_wall), "run_cpu_s": statistics.fmean(train_cpu),
            "eval_s": eval_s, "compare_s": compare_s}


def verify(lab, work: str, n_train: int, op_index: int, first_digests: dict | None):
    """All output checks of one operation; returns (problems, artifact digests)."""
    digests = checks.artifact_digests(work)
    problems = [] if first_digests is None else checks.digest_problems(first_digests, digests)
    with open(os.path.join(work, "train0", "suite.json"), "r", encoding="utf-8") as fh:
        prompt_count = len(json.load(fh))
    scratch = os.path.join(work, "roundtrip.txt")
    for i in range(n_train):
        run_dir = os.path.join(work, f"train{i}")
        problems += checks.roundtrip_problems(
            lab, os.path.join(run_dir, "checkpoint_final.txt"), scratch)
        problems += checks.report_problems(os.path.join(run_dir, "eval_report.json"),
                                           prompt_count)
    problems += checks.normalization_problems(
        lab, os.path.join(work, "train0", "checkpoint_final.txt"), op_index % prompt_count)
    problems += checks.report_problems(os.path.join(work, "eval", "eval_report.json"),
                                       prompt_count)
    return problems, digests


def mean_clipped_frac(work: str, n_train: int) -> float:
    values = []
    for i in range(n_train):
        with open(os.path.join(work, f"train{i}", "steps.csv"), "r", encoding="utf-8") as fh:
            values += [float(row["clipped_frac"]) for row in csv.DictReader(fh)]
    return statistics.fmean(values) if values else 0.0


class Session:
    """Runs, times and checks operations, and keeps their results."""

    def __init__(self, lab, workload: str, seed: int, work: str, clock: ReferenceClock):
        self.lab = lab
        self.train, self.eval_n, self.repeats = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.tracer = tracing.Tracer()
        self.clock = clock
        self.digests: dict[int, dict] = {}
        self.attempted = 0
        self.failures: list[dict] = []
        self.timings: list[dict] = []
        self.layers: list[dict] = []

    def attempt(self, op_index: int, traced: bool) -> dict | None:
        """Run, time and check one operation; a failed one is recorded, not raised."""
        op = self.attempted
        self.attempted += 1
        seed = config_seed(self.seed, op_index)
        try:
            paths = prepare(self.work, self.train, self.eval_n, seed)
            if traced:
                self.tracer.install()
                try:
                    start = time.perf_counter()
                    timings = self.tracer.run_operation(op, execute, self.lab, self.work, *paths,
                                                        self.repeats)
                    wall = time.perf_counter() - start
                finally:
                    self.tracer.uninstall()
            else:
                mark, spent, start = self.clock.mark(), self.clock.spent, time.perf_counter()
                timings = execute(self.lab, self.work, *paths, self.repeats,
                                  pause=self.clock.sample)
                wall = time.perf_counter() - start - (self.clock.spent - spent)
                timings["wall_scale"], timings["cpu_scale"] = self.clock.scales(mark)
            problems, digests = verify(self.lab, self.work, len(self.train), op_index,
                                       self.digests.get(seed))
            self.digests.setdefault(seed, digests)
            if traced:
                self.tracer.counts[op]["objectives.clipped_frac"] = mean_clipped_frac(
                    self.work, len(self.train))
                layer = tracing.summarize(self.tracer, op)
                if abs(layer["_self_total"] - layer["_wall"]) > 1e-6:
                    problems.append(f"self times sum to {layer['_self_total']!r} s, "
                                    f"operation wall is {layer['_wall']!r} s")
        except Exception as exc:  # a failed operation is reported, and the loop goes on
            traceback.print_exc(file=sys.stderr)
            problems = [f"{type(exc).__name__}: {exc}"]
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        if problems:
            self.failures.append({"op": op, "config_seed": seed, "traced": traced,
                                  "problems": problems})
            return None
        timings["wall"] = wall
        self.timings.append(dict(timings, op=op, config_seed=seed, traced=traced))
        if traced:
            self.layers.append(layer)
        return timings


def measure(session: Session, seconds: float, trace: bool) -> list:
    """Closed loop over config seeds for about `seconds`.

    Without tracing, config 0 runs twice, so every run checks that a repeat
    leaves byte-identical artifacts. With tracing, each unit is an untraced
    then a traced operation on one config, which is the repeat. A unit
    starts only if it is expected to end before seconds plus half a unit.
    """
    units, unit_walls = [], []
    start = time.perf_counter()
    while len(units) < (1 if trace else 2) or (
            time.perf_counter() - start + statistics.median(unit_walls) / 2 < seconds):
        unit_start = time.perf_counter()
        if trace:
            op_index = len(units)
            units.append((session.attempt(op_index, traced=False),
                          session.attempt(op_index, traced=True)))
        else:
            units.append(session.attempt(max(len(units) - 1, 0), traced=False))
        unit_walls.append(time.perf_counter() - unit_start)
    return units


def machine_info() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "os": f"{os.uname().sysname} {os.uname().release}",
            "python": platform.python_version(), "numpy": np.__version__}


def end_to_end(units: list, setup_walls: list[float], setup_scale: float) -> dict:
    """Medians over operations of the times scaled by their reference clock."""
    ops = [u for u in units if u is not None]
    out = {"setup_s": (statistics.median(setup_walls) * setup_scale, len(setup_walls))}
    if ops:
        for key in ("run_s", "run_cpu_s", "compare_s", "eval_s"):
            scale = "cpu_scale" if key == "run_cpu_s" else "wall_scale"
            out[key] = (statistics.median(op[key] * op[scale] for op in ops), len(ops))
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    return out


def per_layer(units: list, layers: list[dict]) -> dict:
    if not layers:
        return {}
    out = {name: (statistics.median(layer[name] for layer in layers), len(layers))
           for name in tracing.metric_units() if name != "trace_overhead_frac"}
    ratios = [traced["wall"] / plain["wall"] for plain, traced in units
              if plain is not None and traced is not None]
    if ratios:
        out["trace_overhead_frac"] = (statistics.median(ratios) - 1.0, len(ratios))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "squeezelab", "__init__.py")):
        print(f"error: squeezelab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)

    train = WORKLOADS[args.workload][0]
    clock = ReferenceClock()
    setup_walls, lab = set_up(train, config_seed(args.seed, 0), clock)
    setup_scale = clock.scales(0)[0]
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    session = Session(lab, args.workload, args.seed, work, clock)
    units = measure(session, args.seconds, bool(args.trace))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, units_of = per_layer(units, session.layers), tracing.metric_units()
        session.tracer.write(os.path.join(OUT, f"spans-{tag}.csv.gz"))
    else:
        metrics, units_of = end_to_end(units, setup_walls, setup_scale), END_TO_END_UNITS

    failed = len(session.failures)
    correct = failed == 0 and bool(metrics)
    machine = machine_info()
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "machine": machine, "attempted": session.attempted,
                   "reference_s": REFERENCE_S, "setup_walls": setup_walls,
                   "setup_scale": setup_scale,
                   "failures": session.failures, "operations": session.timings,
                   "metrics": {k: {"value": v, "unit": units_of[k], "samples": n}
                               for k, (v, n) in metrics.items()}}, fh, indent=2)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"{'metric':44s} {'value':>14s} {'unit':8s} samples")
    for name, (value, n) in metrics.items():
        print(f"{name:44s} {value:14.6g} {units_of[name]:8s} {n}")
    print(f"{'fail_frac':44s} {failed / session.attempted:14.6g} {'fraction':8s} "
          f"{session.attempted}")
    for failure in session.failures:
        print(f"FAILED op {failure['op']} config seed {failure['config_seed']}: "
              + "; ".join(failure["problems"]))
    print(json.dumps({"correct": correct, "attempted": session.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units_of[k]}
                                  for k, (v, n) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
