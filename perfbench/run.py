"""Benchmark of the ghostpol command line, end to end and layer by layer.

Usage::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-spec

Run from the root of a source checkout (the package is imported from
``src/``).  One run repeats the workload's commands, each in a fresh
``python3`` child process started one at a time, until ``--seconds``
have passed, checks every output, and prints one summary line per
metric followed by a single JSON result line.

``--trace 0`` reports the end-to-end metrics: medians over the run's
iterations.  Times are given in reference seconds: each child process
runs a fixed calibration pass every 20 ms of its CPU time (``child.py``),
and ``Clock`` takes the passes out of every measured interval and scales
the rest by ``CALIBRATION_REF_S`` over the passes' mean duration within
that interval.  A reference second is thus a second on a host where one
pass takes ``CALIBRATION_REF_S``; on a host whose speed drifts while
it runs, as a shared virtual machine's does, most of the drift cancels.
The pass runs inside the measured process, so a program change that
slows all Python code in that process (a trace hook, say) would be
partly hidden; the unscaled times, kept in ``results.json`` and printed
as ``unscaled``, show it.

``--trace 1`` alternates an untraced iteration, a traced one and a
``python3 -X importtime`` import of the CLI, and reports the per-layer
metrics: medians over the traced iterations, with span times scaled as
above and import times unscaled.  The layer wrappers live in
``tracer.py``; the package itself is not changed.

Inputs are generated from the frozen copies of the shipped configs in
``inputs/``, with ``seed`` set from ``--seed`` (default: each config's
own seed).  Everything a run writes goes to ``.perfbench_work/`` in
the checkout: ``results.json`` holds the environment, every
iteration's numbers and the SHA-256 digest of every output file, and
an iteration's files are kept only when one of its checks failed.

``--write-spec`` regenerates ``BENCHMARK.json`` and ``MANIFEST.json``
(environment, workload sizes, and which end-to-end metric each layer
metric should move on which workload) from the tables below.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import yaml

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")

RUN_SECONDS = 35
CHILD_TIMEOUT_S = 100.0
# optimize-search runs the shipped optimize.yaml with restarts and
# max_evals both divided by this factor (8 -> 1, 12000 -> 1500), so that
# a run holds about ten iterations.  The one restart left is the shipped
# run's first: it starts from the config's settings with the shipped
# per-restart budget of 1500 evaluations, and the seed does not change it.
OPTIMIZE_BUDGET_FACTOR = 8
# Duration of one child.calibration_pass on the reference host.
CALIBRATION_REF_S = 0.0005
FINE_STEP_DEG = 0.25

WORKLOADS = {
    "shipped-cold": {
        "jobs": [("sweep", "three_projection"),
                 ("discriminate", "three_projection"),
                 ("discriminate", "two_projection_partial"),
                 ("tomo", "tomography")],
        "why": "four short commands on the shipped configs: import and config "
               "parsing dominate; the only workload running tomo/qstate and the "
               "2-axis partial-polarizer path",
    },
    "discriminate-fine": {
        "jobs": [("discriminate", "three_projection_fine")],
        "why": "three_projection at 0.25 deg: 720 orientations x 2 families x 8 "
               "runs x 3 projectors; discern, countsim and ghost dominate, "
               "optproj idle",
    },
    "optimize-search": {
        "jobs": [("optimize", "optimize_search")],
        "why": "shipped optimize.yaml with restarts and max_evals / 8: fixed "
               "samples, projectors rebuilt per evaluation; polcalc and the ghost "
               "engine dominate, countsim/discern idle",
    },
}

# name, unit, better, bound
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("command_s", "s", "lower", 0.24),
    ("wall_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

ALL = "shipped-cold, discriminate-fine, optimize-search"
IMPORTS = "all; most visibly shipped-cold (four processes per iteration)"
# name, unit, better, layer, end-to-end metrics it moves, on which workloads
PER_LAYER = [
    ("import.ghostpol_cli_s", "s", "lower", "import", "setup_s, wall_s", IMPORTS),
    ("import.scipy_stats_s", "s", "lower", "import", "setup_s, wall_s", IMPORTS),
    ("import.scipy_optimize_s", "s", "lower", "import", "setup_s, wall_s", IMPORTS),
    ("import.numpy_s", "s", "lower", "import", "setup_s, wall_s", IMPORTS),
    ("import.yaml_s", "s", "lower", "import", "setup_s, wall_s", IMPORTS),
    ("configio.load_config_s", "s", "lower", "configio", "setup_s", "shipped-cold"),
    ("polcalc.element_jones.calls", "count", "lower", "polcalc", "command_s",
     "optimize-search, discriminate-fine"),
    ("polcalc.compose.calls", "count", "lower", "polcalc", "command_s",
     "optimize-search, discriminate-fine"),
    ("polcalc.check_passive.calls", "count", "lower", "polcalc", "command_s",
     "optimize-search, discriminate-fine"),
    ("ghost.sweep_family_s", "s", "lower", "ghost", "command_s", "discriminate-fine"),
    ("ghost.response_points", "count", "lower", "ghost", "command_s",
     "discriminate-fine"),
    ("ghost.us_per_point", "us", "lower", "ghost", "command_s", "discriminate-fine"),
    ("ghost.coincidence_probability.calls", "count", "lower", "ghost", "command_s",
     "discriminate-fine, optimize-search"),
    ("ghost.heralded_idler.calls", "count", "lower", "ghost", "command_s",
     "none (no shipped config is conditional)"),
    ("countsim.simulate_runs_s", "s", "lower", "countsim", "command_s",
     "discriminate-fine"),
    ("countsim.cells", "count", "lower", "countsim", "command_s", "discriminate-fine"),
    ("countsim.us_per_cell", "us", "lower", "countsim", "command_s",
     "discriminate-fine"),
    ("countsim.correct_counts_s", "s", "lower", "countsim", "command_s",
     "discriminate-fine"),
    ("countsim.runset_to_csv_s", "s", "lower", "countsim", "command_s",
     "discriminate-fine"),
    ("countsim.csv_bytes", "B", "lower", "countsim", "command_s", "discriminate-fine"),
    ("discern.analyze_family_s", "s", "lower", "discern", "command_s",
     "discriminate-fine"),
    ("discern.analyze_families_s", "s", "lower", "discern", "command_s",
     "discriminate-fine"),
    ("discern.separable.calls", "count", "lower", "discern", "command_s",
     "discriminate-fine"),
    ("discern.us_per_pair", "us", "lower", "discern", "command_s", "discriminate-fine"),
    ("discern.summarize.calls", "count", "lower", "discern", "command_s",
     "discriminate-fine"),
    ("discern.kept", "count", "higher", "discern", "command_s", "discriminate-fine"),
    ("discern.pairs_per_kept", "ratio", "lower", "discern", "command_s",
     "discriminate-fine"),
    ("discern.report_to_csv_s", "s", "lower", "discern", "command_s",
     "discriminate-fine"),
    ("tomo.simulate_tomography_s", "s", "lower", "tomo", "command_s", "shipped-cold"),
    ("tomo.reconstruct_mle_s", "s", "lower", "tomo", "command_s", "shipped-cold"),
    ("tomo.mle_iterations", "count", "lower", "tomo", "command_s", "shipped-cold"),
    ("qstate.metrics_s", "s", "lower", "qstate", "command_s (guard: should not move)",
     "shipped-cold"),
    ("qstate.save_density_csv_s", "s", "lower", "qstate",
     "command_s (guard: should not move)", "shipped-cold"),
    ("optproj.optimize_s", "s", "lower", "optproj", "command_s", "optimize-search"),
    ("optproj.objective_evals", "count", "lower", "optproj", "command_s",
     "optimize-search"),
    ("optproj.us_per_eval", "us", "lower", "optproj", "command_s", "optimize-search"),
    ("optproj.response_points_s", "s", "lower", "optproj", "command_s",
     "optimize-search"),
    ("optproj.engine_share", "ratio", "lower", "optproj", "command_s",
     "optimize-search"),
    ("optproj.restarts", "count", "lower", "optproj", "command_s, optproj.best_objective",
     "optimize-search"),
    ("optproj.converged_ratio", "ratio", "higher", "optproj",
     "command_s, optproj.best_objective", "optimize-search"),
    ("optproj.best_objective", "1", "higher", "optproj",
     "none: the result itself, which must not drop", "optimize-search"),
    ("svgplot.curve_chart_s", "s", "lower", "svgplot", "command_s", "shipped-cold"),
    ("svgplot.region_panels_s", "s", "lower", "svgplot", "command_s",
     "discriminate-fine"),
    ("svgplot.svg_bytes", "B", "lower", "svgplot", "command_s", "discriminate-fine"),
    ("cli.self_s", "s", "lower", "cli", "command_s", ALL),
    ("cli.out_bytes", "B", "lower", "cli", "command_s", ALL),
    ("trace.overhead_s", "s", "lower", "trace", "none: traced minus untraced wall_s",
     ALL),
]

# Counter sanity: each must be non-zero on the listed workload, and the
# predicted zeros must read zero.  A wrapper that measures nothing fails.
EXPECT_NONZERO = {
    "shipped-cold": [
        "configio.load_config_s", "polcalc.element_jones.calls",
        "polcalc.compose.calls", "polcalc.check_passive.calls",
        "ghost.sweep_family_s", "ghost.coincidence_probability.calls",
        "countsim.cells", "countsim.csv_bytes", "discern.separable.calls",
        "discern.summarize.calls", "discern.kept", "tomo.simulate_tomography_s",
        "tomo.reconstruct_mle_s", "tomo.mle_iterations", "qstate.metrics_s",
        "qstate.save_density_csv_s", "svgplot.curve_chart_s",
        "svgplot.region_panels_s", "svgplot.svg_bytes", "cli.out_bytes",
    ],
    "discriminate-fine": [
        "configio.load_config_s", "polcalc.element_jones.calls",
        "polcalc.check_passive.calls", "ghost.sweep_family_s",
        "ghost.coincidence_probability.calls", "countsim.simulate_runs_s",
        "countsim.cells", "countsim.csv_bytes", "discern.analyze_family_s",
        "discern.separable.calls", "discern.summarize.calls", "discern.kept",
        "discern.report_to_csv_s", "svgplot.region_panels_s", "svgplot.svg_bytes",
        "cli.out_bytes",
    ],
    "optimize-search": [
        "configio.load_config_s", "polcalc.element_jones.calls",
        "polcalc.compose.calls", "polcalc.check_passive.calls",
        "ghost.coincidence_probability.calls", "optproj.optimize_s",
        "optproj.objective_evals", "optproj.response_points_s",
        "optproj.restarts", "optproj.best_objective", "cli.out_bytes",
    ],
}
EXPECT_ZERO = {
    "shipped-cold": ["ghost.heralded_idler.calls", "optproj.objective_evals"],
    "discriminate-fine": ["ghost.heralded_idler.calls", "optproj.objective_evals",
                          "tomo.mle_iterations"],
    "optimize-search": ["ghost.heralded_idler.calls", "countsim.cells",
                        "discern.separable.calls", "ghost.response_points"],
}

IMPORT_MODULES = {
    "import.ghostpol_cli_s": "ghostpol.cli",
    "import.scipy_stats_s": "scipy.stats",
    "import.scipy_optimize_s": "scipy.optimize",
    "import.numpy_s": "numpy",
    "import.yaml_s": "yaml",
}


# --- inputs ---------------------------------------------------------------

def _shipped(name: str) -> dict:
    with open(os.path.join(HERE, "inputs", f"{name}.yaml"), encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def make_config(name: str, seed: int | None) -> dict:
    """The generated config ``name``; ``seed`` None keeps the shipped seed."""
    if name == "three_projection_fine":
        cfg = _shipped("three_projection")
        for spec in cfg["samples"]:
            spec["thetas"] = {"start": 0, "stop": 180, "step": FINE_STEP_DEG}
    elif name == "optimize_search":
        cfg = _shipped("optimize")
        cfg["optimize"]["restarts"] //= OPTIMIZE_BUDGET_FACTOR
        cfg["optimize"]["max_evals"] //= OPTIMIZE_BUDGET_FACTOR
    else:
        cfg = _shipped(name)
    if seed is not None:
        cfg["seed"] = seed
    return cfg


def input_size(workload: str) -> dict:
    """Work of one iteration, known from its configs alone.

    Orientations swept (by sweep and discriminate), orientations
    discriminated, simulated count cells and optimizer evaluation budget:
    each restart scores its start point and gets ``max_evals // restarts``
    simplex evaluations, as ``optproj.optimize`` splits it.
    """
    size = {"orientations": 0, "discriminated": 0, "count_cells": 0,
            "evaluation_budget": 0}
    for command, name in WORKLOADS[workload]["jobs"]:
        cfg = make_config(name, None)
        if command in ("sweep", "discriminate"):
            n = sum(checks.theta_grid(s.get("thetas")).size for s in cfg["samples"])
            size["orientations"] += n
            if command == "discriminate":
                size["discriminated"] += n
            if "counting" in cfg:
                size["count_cells"] += n * cfg.get("runs", 8) * len(cfg["projectors"])
        elif command == "optimize":
            opt = cfg["optimize"]
            restarts = opt["restarts"]
            size["evaluation_budget"] += restarts * (opt["max_evals"] // restarts + 1)
    return size


# --- one child process ----------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


class Clock:
    """Measured intervals of one child process, in reference seconds.

    ``samples`` are the ``[start, duration]`` pairs of the child's
    calibration passes.  An interval's passes are taken out of it, and
    the rest is scaled by ``CALIBRATION_REF_S`` over the mean duration
    of the passes that ran within it (of all the child's passes if none
    did, as in a short span).
    """

    def __init__(self, samples: list) -> None:
        self.starts = [start for start, _ in samples]
        self.prefix = [0.0]
        for _, duration in samples:
            self.prefix.append(self.prefix[-1] + duration)
        self.mean = self.prefix[-1] / len(samples)

    def _passes(self, a: float, b: float) -> tuple[int, float]:
        i, j = bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)
        return j - i, self.prefix[j] - self.prefix[i]

    def scale(self, a: float, b: float) -> float:
        n, busy = self._passes(a, b)
        return CALIBRATION_REF_S / (busy / n if n else self.mean)

    def net(self, a: float, b: float) -> float:
        """Seconds from ``a`` to ``b`` outside the calibration passes."""
        return b - a - self._passes(a, b)[1]

    def seconds(self, a: float, b: float, scale: float | None = None) -> float:
        return self.net(a, b) * (self.scale(a, b) if scale is None else scale)


def run_job(command: str, config_path: str, job_dir: str, trace: bool) -> dict:
    """Run one command in a fresh process; time it and collect its record."""
    os.makedirs(job_dir)
    out_dir = os.path.join(job_dir, "out")
    record_path = os.path.join(job_dir, "record.json")
    argv = [sys.executable, CHILD, SRC, record_path, "1" if trace else "0", "--",
            command, "--config", config_path, "--out", out_dir]
    with open(os.path.join(job_dir, "stdout.txt"), "wb") as out, \
            open(os.path.join(job_dir, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=job_dir)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "command": command,
        "rc": proc.returncode,
        "wall_s": end - start,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "out_dir": out_dir,
        "problems": [],
    }
    with open(os.path.join(job_dir, "stdout.txt"), encoding="utf-8",
              errors="replace") as fh:
        result["stdout"] = fh.read()
    if proc.returncode != 0:
        with open(os.path.join(job_dir, "stderr.txt"), encoding="utf-8",
                  errors="replace") as fh:
            tail = fh.read().strip().splitlines()[-1:]
        result["problems"].append(f"exit code {proc.returncode}: {' '.join(tail)}")
        return result
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    if not record["samples"]:
        result["problems"].append("the child recorded no calibration passes")
        return result
    clock = Clock(record["samples"])
    t_parsed, t_end = record["t_parsed"], record["t_end"]
    result["raw"] = {"setup_s": t_parsed - start, "command_s": t_end - t_parsed,
                     "wall_s": end - start}
    result["setup_s"] = clock.seconds(start, t_parsed)
    result["command_s"] = clock.seconds(t_parsed, t_end)
    result["wall_s"] = clock.seconds(start, end)
    result["setup_scale"] = clock.scale(start, t_parsed)
    result["command_scale"] = clock.scale(t_parsed, t_end)
    result["calibration_passes"] = len(record["samples"])
    result["clock"] = clock
    result["t_parsed"] = t_parsed
    result["curves"] = record["curves"]
    result["trace"] = record.get("trace")
    return result


def import_times() -> dict:
    """Cumulative import time of each IMPORT_MODULES entry, in seconds.

    A module is charged with every subtree of ``-X importtime`` output
    whose root is the module or one of its submodules and that is not
    already inside such a subtree.  ``scipy.stats`` needs this: it is
    loaded through scipy's lazy attribute hook and never gets a line of
    its own, only its submodules do.  The figures overlap (scipy.stats
    imports scipy.optimize), so they do not add up.
    """
    code = f"import sys; sys.path.insert(0, {SRC!r}); import ghostpol.cli"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          capture_output=True, text=True, env=child_env(),
                          timeout=CHILD_TIMEOUT_S, check=True)
    entries = []
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$", line)
        if match:
            entries.append((len(match.group(3)), match.group(4),
                            int(match.group(2)) * 1e-6))
    times = {}
    for key, module in IMPORT_MODULES.items():
        total = 0.0
        inside_depth = None
        # Children are printed before their parent, so walk backwards:
        # a matching line opens a subtree that covers the deeper lines
        # that follow it in reverse order.
        for depth, name, cumulative in reversed(entries):
            if inside_depth is not None and depth > inside_depth:
                continue
            inside_depth = None
            if name == module or name.startswith(module + "."):
                total += cumulative
                inside_depth = depth
        times[key] = total
    return times


# --- one iteration --------------------------------------------------------

class Run:
    def __init__(self, workload: str, seed: int | None, trace: bool) -> None:
        self.workload = workload
        label = "shipped" if seed is None else str(seed)
        self.dir = os.path.join(WORK, f"{workload}-seed{label}-trace{int(trace)}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.jobs = WORKLOADS[workload]["jobs"]
        self.configs = {}
        for _, name in self.jobs:
            cfg = make_config(name, seed)
            path = os.path.join(self.dir, f"{name}.yaml")
            with open(path, "w", encoding="utf-8") as fh:
                yaml.safe_dump(cfg, fh, sort_keys=False)
            self.configs[name] = (cfg, path)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, dict] = {}
        self.counter_problems: list[str] = []
        self.iterations: list[dict] = []
        self.count = 0

    def iteration(self, trace: bool) -> dict:
        """Run every job of the workload once; check and time each."""
        self.count += 1
        it_dir = os.path.join(self.dir, f"it{self.count:03d}")
        jobs = []
        for k, (command, name) in enumerate(self.jobs):
            cfg, path = self.configs[name]
            job = run_job(command, path, os.path.join(it_dir, f"{k}-{command}"), trace)
            job["config"] = name
            if not job["problems"]:
                try:
                    job["problems"] = checks.check_output(
                        command, cfg, job["out_dir"], job["stdout"], job["curves"])
                except Exception as exc:  # malformed output is a failed check
                    job["problems"] = [f"check raised {exc!r}"]
                digest = job["digests"] = checks.digests(job["out_dir"])
                job["out_bytes"] = sum(os.path.getsize(os.path.join(job["out_dir"], f))
                                       for f in digest)
                key = f"{command} {name}"
                first = self.digests.setdefault(key, digest)
                if digest != first:
                    changed = sorted(f for f in set(first) | set(digest)
                                     if first.get(f) != digest.get(f))
                    job["problems"].append(
                        f"output not byte-reproducible: {', '.join(changed)}")
            self.attempted += 1
            if job["problems"]:
                self.failed += 1
                self.problems += [f"it{self.count} {command} {name}: {p}"
                                  for p in job["problems"]]
            jobs.append(job)
        ok = all(not job["problems"] for job in jobs)
        summary = {"traced": trace, "ok": ok}
        if ok:
            summary.update(
                setup_s=sum(j["setup_s"] for j in jobs),
                command_s=sum(j["command_s"] for j in jobs),
                wall_s=sum(j["wall_s"] for j in jobs),
                peak_rss_mb=max(j["peak_rss_mb"] for j in jobs),
                raw={name: sum(j["raw"][name] for j in jobs)
                     for name in ("setup_s", "command_s", "wall_s")},
                calibration_passes=sum(j["calibration_passes"] for j in jobs),
            )
            if trace:
                split = summary["accounting"] = layer_accounting(jobs)
                summary["layers"] = layer_metrics(jobs, split)
                problems = sanity_problems(self.workload, summary["layers"], jobs)
                self.counter_problems += [f"it{self.count}: {p}" for p in problems]
        summary["digests"] = {f"{command} {name}": job.get("digests")
                              for job, (command, name) in zip(jobs, self.jobs)}
        self.iterations.append(summary)
        if ok:
            shutil.rmtree(it_dir, ignore_errors=True)
        return summary


def span_seconds(job: dict, start: float, end: float) -> float:
    """A span of ``job`` in reference seconds, at the scale of its phase."""
    scale = job["command_scale"] if start >= job["t_parsed"] else job["setup_scale"]
    return job["clock"].seconds(start, end, scale)


def layer_metrics(jobs: list[dict], split: dict) -> dict:
    """Per-layer numbers of one traced iteration, summed over its jobs.

    ``split`` is the iteration's ``layer_accounting``.
    """
    counts: dict[str, float] = {}
    values: dict[str, float] = {}
    for j in jobs:
        for k, v in j["trace"]["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in j["trace"]["values"].items():
            values[k] = values.get(k, 0) + v

    def secs(name: str) -> float:
        return sum(span_seconds(j, start, end) for j in jobs
                   for n, start, end, _ in j["trace"]["spans"] if n == name)

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    m = {}
    m["configio.load_config_s"] = secs("configio.load_config")
    for name in ("element_jones", "compose", "check_passive"):
        m[f"polcalc.{name}.calls"] = counts.get(f"polcalc.{name}", 0)
    m["ghost.sweep_family_s"] = secs("ghost.sweep_family")
    m["ghost.response_points"] = values.get("ghost.response_points", 0)
    m["ghost.us_per_point"] = ratio(m["ghost.sweep_family_s"],
                                    m["ghost.response_points"], 1e6)
    for name in ("coincidence_probability", "heralded_idler"):
        m[f"ghost.{name}.calls"] = counts.get(f"ghost.{name}", 0)
    m["countsim.simulate_runs_s"] = secs("countsim.simulate_runs")
    m["countsim.cells"] = values.get("countsim.cells", 0)
    m["countsim.us_per_cell"] = ratio(m["countsim.simulate_runs_s"],
                                      m["countsim.cells"], 1e6)
    m["countsim.correct_counts_s"] = secs("countsim.correct_counts")
    m["countsim.runset_to_csv_s"] = secs("countsim.runset_to_csv")
    m["countsim.csv_bytes"] = values.get("countsim.csv_bytes", 0)
    m["discern.analyze_family_s"] = secs("discern.analyze_family")
    m["discern.analyze_families_s"] = secs("discern.analyze_families")
    m["discern.separable.calls"] = counts.get("discern.separable", 0)
    m["discern.us_per_pair"] = ratio(
        m["discern.analyze_family_s"] + m["discern.analyze_families_s"],
        m["discern.separable.calls"], 1e6)
    m["discern.summarize.calls"] = counts.get("discern.summarize", 0)
    m["discern.kept"] = values.get("discern.kept", 0)
    m["discern.pairs_per_kept"] = ratio(m["discern.separable.calls"],
                                        m["discern.kept"])
    m["discern.report_to_csv_s"] = secs("discern.report_to_csv")
    m["tomo.simulate_tomography_s"] = secs("tomo.simulate_tomography")
    m["tomo.reconstruct_mle_s"] = secs("tomo.reconstruct_mle")
    m["tomo.mle_iterations"] = values.get("tomo.mle_iterations", 0)
    m["qstate.metrics_s"] = secs("qstate.metrics")
    m["qstate.save_density_csv_s"] = secs("qstate.save_density_csv")
    m["optproj.optimize_s"] = secs("optproj.optimize")
    m["optproj.objective_evals"] = counts.get("optproj.objective_evals", 0)
    m["optproj.us_per_eval"] = ratio(m["optproj.optimize_s"],
                                     m["optproj.objective_evals"], 1e6)
    m["optproj.response_points_s"] = secs("optproj.response_points")
    m["optproj.engine_share"] = ratio(m["optproj.response_points_s"],
                                      m["optproj.optimize_s"])
    m["optproj.restarts"] = values.get("optproj.restarts", 0)
    m["optproj.converged_ratio"] = ratio(values.get("optproj.restarts_converged", 0),
                                         m["optproj.restarts"])
    m["optproj.best_objective"] = values.get("optproj.best_objective", 0.0)
    m["svgplot.curve_chart_s"] = secs("svgplot.curve_chart")
    m["svgplot.region_panels_s"] = secs("svgplot.region_panels")
    m["svgplot.svg_bytes"] = values.get("svgplot.svg_bytes", 0)
    m["cli.self_s"] = split["cli"]
    m["cli.out_bytes"] = sum(j["out_bytes"] for j in jobs)
    return m


def layer_accounting(jobs: list[dict]) -> dict:
    """Command time split by layer: top-level spans, and the CLI's own rest.

    The layer of a span is the part of its name before the first dot.
    Spans that end before the config is parsed belong to set-up.
    """
    split: dict[str, float] = {"cli": 0.0}
    for j in jobs:
        covered = 0.0
        for name, start, end, parent in j["trace"]["spans"]:
            if parent is None and start >= j["t_parsed"]:
                layer = name.split(".")[0]
                seconds = span_seconds(j, start, end)
                split[layer] = split.get(layer, 0.0) + seconds
                covered += seconds
        split["cli"] += j["command_s"] - covered
    return split


def sanity_problems(workload: str, layers: dict, jobs: list[dict]) -> list[str]:
    """Counters that read zero where work happened, or work where none should.

    Where the work is known in advance (orientations swept, count cells,
    summaries, objective evaluations printed by optimize, restarts and
    the restarts that stopped under their budget in optimize's
    ``trace.csv``) the counter must equal it exactly.
    """
    problems = [f"{name} is 0 on {workload}" for name in EXPECT_NONZERO[workload]
                if not layers[name] > 0]
    problems += [f"{name} is {layers[name]} on {workload}, predicted 0"
                 for name in EXPECT_ZERO[workload] if layers[name] != 0]
    size = input_size(workload)
    predicted = {"ghost.response_points": size["orientations"],
                 "countsim.cells": size["count_cells"],
                 "discern.summarize.calls": size["discriminated"]}
    printed = [checks.OBJECTIVE_LINE.search(j["stdout"]) for j in jobs
               if j["command"] == "optimize"]
    predicted["optproj.objective_evals"] = sum(int(m.group(2)) for m in printed if m)
    restarts = converged = 0
    for j in jobs:
        if j["command"] == "optimize":
            opt = make_config(j["config"], None)["optimize"]
            per_start = max(1, opt["max_evals"] // opt["restarts"])
            with open(os.path.join(j["out_dir"], "trace.csv"), encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            restarts += len(rows)
            converged += sum(int(row["n_evals"]) < per_start for row in rows)
    predicted["optproj.restarts"] = restarts
    predicted["optproj.converged_ratio"] = converged / restarts if restarts else 0.0
    for name, value in predicted.items():
        if layers[name] != value:
            problems.append(f"{name} is {layers[name]}, predicted {value}")
    return problems


# --- a whole run ----------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment() -> dict:
    versions = {}
    for dist in ("numpy", "scipy", "PyYAML"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def warm_up() -> None:
    """Import the CLI once, so that bytecode caches exist before timing."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import ghostpol.cli"
    subprocess.run([sys.executable, "-c", code], env=child_env(),
                   timeout=CHILD_TIMEOUT_S, check=True)


def measure(workload: str, seed: int | None, seconds: float, trace: bool) -> tuple:
    """Repeat the workload for ``seconds``; return the run and its metrics.

    Another pass starts only while the run can still expect to finish
    it within half a pass of the deadline.
    """
    run = Run(workload, seed, trace)
    warm_up()
    imports = []
    start = time.perf_counter()
    passes = 0
    while True:
        run.iteration(False)
        if trace:
            run.iteration(True)
            imports.append(import_times())
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / passes > seconds:
            break
    plain = [it for it in run.iterations if it["ok"] and not it["traced"]]
    traced = [it for it in run.iterations if it["ok"] and it["traced"]]
    values: dict[str, float] = {}
    if not trace and plain:
        values = {name: statistics.median(it[name] for it in plain)
                  for name, *_ in END_TO_END}
    elif trace and plain and traced:
        values = {name: statistics.median(it["layers"][name] for it in traced)
                  for name in traced[0]["layers"]}
        for key in IMPORT_MODULES:
            values[key] = statistics.median(i[key] for i in imports)
        # Each pass runs an untraced iteration and then a traced one; the
        # difference within a pass is taken before the median, so that a
        # change in host speed between passes cancels.
        diffs = [t["wall_s"] - u["wall_s"]
                 for u, t in zip(run.iterations[0::2], run.iterations[1::2])
                 if u["ok"] and t["ok"]]
        if diffs:
            values["trace.overhead_s"] = statistics.median(diffs)
    return run, values, time.perf_counter() - start, imports


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of every generated config (default: shipped)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="regenerate BENCHMARK.json and MANIFEST.json")
    args = parser.parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "ghostpol", "cli.py")):
        print(f"no ghostpol source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    run, values, elapsed, imports = measure(args.workload, args.seed,
                                            args.seconds, trace)
    table = PER_LAYER if trace else END_TO_END
    units = {name: unit for name, unit, *_ in table}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name, *_ in table if name in values}
    problems = run.problems + run.counter_problems
    correct = not problems and len(metrics) == len(table)

    kind = "traced" if trace else "untraced"
    counted = [it for it in run.iterations if it["ok"] and it["traced"] == trace]
    print(f"workload {args.workload}, seed "
          f"{'shipped' if args.seed is None else args.seed}: {len(counted)} {kind} "
          f"iterations in {elapsed:.1f} s; {run.attempted} commands, "
          f"{run.failed} failed")
    for name, metric in metrics.items():
        line = f"  {name:38s} {metric['value']:14.6g} {metric['unit']}"
        if not trace:
            q1, _, q3 = quartiles([it[name] for it in counted])
            line += f"   (q1 {q1:.6g}, q3 {q3:.6g})"
        print(line)
    if not trace and counted:
        print("  unscaled: " + ", ".join(
            f"{name} {statistics.median(it['raw'][name] for it in counted):.6g} s"
            for name in ("setup_s", "command_s", "wall_s")))
    if trace and counted:
        split = counted[-1]["accounting"]
        total = sum(split.values())
        print("  command_s by layer (last traced iteration): " + ", ".join(
            f"{layer} {secs:.3f} s" for layer, secs in sorted(split.items())
        ) + f"; total {total:.3f} s")
    for problem in problems:
        print(f"  FAIL {problem}")

    results = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": trace,
        "environment": environment(),
        "input_size": input_size(args.workload),
        "elapsed_s": elapsed,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": problems,
        "metrics": metrics,
        "iterations": run.iterations,
        "imports": imports,
    }
    with open(os.path.join(run.dir, "results.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


# --- the spec -------------------------------------------------------------

def spec() -> dict:
    """BENCHMARK.json, generated from the tables above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w["why"]} for name, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, *_ in PER_LAYER],
    }


def manifest() -> dict:
    """What BENCHMARK.json has no room for: environment, sizes, mapping."""
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    workloads = {}
    for name, w in WORKLOADS.items():
        seeds = {cfg: make_config(cfg, None)["seed"] for _, cfg in w["jobs"]}
        workloads[name] = {
            "commands": [f"{c} {cfg}.yaml" for c, cfg in w["jobs"]],
            "default_seeds": seeds,
            "input_size": input_size(name),
            "why": w["why"],
        }
    workloads["optimize-search"]["budget_factor"] = OPTIMIZE_BUDGET_FACTOR
    return {
        "environment": {**environment(), "cpu_model": cpu},
        "workloads": workloads,
        "per_layer": [{"name": n, "layer": layer, "moves": moves, "workloads": where}
                      for n, _, _, layer, moves, where in PER_LAYER],
    }


def write_spec() -> None:
    for path, doc in ((os.path.join(ROOT, "BENCHMARK.json"), spec()),
                      (os.path.join(HERE, "MANIFEST.json"), manifest())):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
