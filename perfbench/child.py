"""Run one ghostpol command in a fresh process and record its timings.

Usage::

    python3 child.py SRC_DIR RECORD_JSON TRACE -- COMMAND --config FILE --out DIR

The command goes through ``ghostpol.cli.main`` exactly as the console
script does.  ``cli.load_config`` is wrapped so that the end of set-up
(package imported, config parsed) is known; the command body runs from
there until ``main`` returns.  Times are ``time.perf_counter`` readings,
which on Linux come from the system-wide monotonic clock, so the parent
can subtract its own spawn time from them.

From the start of ``main`` until the command returns, a profiling timer
interrupts the process every ``SAMPLE_PERIOD_S`` of CPU time and runs
one fixed ``calibration_pass``; its start and duration are recorded.
The parent uses them to take the passes' own time out of every interval
and to convert the rest into reference seconds (see ``run.Clock``), so
that a change in the host's speed while the command runs cancels.

With TRACE=1 the layer wrappers of ``tracer`` are installed before the
command runs.  A ``sweep`` also keeps the engine's response curves, so
that the parent can check them against a brute-force reference.

The record is written when ``main`` returns; the exit code is passed on.
"""

import os
import signal
import sys
import time

SAMPLE_PERIOD_S = 0.02


def calibration_pass() -> int:
    """A fixed piece of pure-Python work: integer arithmetic and a dict."""
    total = 0
    table = {}
    for k in range(4000):
        total += k * k
        table[k & 63] = total
    return total


def start_sampler() -> list:
    """Run ``calibration_pass`` every SAMPLE_PERIOD_S of CPU time.

    Returns the list that receives ``[start, duration]`` of each pass.
    """
    samples: list = []

    def sample(signum, frame):
        start = time.perf_counter()
        calibration_pass()
        samples.append([start, time.perf_counter() - start])

    signal.signal(signal.SIGPROF, sample)
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    return samples


def main() -> int:
    samples = start_sampler()
    src, record_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, src)
    from ghostpol import cli

    package_dir = os.path.dirname(os.path.abspath(cli.__file__))
    if os.path.dirname(package_dir) != os.path.abspath(src):
        print(f"ghostpol imported from {package_dir}, not from {src}",
              file=sys.stderr)
        return 1
    record: dict = {}
    tracer = None
    if trace:
        import tracer as tracer_module

        tracer = tracer_module.Tracer()
        tracer.install(cli)

    load_config = cli.load_config

    def timed_load_config(path):
        cfg = load_config(path)
        record["t_parsed"] = time.perf_counter()
        return cfg

    cli.load_config = timed_load_config

    curves = []
    if argv and argv[0] == "sweep":
        sweep_family = cli.ghost.sweep_family

        def kept_sweep_family(*args, **kwargs):
            curve = sweep_family(*args, **kwargs)
            curves.append(curve)
            return curve

        cli.ghost.sweep_family = kept_sweep_family

    rc = cli.main(argv)
    record["t_end"] = time.perf_counter()
    signal.setitimer(signal.ITIMER_PROF, 0, 0)

    import json

    record["rc"] = rc
    record["samples"] = samples
    record["curves"] = [
        {"family": c.family, "thetas": c.thetas.tolist(), "raw": c.raw.tolist()}
        for c in curves
    ]
    if tracer is not None:
        record["trace"] = tracer.dump()
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
