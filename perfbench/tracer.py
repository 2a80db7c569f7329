"""Layer tracing for one ghostpol process, done from outside the package.

``Tracer.install`` replaces the public functions of each layer module
with wrappers, under the name each caller looks the function up by.
Module-level calls (``ghost.sweep_family``) and calls between functions
of one module both go through the module's namespace, so one
replacement covers them.  Names bound by ``from x import y`` are
separate bindings and are wrapped where they live:
``optproj.coincidence_probability``, ``optproj.minimize`` and
``cli.optimize``, ``cli.load_config``.

Coarse calls get a span ``[name, start, end, parent]``, where parent is
the index of the enclosing span or None.  The hot inner calls only
bump a counter, so that tracing a run costs little more than running
it.  Everything stays in memory until ``dump``.
"""

from __future__ import annotations

import os
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.values: dict[str, float] = {}
        self._stack: list[int] = []

    def add(self, key: str, amount: float) -> None:
        self.values[key] = self.values.get(key, 0) + amount

    def span(self, module, attr: str, name: str, measure=None) -> None:
        """Record a span for every call of ``module.attr``.

        ``measure(result, args, kwargs)`` runs after the span closes and
        may add work counts from the call's result.
        """
        fn = getattr(module, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if measure is not None:
                measure(result, args, kwargs)
            return result

        setattr(module, attr, wrapper)

    def count(self, module, attr: str, name: str) -> None:
        """Count the calls of ``module.attr`` without timing them."""
        fn = getattr(module, attr)
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(module, attr, wrapper)

    def install(self, cli) -> None:
        from ghostpol import (
            countsim, discern, ghost, optproj, polcalc, qstate, svgplot, tomo,
        )

        add = self.add

        def svg_size(result, args, kwargs):
            add("svgplot.svg_bytes", len(result.encode("utf-8")))

        def csv_size(result, args, kwargs):
            add("countsim.csv_bytes", os.path.getsize(args[2]))

        def restart(result, args, kwargs):
            add("optproj.restarts", 1)
            add("optproj.restarts_converged", 1 if result.success else 0)

        self.span(cli, "load_config", "configio.load_config")

        for attr in ("element_jones", "compose", "check_passive"):
            self.count(polcalc, attr, f"polcalc.{attr}")

        self.span(ghost, "sweep_family", "ghost.sweep_family",
                  lambda r, a, k: add("ghost.response_points", r.thetas.size))
        self.span(ghost, "curve_to_csv", "ghost.curve_to_csv")
        self.count(ghost, "coincidence_probability",
                   "ghost.coincidence_probability")
        self.count(optproj, "coincidence_probability",
                   "ghost.coincidence_probability")
        self.count(ghost, "heralded_idler", "ghost.heralded_idler")

        self.span(countsim, "simulate_runs", "countsim.simulate_runs",
                  lambda r, a, k: add("countsim.cells", r.counts.size))
        self.span(countsim, "correct_counts", "countsim.correct_counts")
        self.span(countsim, "runset_to_csv", "countsim.runset_to_csv",
                  csv_size)

        self.span(discern, "analyze_family", "discern.analyze_family")
        self.span(discern, "analyze_families", "discern.analyze_families",
                  lambda r, a, k: add("discern.kept",
                                      sum(len(o.kept) for o in r.families)))
        self.span(discern, "report_to_csv", "discern.report_to_csv")
        self.span(discern, "summary_text", "discern.summary_text")
        self.count(discern, "separable", "discern.separable")
        self.count(discern, "summarize", "discern.summarize")

        self.span(tomo, "simulate_tomography", "tomo.simulate_tomography")
        self.span(tomo, "reconstruct_mle", "tomo.reconstruct_mle",
                  lambda r, a, k: add("tomo.mle_iterations", r.iterations))
        self.span(tomo, "records_to_csv", "tomo.records_to_csv")
        self.span(qstate, "metrics", "qstate.metrics")
        self.span(qstate, "save_density_csv", "qstate.save_density_csv")

        self.span(cli, "optimize", "optproj.optimize",
                  lambda r, a, k: add("optproj.best_objective", r.objective))
        self.span(optproj, "response_points", "optproj.response_points")
        self.span(optproj, "minimize", "optproj.minimize", restart)
        self.count(optproj, "objective_min_separation",
                   "optproj.objective_evals")

        self.span(svgplot, "curve_chart", "svgplot.curve_chart", svg_size)
        self.span(svgplot, "region_panels", "svgplot.region_panels", svg_size)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts,
                "values": self.values}
