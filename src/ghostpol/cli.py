"""Command line front end.

Exit codes: 0 on success, 2 on configuration errors, 1 on runtime
failures.  All randomized outputs are reproducible from the pair
(config file, seed).  Importing this module registers ``gc.freeze`` to
run at interpreter exit, so that the collections of the exit skip the
objects the imports left behind; nothing changes before the exit.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys

import numpy as np

# configio loads these to parse; a command imports its other layers before ``_config``.
from . import countsim, ghost, polcalc
from .configio import ConfigError, ExperimentConfig, load_config, settings_fragment
from .optproj import optimize
from .textio import block

# Frozen, the 23,100-23,400 objects left at exit, most of them the imports',
# skip the exit's collections.
atexit.register(gc.freeze)


def _config(args: argparse.Namespace) -> ExperimentConfig:
    """The config that ``args`` names, its seed overridden by ``--seed``."""
    cfg = load_config(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("'--seed' must be >= 0")
        cfg.seed = args.seed
    return cfg


def _out_path(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _write(out_dir: str, name: str, text: str) -> None:
    with open(_out_path(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def _sweep_curves(cfg: ExperimentConfig) -> list[ghost.ResponseCurve]:
    if not cfg.samples:
        raise ConfigError("a samples section is required")
    if not cfg.projectors:
        raise ConfigError("a projectors section is required")
    idler = [polcalc.compose(chain) for chain in cfg.projectors]
    curves = []
    for spec in cfg.samples:
        try:
            curves.append(ghost.sweep_family(
                cfg.state, spec.family, idler, probe_elements=cfg.probe_elements,
                thetas=spec.thetas, template=spec.template, conditional=cfg.conditional))
        except ghost.UnheraldableError as exc:
            raise ConfigError(f"'conditional': family {spec.family} has zero herald "
                              f"probability at {spec.thetas[exc.row]:.6g} deg, so its "
                              "conditional response is undefined") from None
    return curves


def _measure(cfg: ExperimentConfig, curves: list[ghost.ResponseCurve],
             ) -> list[tuple[countsim.RunSet, np.ndarray]]:
    """Simulated runs and their corrected counts, one pair per family."""
    measured = []
    for tag, curve in enumerate(curves):
        try:
            runs = countsim.simulate_runs(curve, cfg.counting, cfg.runs, cfg.seed,
                                          family_tag=tag)
            measured.append((runs, countsim.correct_counts(runs, cfg.counting)))
        except ValueError as exc:
            raise ValueError(f"family {curve.family}: {exc}") from None
    return measured


def cmd_sweep(args: argparse.Namespace) -> int:
    from . import discern, svgplot
    cfg, out_dir = _config(args), args.out
    curves = _sweep_curves(cfg)
    bands = [None] * len(curves)
    if cfg.counting is not None:
        # Noisy mode: new curves of the mean corrected counts (the one run's
        # for runs: 1) and, from two runs on, their CI band in the plot.
        stats = [discern.run_stats(corr) if cfg.runs >= 2 else (corr[0], None, None)
                 for _, corr in _measure(cfg, curves)]
        curves = [ghost.ResponseCurve(curve.family, curve.thetas, mean)
                  for curve, (mean, _, _) in zip(curves, stats)]
        bands = [ci95 for _, _, ci95 in stats]
    else:  # Noiseless: new curves in which a response at or below ROUNDOFF is 0.
        curves = [ghost.ResponseCurve(c.family, c.thetas, np.where(
            c.raw <= ghost.ROUNDOFF, 0.0, c.raw)) for c in curves]
    scale = ghost.dataset_scale(c.raw for c in curves)
    for curve, band in zip(curves, bands):
        ghost.curve_to_csv(curve, scale,
                           _out_path(out_dir, f"sweep_{curve.family}.csv"))
        svg = svgplot.curve_chart(curve.thetas, curve.raw / scale,
                                  f"{curve.family} response",
                                  bands=None if band is None else band / scale)
        _write(out_dir, f"sweep_{curve.family}.svg", svg)
    return 0


def cmd_discriminate(args: argparse.Namespace) -> int:
    from . import discern, svgplot
    cfg, out_dir = _config(args), args.out
    if cfg.counting is None:
        raise ConfigError("discriminate needs a counting section")
    if cfg.runs < 2:
        raise ConfigError("discriminate needs runs >= 2")
    curves = _sweep_curves(cfg)
    corrected = []
    for curve, (runs, corr) in zip(curves, _measure(cfg, curves)):
        countsim.runset_to_csv(
            runs, corr, _out_path(out_dir, f"runs_{curve.family}.csv")
        )
        corrected.append(corr)
    scale = ghost.dataset_scale(discern.run_stats(c)[0] for c in corrected)
    report = discern.analyze_families([
        discern.analyze_family(curve.family, curve.thetas, corr / scale)
        for curve, corr in zip(curves, corrected)])
    discern.report_to_csv(report, _out_path(out_dir, "report.csv"))
    summary = discern.summary_text(report)
    _write(out_dir, "summary.txt", summary)
    _write(out_dir, "regions.svg", svgplot.region_panels(report.families))
    print(summary, end="")
    return 0


def cmd_tomo(args: argparse.Namespace) -> int:
    from . import qstate, tomo
    cfg, out_dir = _config(args), args.out
    path, model = cfg.records_csv, cfg.tomography_model
    if path is not None:
        try:
            records = tomo.records_from_csv(path)
        except OSError as exc:
            raise ConfigError(f"'tomography.records_csv': {exc}") from exc
    elif model is None:
        raise ConfigError("tomo needs a counting section or tomography.records_csv")
    else:
        records = tomo.simulate_tomography(cfg.state, model, cfg.seed)
        path = _out_path(out_dir, "records.csv")
        tomo.records_to_csv(records, path)
    try:
        result = tomo.reconstruct_mle(records)
    except ValueError as exc:  # Name the file that holds the records.
        raise ValueError(f"{path}: {exc}") from None
    qstate.save_density_csv(result.rho, _out_path(out_dir, "rho.csv"))
    text = ("concurrence: %.6f\nlinear_entropy: %.6f\nfidelity_psi_plus: %.6f\n"
            "purity: %.6f\nlog_likelihood: %.6g\niterations: %d\n"
            "gradient_norm: %.6g\nconverged: %s\n") % (
        *qstate.metrics(result.rho), result.log_likelihood, result.iterations,
        result.gradient_norm, result.converged)
    _write(out_dir, "metrics.txt", text)
    print(text, end="")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    cfg, out_dir = _config(args), args.out
    if cfg.optimize is None:
        raise ConfigError("an optimize section is required")
    if cfg.conditional:
        raise ConfigError("'conditional' is not supported by optimize, "
                          "which scores joint probabilities")
    result = optimize(cfg.optimize, cfg.state, cfg.seed)
    _write(out_dir, "best_params.yaml",
           settings_fragment(result.probe, result.projectors))
    header = "stage,restart,start_objective,final_objective,n_evals"
    _write(out_dir, "trace.csv", header + "\n" + block(
        "%s,%d,%.9g,%.9g,%d\n" * len(result.trace),
        [[row[key] for row in result.trace] for key in header.split(",")]))
    print(
        f"best objective {result.objective:.6g} after {result.n_evals} "
        f"evaluations (converged: {result.converged})"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghostpol",
        description="Simulate and analyze nonlocal polarimetric discrimination",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text in (
        ("sweep", cmd_sweep, "response curves over an orientation grid"),
        ("discriminate", cmd_discriminate,
         "confidence-region distinguishability analysis"),
        ("tomo", cmd_tomo, "simulate and reconstruct two-photon tomography"),
        ("optimize", cmd_optimize, "search for well-separating measurement settings"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
