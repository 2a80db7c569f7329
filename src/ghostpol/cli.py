"""Command line front end.

Exit codes: 0 on success, 2 on configuration errors, 1 on runtime
failures.  All randomized outputs are reproducible from the pair
(config file, seed).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import countsim, discern, ghost, polcalc, qstate, svgplot, tomo
from .configio import ConfigError, ExperimentConfig, load_config, settings_fragment
from .optproj import optimize


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
    return [ghost.sweep_family(cfg.state, spec.family, idler,
                               probe_elements=cfg.probe_elements,
                               thetas=spec.thetas, template=spec.template,
                               conditional=cfg.conditional)
            for spec in cfg.samples]


def _measure(cfg: ExperimentConfig, curves: list[ghost.ResponseCurve],
             ) -> list[tuple[countsim.RunSet, np.ndarray]]:
    """Simulated runs and their corrected counts, one pair per family."""
    measured = []
    for tag, curve in enumerate(curves):
        runs = countsim.simulate_runs(
            curve, cfg.counting, cfg.runs, cfg.seed, family_tag=tag
        )
        measured.append((runs, countsim.correct_counts(runs, cfg.counting)))
    return measured


def cmd_sweep(cfg: ExperimentConfig, out_dir: str) -> int:
    curves = _sweep_curves(cfg)
    bands_by_family: dict[str, np.ndarray] = {}
    if cfg.counting is not None:
        # Noisy mode: the curve becomes the mean corrected counts over
        # repeated runs and the CI band accompanies the plot.
        means = []
        for curve, (_, corrected) in zip(curves, _measure(cfg, curves)):
            means.append(ghost.ResponseCurve(curve.family, curve.thetas,
                                             corrected.mean(axis=0)))
            n = corrected.shape[0]
            if n >= 2:
                bands_by_family[curve.family] = (
                    corrected.std(axis=0, ddof=1) / np.sqrt(n) * discern.t975(n)
                )
        curves = means
    scale = ghost.dataset_scale(c.raw for c in curves)
    for curve in curves:
        ghost.curve_to_csv(curve, scale,
                           _out_path(out_dir, f"sweep_{curve.family}.csv"))
        band = bands_by_family.get(curve.family)
        svg = svgplot.curve_chart(
            curve.thetas,
            curve.raw / scale,
            [f"P{j + 1}" for j in range(curve.raw.shape[1])],
            f"{curve.family} response",
            bands=None if band is None else band / scale,
        )
        _write(out_dir, f"sweep_{curve.family}.svg", svg)
    return 0


def cmd_discriminate(cfg: ExperimentConfig, out_dir: str) -> int:
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
    scale = ghost.dataset_scale(c.mean(axis=0) for c in corrected)
    report = discern.analyze_families([
        discern.analyze_family(curve.family, curve.thetas, corr / scale)
        for curve, corr in zip(curves, corrected)])
    discern.report_to_csv(report, _out_path(out_dir, "report.csv"))
    summary = discern.summary_text(report)
    _write(out_dir, "summary.txt", summary)
    n_axes = corrected[0].shape[2]
    pairs = [(i, j) for i in range(n_axes) for j in range(i + 1, n_axes)]
    fams = [{"label": o.family, "centers": o.stats.mean,
             "semi_axes": o.regions.semi_axes, "kept": o.kept}
            for o in report.families]
    svg = svgplot.region_panels(
        fams, pairs, [f"P{k + 1}" for k in range(n_axes)],
        "response regions",
    )
    _write(out_dir, "regions.svg", svg)
    print(summary, end="")
    return 0


def cmd_tomo(cfg: ExperimentConfig, out_dir: str) -> int:
    spec = cfg.tomography
    if spec is not None and spec.records_csv is not None:
        try:
            records = tomo.records_from_csv(spec.records_csv)
        except OSError as exc:
            raise ConfigError(f"'tomography.records_csv': {exc}") from exc
    else:
        model = cfg.counting if spec is None else spec.model
        if model is None:
            raise ConfigError(
                "tomo needs a counting section or tomography.records_csv"
            )
        records = tomo.simulate_tomography(cfg.state, model, cfg.seed)
        tomo.records_to_csv(records, _out_path(out_dir, "records.csv"))
    result = tomo.reconstruct_mle(records)
    qstate.save_density_csv(result.rho, _out_path(out_dir, "rho.csv"))
    m = qstate.metrics(result.rho)
    lines = [
        f"concurrence: {m.concurrence:.6f}",
        f"linear_entropy: {m.linear_entropy:.6f}",
        f"fidelity_psi_plus: {m.fidelity:.6f}",
        f"purity: {m.purity:.6f}",
        f"log_likelihood: {result.log_likelihood:.6g}",
        f"iterations: {result.iterations}",
        f"converged: {result.converged}",
    ]
    _write(out_dir, "metrics.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def cmd_optimize(cfg: ExperimentConfig, out_dir: str) -> int:
    if cfg.optimize is None:
        raise ConfigError("an optimize section is required")
    if cfg.conditional:
        raise ConfigError("'conditional' is not supported by optimize, "
                          "which scores joint probabilities")
    result = optimize(replace(cfg.optimize, state=cfg.state, seed=cfg.seed))
    _write(out_dir, "best_params.yaml",
           settings_fragment(result.probe, result.projectors))
    lines = ["stage,restart,start_objective,final_objective,n_evals"]
    for row in result.trace:
        lines.append(
            f"{row['stage']},{row['restart']},{row['start_objective']:.9g},"
            f"{row['final_objective']:.9g},{row['n_evals']}"
        )
    _write(out_dir, "trace.csv", "\n".join(lines) + "\n")
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
    for name, help_text in (
        ("sweep", "response curves over an orientation grid"),
        ("discriminate", "confidence-region distinguishability analysis"),
        ("tomo", "simulate and reconstruct two-photon tomography"),
        ("optimize", "search for well-separating measurement settings"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "sweep": cmd_sweep,
        "discriminate": cmd_discriminate,
        "tomo": cmd_tomo,
        "optimize": cmd_optimize,
    }
    try:
        if args.command == "tomo":
            # Only the tomography fit needs scipy, and it imports it when
            # called; load it before the config, and for this command alone.
            import scipy.optimize  # noqa: F401
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("'--seed' must be >= 0")
            cfg.seed = args.seed
        return handlers[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
