"""Checks of the files each ghostpol command writes.

The reference physics here is written out again with numpy alone and
does not import ghostpol, so a defect in the package cannot hide in
its own check.  Every check returns a list of problems; an empty list
means the output passed.

Tolerances follow the precision the writers print: 9 significant
digits in the sweep, report and trace CSVs, 12 in ``rho.csv`` and 6 in
the objective that ``optimize`` prints.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import re

import numpy as np
import yaml

ENGINE_TOL = 1e-12
SWEEP_SAMPLES = 8
SEMI_AXIS_FLOOR = 1e-12
# Fidelity of the reconstructed state to the Werner(p) state it was
# simulated from.  The shipped config (10^6 pairs/s, 1 s per
# projection) reaches about 0.9999; a reconstruction that lost the
# state's structure falls far below.
TOMO_FIDELITY_FLOOR = 0.999


# --- reference polarization calculus -------------------------------------

def element_jones(kind: str, angle_deg: float, extinction: float | None = None,
                  retardance_rad: float | None = None) -> np.ndarray:
    """Jones matrix R(t) J0 R(t)^T, axis measured from the vertical."""
    if kind == "ideal_polarizer":
        j0 = np.diag([0.0, 1.0]).astype(complex)
    elif kind == "partial_polarizer":
        j0 = np.diag([1.0 / math.sqrt(extinction), 1.0]).astype(complex)
    elif kind == "retarder":
        j0 = np.diag([np.exp(1j * retardance_rad), 1.0])
    else:
        raise ValueError(f"unknown element kind {kind!r}")
    t = math.radians(angle_deg)
    r = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    return r @ j0 @ r.T


def chain_jones(elements: list[dict]) -> np.ndarray:
    """Product of a chain given in traversal order."""
    total = np.eye(2, dtype=complex)
    for el in elements:
        total = element_jones(el["kind"], el["angle_deg"], el.get("extinction"),
                              el.get("retardance_rad")) @ total
    return total


def sample_jones(family: str, theta_deg: float) -> np.ndarray:
    if family == "LP":
        return element_jones("ideal_polarizer", theta_deg)
    if family == "QWP":
        return element_jones("retarder", theta_deg, retardance_rad=math.pi / 2)
    raise ValueError(f"no reference for sample family {family!r}")


def psi_plus() -> np.ndarray:
    vec = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    return np.outer(vec, vec).astype(complex)


def state_matrix(config: dict) -> np.ndarray:
    state = config.get("state", {"kind": "bell_psi_plus"})
    if state["kind"] == "bell_psi_plus":
        return psi_plus()
    if state["kind"] == "werner":
        p = float(state["p"])
        return p * psi_plus() + (1.0 - p) * np.eye(4) / 4.0
    raise ValueError(f"no reference for state kind {state['kind']!r}")


def coincidence(rho: np.ndarray, signal: np.ndarray, idler: np.ndarray) -> float:
    """Brute-force tr[(K (x) J) rho (K (x) J)^dagger]."""
    big = np.kron(signal, idler)
    return float(np.real(np.trace(big @ rho @ big.conj().T)))


def theta_grid(node) -> np.ndarray:
    if node is None:
        return np.arange(0.0, 180.0, 1.0)
    if isinstance(node, list):
        return np.array(node, dtype=float)
    return np.arange(float(node.get("start", 0.0)), float(node.get("stop", 180.0)),
                     float(node.get("step", 1.0)))


# --- file helpers ---------------------------------------------------------

def digests(out_dir: str) -> dict[str, str]:
    """SHA-256 of every file under ``out_dir``, keyed by relative path."""
    result = {}
    for base, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                result[os.path.relpath(path, out_dir)] = \
                    hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(result.items()))


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _missing(out_dir: str, names: list[str]) -> list[str]:
    return [f"{name} missing" for name in names
            if not os.path.isfile(os.path.join(out_dir, name))]


def _svg_ok(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if "<svg" not in text or not text.rstrip().endswith("</svg>"):
        return [f"{os.path.basename(path)} is not a complete SVG document"]
    return []


# --- per-command checks ---------------------------------------------------

def check_sweep(config: dict, out_dir: str, curves: list[dict]) -> list[str]:
    """Engine responses against brute force, and the CSV/SVG pair per family.

    ``curves`` holds the engine's full-precision responses
    (family, thetas, raw) as the command computed them.
    """
    samples = config["samples"]
    names = [f"sweep_{s['family']}.{ext}" for s in samples for ext in ("csv", "svg")]
    problems = _missing(out_dir, names)
    if problems:
        return problems
    if [c["family"] for c in curves] != [s["family"] for s in samples]:
        return ["engine responses not recorded for every family"]
    rho = state_matrix(config)
    probe = chain_jones(config["probe"]["elements"]) if "probe" in config \
        else np.eye(2, dtype=complex)
    idler = [chain_jones(p["elements"]) for p in config["projectors"]]
    tables = []
    for spec, curve in zip(samples, curves):
        thetas = theta_grid(spec.get("thetas"))
        raw = np.array(curve["raw"])
        if raw.shape != (thetas.size, len(idler)) or \
                not np.array_equal(np.array(curve["thetas"]), thetas):
            problems.append(f"{spec['family']}: response grid has shape "
                            f"{raw.shape}, expected {(thetas.size, len(idler))}")
            continue
        for t in np.unique(np.linspace(0, thetas.size - 1, SWEEP_SAMPLES).round()):
            t = int(t)
            signal = probe @ sample_jones(spec["family"], thetas[t])
            for j, proj in enumerate(idler):
                ref = coincidence(rho, signal, proj)
                if abs(raw[t, j] - ref) > ENGINE_TOL:
                    problems.append(
                        f"{spec['family']} at {thetas[t]:g} deg, projector "
                        f"{j + 1}: engine {raw[t, j]!r} vs brute force {ref!r}")
        rows = _read_csv(os.path.join(out_dir, f"sweep_{spec['family']}.csv"))
        table = np.array([[float(v) for v in row.values()] for row in rows])
        if table.shape != (thetas.size, 1 + 2 * len(idler)) or \
                np.max(np.abs(table[:, 0] - thetas)) > 1e-3:
            problems.append(f"sweep_{spec['family']}.csv has the wrong grid")
            continue
        tables.append((spec["family"], table))
        problems += _svg_ok(os.path.join(out_dir, f"sweep_{spec['family']}.svg"))
    if tables:
        n = len(idler)
        scale = max(float(np.max(t[:, 1 + n:])) for _, t in tables)
        for family, table in tables:
            if not np.all(np.isfinite(table)) or np.min(table[:, 1:]) < 0.0:
                problems.append(f"sweep_{family}.csv has invalid values")
            elif np.max(np.abs(table[:, 1:1 + n] - table[:, 1 + n:] / scale)) > 5e-9:
                problems.append(f"sweep_{family}.csv: normalized columns "
                                "are not raw / dataset maximum")
    return problems


def kept_pair_margins(rows: list[dict]) -> tuple[np.ndarray, list[tuple]]:
    """Separation margins of every pair of kept rows of a report.

    The margin is |d| - |a*u| - |b*u| for centers at distance d along
    unit vector u and semi-axes a, b: positive means the two confidence
    ellipsoids are strictly separated along their center line.
    """
    kept = [r for r in rows if r["kept"] == "1"]
    if not kept:
        return np.zeros(0), []
    n_axes = sum(1 for key in kept[0] if key.startswith("mean"))
    centers = np.array([[float(r[f"mean{k + 1}"]) for k in range(n_axes)] for r in kept])
    semi = np.array([[float(r[f"ci95_{k + 1}"]) for k in range(n_axes)] for r in kept])
    floor = SEMI_AXIS_FLOOR * np.maximum(1.0, np.max(np.abs(centers), axis=1))
    semi = np.maximum(semi, floor[:, None])
    i, j = np.triu_indices(len(kept), k=1)
    delta = centers[j] - centers[i]
    dist = np.linalg.norm(delta, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        u = delta / dist[:, None]
    margins = dist - np.linalg.norm(semi[i] * u, axis=1) \
        - np.linalg.norm(semi[j] * u, axis=1)
    margins = np.where(dist > 0.0, margins, -np.inf)
    labels = [((kept[a]["family"], kept[a]["theta_deg"]),
               (kept[b]["family"], kept[b]["theta_deg"])) for a, b in zip(i, j)]
    return margins, labels


def check_report(config: dict, report_path: str) -> list[str]:
    """Row count per family, kept/excluded flags and kept-pair separation."""
    rows = _read_csv(report_path)
    problems = []
    for spec in config["samples"]:
        n = sum(1 for r in rows if r["family"] == spec["family"])
        expected = theta_grid(spec.get("thetas")).size
        if n != expected:
            problems.append(f"report.csv has {n} {spec['family']} rows, "
                            f"expected {expected}")
    for r in rows:
        if r["kept"] == "1" and r["cross_excluded"] == "1":
            problems.append(f"{r['family']} at {r['theta_deg']} deg is both kept "
                            "and cross-excluded")
    if not any(r["kept"] == "1" for r in rows):
        problems.append("report.csv keeps no orientation")
        return problems
    margins, labels = kept_pair_margins(rows)
    bad = np.flatnonzero(~(margins > 0.0))
    for k in bad[:5]:
        problems.append(f"kept pair {labels[k]} is not strictly separable "
                        f"(margin {margins[k]:.3g})")
    if bad.size > 5:
        problems.append(f"... {bad.size} non-separable kept pairs in all")
    return problems


def check_discriminate(config: dict, out_dir: str, stdout: str) -> list[str]:
    families = [s["family"] for s in config["samples"]]
    problems = _missing(out_dir, ["report.csv", "summary.txt", "regions.svg"]
                        + [f"runs_{f}.csv" for f in families])
    if problems:
        return problems
    problems += check_report(config, os.path.join(out_dir, "report.csv"))
    rows = _read_csv(os.path.join(out_dir, "report.csv"))
    with open(os.path.join(out_dir, "summary.txt"), encoding="utf-8") as fh:
        summary = fh.read()
    if summary != stdout:
        problems.append("printed summary differs from summary.txt")
    n_proj = len(config["projectors"])
    for spec in config["samples"]:
        fam = spec["family"]
        kept = sum(1 for r in rows if r["family"] == fam and r["kept"] == "1")
        n_theta = theta_grid(spec.get("thetas")).size
        if f"family {fam}: kept {kept} of {n_theta} orientations" not in summary:
            problems.append(f"summary.txt disagrees with report.csv on {fam}")
        with open(os.path.join(out_dir, f"runs_{fam}.csv"), encoding="utf-8") as fh:
            n_rows = sum(1 for _ in fh) - 1
        if n_rows != config.get("runs", 8) * n_theta * n_proj:
            problems.append(f"runs_{fam}.csv has {n_rows} rows")
    problems += _svg_ok(os.path.join(out_dir, "regions.svg"))
    return problems


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def state_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    root = _psd_sqrt(rho)
    inner = root @ sigma @ root
    return float(np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None))) ** 2)


def read_density_csv(path: str) -> np.ndarray:
    rows = _read_csv(path)
    return np.array([[float(r[f"re{c}"]) + 1j * float(r[f"im{c}"]) for c in range(4)]
                     for r in rows])


def check_tomo(config: dict, out_dir: str, stdout: str) -> list[str]:
    problems = _missing(out_dir, ["records.csv", "rho.csv", "metrics.txt"])
    if problems:
        return problems
    if len(_read_csv(os.path.join(out_dir, "records.csv"))) != 16:
        problems.append("records.csv does not hold 16 projections")
    rho = read_density_csv(os.path.join(out_dir, "rho.csv"))
    if rho.shape != (4, 4):
        return problems + [f"rho.csv has shape {rho.shape}"]
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        problems.append("rho.csv is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        problems.append(f"rho.csv has trace {np.trace(rho).real!r}")
    lowest = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if lowest < -1e-10:
        problems.append(f"rho.csv has eigenvalue {lowest!r} < 0")
    fid = state_fidelity(0.5 * (rho + rho.conj().T), state_matrix(config))
    if not fid >= TOMO_FIDELITY_FLOOR:
        problems.append(f"fidelity to the simulated state {fid:.6f} "
                        f"< {TOMO_FIDELITY_FLOOR}")
    with open(os.path.join(out_dir, "metrics.txt"), encoding="utf-8") as fh:
        if fh.read().strip() != stdout.strip():
            problems.append("printed metrics differ from metrics.txt")
    return problems


OBJECTIVE_LINE = re.compile(
    r"best objective (\S+) after (\d+) evaluations \(converged: (True|False)\)")


def rescore(config: dict, params: dict) -> float:
    """Smallest pairwise distance of normalized response points."""
    rho = state_matrix(config)
    probe = chain_jones(params["probe"]["elements"]) if "probe" in params \
        else np.eye(2, dtype=complex)
    idler = [chain_jones(p["elements"]) for p in params["projectors"]]
    samples = config["optimize"]["samples"]
    signals = [probe @ sample_jones(s["family"], s["theta_deg"]) for s in samples]
    pts = np.array([[coincidence(rho, k, j) for j in idler] for k in signals])
    peak = float(np.max(pts))
    if peak <= 0.0:
        return 0.0
    pts = pts / peak
    return min(float(np.linalg.norm(pts[a] - pts[b]))
               for a in range(len(pts)) for b in range(a + 1, len(pts)))


def check_optimize(config: dict, out_dir: str, stdout: str) -> list[str]:
    """Re-score best_params.yaml; it must beat every start and match the print."""
    problems = _missing(out_dir, ["best_params.yaml", "trace.csv"])
    if problems:
        return problems
    match = OBJECTIVE_LINE.search(stdout)
    if match is None:
        return ["optimize printed no objective line"]
    printed, n_evals = float(match.group(1)), int(match.group(2))
    with open(os.path.join(out_dir, "best_params.yaml"), encoding="utf-8") as fh:
        params = yaml.safe_load(fh)
    score = rescore(config, params)
    if abs(score - printed) > 5e-6 * abs(printed) + 1e-12:
        problems.append(f"re-scored objective {score!r} != printed {printed!r}")
    rows = _read_csv(os.path.join(out_dir, "trace.csv"))
    if len(rows) != config["optimize"].get("restarts", 16):
        problems.append(f"trace.csv has {len(rows)} restarts")
    best = max(max(float(r["start_objective"]), float(r["final_objective"]))
               for r in rows)
    if abs(score - best) > 1e-8 * abs(best) + 1e-12:
        problems.append(f"re-scored objective {score!r} != best in trace.csv {best!r}")
    for r in rows:
        if score < float(r["start_objective"]) - 1e-8 * abs(score):
            problems.append(f"objective {score!r} below the start of restart "
                            f"{r['restart']}")
    if n_evals != len(rows) + sum(int(r["n_evals"]) for r in rows):
        problems.append(f"printed {n_evals} evaluations, trace.csv sums otherwise")
    return problems


def check_output(command: str, config: dict, out_dir: str, stdout: str,
                 curves: list[dict]) -> list[str]:
    if command == "sweep":
        return check_sweep(config, out_dir, curves)
    if command == "discriminate":
        return check_discriminate(config, out_dir, stdout)
    if command == "tomo":
        return check_tomo(config, out_dir, stdout)
    if command == "optimize":
        return check_optimize(config, out_dir, stdout)
    return [f"no check for command {command!r}"]
