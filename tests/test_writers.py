"""Every text writer, byte-compared with a reference writer.

The curve, records and density references below are the writers as
they stood before each output block became one ``%`` over a template
(``textio.block``), kept verbatim but for their names and one rule: the
records reference prints a column of raw counts exactly
(``exact_cells``).  The canvas methods that drew each curve point by
point are kept as the functions ``ref_polyline`` and ``ref_polygon``.
The runs, report and regions writers are checked against the suite's
one oracle for each, in ``helpers``: the per-cell, row-by-row and
per-ellipse writers that came before the template forms.  Random data
covers the forks of the new writers: whole counts on both sides of 1e9
and of 2**53, fractional, negative-zero and NaN counts, zero and
negative-zero band edges, and grids of one orientation, one run and
one projector.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from ghostpol import countsim, discern, ghost, qstate, svgplot, tomo
from ghostpol.countsim import RunSet
from ghostpol.ghost import ResponseCurve
from ghostpol.svgplot import (CHART_H, CHART_W, MARGIN_B, MARGIN_L, MARGIN_R,
                              MARGIN_T, PALETTE, _Axes, _Canvas, _fmt)
from ghostpol.textio import block
from ghostpol.tomo import CANONICAL_PAIRS, TomographyRecord
from helpers import (exact_cells, panel_dict, random_report, ref_region_panels,
                     ref_report_to_csv, ref_runset_to_csv, region_outcome)

RNG = np.random.default_rng(21)


def ref_curve_to_csv(curve, scale, path):
    """Write one curve as CSV: theta, the coordinates divided by the
    dataset ``scale``, then the raw ones."""
    n = curve.raw.shape[1]
    normalized = curve.raw / scale
    lines = [",".join(["theta_deg", *[f"P{j + 1}" for j in range(n)],
                       *[f"raw{j + 1}" for j in range(n)]])]
    for t in range(curve.thetas.size):
        cells = [f"{curve.thetas[t]:.6g}"]
        cells += [f"{v:.9g}" for v in normalized[t]]
        cells += [f"{v:.9g}" for v in curve.raw[t]]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def ref_records_to_csv(records, path):
    lines = ["basis_a,basis_b,counts"]
    cells = exact_cells([r.counts for r in records])
    for r, cell in zip(records, cells):
        lines.append(f"{r.basis_a},{r.basis_b},{cell}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def ref_save_density_csv(rho, path):
    """Write a density matrix as CSV rows of interleaved re, im pairs."""
    header = ",".join(f"re{c},im{c}" for c in range(4))
    lines = [header]
    for row in rho.matrix:
        cells: list[str] = []
        for z in row:
            cells.append(f"{z.real:.12g}")
            cells.append(f"{z.imag:.12g}")
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def ref_polyline(canvas, pts, color):
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
    canvas.parts.append(
        f'<polyline fill="none" stroke="{color}" '
        f'stroke-width="1.50" points="{coords}"/>'
    )


def ref_polygon(canvas, pts, fill):
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
    canvas.parts.append(
        f'<polygon fill="{fill}" fill-opacity="0.25" '
        f'stroke="none" points="{coords}"/>'
    )


def ref_curve_chart(thetas, series, labels, title, bands=None):
    """Response-versus-orientation chart, one polyline per projector,
    each point formatted on its own; the canvas methods inlined."""
    canvas = _Canvas(CHART_W, CHART_H)
    top = np.max(series + (bands if bands is not None else 0.0))
    ylim = (0.0, max(1e-12, float(top)) * 1.05)
    axes = _Axes(
        canvas,
        (MARGIN_L, MARGIN_T, CHART_W - MARGIN_L - MARGIN_R,
         CHART_H - MARGIN_T - MARGIN_B),
        (float(thetas[0]), float(thetas[-1])) if len(thetas) > 1 else (0.0, 180.0),
        ylim,
    )
    axes.frame("orientation [deg]", "response",
               xticks=[0.0, 45.0, 90.0, 135.0, 180.0])
    canvas.text(CHART_W / 2.0, 16.0, title, size=13.0)
    for k in range(series.shape[1]):
        color = PALETTE[k % len(PALETTE)]
        if bands is not None:
            upper = [(axes.px(t), axes.py(series[i, k] + bands[i, k]))
                     for i, t in enumerate(thetas)]
            lower = [(axes.px(thetas[i]), axes.py(series[i, k] - bands[i, k]))
                     for i in range(len(thetas) - 1, -1, -1)]
            ref_polygon(canvas, upper + lower, fill=color)
        ref_polyline(
            canvas,
            [(axes.px(t), axes.py(series[i, k])) for i, t in enumerate(thetas)],
            color=color,
        )
        canvas.text(MARGIN_L + 8.0 + 90.0 * k, MARGIN_T - 6.0, labels[k],
                    size=10.0, anchor="start", color=color)
    return canvas.to_string()


def same_bytes(tmp_path, writer, reference, *args):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    writer(*args, str(got))
    reference(*args, str(want))
    assert got.read_bytes() == want.read_bytes()
    return got.read_text()


def grid(n):
    """A strictly increasing orientation grid in [0, 180) with n angles."""
    thetas = np.sort(RNG.choice(18000, n, replace=False)) / 100.0
    return thetas * RNG.uniform(0.5, 1.0)


def test_block_interleaves_columns_row_by_row():
    assert block("%d:%s;" * 3, [[1, 2, 3], ["a", "b", "c"]]) == "1:a;2:b;3:c;"
    assert block("", [[], []]) == ""
    assert block("x%%%.1f\n" * 2, [[0.25, -0.0]]) == "x%0.2\nx%-0.0\n"


# Whole counts just below, at and far above 1e9, where %.9g stops
# printing every digit, blocks that straddle 1e9 and the 2**53 cut-off,
# and counts that print with %.9g: fractional, negative zero, negative
# and NaN.
COUNTS = {
    "below": lambda shape: RNG.integers(0, 10, shape) + (1e9 - 10),
    "at": lambda shape: np.full(shape, 1e9),
    "far_above": lambda shape: RNG.integers(0, 10, shape) + 1e15,
    "straddling": lambda shape: RNG.integers(-5, 5, shape) + 1e9,
    "straddling_2_53": lambda shape: RNG.integers(-8, 8, shape) + 2.0 ** 53,
    "small": lambda shape: RNG.poisson(30.0, shape).astype(float),
    "lognormal": lambda shape: RNG.poisson(RNG.lognormal(5.0, 6.0, shape)).astype(float),
    "fractional": lambda shape: RNG.poisson(30.0, shape) + 0.5,
}


@pytest.mark.parametrize("kind", sorted(COUNTS))
@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 5, 3), (4, 1, 2), (3, 6, 1), (8, 45, 3)])
def test_runset_csv_matches_reference(tmp_path, kind, shape):
    counts = COUNTS[kind](shape).astype(float)
    counts[..., 0] += 1.0  # no all-zero run
    corrected = counts * RNG.lognormal(0.0, 3.0, shape)
    corrected.flat[::4] = 0.0
    text = same_bytes(tmp_path, countsim.runset_to_csv, ref_runset_to_csv,
                      RunSet(grid(shape[1]), counts), corrected)
    assert text.count("\n") == 1 + counts.size


def test_runset_csv_odd_counts_match_reference(tmp_path):
    counts = RNG.poisson(50.0, (3, 4, 2)).astype(float) + 1.0
    for odd in (-0.0, -3.0, np.nan, 999999999.5, 1e9 - 1):
        bent = counts.copy()
        bent[1, 2, 1] = odd
        same_bytes(tmp_path, countsim.runset_to_csv, ref_runset_to_csv,
                   RunSet(grid(4), bent), bent * 0.5)


# 4,500 rows span three of the writer's 2,048-row blocks.
@pytest.mark.parametrize("n_theta,n_proj", [(1, 1), (1, 3), (7, 1), (90, 3), (4500, 2)])
def test_curve_csv_matches_reference(tmp_path, n_theta, n_proj):
    for _ in range(5):
        raw = RNG.uniform(0.0, 1.0, (n_theta, n_proj)) * 10.0 ** RNG.uniform(-300, 12)
        raw.flat[::3] = 0.0
        curve = ResponseCurve("LP", grid(n_theta), raw)
        same_bytes(tmp_path, ghost.curve_to_csv, ref_curve_to_csv,
                   curve, float(RNG.choice([1.0, raw.max() or 1.0, 3e-7])))


def test_report_csv_matches_reference(tmp_path):
    for trial in range(30):
        report = random_report(RNG, d=1 + trial % 4)
        report.families[0].family = "%s%%d"
        same_bytes(tmp_path, discern.report_to_csv, ref_report_to_csv, report)


def test_records_csv_matches_reference(tmp_path):
    for n in (0, 1, 16):
        counts = RNG.poisson(RNG.lognormal(5.0, 8.0, n)).astype(float)
        whole = counts.copy()  # printed as integers, some above 1e9
        whole[:3] = [1e9 + 7.0, 2400028767.0, 2.0 ** 53 - 1.0][:n]
        odd = [0.0, -0.0, 0.5, 1e9, 1e15, 123456789.25]
        counts[:6] = odd[:min(n, 6)]
        for column in (counts, whole):
            records = [TomographyRecord(a, b, c)
                       for (a, b), c in zip(CANONICAL_PAIRS * 2, column)]
            same_bytes(tmp_path, tomo.records_to_csv, ref_records_to_csv, records)


def test_density_csv_matches_reference(tmp_path):
    for trial in range(20):
        m = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        m *= 10.0 ** RNG.uniform(-20, 5, (4, 4))
        m.real[RNG.random((4, 4)) < 0.2] = -0.0
        m.imag[RNG.random((4, 4)) < 0.2] = -0.0
        same_bytes(tmp_path, qstate.save_density_csv, ref_save_density_csv,
                   SimpleNamespace(matrix=m))
    same_bytes(tmp_path, qstate.save_density_csv, ref_save_density_csv,
               qstate.werner(0.3))


@pytest.mark.parametrize("n_theta,n_series", [(1, 1), (1, 3), (2, 1), (90, 3), (721, 2)])
def test_curve_chart_matches_reference(n_theta, n_series):
    thetas = grid(n_theta)
    series = RNG.uniform(0.0, 1.0, (n_theta, n_series))
    series[::3] = 0.0
    series[1::5] = -0.0
    labels = [f"P{j + 1}" for j in range(n_series)]
    assert (svgplot.curve_chart(thetas, series, "chart")
            == ref_curve_chart(thetas, series, labels, "chart"))
    # Band edges at 0.0 and -0.0: zero bands on zero and negative-zero
    # responses, and bands equal to the response.
    for bands in (np.zeros_like(series), np.full_like(series, -0.0),
                  np.abs(series), RNG.uniform(0.0, 0.1, series.shape)):
        assert (svgplot.curve_chart(thetas, series, "chart", bands=bands)
                == ref_curve_chart(thetas, series, labels, "chart", bands=bands))
    flat = np.zeros_like(series)
    assert (svgplot.curve_chart(thetas, flat, "flat", bands=flat)
            == ref_curve_chart(thetas, flat, labels, "flat", bands=flat))


def test_region_panels_match_reference():
    for trial in range(12):
        d = 1 + trial % 3
        families = []
        for f in range(1 + trial % 4):
            # One family of a single orientation, and one empty family.
            n = [1, 0, int(RNG.integers(2, 60))][(trial + f) % 3]
            kept = [[], list(range(n)),
                    sorted(RNG.choice(n, n // 2, replace=False).tolist())][f % 3]
            families.append(region_outcome(
                f"F{f}", RNG.uniform(-0.1, 1.1, (n, d)),
                RNG.choice([0.0, 1e-4, 0.02, 0.2], (n, d)), kept))
        # Every pair i < j of P1..Pd: 0, 1 and 3 panels.
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        args = ([panel_dict(o) for o in families], pairs,
                [f"P{k + 1}" for k in range(d)], "response regions")
        assert svgplot.region_panels(families) == ref_region_panels(*args)
