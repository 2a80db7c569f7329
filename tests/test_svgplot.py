import re

import numpy as np
import pytest

from ghostpol.svgplot import curve_chart, region_panels
from helpers import panel_dict, ref_region_panels, region_outcome

THETAS = np.arange(0.0, 180.0, 10.0)
SERIES = np.column_stack([
    np.sin(np.radians(THETAS)) ** 2,
    np.cos(np.radians(THETAS)) ** 2,
])


def test_curve_chart_structure():
    svg = curve_chart(THETAS, SERIES, "demo")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") >= 2
    assert "demo" in svg and ">P2</text>" in svg and ">P3</text>" not in svg
    assert "<polygon" not in svg


def test_curve_chart_bands_add_polygons():
    bands = np.full_like(SERIES, 0.05)
    svg = curve_chart(THETAS, SERIES, "demo", bands=bands)
    assert svg.count("<polygon") == 2


def test_curve_chart_is_deterministic():
    a = curve_chart(THETAS, SERIES, "demo")
    b = curve_chart(THETAS, SERIES, "demo")
    assert a == b


def test_curve_chart_handles_flat_series():
    flat = np.zeros((THETAS.size, 1))
    svg = curve_chart(THETAS, flat, "flat")
    assert svg.startswith("<svg")


def test_region_panels_draws_every_region():
    families = [
        ("LP", np.array([[0.1, 0.2], [0.7, 0.8]]),
         np.array([[0.01, 0.01], [0.02, 0.02]]), [0]),
        ("QWP", np.array([[0.4, 0.5]]), np.array([[0.05, 0.01]]), []),
    ]
    svg = region_panels([region_outcome(*fam) for fam in families])
    assert svg.count("<ellipse") == 3
    assert "LP" in svg and "QWP" in svg and ">response regions</text>" in svg
    three_axes = [region_outcome(label, centers[:, [0, 1, 0]],
                                 semi_axes[:, [0, 1, 0]], kept)
                  for label, centers, semi_axes, kept in families]
    assert region_panels(three_axes).count("<ellipse") == 3 * 3


@pytest.mark.parametrize("n_axes, names", [
    (1, []), (2, [("P1", "P2")]), (3, [("P1", "P2"), ("P1", "P3"), ("P2", "P3")]),
], ids=["1-axis", "2-axis", "3-axis"])
def test_region_panels_draw_each_axis_pair_once(n_axes, names):
    # One panel per pair i < j of the family's axes, x axis first.
    family = region_outcome("LP", np.full((2, n_axes), 0.5),
                            np.full((2, n_axes), 0.01), [1])
    svg = region_panels([family])
    assert svg.count("<ellipse") == 2 * len(names)
    assert svg.count(">0.5</text>") == 2 * len(names)
    labels = re.findall(r'text-anchor="(middle|start)" fill="#222222">(P\d)<', svg)
    assert labels == [label for pair in names
                      for label in zip(("middle", "start"), pair)]


def test_region_panels_equal_per_ellipse_loop():
    rng = np.random.default_rng(21)
    for trial in range(12):
        d = 1 + trial % 3
        families = []
        for f in range(1 + trial % 4):
            n = int(rng.integers(1, 60))
            # Semi-axes below 1.1 / panel are drawn at the 1-pixel floor.
            semis = rng.choice([0.0, 1e-4, 3e-3, 0.02, 0.2], size=(n, d))
            kept = [[], list(range(n)),
                    sorted(rng.choice(n, n // 2, replace=False).tolist())][f % 3]
            families.append(region_outcome(
                f"F{f}", rng.uniform(-0.1, 1.1, (n, d)),
                semis * rng.uniform(0.5, 1.5, (n, d)), kept))
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        args = ([panel_dict(o) for o in families], pairs,
                [f"P{k + 1}" for k in range(d)], "response regions")
        assert region_panels(families) == ref_region_panels(*args)
