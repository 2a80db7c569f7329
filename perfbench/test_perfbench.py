"""Tests of the benchmark itself: its spec and its output checks.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import csv
import json
import os
import re
import shutil
import sys

import pytest
import yaml

import checks
import run

sys.path.insert(0, run.SRC)
from ghostpol import cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_is_generated_from_the_tables():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == run.spec()


def test_every_name_is_well_formed_and_used_once():
    spec = run.spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    assert "setup_s" in [m["name"] for m in spec["end_to_end"]]


def test_sanity_lists_name_real_metrics():
    known = {name for name, *_ in run.PER_LAYER}
    for table in (run.EXPECT_NONZERO, run.EXPECT_ZERO):
        assert set(table) == set(run.WORKLOADS)
        for names in table.values():
            assert set(names) <= known


def test_sanity_check_flags_a_counter_that_measured_nothing():
    layers = {name: 0 for name, *_ in run.PER_LAYER}
    problems = run.sanity_problems("discriminate-fine", layers, [])
    assert "discern.separable.calls is 0 on discriminate-fine" in problems
    layers["ghost.heralded_idler.calls"] = 3
    problems = run.sanity_problems("discriminate-fine", layers, [])
    assert any(p.startswith("ghost.heralded_idler.calls is 3") for p in problems)


@pytest.fixture(scope="module")
def discriminate_out(tmp_path_factory):
    base = tmp_path_factory.mktemp("disc")
    config = run.make_config("three_projection", None)
    path = base / "config.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    out = base / "out"
    assert cli.main(["discriminate", "--config", str(path), "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    return config, out, summary


def _rewrite_report(src, dst, change):
    with open(src, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    change(rows)
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def test_discriminate_output_passes(discriminate_out):
    config, out, summary = discriminate_out
    assert checks.check_discriminate(config, str(out), summary) == []


def test_shrunk_kept_margin_is_flagged(discriminate_out, tmp_path):
    config, out, summary = discriminate_out
    copy = tmp_path / "out"
    shutil.copytree(out, copy)

    def widen_first_kept(rows):
        kept = [r for r in rows if r["kept"] == "1"]
        a, b = kept[0], kept[1]
        # Put b's ellipsoid just past a's along their center line.
        pa = [float(a[f"mean{k}"]) for k in (1, 2, 3)]
        pb = [float(b[f"mean{k}"]) for k in (1, 2, 3)]
        dist = sum((x - y) ** 2 for x, y in zip(pa, pb)) ** 0.5
        for k in (1, 2, 3):
            b[f"ci95_{k}"] = repr(1.01 * dist)

    _rewrite_report(out / "report.csv", copy / "report.csv", widen_first_kept)
    margins, _ = checks.kept_pair_margins(checks._read_csv(copy / "report.csv"))
    assert margins.min() < 0.0
    problems = checks.check_discriminate(config, str(copy), summary)
    assert any("not strictly separable" in p for p in problems)


def test_kept_and_excluded_row_is_flagged(discriminate_out, tmp_path):
    config, out, summary = discriminate_out
    copy = tmp_path / "out"
    shutil.copytree(out, copy)

    def exclude_a_kept_row(rows):
        next(r for r in rows if r["kept"] == "1")["cross_excluded"] = "1"

    _rewrite_report(out / "report.csv", copy / "report.csv", exclude_a_kept_row)
    problems = checks.check_discriminate(config, str(copy), summary)
    assert any("both kept and cross-excluded" in p for p in problems)


def test_optimize_rescoring_catches_a_wrong_objective(tmp_path, capsys):
    config = run.make_config("optimize_search", None)
    config["optimize"].update(restarts=2, max_evals=40)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["optimize", "--config", str(path), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert checks.check_optimize(config, str(out), stdout) == []
    match = checks.OBJECTIVE_LINE.search(stdout)
    wrong = stdout.replace(match.group(1), f"{float(match.group(1)) * 1.001:.6g}")
    assert any("re-scored objective" in p
               for p in checks.check_optimize(config, str(out), wrong))


def test_tomo_check_rejects_a_non_state(tmp_path, capsys):
    config = run.make_config("tomography", None)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["tomo", "--config", str(path), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert checks.check_tomo(config, str(out), stdout) == []
    rho = out / "rho.csv"
    lines = rho.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[0] = repr(float(cells[0]) + 0.5)
    lines[1] = ",".join(cells)
    rho.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert any("trace" in p for p in checks.check_tomo(config, str(out), stdout))


def test_import_time_tree_charges_submodules_once(monkeypatch):
    lines = [
        "import time: self [us] | cumulative | imported package",
        "import time:       10 |         10 |       scipy.optimize._a",
        "import time:       20 |         30 |     scipy.optimize",
        "import time:        5 |          5 |     scipy.stats._b",
        "import time:       40 |         75 |   scipy.stats._stats_py",
        "import time:        1 |         76 | ghostpol.cli",
    ]

    class Done:
        stderr = "\n".join(lines)

    monkeypatch.setattr(run.subprocess, "run", lambda *a, **k: Done())
    times = run.import_times()
    assert times["import.ghostpol_cli_s"] == pytest.approx(76e-6)
    assert times["import.scipy_stats_s"] == pytest.approx(75e-6)
    assert times["import.scipy_optimize_s"] == pytest.approx(30e-6)
    assert times["import.numpy_s"] == 0.0


def test_traced_sweep_child_records_curves_and_spans(tmp_path):
    config = run.make_config("three_projection", None)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    job = run.run_job("sweep", str(path), str(tmp_path / "job"), trace=True)
    assert job["problems"] == []
    assert 0.0 < job["setup_s"] < job["wall_s"]
    names = {span[0] for span in job["trace"]["spans"]}
    assert {"configio.load_config", "ghost.sweep_family",
            "svgplot.curve_chart"} <= names
    assert job["trace"]["counts"]["ghost.coincidence_probability"] > 0
    assert checks.check_sweep(config, job["out_dir"], job["curves"]) == []
    job["curves"][0]["raw"][0][0] += 1e-9
    problems = checks.check_sweep(config, job["out_dir"], job["curves"])
    assert any("brute force" in p for p in problems)


def test_clock_takes_out_passes_and_scales_by_their_speed():
    ref = run.CALIBRATION_REF_S
    # Passes at 1.0 and 2.0 ran at half the reference speed; none ran
    # within (3.0, 4.0), which then takes the mean of all passes.
    clock = run.Clock([[1.0, 2 * ref], [2.0, 2 * ref], [5.0, 4 * ref]])
    assert clock.net(0.0, 3.0) == pytest.approx(3.0 - 4 * ref)
    assert clock.seconds(0.0, 3.0) == pytest.approx((3.0 - 4 * ref) / 2)
    assert clock.seconds(3.0, 4.0) == pytest.approx(1.0 * 3 / 8)
    assert clock.seconds(3.0, 4.0, scale=1.0) == pytest.approx(1.0)


def test_sanity_check_predicts_restarts_from_the_optimize_trace(tmp_path):
    (tmp_path / "trace.csv").write_text(
        "stage,restart,start_objective,final_objective,n_evals\n"
        "joint,0,0.3,0.8,1500\n", encoding="utf-8")
    job = {"command": "optimize", "config": "optimize_search", "stdout": "",
           "out_dir": str(tmp_path)}
    layers = {name: 0 for name, *_ in run.PER_LAYER}
    layers["optproj.restarts"] = 2
    problems = run.sanity_problems("optimize-search", layers, [job])
    assert "optproj.restarts is 2, predicted 1" in problems
