import gc
import json
import os
import platform
import re
import subprocess
import sys

import numpy as np
import pytest

import ghostpol
from ghostpol import cli, tomo
from ghostpol.cli import build_parser, main
from ghostpol.configio import load_config
from ghostpol.qstate import bell_psi_plus, save_density_csv, werner
from helpers import expected_records
from test_golden import (
    CASES, CONFIGS, FROZEN_WITH, case_argv, installed_versions, output_digests,
)
from test_polcalc import FOREIGN_PARAMETERS

SWEEP_CONFIG = """
seed: 5
probe:
  elements:
    - {kind: retarder, angle_deg: 62.0, retardance_rad: 1.5707963267948966}
    - {kind: ideal_polarizer, angle_deg: 90.0}
projectors:
  - elements: [{kind: ideal_polarizer, angle_deg: 7.5}]
  - elements: [{kind: ideal_polarizer, angle_deg: 110.0}]
samples:
  - {family: LP, thetas: {start: 0, stop: 180, step: 20}}
"""

COUNTING_BLOCK = """
counting:
  pair_rate: 200000
  integration_time: 1.0
  coincidence_window: 3.0e-9
  singles_background: 20000
  drift_amplitude: 0.02
"""

DISCRIMINATE_CONFIG = SWEEP_CONFIG + COUNTING_BLOCK + "runs: 4\n"

TOMO_CONFIG = """
seed: 9
state: {kind: werner, p: 0.92}
counting:
  pair_rate: 100000
  integration_time: 1.0
"""

OPTIMIZE_CONFIG = """
seed: 2
optimize:
  samples:
    - {family: LP, theta_deg: 0.0}
    - {family: LP, theta_deg: 45.0}
  projectors:
    - {qwp_deg: null, lp_deg: 20.0}
  restarts: 4
  max_evals: 300
"""


def write_config(tmp_path, text, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(args):
    return main(args)


def test_parser_requires_subcommand_and_config():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])
    with pytest.raises(SystemExit):
        parser.parse_args(["sweep"])
    args = parser.parse_args(["sweep", "--config", "x.yaml"])
    assert args.out == "."
    assert args.seed is None


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    code = run(["sweep", "--config", str(tmp_path / "nope.yaml"),
                "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_key_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "seeed: 1\n")
    assert run(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "seeed" in capsys.readouterr().err


NOTHING_TO_VARY = ("'optimize': nothing to vary: needs vary_projectors, or a probe "
                   "with vary_probe")


@pytest.mark.parametrize("text, key", [
    (OPTIMIZE_CONFIG.replace("restarts: 4", "restarts: 0"), "optimize.restarts"),
    (OPTIMIZE_CONFIG.replace("max_evals: 300", "max_evals: 0"),
     "optimize.max_evals"),
    (OPTIMIZE_CONFIG.replace("max_evals: 300", "max_evals: 100001"),
     "'optimize.max_evals' must be <= 100000"),
    (OPTIMIZE_CONFIG.replace("restarts: 4", "restarts: 301"),
     "'optimize.restarts' must be <= max_evals (300)"),
    (OPTIMIZE_CONFIG.replace("restarts: 4", "restarts: 4001")
     .replace("  max_evals: 300\n", ""),
     "'optimize.restarts' must be <= max_evals (4000)"),
    (OPTIMIZE_CONFIG.replace("lp_deg: 20.0}", "lp_deg: 20.0, extinction: 0.5}"),
     "optimize.projectors[0].extinction"),
    (OPTIMIZE_CONFIG + "  probe: {qwp_deg: 1.0, lp_deg: 2.0, extinction: 0.5}\n",
     "optimize.probe.extinction"),
    (OPTIMIZE_CONFIG.replace("seed: 2", "seed: -1"), "'seed'"),
    (OPTIMIZE_CONFIG.replace("    - {family: LP, theta_deg: 45.0}\n", ""),
     "optimize.samples"),
    (OPTIMIZE_CONFIG.replace("    - {qwp_deg: null, lp_deg: 20.0}\n", "    []\n"),
     "optimize.projectors"),
    (OPTIMIZE_CONFIG.replace("lp_deg: 20.0}", "lp_deg: .nan}"),
     "optimize.projectors[0].lp_deg"),
    (OPTIMIZE_CONFIG.replace("qwp_deg: null", "qwp_deg: .inf"),
     "optimize.projectors[0].qwp_deg"),
    (OPTIMIZE_CONFIG.replace("theta_deg: 45.0", "theta_deg: .nan"),
     "optimize.samples[1].theta_deg"),
    (OPTIMIZE_CONFIG.replace(
        "theta_deg: 0.0}",
        "theta_deg: 0.0, element: {kind: ideal_polarizer, angle_deg: 0}}"),
     "'optimize.samples[0].element' is only valid for custom family"),
    (OPTIMIZE_CONFIG.replace("family: LP, theta_deg: 45.0",
                             "family: custom, theta_deg: 45.0"),
     "'optimize.samples[1]' custom family needs an element"),
    (OPTIMIZE_CONFIG.replace("lp_deg: 20.0}", "lp_deg: 20.0, qwp_first: false}"),
     "'optimize.projectors[0].qwp_first' is only valid with qwp_deg"),
    (OPTIMIZE_CONFIG + "  probe: {lp_deg: 2.0, qwp_first: true}\n",
     "'optimize.probe.qwp_first' is only valid with qwp_deg"),
    (OPTIMIZE_CONFIG + "  vary_projectors: false\n", NOTHING_TO_VARY),
    (OPTIMIZE_CONFIG + "  probe: {qwp_deg: 1.0, lp_deg: 2.0}\n"
     "  vary_probe: false\n  vary_projectors: false\n", NOTHING_TO_VARY),
    (OPTIMIZE_CONFIG + "  mode: sequential\n  vary_projectors: false\n",
     NOTHING_TO_VARY),
], ids=["restarts", "max_evals", "huge_max_evals", "restarts_over_max_evals",
        "restarts_over_default", "projector_extinction", "probe_extinction",
        "seed", "one_sample", "no_projectors", "nan_lp", "infinite_qwp",
        "nan_sample_theta", "element_on_lp", "custom_without_element",
        "projector_qwp_first_without_qwp", "probe_qwp_first_without_qwp",
        "nothing_to_vary_joint", "nothing_to_vary_probe_fixed",
        "nothing_to_vary_sequential"])
def test_bad_optimize_settings_are_config_errors(tmp_path, capsys, text, key):
    cfg = write_config(tmp_path, text)
    assert run(["optimize", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err


SWEEP_GRID = "thetas: {start: 0, stop: 180, step: 20}"


@pytest.mark.parametrize("text, key", [
    (SWEEP_CONFIG.replace(SWEEP_GRID, "thetas: [0, 190]"), "samples[0].thetas"),
    (SWEEP_CONFIG.replace(SWEEP_GRID, "thetas: {start: -10, stop: 180, step: 2}"),
     "samples[0].thetas"),
    (SWEEP_CONFIG.replace(SWEEP_GRID, "thetas: [10, 5]"), "samples[0].thetas"),
    (SWEEP_CONFIG.replace(SWEEP_GRID, "thetas: {start: 10, stop: 10}"),
     "samples[0].thetas"),
    (SWEEP_CONFIG.replace(SWEEP_GRID, "thetas: {step: .nan}"),
     "samples[0].thetas.step"),
    (SWEEP_CONFIG.replace(SWEEP_GRID, "thetas: {stop: .inf}"),
     "samples[0].thetas.stop"),
    (SWEEP_CONFIG + "state: {kind: werner, p: 1.5}\n", "state.p"),
    (SWEEP_CONFIG.replace("angle_deg: 62.0", "angle_deg: .nan"),
     "probe.elements[0].angle_deg"),
    (SWEEP_CONFIG.replace("angle_deg: 7.5", "angle_deg: -.inf"),
     "projectors[0].elements[0].angle_deg"),
    (SWEEP_CONFIG.replace("retardance_rad: 1.5707963267948966",
                          "retardance_rad: .nan"),
     "probe.elements[0].retardance_rad"),
    (SWEEP_CONFIG.replace("{kind: ideal_polarizer, angle_deg: 110.0}",
                          "{kind: partial_polarizer, angle_deg: 110.0, "
                          "extinction: .nan}"),
     "projectors[1].elements[0]"),
    (SWEEP_CONFIG + "state: {kind: matrix_csv, matrix_csv: absent.csv}\n",
     "state.matrix_csv"),
    (SWEEP_CONFIG + "state: {kind: matrix_csv, matrix_csv: nan_rho.csv}\n",
     "'state.matrix_csv': density matrix has non-finite entries"),
    (SWEEP_CONFIG.replace("step: 20", "step: 1.0e-9"), "samples[0].thetas"),
    (SWEEP_CONFIG + COUNTING_BLOCK + "runs: 1000000000\n", "'runs'"),
    (SWEEP_CONFIG + COUNTING_BLOCK.replace("200000", ".nan"),
     "counting.pair_rate"),
    (SWEEP_CONFIG + COUNTING_BLOCK.replace("3.0e-9", ".nan"),
     "counting.coincidence_window"),
    (SWEEP_CONFIG + COUNTING_BLOCK.replace("200000", ".inf"),
     "counting.pair_rate"),
    (SWEEP_CONFIG + COUNTING_BLOCK.replace("1.0\n", ".nan\n"),
     "counting.integration_time"),
    (SWEEP_CONFIG + COUNTING_BLOCK.replace("200000", "1.0e+300"),
     "counting.pair_rate"),
    (SWEEP_CONFIG + COUNTING_BLOCK + "tomography: {integration_time: 1.0e+12}\n",
     "tomography.integration_time"),
    (SWEEP_CONFIG + "state: {kind: werner, p: 0.9, matrix_csv: nan_rho.csv}\n",
     "unknown key 'state.matrix_csv'"),
    (SWEEP_CONFIG + "state: {kind: matrix_csv, matrix_csv: nan_rho.csv, p: 0.3}\n",
     "unknown key 'state.p'"),
    (SWEEP_CONFIG + "  - {family: custom, element: {kind: retarder, angle_deg: 0, "
     "retardance_rad: 1.0, extinction: 2.0}}\n",
     "unknown key 'samples[1].element.extinction'"),
], ids=["out_of_range", "negative_start", "decreasing", "empty", "nan_step",
        "infinite_stop", "werner_p", "nan_probe_angle", "infinite_projector_angle",
        "nan_retardance", "nan_extinction", "missing_matrix_csv", "nan_matrix_csv", "tiny_step",
        "huge_runs", "nan_pair_rate", "nan_window", "infinite_pair_rate",
        "nan_integration_time", "huge_pair_rate",
        "huge_tomo_integration", "werner_with_matrix_csv", "matrix_csv_with_p",
        "custom_template_extinction"])
def test_bad_sweep_settings_are_config_errors(tmp_path, capsys, monkeypatch,
                                              text, key):
    # A grid cap that failed would reach np.arange: refuse such a grid
    # instead of allocating it.  The runs case has no counting section, so
    # a failed cell cap allocates nothing there either.
    arange = np.arange

    def bounded_arange(*args, **kwargs):
        if len(args) == 3 and (args[1] - args[0]) / args[2] > 10**6:
            raise AssertionError("unbounded theta grid")
        return arange(*args, **kwargs)

    monkeypatch.setattr(np, "arange", bounded_arange)
    # The nan_matrix_csv case reads I/4 with one NaN entry.
    save_density_csv(werner(0.0), str(tmp_path / "nan_rho.csv"))
    rho_csv = (tmp_path / "nan_rho.csv").read_text()
    (tmp_path / "nan_rho.csv").write_text(rho_csv.replace("0.25", "nan", 1))
    cfg = write_config(tmp_path, text)
    assert run(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err


@pytest.mark.parametrize("kind, name", FOREIGN_PARAMETERS)
def test_foreign_element_parameter_is_a_config_error(tmp_path, capsys, kind,
                                                     name):
    old = "{kind: ideal_polarizer, angle_deg: 110.0}"
    own = {"ideal_polarizer": "", "partial_polarizer": ", extinction: 3.0",
           "retarder": ", retardance_rad: 1.0"}[kind]
    new = f"{{kind: {kind}, angle_deg: 110.0{own}, {name}: 2.0}}"
    cfg = write_config(tmp_path, SWEEP_CONFIG.replace(old, new))
    assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: unknown key 'projectors[1].elements[0].{name}'\n")
    assert not (tmp_path / "o").exists()


def test_tomography_integration_time_with_records_is_a_config_error(
        tmp_path, capsys):
    tomo.records_to_csv(expected_records(bell_psi_plus(), 1e6),
                        str(tmp_path / "given.csv"))
    cfg = write_config(tmp_path, "tomography: {records_csv: given.csv, "
                                 "integration_time: 5.0}\n")
    assert run(["tomo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "config error: 'tomography.integration_time' is only valid without "
        "records_csv\n")


CUSTOM_SAMPLE = ("  - {family: custom, element: {kind: retarder, angle_deg: 0, "
                 "retardance_rad: 1.0}}\n")


@pytest.mark.parametrize("extra, key", [
    ("  - {family: LP, thetas: [5, 95]}\n", "'samples[1].family'"),
    (CUSTOM_SAMPLE + CUSTOM_SAMPLE, "'samples[2].family'"),
], ids=["LP_twice", "custom_twice"])
def test_repeated_sample_family_is_a_config_error(tmp_path, capsys, extra, key):
    # Each family writes runs_<family>.csv and sweep_<family>.*: a repeat
    # would overwrite the first family's files.
    text = DISCRIMINATE_CONFIG.replace("step: 20}}\n", "step: 20}}\n" + extra)
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert run(["discriminate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err
    assert not out.exists()


def test_negative_seed_override_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, OPTIMIZE_CONFIG)
    assert run(["optimize", "--config", cfg, "--out", str(tmp_path),
                "--seed", "-1"]) == 2
    assert "'--seed' must be >= 0" in capsys.readouterr().err


def test_runtime_failure_exits_one(tmp_path, capsys):
    (tmp_path / "bad.csv").write_text("a,b,n\nH,H,1\n")
    cfg = write_config(tmp_path, "tomography: {records_csv: bad.csv}\n")
    code = run(["tomo", "--config", cfg, "--out", str(tmp_path)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_all_zero_simulated_records_name_their_file(tmp_path, capsys):
    cfg = write_config(tmp_path, "counting: {pair_rate: 1.0e-9, integration_time: 1.0}\n")
    assert run(["tomo", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (f"error: {tmp_path / 'o' / 'records.csv'}: "
                                       "all-zero counts cannot be reconstructed\n")


def test_missing_records_csv_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "tomography: {records_csv: missing.csv}\n")
    assert run(["tomo", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: 'tomography.records_csv'")
    assert "missing.csv" in err


PATH_KEYS = [
    ("sweep", SWEEP_CONFIG + "state: {kind: matrix_csv, matrix_csv: VALUE}\n",
     "state.matrix_csv"),
    ("tomo", "tomography: {records_csv: VALUE}\n", "tomography.records_csv"),
]


@pytest.mark.parametrize("value", ["null", "3", "[rho.csv]", "''"],
                         ids=["null", "number", "list", "empty"])
@pytest.mark.parametrize("command, text, key", PATH_KEYS,
                         ids=["matrix_csv", "records_csv"])
def test_path_key_that_is_not_a_string_is_a_config_error(tmp_path, capsys,
                                                         command, text, key,
                                                         value):
    # Only a non-empty string names a file.
    cfg = write_config(tmp_path, text.replace("VALUE", value))
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: '{key}' must be a file path\n"
    assert not out.exists()


def test_repeated_key_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, SWEEP_CONFIG + "runs: 8\nruns: 3\n")
    assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: duplicate key 'runs'\n"
    assert not (tmp_path / "o").exists()


def test_path_keys_resolve_relative_to_the_config(tmp_path):
    save_density_csv(werner(0.5), str(tmp_path / "rho.csv"))
    cfg = load_config(write_config(
        tmp_path, "state: {kind: matrix_csv, matrix_csv: rho.csv}\n"
                  "tomography: {records_csv: given.csv}\n"))
    assert np.array_equal(cfg.state.matrix, werner(0.5).matrix)
    assert cfg.records_csv == str(tmp_path / "given.csv")


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "exp.yaml"
    path.write_bytes(b"seed: 1\n# \xff\n")
    assert run(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file {path}: ")
    assert "'utf-8' codec can't decode byte 0xff" in err
    assert not (tmp_path / "o").exists()


def records_csv(pairs, count):
    return ("basis_a,basis_b,counts\n"
            + "".join(f"{a},{b},{count}\n" for a, b in pairs)).encode()


@pytest.mark.parametrize("content, message", [
    (b"a,b,c\nH,H,1\n",
     ", line 1: tomography CSV must start with basis_a,basis_b,counts\n"),
    (b"basis_a,basis_b,counts\nH,H,\xff\n",
     ": 'utf-8' codec can't decode byte 0xff"),
    (records_csv(tomo.CANONICAL_PAIRS[:15] + (("H", "H"),), 7),
     ": need exactly the 16 canonical projection records: missing R,L; "
     "repeated H,H\n"),
    (records_csv(tomo.CANONICAL_PAIRS, 0),
     ": all-zero counts cannot be reconstructed\n"),
], ids=["foreign_header", "not_utf8", "repeated_pair", "all_zero"])
def test_unreadable_records_csv_names_the_file(tmp_path, capsys, content, message):
    (tmp_path / "given.csv").write_bytes(content)
    cfg = write_config(tmp_path, "tomography: {records_csv: given.csv}\n")
    assert run(["tomo", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {tmp_path / 'given.csv'}{message}")


@pytest.mark.parametrize("count", ["nan", "inf", "1e400", "-5"])
def test_bad_tomography_counts_fail_clearly(tmp_path, capsys, count):
    records = expected_records(bell_psi_plus(), 1e6)
    tomo.records_to_csv(records, str(tmp_path / "given.csv"))
    lines = (tmp_path / "given.csv").read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + "," + count
    (tmp_path / "given.csv").write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path, "tomography: {records_csv: given.csv}\n")
    assert run(["tomo", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'given.csv'}, line 4: bad basis_a,basis_b,counts "
        f"row {lines[3]!r}: counts must be finite and >= 0\n")


@pytest.mark.parametrize("row, reason", [
    ("H,H", "not enough values to unpack"),
    ("H,H,abc", "could not convert string to float"),
    ("X,H,5", "unknown analysis basis XH"),
    ("H,H,-5", "counts must be finite and >= 0"),
    ("H,H,nan", "counts must be finite and >= 0"),
], ids=["two_fields", "non_numeric", "unknown_basis", "negative", "nan"])
def test_malformed_tomography_row_names_file_and_line(tmp_path, capsys, row,
                                                      reason):
    records = expected_records(bell_psi_plus(), 1e6)
    tomo.records_to_csv(records, str(tmp_path / "given.csv"))
    lines = (tmp_path / "given.csv").read_text().splitlines()
    lines[3] = row
    (tmp_path / "given.csv").write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path, "tomography: {records_csv: given.csv}\n")
    assert run(["tomo", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "given.csv, line 4:" in err
    assert repr(row) in err and reason in err


ONE_LP_SAMPLE = """
projectors:
  - elements: [{kind: ideal_polarizer, angle_deg: 0.0}]
samples:
  - {family: LP, thetas: [0.0, 90.0]}
"""


def test_all_zero_run_names_family_and_run(tmp_path, capsys):
    # 1e-9 pairs per second: every run draws no count at all.
    cfg = write_config(tmp_path, ONE_LP_SAMPLE + "runs: 3\ncounting: "
                       "{pair_rate: 1.0e-9, integration_time: 1.0}\n")
    assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: family LP: run 0 has all-zero counts\n"


def test_run_without_counts_after_corrections_names_family_and_run(tmp_path,
                                                                   capsys):
    # Only accidentals, 100 per cell: about half of the cells draw at most
    # 100 and correct to 0, so some of the 50 single-cell runs keep nothing.
    cfg = write_config(tmp_path, ONE_LP_SAMPLE.replace("[0.0, 90.0]", "[0.0]")
                       + "runs: 50\ncounting: {pair_rate: 0, integration_time: 1.0, "
                       "coincidence_window: 1.0e-4, singles_background: 1000}\n")
    assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: family LP: run (\d+) is all zero after "
                        r"corrections\n", err)


def test_tomo_records_round_trip(tmp_path, capsys):
    # The records.csv of a simulated run, read back through
    # tomography.records_csv, refits to the same rho.csv, metrics.txt and
    # stdout bytes; the second run writes no records.csv of its own.
    capsys.readouterr()
    assert run(["tomo", "--config", os.path.join(CONFIGS, "tomography.yaml"),
                "--out", str(tmp_path / "first")]) == 0
    first = output_digests(capsys.readouterr().out, tmp_path / "first")
    cfg = write_config(tmp_path, "tomography: {records_csv: first/records.csv}\n")
    assert run(["tomo", "--config", cfg, "--out", str(tmp_path / "second")]) == 0
    second = output_digests(capsys.readouterr().out, tmp_path / "second")
    assert second == {name: d for name, d in first.items() if name != "records.csv"}
    if installed_versions() == FROZEN_WITH:
        assert first == CASES["tomo-tomography"][4]



def test_bright_runs_csv_reads_back_every_count(tmp_path, capsys):
    # Raw counts at and above 1e9 print as integers, where %.9g would
    # drop digits: every raw cell parses back to the count drawn.
    argv = case_argv("discriminate-bright", tmp_path)
    assert run(argv) == 0
    capsys.readouterr()
    cfg = load_config(argv[2])
    curves = cli._sweep_curves(cfg)
    for curve, (runs, _) in zip(curves, cli._measure(cfg, curves)):
        text = (tmp_path / "out" / f"runs_{curve.family}.csv").read_text()
        raw = [int(row.split(",")[3]) for row in text.splitlines()[1:]]
        assert raw == runs.counts.ravel().tolist()
        assert max(raw) >= 10 ** 9


def test_bright_tomo_records_round_trip(tmp_path, capsys):
    # Counts above 1e9 in records.csv read back exactly, so the refit
    # writes the same rho.csv, metrics.txt and stdout.
    argv = case_argv("tomo-bright", tmp_path)
    capsys.readouterr()
    assert run(argv) == 0
    first = output_digests(capsys.readouterr().out, tmp_path / "out")
    cfg = write_config(tmp_path, "tomography: {records_csv: out/records.csv}\n")
    assert run(["tomo", "--config", cfg, "--out", str(tmp_path / "second")]) == 0
    second = output_digests(capsys.readouterr().out, tmp_path / "second")
    assert second == {name: d for name, d in first.items() if name != "records.csv"}
    text = (tmp_path / "out" / "records.csv").read_text()
    assert max(int(row.split(",")[2]) for row in text.splitlines()[1:]) >= 10 ** 9


def test_sweep_outputs(tmp_path):
    cfg = write_config(tmp_path, SWEEP_CONFIG)
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
    csv = (out / "sweep_LP.csv").read_text().strip().split("\n")
    assert csv[0] == "theta_deg,P1,P2,raw1,raw2"
    assert len(csv) == 10
    svg = (out / "sweep_LP.svg").read_text()
    assert svg.startswith("<svg")
    assert "LP response" in svg


def test_sweep_with_counting_adds_bands(tmp_path):
    cfg = write_config(tmp_path, SWEEP_CONFIG + COUNTING_BLOCK + "runs: 3\n")
    out = tmp_path / "noisy"
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
    svg = (out / "sweep_LP.svg").read_text()
    assert "<polygon" in svg


@pytest.mark.parametrize("counting", [False, True])
def test_sweep_on_one_angle_grid(tmp_path, counting):
    # One angle gives no x range to scale; the chart spans 0-180 instead.
    text = SWEEP_CONFIG.replace(
        "  - {family: LP, thetas: {start: 0, stop: 180, step: 20}}\n",
        "  - {family: LP, thetas: [10.0]}\n  - {family: QWP, thetas: [10.0]}\n")
    if counting:
        text += COUNTING_BLOCK + "runs: 3\n"
    cfg = write_config(tmp_path, text)
    out = tmp_path / "one"
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
    for family in ("LP", "QWP"):
        assert (out / f"sweep_{family}.svg").read_text().startswith("<svg")
        assert len((out / f"sweep_{family}.csv").read_text().splitlines()) == 2


def test_discriminate_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, DISCRIMINATE_CONFIG)
    out = tmp_path / "disc"
    assert run(["discriminate", "--config", cfg, "--out", str(out)]) == 0
    for name in ("runs_LP.csv", "report.csv", "summary.txt", "regions.svg"):
        assert (out / name).exists()
    summary = (out / "summary.txt").read_text()
    assert "family LP: kept" in summary
    assert "kept" in capsys.readouterr().out
    report = (out / "report.csv").read_text().strip().split("\n")
    assert report[0].startswith("family,theta_deg,kept,cross_excluded")
    assert len(report) == 10


def test_singles_without_window_reach_no_output(tmp_path):
    # No singles are drawn: with no coincidence window there are no
    # accidentals either, so the singles rate changes nothing.
    outs = []
    for rate in ("0", "1.0e+16", "1.0e+160"):
        text = DISCRIMINATE_CONFIG.replace("3.0e-9", "0").replace(
            "singles_background: 20000", f"singles_background: {rate}")
        cfg = write_config(tmp_path, text, name=f"singles-{rate}.yaml")
        outs.append(tmp_path / f"singles-{rate}")
        assert run(["discriminate", "--config", cfg, "--out", str(outs[-1])]) == 0
    for out in outs[1:]:
        for name in ("runs_LP.csv", "report.csv", "summary.txt", "regions.svg"):
            assert (outs[0] / name).read_bytes() == (out / name).read_bytes()


def test_discriminate_requires_counting(tmp_path):
    cfg = write_config(tmp_path, SWEEP_CONFIG)
    assert run(["discriminate", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_tomo_simulation_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, TOMO_CONFIG)
    out = tmp_path / "tomo"
    assert run(["tomo", "--config", cfg, "--out", str(out)]) == 0
    for name in ("records.csv", "rho.csv", "metrics.txt"):
        assert (out / name).exists()
    metrics = (out / "metrics.txt").read_text()
    assert "concurrence:" in metrics and "converged: True" in metrics
    value = float(
        [l for l in metrics.splitlines() if l.startswith("concurrence")][0]
        .split(":")[1]
    )
    assert 0.8 < value < 0.96
    assert "concurrence" in capsys.readouterr().out


def test_tomo_reads_records_csv(tmp_path):
    records = expected_records(bell_psi_plus(), 1e6)
    tomo.records_to_csv(records, str(tmp_path / "given.csv"))
    # The records path resolves relative to the config file.
    cfg = write_config(tmp_path, "tomography: {records_csv: given.csv}\n")
    out = tmp_path / "fromcsv"
    assert run(["tomo", "--config", cfg, "--out", str(out)]) == 0
    metrics = (out / "metrics.txt").read_text()
    fid = float(
        [l for l in metrics.splitlines() if l.startswith("fidelity")][0]
        .split(":")[1]
    )
    assert fid > 0.999
    assert not (out / "records.csv").exists()


def test_optimize_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, OPTIMIZE_CONFIG)
    out = tmp_path / "opt"
    assert run(["optimize", "--config", cfg, "--out", str(out)]) == 0
    assert "best objective" in capsys.readouterr().out
    best = (out / "best_params.yaml").read_text()
    assert "projectors:" in best
    trace = (out / "trace.csv").read_text().strip().split("\n")
    assert trace[0] == "stage,restart,start_objective,final_objective,n_evals"
    assert len(trace) == 5


def test_optimize_refuses_conditional(tmp_path, capsys):
    # The objective scores joint probabilities only; a herald-conditioned
    # request is refused rather than ignored.
    cfg = write_config(tmp_path, OPTIMIZE_CONFIG + "conditional: true\n")
    out = tmp_path / "opt"
    assert run(["optimize", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: 'conditional' is not supported by optimize, which "
        "scores joint probabilities\n")
    assert not out.exists()
    cfg = write_config(tmp_path, OPTIMIZE_CONFIG + "conditional: false\n")
    assert run(["optimize", "--config", cfg, "--out", str(out)]) == 0


# A polarizer at 0 deg as the whole probe, and one projector.
POLARIZER_PROBE = """
probe: {elements: [{kind: ideal_polarizer, angle_deg: 0.0}]}
projectors: [{elements: [{kind: ideal_polarizer, angle_deg: 0.0}]}]
"""


@pytest.mark.parametrize("command", ["sweep", "discriminate"])
def test_blocked_herald_is_a_config_error(tmp_path, capsys, command):
    # Crossed polarizers in the probe block every herald, so no
    # conditional probability exists; the engine's error becomes exit 2,
    # naming the first blocked orientation.  A lone polarizer at 0 deg
    # blocks the LP herald only at 90 deg, where it is 1.9e-33.
    crossed = SWEEP_CONFIG.replace(
        "    - {kind: ideal_polarizer, angle_deg: 90.0}\n",
        "    - {kind: ideal_polarizer, angle_deg: 90.0}\n"
        "    - {kind: ideal_polarizer, angle_deg: 0.0}\n")
    one = POLARIZER_PROBE + "samples: [{family: LP, thetas: [0, 45, 90, 135]}]\n"
    for text, theta in ((crossed, "0"), (one, "90")):
        cfg = write_config(tmp_path, text + "conditional: true\n"
                           "counting: {pair_rate: 1000, integration_time: 1.0}\n")
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: 'conditional': family LP has zero herald probability "
            f"at {theta} deg, so its conditional response is undefined\n")
        assert not out.exists()


def test_round_off_is_not_signal(tmp_path, capsys):
    # Noiseless, LP at 90 deg behind a polarizer at 0 deg responds only
    # round-off (1.9e-33), and at 0 deg exactly 0: an all-zero dataset
    # either way.  With LP at 45 deg, the dataset has a signal and the
    # round-off point prints as 0.
    out = tmp_path / "out"
    for thetas in ("[90.0]", "[0.0, 90.0]", "[45.0, 90.0]"):
        cfg = write_config(tmp_path, POLARIZER_PROBE
                           + f"samples: [{{family: LP, thetas: {thetas}}}]\n")
        if thetas != "[45.0, 90.0]":
            assert run(["sweep", "--config", cfg, "--out", str(out)]) == 1
            assert capsys.readouterr().err == (
                "error: cannot normalize an all-zero dataset\n")
            assert not out.exists()
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "sweep_LP.csv").read_text().splitlines()[1:] == [
        "45,1,0.125", "90,0,0"]


@pytest.mark.parametrize("key", ["eff_signal", "eff_idler"])
@pytest.mark.parametrize("command", ["sweep", "discriminate", "tomo"])
def test_zero_detection_efficiency_is_a_config_error(tmp_path, capsys, command,
                                                      key):
    text = TOMO_CONFIG if command == "tomo" else DISCRIMINATE_CONFIG
    cfg = write_config(tmp_path, text.replace("  pair_rate:",
                                              f"  {key}: 0\n  pair_rate:"))
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: 'counting': {key} must lie in (0, 1]\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "discriminate", "tomo"])
def test_zero_signal_counting_is_a_config_error(tmp_path, capsys, command):
    # No pair rate and no coincidence window: every count would be 0.
    text = (TOMO_CONFIG.replace("100000", "0") if command == "tomo" else
            DISCRIMINATE_CONFIG.replace("200000", "0").replace("3.0e-9", "0"))
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: 'counting': every count would be 0: the pair rate gives "
        "no signal and there are no accidentals\n")
    assert not out.exists()


def test_optimize_best_params_are_loadable(tmp_path):
    cfg = write_config(tmp_path, OPTIMIZE_CONFIG)
    out = tmp_path / "opt2"
    assert run(["optimize", "--config", cfg, "--out", str(out)]) == 0
    from ghostpol.configio import parse_config_text

    reparsed = parse_config_text((out / "best_params.yaml").read_text())
    assert len(reparsed.projectors) == 1


def test_seed_override_changes_counts(tmp_path):
    cfg = write_config(tmp_path, DISCRIMINATE_CONFIG)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    assert run(["discriminate", "--config", cfg, "--out", str(out_a)]) == 0
    assert run(["discriminate", "--config", cfg, "--out", str(out_b),
                "--seed", "5"]) == 0
    assert run(["discriminate", "--config", cfg, "--out", str(out_c),
                "--seed", "99"]) == 0
    a = (out_a / "runs_LP.csv").read_bytes()
    b = (out_b / "runs_LP.csv").read_bytes()
    c = (out_c / "runs_LP.csv").read_bytes()
    assert a == b
    assert a != c


def test_outputs_are_byte_reproducible(tmp_path):
    cfg = write_config(tmp_path, DISCRIMINATE_CONFIG)
    out_a = tmp_path / "r1"
    out_b = tmp_path / "r2"
    assert run(["discriminate", "--config", cfg, "--out", str(out_a)]) == 0
    assert run(["discriminate", "--config", cfg, "--out", str(out_b)]) == 0
    for name in ("runs_LP.csv", "report.csv", "summary.txt", "regions.svg"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


NO_SCIPY_CASES = ("sweep-three_projection", "discriminate-three_projection",
                  "optimize-one-restart")

# A sys.meta_path finder that makes every scipy module unimportable.
BLOCK_SCIPY = """
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"scipy is blocked: {name}")
sys.meta_path.insert(0, NoScipy())
"""


def run_fresh(jobs, prelude=""):
    """Run ``ghostpol.cli.main`` on each argv of ``jobs`` in one fresh
    interpreter.  Returns, per job, the exit code, the stdout and the
    scipy modules loaded when its config was parsed, plus the scipy
    modules loaded after import (key ``import``) and at the end."""
    src = os.path.dirname(os.path.dirname(ghostpol.__file__))
    code = f"""
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
{prelude}
scipy = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
from ghostpol import cli
out = {{"import": scipy()}}
load_config = cli.load_config
def recording_load_config(path):
    cfg = load_config(path)
    out["parsed"] = scipy()
    return cfg
cli.load_config = recording_load_config
for job, argv in {jobs!r}.items():
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(argv)
    out[job] = [rc, stdout.getvalue(), out.pop("parsed", None)]
out["end"] = scipy()
print(json.dumps(out))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def no_scipy_jobs(base):
    """The argv of each NO_SCIPY_CASES case, set up under ``base / case``."""
    jobs = {}
    for case in NO_SCIPY_CASES:
        (base / case).mkdir(parents=True)
        jobs[case] = case_argv(case, base / case)
    return jobs


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    result = run_fresh(no_scipy_jobs(tmp_path))
    assert result["import"] == [] and result["end"] == []
    for case in NO_SCIPY_CASES:
        assert result[case][0] == 0


def test_commands_run_without_scipy(tmp_path):
    found = {}
    for name, prelude in (("with", ""), ("without", BLOCK_SCIPY)):
        base = tmp_path / name
        result = run_fresh(no_scipy_jobs(base), prelude)
        found[name] = {}
        for case in NO_SCIPY_CASES:
            rc, stdout, _ = result[case]
            assert rc == 0
            found[name][case] = output_digests(stdout, base / case / "out")
    assert found["without"] == found["with"]
    if installed_versions() == FROZEN_WITH:
        assert found["without"] == {case: CASES[case][4]
                                    for case in NO_SCIPY_CASES}


def test_tomo_loads_no_scipy(tmp_path):
    # A run that succeeds and one that stops on a bad config, with scipy
    # importable and with every scipy import failing: neither loads it,
    # and the bad config is a config error either way.
    cfg = write_config(tmp_path, TOMO_CONFIG)
    bad = write_config(tmp_path, "tomography: {records_csv: missing.csv}\n",
                       name="bad.yaml")
    for prelude in ("", BLOCK_SCIPY):
        result = run_fresh({
            "ok": ["tomo", "--config", cfg, "--out", str(tmp_path / "out")],
            "bad": ["tomo", "--config", bad, "--out", str(tmp_path / "bad")],
        }, prelude)
        assert result["ok"][0] == 0 and "converged: True" in result["ok"][1]
        assert result["bad"][0] == 2
        assert result["import"] == result["end"] == []


def test_tomo_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # Every step from the records to rho.csv avoids BLAS and LAPACK, so
    # the kernel OpenBLAS picks (SSE3-only Prescott, which any x86-64
    # CPU runs, or the machine's own) changes no byte.
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OPENBLAS_CORETYPE=Prescott names an x86-64 kernel")
    cfg = write_config(tmp_path, TOMO_CONFIG)
    src = os.path.dirname(os.path.dirname(ghostpol.__file__))
    found = {}
    for kernel in (None, "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        env["PYTHONPATH"] = src
        out = tmp_path / str(kernel)
        proc = subprocess.run(
            [sys.executable, "-m", "ghostpol.cli", "tomo", "--config", cfg,
             "--out", str(out)], capture_output=True, text=True, env=env,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        found[kernel] = output_digests(proc.stdout, out)
    assert found["Prescott"] == found[None]


def test_exit_freezes_the_import_heap():
    # atexit runs its handlers last in, first out, so a probe registered
    # before ghostpol.cli is imported runs after the freeze that the
    # import registers, and sees the heap the imports left.
    src = os.path.dirname(os.path.dirname(ghostpol.__file__))
    code = f"""
import atexit, gc, sys
atexit.register(lambda: print(gc.get_freeze_count()))
sys.path.insert(0, {src!r})
import ghostpol.cli
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 10_000


def test_main_freezes_nothing(tmp_path):
    # Only the exit freezes: an in-process caller keeps normal collection.
    before = gc.get_freeze_count()
    cfg = write_config(tmp_path, TOMO_CONFIG)
    assert run(["tomo", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert gc.get_freeze_count() == before
