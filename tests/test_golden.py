"""Byte contract: the SHA-256 of every ``--out`` file and of stdout.

Each case runs one command in process on a shipped config (or a small
edit of one) and compares digests frozen from the code.  Poisson
sampling and BLAS rounding may differ between numpy and scipy builds,
so the test runs only on the versions the digests were frozen with and
skips elsewhere.  An intended byte change updates the digest here and
says so in CHANGES.md; a refactor never does.
"""

import hashlib
import importlib.metadata
import os

import numpy as np
import pytest
import yaml

from ghostpol.cli import main
from test_tomo import needs_scipy  # the tomo case skips without scipy

FROZEN_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}


def installed_versions():
    """Versions of numpy and scipy, None for scipy when not installed
    (read from the package metadata, so it imports no scipy)."""
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {"numpy": np.__version__, "scipy": scipy_version}


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs")


def fine_grid(cfg):
    for spec in cfg["samples"]:
        spec["thetas"] = {"start": 0, "stop": 180, "step": 0.25}


def one_restart(cfg):
    cfg["optimize"].update(restarts=1, max_evals=1500)


# id -> (command, shipped config, edit, --seed or None, digests).
# Frozen from the code before discern held stacked regions; every
# discriminate and sweep digest equals the one listed in CHANGES.md
# for the per-run count streams.
CASES = {
    "discriminate-three_projection": (
        "discriminate", "three_projection", None, 7, {
            "regions.svg":
                "d0ec3623a3e57bfcd1afed6a72ed14af7d959f5e126fb9275af9738539de5f72",
            "report.csv":
                "90be77ac805d6cb61e441eef5a718ff8d21a2df83ace1eee381931329fdda028",
            "runs_LP.csv":
                "0638daab1910a93b6e6be4a4c6f745f5d4fdbd8de55da99108453d6273baa82d",
            "runs_QWP.csv":
                "14ede10b13f25176c2be650d44b1e7f333b00cc7d5e1d02cf204e2a56159532d",
            "stdout":
                "5e2500230ca1765689785d6dd7d12c4b221c363e04f9819796b9596b4a013afe",
            "summary.txt":
                "5e2500230ca1765689785d6dd7d12c4b221c363e04f9819796b9596b4a013afe",
        }),
    "discriminate-two_projection_partial": (
        "discriminate", "two_projection_partial", None, 7, {
            "regions.svg":
                "19229be6fadd43ec30de0d641c43e7911584dd76eac41e04c7f1c33b44a5009e",
            "report.csv":
                "f458b2ae32ea4a0a3e135595e94da10f9abd1ac9854fb1fad5b05b88cc6ebdd8",
            "runs_LP.csv":
                "c94767e94c321d20ac52a548320a6b21bcb15b3144b70103e67e065d6f544cd9",
            "runs_QWP.csv":
                "31ea4dcb9aaf020cc09a414f2dcf01dde71ff726800a3b1905adff62bea3fe01",
            "stdout":
                "7b268c1724e70a764c1b3cd37afa3780f6236a5224d30ff807ee6cbb78955885",
            "summary.txt":
                "7b268c1724e70a764c1b3cd37afa3780f6236a5224d30ff807ee6cbb78955885",
        }),
    "discriminate-fine-grid": (
        "discriminate", "three_projection", fine_grid, 1, {
            "regions.svg":
                "75b3b1e5b64ccca415c855b31538fb443954e350015627897aa30169a10412c6",
            "report.csv":
                "dcab40f78d6dcc2c2f0c0252982251e7f565220364f2a7c6f4887640aa673b52",
            "runs_LP.csv":
                "95b8c937160cb119dcbb72341daba2f228c40f7c18ea1083a1a71809ef7fa8c0",
            "runs_QWP.csv":
                "b7f7706111e4561e458c3ea57699c0739d8450211aef0f16e783f837665fe84f",
            "stdout":
                "e9ca573f98ebe91e27534d6d781e35c84c20b5ae17e512d3f47223cb31085097",
            "summary.txt":
                "e9ca573f98ebe91e27534d6d781e35c84c20b5ae17e512d3f47223cb31085097",
        }),
    "sweep-three_projection": (
        "sweep", "three_projection", None, None, {
            "stdout":
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "sweep_LP.csv":
                "24ab77fa6b8102dd4403f9d65d2df3a89cd3fe7aa3028e1deba946aac7f6a4cb",
            "sweep_LP.svg":
                "a47be3ac28899866ca1eead170235ca63488ed9030154f12b62e250fba207a86",
            "sweep_QWP.csv":
                "991bc5d416c8dbebb6aeed3210e2f7be1b8678d4258f25a48155c05f4e45a54d",
            "sweep_QWP.svg":
                "7bd57c197dc51732994f39af4d1c969cd9cf538d6288c8e3b07e5c76da5f7f2f",
        }),
    "tomo-tomography": (
        "tomo", "tomography", None, None, {
            "metrics.txt":
                "68ac0b3b17c2efbdee14bbc534ad736f1897880ebbfbbc68b0c280bbc876e981",
            "records.csv":
                "8bb53c2562c11425bec32600f42430947eadf726ea04951817eaa46232b99e38",
            "rho.csv":
                "99fac5a5509288aa8a00862acf5a440ab8ad287dbaafb1d2c0e87241ae697836",
            "stdout":
                "68ac0b3b17c2efbdee14bbc534ad736f1897880ebbfbbc68b0c280bbc876e981",
        }),
    "optimize-one-restart": (
        "optimize", "optimize", one_restart, None, {
            "best_params.yaml":
                "a373a590a5f53dfe66d6a79ce73d766c72163d696ed55b75e62a3aaedf5e28aa",
            "stdout":
                "7e91305447af320cc48f8de9b06a1fe6bab839d876aeee8d9a8dd84502782009",
            "trace.csv":
                "a6a1c1030eae5e16992a9e39b8171932474373f2b011fb80fae7b4f5766e9fae",
        }),
}


def case_argv(case_id, tmp_path):
    """Command line of one case, its config written to ``tmp_path`` and
    its outputs going to ``tmp_path / "out"``."""
    command, name, edit, seed, _ = CASES[case_id]
    with open(os.path.join(CONFIGS, f"{name}.yaml"), encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    if edit is not None:
        edit(cfg)
    config = tmp_path / f"{name}.yaml"
    config.write_text(yaml.safe_dump(cfg, sort_keys=False))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return argv


def output_digests(stdout, out):
    """Digests of stdout (key ``stdout``) and of every file in ``out``."""
    digests = {"stdout": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}
    for path in sorted(out.iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def run_case(case_id, tmp_path, capsys):
    argv = case_argv(case_id, tmp_path)
    capsys.readouterr()
    assert main(argv) == 0
    return output_digests(capsys.readouterr().out, tmp_path / "out")


@pytest.mark.parametrize("case_id", [
    pytest.param(case, marks=needs_scipy) if CASES[case][0] == "tomo" else case
    for case in sorted(CASES)])
def test_outputs_match_frozen_digests(case_id, tmp_path, capsys):
    versions = installed_versions()
    if versions != FROZEN_WITH:
        pytest.skip(
            f"digests frozen with numpy {FROZEN_WITH['numpy']} and scipy "
            f"{FROZEN_WITH['scipy']}; this is numpy {versions['numpy']} and "
            f"scipy {versions['scipy']}"
        )
    assert run_case(case_id, tmp_path, capsys) == CASES[case_id][4]
