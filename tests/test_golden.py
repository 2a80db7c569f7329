"""Byte contract: the SHA-256 of every ``--out`` file and of stdout.

Each case runs one command in process on a shipped config (or a small
edit of one) and compares digests frozen from the code.  Poisson
sampling and BLAS rounding may differ between numpy builds, so the
test runs only on the numpy the digests were frozen with and skips
elsewhere; no output depends on scipy, which need not be installed.  An intended byte change updates the digest here and
says so in CHANGES.md; a refactor never does.  One more digest pins
the bits of the 2x2 products that every output is built from.
"""

import hashlib
import os

import numpy as np
import pytest
import yaml

from ghostpol.cli import main
from ghostpol.polcalc import compose, effect
from ghostpol.qstate import save_density_csv, werner

FROZEN_WITH = {"numpy": "2.4.6"}


def installed_versions():
    return {"numpy": np.__version__}


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs")


# Each edit changes the parsed config in place; ``where`` is the
# directory the config is written to, for a file it names.
def fine_grid(cfg, where):
    for spec in cfg["samples"]:
        spec["thetas"] = {"start": 0, "stop": 180, "step": 0.25}


def one_restart(cfg, where):
    cfg["optimize"].update(restarts=1, max_evals=1500)


def noiseless(cfg, where):
    del cfg["counting"]


def bright(cfg, where):
    # Raw counts straddle 1e9 in both families, where %.9g would drop
    # digits.  Set here: PyYAML reads 3.0e9 without a sign in the
    # exponent as a string.
    cfg["counting"]["pair_rate"] = 3.0e9


def bright_tomo(cfg, where):
    # 13 of the 16 counts are above 1e9 (H,V is 2,400,028,767).
    cfg["counting"]["pair_rate"] = 5.0e9


def conditional(cfg, where):
    cfg["conditional"] = True


def custom_family(cfg, where):
    # A custom retarder family beside LP, both on list-form thetas.
    cfg["samples"] = [
        {"family": family, **extra, "thetas": [0.0, 10.0, 47.5, 90.0, 133.0]}
        for family, extra in (("LP", {}), ("custom", {"element": {
            "kind": "retarder", "angle_deg": 0.0, "retardance_rad": 1.1}}))]


def matrix_state(cfg, where):
    # The state read from a density CSV beside the config.
    save_density_csv(werner(0.9), str(where / "rho.csv"))
    cfg["state"] = {"kind": "matrix_csv", "matrix_csv": "rho.csv"}


def short_search(cfg, where):
    cfg["optimize"].update(restarts=2, max_evals=400)


def sequential_extinction(cfg, where):
    # Bare-polarizer and polarizer-first projectors, extinctions varied.
    short_search(cfg, where)
    cfg["optimize"].update(mode="sequential", vary_extinction=True, projectors=[
        {"lp_deg": 7.5, "extinction": 50.0},
        {"qwp_deg": 18.0, "lp_deg": 110.0, "qwp_first": False},
        {"qwp_deg": 45.0, "lp_deg": 34.0}])


def no_probe(cfg, where):
    short_search(cfg, where)
    del cfg["optimize"]["probe"]


def fixed_probe(cfg, where):
    short_search(cfg, where)
    cfg["optimize"]["vary_probe"] = False


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
    # Exact probabilities: no counting section, so no runs and no bands.
    "sweep-noiseless": (
        "sweep", "three_projection", noiseless, None, {
            "stdout":
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "sweep_LP.csv":
                "2d69564b3d5beb549009e7d22eaedc89a3717c49828ce32987f8b856e4daf59c",
            "sweep_LP.svg":
                "088908791b4fe4c7fcdfcebd5df2f4f96d8c55785933e4557e23cf5ada6aed1c",
            "sweep_QWP.csv":
                "fd8aca4131c35a2627b1f71414720643e62d78044bb2d4133dce88cf844f5295",
            "sweep_QWP.svg":
                "27a39b3c7f7a69b18df6813478ed3a3eaacb264538ca0642609b27693c832585",
        }),
    # 95 LP and 793 QWP of 2,160 raw counts are >= 1e9; the runs CSVs
    # were re-frozen when they came to print as integers.
    "discriminate-bright": (
        "discriminate", "three_projection", bright, None, {
            "regions.svg":
                "a25fd2ed3660a6f2cbbbe404f12e55285b3c7f3eef9af3e9adad3f28762d2e59",
            "report.csv":
                "16b6edc0351856e4623411b99ed9feae8bc45903535d729245942bda887daddc",
            "runs_LP.csv":
                "eba28603c6f94936050da7de39a3e4faca362109287d9921660cd658efd837f6",
            "runs_QWP.csv":
                "9b397bdc14c5be8dbf77438e5ac015e0821e48c2f350e5d9ddfbef1f265c81b5",
            "stdout":
                "98cd2219780067f27fb08c427f121dce15a48caea7c940ea7850cb495bb767cc",
            "summary.txt":
                "98cd2219780067f27fb08c427f121dce15a48caea7c940ea7850cb495bb767cc",
        }),
    # rho.csv, metrics.txt and stdout frozen from the BFGS fit, which
    # gives the same bytes under every BLAS kernel.
    "tomo-tomography": (
        "tomo", "tomography", None, None, {
            "metrics.txt":
                "a61581d5416ae48d1979a057eb5261d126949e6fd2f5eabe0cebd32d2f90e275",
            "records.csv":
                "8bb53c2562c11425bec32600f42430947eadf726ea04951817eaa46232b99e38",
            "rho.csv":
                "38c155d3947a2528e5a6328d13c8e23a5c7fcaaeb1094fdaf6196c0fa97852d4",
            "stdout":
                "a61581d5416ae48d1979a057eb5261d126949e6fd2f5eabe0cebd32d2f90e275",
        }),
    # Counts above 1e9 in records.csv, printed as integers; frozen
    # after they were, and equal under every BLAS kernel.
    "tomo-bright": (
        "tomo", "tomography", bright_tomo, None, {
            "metrics.txt":
                "648e9c652dead706f0f2308bd2cd62ffc1cfe74e2b423d8cd9172428d3b578d8",
            "records.csv":
                "5ae82ba05fbdd577286589a5597c6dc6a1fc9887355fde22136014b958d1781c",
            "rho.csv":
                "27941ebefc029ae4abdd0d0788320d0a233d15244028cab5e2206339273d3d69",
            "stdout":
                "648e9c652dead706f0f2308bd2cd62ffc1cfe74e2b423d8cd9172428d3b578d8",
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
    # The cases below pin each config branch that no shipped config
    # reaches; frozen under the default, Prescott and Haswell kernels.
    # Herald-conditioned probabilities, with counting.
    "sweep-conditional": (
        "sweep", "three_projection", conditional, None, {
            "stdout":
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "sweep_LP.csv":
                "bc647f2cfd2eb069c595630071b2561e172b6c64b0f8dd92536aa93b61bd13a2",
            "sweep_LP.svg":
                "512063803f1e70212f6893c8afcd2be9ded49bb20163d16ce3b3d82f5b040fa3",
            "sweep_QWP.csv":
                "a955a4e374b4eb41170634820527ad6970ab593abe752358b91c4fed409a5813",
            "sweep_QWP.svg":
                "21cb151f9b55c227579f2093acb649aab9bad350dae899f625f33a5e2e12ab38",
        }),
    "discriminate-conditional": (
        "discriminate", "three_projection", conditional, None, {
            "regions.svg":
                "7ee6e0a0bcb2a5e98fddc52d4f6708e3c86e23c3becb8d95d0f85d86f0b4a0fa",
            "report.csv":
                "b0d872335640972301b582d2a399108b4e0cc266323ade26ac26c02c807f275c",
            "runs_LP.csv":
                "9ffdb3deb61dee00e00748fb09349f8794e0c42247e9274f85c1746c72a7a4e6",
            "runs_QWP.csv":
                "98e125c9af45b8061535a2ee38ae1d8a4e3e0f2171b0b8fb47c60e12203c8322",
            "stdout":
                "d648c439d3406d9f7170b5c4ed7d610ca0579e87cfe48ecaa23ff3f1ec25c404",
            "summary.txt":
                "d648c439d3406d9f7170b5c4ed7d610ca0579e87cfe48ecaa23ff3f1ec25c404",
        }),
    "discriminate-custom": (
        "discriminate", "three_projection", custom_family, None, {
            "regions.svg":
                "14494177fc16409df333dac2b581d9f20b148a99d730635b897b57dc599a09b8",
            "report.csv":
                "53a33a8ac21ece6b37637ede38752e346ca4e1200a7f464c4bd695ac37012b06",
            "runs_LP.csv":
                "d909d968fc5f1eb6ad663f3c9702b9819438f1a9a377264e6db40033698c1c6c",
            "runs_custom.csv":
                "7240176245d5aab5b83f98b83b1b73f9aec205bdc6a8a0d6d3cc342e3aceb05d",
            "stdout":
                "aa659bb6b8b17982ac494afaea25b3f0a1f7a4de487fabdaaae071f81eb6c597",
            "summary.txt":
                "aa659bb6b8b17982ac494afaea25b3f0a1f7a4de487fabdaaae071f81eb6c597",
        }),
    # The state read from a werner(0.9) density CSV.
    "sweep-matrix_csv": (
        "sweep", "two_projection_partial", matrix_state, None, {
            "stdout":
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "sweep_LP.csv":
                "8531c7e92f7b60d58963724515bcd39ee7b8ad064caa3c295c24dbbe52dbf85f",
            "sweep_LP.svg":
                "7d392f7542106a3ce1d1a35ac40b61bc8fa23ef05b7b82b4d7a4dc55d91f7b6d",
            "sweep_QWP.csv":
                "2ade25b4043a6960656af0d73d4e91a916a6816fa47df23016e09eaf6bf78a79",
            "sweep_QWP.svg":
                "96ff37801eb4c641820926fb30e4aafc5cab28c8b1cf88a8d2398ce53ecbc223",
        }),
    # Two restarts sharing 400 evaluations, as in the two cases below.
    "optimize-sequential-extinction": (
        "optimize", "optimize", sequential_extinction, None, {
            "best_params.yaml":
                "45fa9bd3f5a11841e33747dd4cc092f3f1fab89f951224899391a1e6878fba34",
            "stdout":
                "b8f7f94e8f35fe1b48dac5ca007f6e804ef305359be13ed30eb1212cdd4f9ab9",
            "trace.csv":
                "b3524fad4b777a024752ae5bba1136998d02a257d4729700d65ae802e12816ec",
        }),
    "optimize-no-probe": (
        "optimize", "optimize", no_probe, None, {
            "best_params.yaml":
                "29d4c125880b5c56cb3fbe543b227bdffe0a7ccb5991a58590c4540ca49ae2ee",
            "stdout":
                "d63be3db4358b8e634a8318f2119b5ddf64872b42998325eb5dd329ce6b48335",
            "trace.csv":
                "2d8cd0c7c084ea4c763e4b0383dbda26bf5d0dba8c5f4f837e31984b38c51cd1",
        }),
    "optimize-fixed-probe": (
        "optimize", "optimize", fixed_probe, None, {
            "best_params.yaml":
                "aa5ea6ad8b18045ca5b683dd31c9fd5763fc4a5b0bab0b95b1538a6b96eec22a",
            "stdout":
                "77d1f526066e22298f580365e2792b34ca1450c1923272eb582e5578eef0c7cf",
            "trace.csv":
                "f04c1cc3eb8cbde904b1dbc4b2eea5e5e5ddf10f9aff563d51c4b441b2cb0c3b",
        }),
}


def case_argv(case_id, tmp_path):
    """Command line of one case, its config written to ``tmp_path`` and
    its outputs going to ``tmp_path / "out"``."""
    command, name, edit, seed, _ = CASES[case_id]
    with open(os.path.join(CONFIGS, f"{name}.yaml"), encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    if edit is not None:
        edit(cfg, tmp_path)
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


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_outputs_match_frozen_digests(case_id, tmp_path, capsys):
    versions = installed_versions()
    if versions != FROZEN_WITH:
        pytest.skip(f"digests frozen with numpy {FROZEN_WITH['numpy']}; "
                    f"this is numpy {versions['numpy']}")
    assert run_case(case_id, tmp_path, capsys) == CASES[case_id][4]


def product_stack(rng, shape):
    """Random complex entries of ``shape``; about a fifth of the real and
    imaginary parts are 0.0 or -0.0, whose signs a product may keep."""
    parts = rng.normal(size=(2,) + shape)
    zero = rng.random(parts.shape) < 0.2
    parts[zero] = np.copysign(0.0, rng.random(np.count_nonzero(zero)) - 0.5)
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = parts
    return out


def test_products_match_frozen_digest():
    # compose and effect give the same bits under every OpenBLAS kernel:
    # no 2x2 product goes through BLAS.  CI runs this under several.
    versions = installed_versions()
    if versions != FROZEN_WITH:
        pytest.skip(f"digest frozen with numpy {FROZEN_WITH['numpy']}; "
                    f"this is numpy {versions['numpy']}")
    rng = np.random.default_rng(31)
    a, b, c = (product_stack(rng, (1000, 2, 2)) for _ in range(3))
    single = product_stack(rng, (2, 2))
    outputs = [compose([a, b]), compose([a, single]), compose([a, b, c]), effect(a)]
    digest = hashlib.sha256(b"".join(x.tobytes() for x in outputs)).hexdigest()
    assert digest == "0f253f4bb00cab340d0d05388b149497233fd867e1fd8e145cdd5b2294bbef3a"
