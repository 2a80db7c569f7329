"""Byte contract: the SHA-256 of every ``--out`` file and of stdout.

Each case runs one command in process on a shipped config (or a small
edit of one) and compares digests frozen from the code.  The cases and
their digests are ``helpers.CASES``, the one home of every frozen output
digest, which ``test_cli`` also reads; CI checks output bytes only by
running this file.  Poisson sampling and BLAS rounding may differ
between numpy builds, so the test runs only on the numpy the digests
were frozen with and skips elsewhere; no output depends on scipy, which
need not be installed.  An intended byte change updates the digest
there and says so in CHANGES.md; a refactor never does.  One more
digest, here, pins the bits of the 2x2 products that every output is
built from.
"""

import hashlib
import os
import re

import numpy as np
import pytest

from ghostpol.cli import main
from ghostpol.polcalc import compose, effect
from helpers import CASES, CONFIGS, FROZEN_WITH, case_argv, installed_versions, output_digests


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


# (command, shipped config) of every command on the shipped configs:
# the suite checks their bytes, and the workflow checks none itself.
SHIPPED_RUNS = {
    ("sweep", "three_projection"), ("sweep", "two_projection_partial"),
    ("discriminate", "three_projection"),
    ("discriminate", "two_projection_partial"),
    ("tomo", "tomography"), ("optimize", "optimize"),
}


def test_every_shipped_run_has_an_unedited_case():
    unedited = {(command, name)
                for command, name, edit, _, _ in CASES.values() if edit is None}
    assert SHIPPED_RUNS - unedited == set()
    workflow = os.path.join(os.path.dirname(CONFIGS), ".github", "workflows",
                            "tests.yml")
    with open(workflow, encoding="utf-8") as fh:
        assert re.search(r"\b[0-9a-f]{64}\b", fh.read()) is None


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
