"""The paper's headline, pinned on the shipped configs for seeds 0-19.

PAPER.md claims that two coincidence measurements tell more than 80
objects apart.  ``discriminate`` on ``two_projection_partial.yaml`` keeps
108-117 objects in total over both families on these seeds, with no
cross-family exclusion.  ``three_projection.yaml`` keeps 148-156, and
with the shipped ``optimize``'s ``best_params.yaml`` spliced in it keeps
159-170.  Each bound below holds on every seed; none is a chosen subset.
"""

import os
import re

import pytest
import yaml

from ghostpol.cli import main

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs")
SEEDS = range(20)


def discriminate(config, seed, out):
    """Objects kept over both families, and whether no cross-family
    exclusion was made, from one run's ``summary.txt``."""
    assert main(["discriminate", "--config", config, "--seed", str(seed),
                 "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    kept = sum(int(n) for n in re.findall(r"kept (\d+) of", summary))
    return kept, summary.endswith("cross-family exclusions: none\n")


@pytest.fixture(scope="module")
def kept(tmp_path_factory):
    """For each config, (kept, no exclusion) on every seed.  The
    ``optimized`` config is ``three_projection.yaml`` with the probe and
    projectors of the shipped ``optimize`` run's ``best_params.yaml``."""
    where = tmp_path_factory.mktemp("paper")
    assert main(["optimize", "--config", os.path.join(CONFIGS, "optimize.yaml"),
                 "--out", str(where / "optimize")]) == 0
    with open(os.path.join(CONFIGS, "three_projection.yaml"), encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    cfg.update(yaml.safe_load((where / "optimize" / "best_params.yaml").read_text()))
    (where / "optimized.yaml").write_text(yaml.safe_dump(cfg, sort_keys=False))
    configs = {name: os.path.join(CONFIGS, f"{name}.yaml")
               for name in ("two_projection_partial", "three_projection")}
    configs["optimized"] = str(where / "optimized.yaml")
    return {name: [discriminate(config, seed, where / f"{name}-{seed}") for seed in SEEDS]
            for name, config in configs.items()}


def test_two_measurements_tell_more_than_80_objects_apart(kept):
    assert [seed for seed, (n, clean) in enumerate(kept["two_projection_partial"])
            if n <= 80 or not clean] == []


def test_a_third_measurement_keeps_more(kept):
    assert [seed for seed, (two, three) in enumerate(zip(
        kept["two_projection_partial"], kept["three_projection"]))
        if three[0] <= two[0]] == []


def test_optimized_settings_keep_more_than_the_shipped_ones(kept):
    assert [seed for seed, (shipped, optimized) in enumerate(zip(
        kept["three_projection"], kept["optimized"]))
        if optimized[0] <= shipped[0]] == []
