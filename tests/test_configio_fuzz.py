"""Fuzz test of parse_config_text: any document parses or raises ConfigError."""

import copy
import os

import pytest

pytest.importorskip("hypothesis")

import yaml  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ghostpol.configio import ConfigError, parse_config_text  # noqa: E402
from helpers import FULL_CONFIG  # noqa: E402


# Every key of the schema, so generated mappings reach nested parsers.
SCHEMA_KEYS = sorted({
    "seed", "runs", "conditional", "state", "probe", "projectors", "samples",
    "counting", "tomography", "optimize", "kind", "p", "matrix_csv", "elements",
    "angle_deg", "extinction", "retardance_rad", "family", "element", "thetas",
    "start", "stop", "step", "pair_rate", "integration_time", "eff_signal",
    "eff_idler", "coincidence_window", "singles_background", "drift_amplitude",
    "records_csv", "mode", "restarts", "max_evals", "vary_probe",
    "vary_projectors", "vary_extinction", "theta_deg", "qwp_deg", "lp_deg",
    "qwp_first",
})
NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(),
    st.sampled_from([0, -1, 1.0e-9, 5e-324, 1.0e+16, 1.0e+300, 10**400]),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), NUMBERS, st.text(max_size=6),
    st.sampled_from(["LP", "QWP", "custom", "werner", "bell_psi_plus",
                     "matrix_csv", "ideal_polarizer", "partial_polarizer",
                     "retarder", "joint", "sequential"]),
)
NODES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(SCHEMA_KEYS), inner, max_size=5),
    ),
    max_leaves=25,
)
VALID = yaml.safe_load(FULL_CONFIG)


def _paths(node, prefix=()):
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


VALID_PATHS = list(_paths(VALID))


@st.composite
def mutated_config(draw):
    """A valid document with a few values replaced or keys dropped."""
    doc = copy.deepcopy(VALID)
    for path in draw(st.lists(st.sampled_from(VALID_PATHS), min_size=1,
                              max_size=3)):
        node = doc
        try:
            for key in path[:-1]:
                node = node[key]
            old = node[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or replaced it
        if draw(st.integers(0, 4)) == 0:
            del node[path[-1]]
        elif isinstance(old, (int, float)) and not isinstance(old, bool):
            node[path[-1]] = draw(NUMBERS)
        else:
            node[path[-1]] = draw(NODES)
    return doc


@settings(max_examples=200, deadline=None, derandomize=True)
@example("state: {kind: matrix_csv, matrix_csv: absent.csv}")
@example("seed: 2001-02-30")
@example("samples: [{family: LP, thetas: {stop: -1.0e+20}}]")
@example("counting: {pair_rate: 1" + "0" * 400 + ", integration_time: 1}")
@example("[" * 1000)
@example("state: {kind: werner, p: 0.9, matrix_csv: absent.csv}")
@example("probe: {elements: [{kind: ideal_polarizer, angle_deg: 0, extinction: 5}]}")
@example("state: {kind: [werner], p: {a: 1}}")
@example("probe: {elements: [{kind: {retarder: 1}, angle_deg: 0}]}")
@example("samples: [{family: [LP]}, {family: {custom: 1}}]")
@given(st.one_of(
    NODES.map(lambda d: yaml.safe_dump(d, sort_keys=False)),
    mutated_config().map(lambda d: yaml.safe_dump(d, sort_keys=False)),
    st.text(max_size=40),
))
def test_any_document_parses_or_raises_config_error(text):
    try:
        parse_config_text(text, base_dir=os.path.dirname(__file__))
    except ConfigError:
        pass
