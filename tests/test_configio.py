import math
import os
import re
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
import yaml

from ghostpol import configio
from ghostpol.cli import main
from ghostpol.configio import (
    ConfigError,
    element_to_dict,
    load_config,
    parse_config_text,
    parse_element,
    settings_fragment,
)
from ghostpol.optproj import OptimizationConfig, ProjectorParam
from ghostpol.polcalc import ELEMENT_KINDS, PolElement
from ghostpol.qstate import (StateValidationError, bell_psi_plus, save_density_csv,
                             werner)
from helpers import CONFIGS, FOREIGN_PARAMETERS, FULL_CONFIG


def test_empty_config_defaults():
    cfg = parse_config_text("")
    assert cfg.seed == 0
    assert cfg.runs == 8
    assert cfg.conditional is False
    npt.assert_allclose(cfg.state.matrix, bell_psi_plus().matrix, atol=1e-12)
    assert cfg.probe_elements == []
    assert cfg.projectors == []
    assert cfg.counting is None and cfg.optimize is None


@pytest.mark.parametrize("name, calls", [
    ("three_projection", 0), ("two_projection_partial", 0), ("tomography", 1),
    ("optimize", 0),
])
def test_load_config_validates_only_the_state_it_names(monkeypatch, name, calls):
    # Validating a state calls LAPACK eigh once.  The default Bell state and
    # the Bell part of a Werner state are pure by construction and skip it,
    # so only tomography.yaml's Werner mixture is validated.
    eigh = np.linalg.eigh
    seen = []

    def spy(a, *args, **kwargs):
        seen.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    load_config(os.path.join(CONFIGS, f"{name}.yaml"))
    assert seen == [(4, 4)] * calls


def test_full_config_parses():
    cfg = parse_config_text(FULL_CONFIG)
    assert cfg.seed == 11 and cfg.runs == 4 and cfg.conditional is True
    npt.assert_allclose(cfg.state.matrix, werner(0.9).matrix, atol=1e-12)
    assert [e.kind for e in cfg.probe_elements] == ["retarder", "ideal_polarizer"]
    assert len(cfg.projectors) == 2
    assert cfg.projectors[1][0].extinction == 3.7
    fams = [s.family for s in cfg.samples]
    assert fams == ["LP", "QWP", "custom"]
    npt.assert_allclose(cfg.samples[0].thetas, np.arange(0.0, 180.0, 30.0))
    npt.assert_allclose(cfg.samples[1].thetas, [0.0, 45.0, 90.0])
    assert cfg.samples[2].thetas.size == 180
    assert cfg.samples[2].template.retardance_rad == 0.5
    assert cfg.counting.pair_rate == 5000.0
    assert cfg.tomography_model.integration_time == 10.0
    assert cfg.tomography_model == replace(cfg.counting, integration_time=10.0)
    opt = cfg.optimize
    assert isinstance(opt, OptimizationConfig)
    assert opt.mode == "sequential" and opt.restarts == 4
    assert opt.projectors[1].qwp_deg is None
    assert opt.probe.lp_deg == 90.0
    assert math.isinf(opt.projectors[0].extinction)


def test_unknown_keys_report_their_path():
    with pytest.raises(ConfigError, match="unknown key 'seeed'"):
        parse_config_text("seeed: 1")
    with pytest.raises(ConfigError, match=r"probe\.elements\[0\]\.angle"):
        parse_config_text(
            "probe:\n  elements:\n    - {kind: retarder, angle: 3}\n"
        )
    with pytest.raises(ConfigError, match=r"counting\.pairrate"):
        parse_config_text(
            "counting: {pairrate: 1, integration_time: 1}"
        )


@pytest.mark.parametrize("text, path", [
    ("runs: 8\nruns: 3\n", "runs"),
    ("counting: {pair_rate: 5000, integration_time: 1.0, pair_rate: 9}\n",
     "counting.pair_rate"),
    ("projectors:\n  - elements: [{kind: ideal_polarizer, angle_deg: 0.0}]\n"
     "    elements: [{kind: ideal_polarizer, angle_deg: 90.0}]\n",
     "projectors[0].elements"),
])
def test_a_repeated_key_reports_its_path(text, path):
    with pytest.raises(ConfigError) as info:
        parse_config_text(text)
    assert str(info.value) == f"duplicate key '{path}'"


def test_a_mapping_shared_through_an_alias_is_not_a_duplicate():
    cfg = parse_config_text(
        "projectors:\n  - &x {elements: [{kind: ideal_polarizer, angle_deg: 0.0}]}\n"
        "  - *x\n")
    assert [p[0].theta_deg for p in cfg.projectors] == [0.0, 0.0]


def test_aliases_do_not_multiply_the_key_walk():
    # Each list holds the one before twice, so 40 levels reach the first
    # mapping 2**40 times; the walk visits each node once and is done at
    # once, and the first key is then refused as unknown.
    text = "l0: &l0 {k: 1}\n" + "".join(
        f"l{i}: &l{i} [*l{i - 1}, *l{i - 1}]\n" for i in range(1, 41))
    with pytest.raises(ConfigError, match="^unknown key 'l0'$"):
        parse_config_text(text)


def test_type_errors():
    with pytest.raises(ConfigError, match="'seed' must be an integer"):
        parse_config_text("seed: fast")
    with pytest.raises(ConfigError, match="'seed' must be an integer"):
        parse_config_text("seed: true")
    with pytest.raises(ConfigError, match="'runs' must be >= 1"):
        parse_config_text("runs: 0")
    with pytest.raises(ConfigError, match="'conditional' must be true or false"):
        parse_config_text("conditional: 1")
    with pytest.raises(ConfigError, match="must be a mapping"):
        parse_config_text("- a\n- b\n")
    with pytest.raises(ConfigError, match="malformed YAML"):
        parse_config_text("samples: [unclosed\n")


def test_malformed_yaml_quotes_the_line_with_a_caret_at_the_column():
    # The pure-Python loader's message; libyaml's CSafeLoader drops the
    # quoted line and the caret, and rewords the cause.
    with pytest.raises(ConfigError) as info:
        parse_config_text("seed: 1\nruns: 2: 3\n")
    assert str(info.value) == (
        "malformed YAML: mapping values are not allowed here\n"
        '  in "<unicode string>", line 2, column 8:\n'
        "    runs: 2: 3\n"
        "           ^")


def test_element_parsing_and_errors():
    el = parse_element(
        {"kind": "partial_polarizer", "angle_deg": 90.0, "extinction": 3.7},
        "probe",
    )
    assert el.extinction == 3.7
    with pytest.raises(ConfigError, match="needs kind and angle_deg"):
        parse_element({"kind": "retarder"}, "x")
    # Physically invalid parameters surface as config errors.
    with pytest.raises(ConfigError, match="'x'"):
        parse_element(
            {"kind": "partial_polarizer", "angle_deg": 0.0, "extinction": 0.5},
            "x",
        )
    back = element_to_dict(el)
    assert back["kind"] == "partial_polarizer"
    assert back["extinction"] == 3.7


@pytest.mark.parametrize("kind, name", FOREIGN_PARAMETERS)
def test_element_rejects_a_key_its_kind_does_not_take(kind, name):
    own = "".join(f", {p}: 2.0" for p in ELEMENT_KINDS[kind])
    element = f"{{kind: {kind}, angle_deg: 10.0{own}"
    chain = f"probe: {{elements: [{element}}}]}}\n"
    assert parse_config_text(chain).probe_elements[0].kind == kind
    with pytest.raises(ConfigError, match=re.escape(
            f"unknown key 'probe.elements[0].{name}'")):
        parse_config_text(chain.replace("}]", f", {name}: 5.0}}]"))
    # A custom sample template is read as an element too.
    custom = f"samples: [{{family: custom, element: {element}, {name}: 5.0}}}}]"
    with pytest.raises(ConfigError, match=re.escape(
            f"unknown key 'samples[0].element.{name}'")):
        parse_config_text(custom)


def test_element_kind_errors_name_the_key():
    with pytest.raises(ConfigError, match=re.escape(
            "'x.kind' must be ideal_polarizer, partial_polarizer or retarder")):
        parse_element({"kind": "circular_polarizer", "angle_deg": 0.0}, "x")
    # Kinds and families that YAML reads as lists or mappings are refused
    # like any other unknown name.
    for kind in (["retarder"], {"a": 1}, None, 3):
        with pytest.raises(ConfigError, match=re.escape("'x.kind' must be")):
            parse_element({"kind": kind, "angle_deg": 0.0}, "x")
    for family in ("[LP]", "{a: 1}", "null"):
        with pytest.raises(ConfigError, match="must be LP, QWP or custom"):
            parse_config_text(f"samples: [{{family: {family}}}]")
    # Without a kind, the missing kind is the error, not another key.
    with pytest.raises(ConfigError, match="'x' needs kind and angle_deg"):
        parse_element({"angle_deg": 0.0, "extinction": 2.0}, "x")
    with pytest.raises(ConfigError, match=re.escape(
            "'x' with kind retarder needs retardance_rad")):
        parse_element({"kind": "retarder", "angle_deg": 0.0}, "x")
    with pytest.raises(ConfigError, match=re.escape(
            "'x' with kind partial_polarizer needs extinction")):
        parse_element({"kind": "partial_polarizer", "angle_deg": 0.0}, "x")
    # element_to_dict writes kind, angle_deg, then the kind's parameter.
    for el in (PolElement("ideal_polarizer", 3.0),
               PolElement("partial_polarizer", 3.0, extinction=2.0),
               PolElement("retarder", 3.0, retardance_rad=1.0)):
        assert list(element_to_dict(el)) == ["kind", "angle_deg",
                                             *ELEMENT_KINDS[el.kind]]
        assert parse_element(element_to_dict(el), "x") == el


def test_element_extinction_may_be_infinite():
    # Only the extinction may be infinite: the polarizer is then ideal.
    el = parse_element({"kind": "partial_polarizer", "angle_deg": 0.0,
                        "extinction": math.inf}, "x")
    assert el.extinction == math.inf
    with pytest.raises(ConfigError, match=r"'x\.retardance_rad' must be finite"):
        parse_element({"kind": "retarder", "angle_deg": 0.0,
                       "retardance_rad": math.inf}, "x")


@pytest.mark.parametrize("text, message", [
    ("state: {kind: werner, p: 0.9, matrix_csv: rho.csv}",
     "unknown key 'state.matrix_csv'"),
    ("state: {kind: matrix_csv, matrix_csv: rho.csv, p: 0.3}",
     "unknown key 'state.p'"),
    ("state: {kind: bell_psi_plus, p: 0.3}", "unknown key 'state.p'"),
    ("state: {matrix_csv: rho.csv}", "unknown key 'state.matrix_csv'"),
    ("state: {kind: matrix_csv}", "'state' with kind matrix_csv needs matrix_csv"),
    ("state: {kind: [werner], p: 0.3}",
     "'state.kind' must be bell_psi_plus, werner or matrix_csv"),
    ("state: [werner]", "'state' must be a mapping"),
], ids=["werner_matrix_csv", "matrix_csv_p", "bell_p", "default_matrix_csv",
        "matrix_csv_missing", "list_kind", "not_a_mapping"])
def test_state_kind_takes_only_its_keys(text, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config_text(text)


def test_state_variants(tmp_path):
    with pytest.raises(ConfigError, match="kind werner needs p"):
        parse_config_text("state: {kind: werner}")
    # p and matrix_csv belong to the other kinds.
    with pytest.raises(ConfigError, match=r"unknown key 'state\.p'"):
        parse_config_text("state: {p: 0.5}")
    with pytest.raises(ConfigError, match="bell_psi_plus, werner or matrix_csv"):
        parse_config_text("state: {kind: ghz}")
    save_density_csv(werner(0.8), str(tmp_path / "rho.csv"))
    cfg_file = tmp_path / "exp.yaml"
    cfg_file.write_text("state: {kind: matrix_csv, matrix_csv: rho.csv}\n")
    # The matrix path resolves relative to the config file location.
    cfg = load_config(str(cfg_file))
    npt.assert_allclose(cfg.state.matrix, werner(0.8).matrix, atol=1e-9)


def test_explicit_bell_state_is_the_default():
    explicit = parse_config_text("state: {kind: bell_psi_plus}").state
    assert explicit.matrix.tobytes() == parse_config_text("").state.matrix.tobytes()


def test_sample_family_rules():
    with pytest.raises(ConfigError, match="must be LP, QWP or custom"):
        parse_config_text("samples: [{family: HWP}]")
    with pytest.raises(ConfigError, match="only valid for custom"):
        parse_config_text(
            "samples: [{family: LP, element: {kind: retarder, angle_deg: 0}}]"
        )
    with pytest.raises(ConfigError, match="custom family needs an element"):
        parse_config_text("samples: [{family: custom}]")
    with pytest.raises(ConfigError, match=r"step' must be > 0"):
        parse_config_text("samples: [{family: LP, thetas: {step: 0}}]")


@pytest.mark.parametrize("thetas", ["", ", thetas: null", ", thetas: {}"],
                         ids=["absent", "null", "empty"])
def test_default_grid_is_one_degree_half_turn(thetas):
    # The range defaults build the grid: the bits of np.arange(0, 180, 1).
    cfg = parse_config_text(f"samples: [{{family: LP{thetas}}}]")
    assert cfg.samples[0].thetas.tobytes() == np.arange(0.0, 180.0, 1.0).tobytes()


def test_counting_rules():
    with pytest.raises(ConfigError, match="needs pair_rate and integration_time"):
        parse_config_text("counting: {pair_rate: 100}")
    with pytest.raises(ConfigError, match="'counting'"):
        parse_config_text(
            "counting: {pair_rate: 100, integration_time: 1, drift_amplitude: 1.5}"
        )
    # A signal that underflows to 0 would count only zeros.
    with pytest.raises(ConfigError,
                       match="^'tomography.integration_time': every count would be 0"):
        parse_config_text("counting: {pair_rate: 1.0e-200, integration_time: 1}\n"
                          "tomography: {integration_time: 1.0e-200}")


@pytest.mark.parametrize("key", ["eff_signal", "eff_idler"])
@pytest.mark.parametrize("value", ["0", "0.0", "-0.5", "1.2"])
def test_detection_efficiencies_lie_in_the_unit_interval(key, value):
    text = "counting: {pair_rate: 100, integration_time: 1, %s: %s}"
    with pytest.raises(ConfigError,
                       match=f"^'counting': {key} must lie in \\(0, 1\\]$"):
        parse_config_text(text % (key, value))
    assert getattr(parse_config_text(text % (key, "1.0e-3")).counting, key) == 1e-3


@pytest.mark.parametrize("value", ["3.0e9", "1e-9", "1e9", "1.5E3"])
def test_a_number_read_as_a_string_names_the_yaml_cause(value):
    with pytest.raises(ConfigError, match="^" + re.escape(
            f"'counting.pair_rate' must be a number, not the string '{value}' "
            "(YAML reads a float only with a decimal point and a signed "
            "exponent, e.g. 3.0e+9)") + "$"):
        parse_config_text(f"counting: {{pair_rate: {value}, integration_time: 1}}")


@pytest.mark.parametrize("value", ["true", "fast", "nan", "'inf'", "'1e999'", "[1]"])
def test_other_non_numbers_keep_the_plain_message(value):
    # Booleans, words and strings that are not finite numbers; .inf is a float.
    with pytest.raises(ConfigError, match="^'counting.pair_rate' must be a number$"):
        parse_config_text(f"counting: {{pair_rate: {value}, integration_time: 1}}")


OPTIMIZE_LISTS = ("optimize: {samples: [{family: LP, theta_deg: 0}, "
                  "{family: LP, theta_deg: 45}], projectors: [{lp_deg: 20}]}")


@pytest.mark.parametrize("text, path", [
    ("probe: {elements: {kind: ideal_polarizer, angle_deg: 0}}", "probe.elements"),
    ("projectors: {elements: []}", "projectors"),
    ("samples: LP", "samples"),
    (OPTIMIZE_LISTS.replace("samples: [{family: LP, theta_deg: 0}, "
                            "{family: LP, theta_deg: 45}]", "samples: 2"),
     "optimize.samples"),
    (OPTIMIZE_LISTS.replace("[{lp_deg: 20}]", "{lp_deg: 20}"), "optimize.projectors"),
], ids=["elements", "projectors", "samples", "optimize.samples",
        "optimize.projectors"])
def test_each_list_key_refuses_a_non_list(tmp_path, capsys, text, path):
    config = tmp_path / "exp.yaml"
    config.write_text(text + "\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: '{path}' must be a list\n"
    assert not out.exists()


# A value that a domain constructor refuses: the config text, the
# config error, and the type of the domain error it is raised from.
DOMAIN_ERRORS = {
    "element": ("probe: {elements: [{kind: partial_polarizer, angle_deg: 0, "
                "extinction: 0.5}]}",
                "'probe.elements[0]': partial_polarizer needs extinction >= 1",
                ValueError),
    "state.p": ("state: {kind: werner, p: 1.5}",
                "'state.p': mixing parameter must lie in [0, 1]", ValueError),
    "state.matrix_csv-absent": (
        "state: {kind: matrix_csv, matrix_csv: absent.csv}",
        "'state.matrix_csv': [Errno 2] No such file or directory: '{dir}/absent.csv'",
        FileNotFoundError),
    "state.matrix_csv-malformed": (
        "state: {kind: matrix_csv, matrix_csv: rho.csv}",
        "'state.matrix_csv': density CSV must have a header and 4 rows",
        StateValidationError),
    "counting": ("counting: {pair_rate: 100, integration_time: 1, "
                 "drift_amplitude: 1.5}",
                 "'counting': drift amplitude must lie in [0, 1)", ValueError),
    "tomography.integration_time": (
        "counting: {pair_rate: 1.0e-200, integration_time: 1}\n"
        "tomography: {integration_time: 1.0e-200}",
        "'tomography.integration_time': every count would be 0: the pair rate "
        "gives no signal and there are no accidentals", ValueError),
    "optimize": (OPTIMIZE_LISTS[:-1] + ", vary_projectors: false}",
                 "'optimize': nothing to vary: needs vary_projectors, or a probe "
                 "with vary_probe", ValueError),
}


@pytest.mark.parametrize("case", sorted(DOMAIN_ERRORS))
def test_domain_errors_are_config_errors_at_their_key(tmp_path, capsys, case):
    text, message, domain = DOMAIN_ERRORS[case]
    message = message.replace("{dir}", str(tmp_path))
    (tmp_path / "rho.csv").write_text("re0,im0\n")
    config = tmp_path / "exp.yaml"
    config.write_text(text + "\n")
    with pytest.raises(ConfigError) as caught:
        load_config(str(config))
    assert str(caught.value) == message
    cause = caught.value.__cause__
    assert type(cause) is domain and message.endswith(f"': {cause}")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_projector_param_rules():
    with pytest.raises(ConfigError, match="needs lp_deg"):
        parse_config_text(
            "optimize:\n samples: [{family: LP, theta_deg: 0},"
            " {family: LP, theta_deg: 45}]\n projectors: [{qwp_deg: 10}]\n"
        )
    with pytest.raises(ConfigError, match="extinction' must be a number"):
        parse_config_text(
            "optimize:\n samples: [{family: LP, theta_deg: 0},"
            " {family: LP, theta_deg: 45}]\n"
            " projectors: [{lp_deg: 10, extinction: true}]\n"
        )


def test_optimize_rules():
    with pytest.raises(ConfigError, match="needs samples and projectors"):
        parse_config_text("optimize: {samples: []}")
    with pytest.raises(ConfigError, match="needs theta_deg"):
        parse_config_text(
            "optimize:\n samples: [{family: LP}]\n projectors: [{lp_deg: 0}]\n"
        )
    with pytest.raises(ConfigError, match=r"'optimize\.samples\[0\]' custom "
                       "family needs an element"):
        parse_config_text(
            "optimize:\n samples: [{family: custom, theta_deg: 0},"
            " {family: LP, theta_deg: 45}]\n projectors: [{lp_deg: 0}]\n"
        )
    with pytest.raises(ConfigError, match="must be joint or sequential"):
        parse_config_text(
            "optimize:\n samples: [{family: LP, theta_deg: 0},"
            " {family: LP, theta_deg: 45}]\n projectors: [{lp_deg: 0}]\n"
            " mode: fast\n"
        )


def test_tomography_model_is_the_counting_model_at_its_integration_time():
    counting = "counting: {pair_rate: 1000, integration_time: 1, drift_amplitude: 0.1}\n"
    base = parse_config_text(counting).counting
    for tomography, model in (
            ("", base),  # Left out, the section parses as {}.
            ("tomography: {}", base),
            ("tomography: {records_csv: r.csv}", base),
            ("tomography: {integration_time: 3}", replace(base, integration_time=3.0))):
        assert parse_config_text(counting + tomography).tomography_model == model
        assert parse_config_text(tomography).tomography_model is None


def test_tomography_integration_time_needs_simulated_records():
    assert parse_config_text(
        "tomography: {records_csv: r.csv}").tomography_model is None
    with pytest.raises(ConfigError, match=re.escape(
            "'tomography.integration_time' is only valid without records_csv")):
        parse_config_text("tomography: {records_csv: r.csv, integration_time: 2}")


@pytest.mark.parametrize("setting", [
    "{lp_deg: 10, qwp_first: false}",
    "{qwp_deg: null, lp_deg: 10, qwp_first: true}",
])
def test_qwp_first_needs_a_waveplate(setting):
    base = ("optimize:\n samples: [{family: LP, theta_deg: 0},"
            " {family: LP, theta_deg: 45}]\n")
    assert parse_config_text(
        base + " projectors: [{qwp_deg: 3, lp_deg: 10, qwp_first: false}]\n"
    ).optimize.projectors[0].qwp_first is False
    with pytest.raises(ConfigError, match=re.escape(
            "'optimize.projectors[0].qwp_first' is only valid with qwp_deg")):
        parse_config_text(base + f" projectors: [{setting}]\n")
    with pytest.raises(ConfigError, match=re.escape(
            "'optimize.probe.qwp_first' is only valid with qwp_deg")):
        parse_config_text(base + f" projectors: [{{lp_deg: 0}}]\n probe: {setting}\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(str(tmp_path / "absent.yaml"))


def test_settings_fragment_roundtrip():
    probe = ProjectorParam(qwp_deg=62.0, lp_deg=90.0)
    projectors = (
        ProjectorParam(qwp_deg=170.0, lp_deg=7.5),
        ProjectorParam(qwp_deg=None, lp_deg=34.0, extinction=3.7),
    )
    text = settings_fragment(probe, projectors)
    cfg = parse_config_text(text)
    assert [e.kind for e in cfg.probe_elements] == ["retarder", "ideal_polarizer"]
    assert cfg.probe_elements[0].theta_deg == 62.0
    assert len(cfg.projectors) == 2
    assert cfg.projectors[1][0].kind == "partial_polarizer"
    assert cfg.projectors[1][0].extinction == 3.7


def test_size_caps_reject_before_allocating(monkeypatch):
    monkeypatch.setattr(configio, "MAX_THETAS", 3)
    parse_config_text("samples: [{family: LP, thetas: [0, 1, 2]}]")
    with pytest.raises(ConfigError, match=r"'samples\[0\]\.thetas' has more"):
        parse_config_text("samples: [{family: LP, thetas: [0, 1, 2, 3]}]")
    parse_config_text("samples: [{family: LP, thetas: {stop: 3}}]")
    with pytest.raises(ConfigError, match=r"'samples\[0\]\.thetas' has more"):
        parse_config_text("samples: [{family: LP, thetas: {stop: 3.5}}]")
    monkeypatch.setattr(configio, "MAX_CELLS", 12)
    four_cells_per_run = ("projectors: [{elements: [{kind: ideal_polarizer, angle_deg: 0}]}]"
                 "\nsamples: [{family: LP, thetas: [0, 90]}, "
                 "{family: QWP, thetas: [0, 90]}]\n")
    # Without counting no cells are simulated, so runs is not capped.
    assert parse_config_text(four_cells_per_run + "runs: 4").runs == 4
    counting = "counting: {pair_rate: 1000, integration_time: 1}\n"
    assert parse_config_text(four_cells_per_run + counting + "runs: 3").runs == 3
    with pytest.raises(ConfigError, match="'runs': 16 count cells"):
        parse_config_text(four_cells_per_run + counting + "runs: 4")


def test_response_points_are_capped_without_counting(monkeypatch):
    monkeypatch.setattr(configio, "MAX_CELLS", 4)
    lp = "  - {elements: [{kind: ideal_polarizer, angle_deg: 0}]}\n"
    four_points = ("samples: [{family: LP, thetas: [0, 90]}, "
                   "{family: QWP, thetas: [0, 90]}]\nprojectors:\n" + lp)
    assert len(parse_config_text(four_points).projectors) == 1
    with pytest.raises(ConfigError, match=r"^'projectors': 8 response points "
                       r"\(orientations x projectors\) exceed 4$"):
        parse_config_text(four_points + lp)
    # With counting the runs x orientations x projectors cap applies.
    counting = "counting: {pair_rate: 1000, integration_time: 1}\nruns: 1\n"
    with pytest.raises(ConfigError, match="'runs': 8 count cells"):
        parse_config_text(four_points + lp + counting)
    monkeypatch.setattr(configio, "MAX_CELLS", 8)
    assert parse_config_text(four_points + lp + counting).runs == 1


OPTIMIZE_SECTION = """
optimize:
  samples: [{family: LP, theta_deg: 0}, {family: LP, theta_deg: 45}]
  projectors: [{qwp_deg: 10, lp_deg: 20, extinction: 50}]
  restarts: 2
"""


@pytest.mark.parametrize("extra, message", [
    ("", None),
    ("  vary_extinction: false\n", None),
    # The pairwise distances are samples^2 x projectors.
    ("  samples: [{family: LP, theta_deg: 0}, {family: LP, theta_deg: 45}, "
     "{family: QWP, theta_deg: 0}]\n",
     "'optimize.samples': 9 pairwise cells (samples^2 x projectors) exceed 6"),
    ("  restarts: 4\n",
     "'optimize.restarts': 8 start cells (restarts x coordinates) exceed 6"),
    # The finite extinction is a third coordinate only when varied.
    ("  vary_extinction: true\n", "'optimize.projectors': 12 simplex cells "
     "((coordinates + 1) x coordinates) exceed 6"),
    # A joint search holds the probe's and the projectors' coordinates;
    # a sequential one holds one stage at a time, and a fixed probe none.
    ("  probe: {qwp_deg: 1, lp_deg: 2}\n", "'optimize.projectors': 20 simplex "
     "cells ((coordinates + 1) x coordinates) exceed 6"),
    ("  probe: {qwp_deg: 1, lp_deg: 2}\n  mode: sequential\n", None),
    ("  probe: {qwp_deg: 1, lp_deg: 2}\n  vary_probe: false\n", None),
], ids=["base", "extinction_fixed", "samples", "restarts", "extinction_varied",
        "joint_probe", "sequential_probe", "fixed_probe"])
def test_optimize_arrays_are_capped(monkeypatch, extra, message):
    # Two samples, one projector and two angle coordinates make 4
    # pairwise cells, a 3 x 2 simplex and 2 x 2 start points.
    monkeypatch.setattr(configio, "MAX_CELLS", 6)
    node = yaml.safe_load(OPTIMIZE_SECTION)
    node["optimize"].update(yaml.safe_load(extra) or {})
    text = yaml.safe_dump(node)
    if message is None:
        assert parse_config_text(text).optimize.restarts == node["optimize"]["restarts"]
    else:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config_text(text)


def test_counting_means_are_bounded():
    base = "counting: {pair_rate: 1.0e+14, integration_time: 5, drift_amplitude: 0.5}"
    with pytest.raises(ConfigError, match=r"'counting\.pair_rate': mean count 7\.5e\+15"):
        parse_config_text(base.replace("1.0e+14", "1.0e+15"))
    assert parse_config_text(base).counting.pair_rate == 1e14
    with pytest.raises(ConfigError, match=r"'counting\.pair_rate' is out of range"):
        parse_config_text(base.replace("1.0e+14", "1" + "0" * 400))
    # pair_rate * integration_time overflows to inf.
    with pytest.raises(ConfigError, match=r"'counting\.pair_rate': mean count inf"):
        parse_config_text("counting: {pair_rate: 1.0e+300, integration_time: "
                          "1.0e+300}")
