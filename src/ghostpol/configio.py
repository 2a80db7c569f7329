"""Experiment configuration: strict YAML schema, parsing, emission.

Every key is checked against the schema; unknown keys are reported
with their full path so typos fail loudly instead of being ignored.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

# countsim's and optproj's types, named in annotations, load where a section needs them.
from .ghost import SAMPLE_FAMILIES, sample_element
from .polcalc import ELEMENT_KINDS, PERIOD_DEG, PolElement, is_angle_grid
from .qstate import TwoQubitDensity, bell_psi_plus, load_density_csv, werner


class ConfigError(ValueError):
    pass


# Size caps, checked before anything of that size is allocated: the
# points of one sample family's theta grid (a 0.01 degree grid over
# [0, 180)), and the cells of any one array a config asks for, such
# as runs x orientations x projectors count cells summed over all
# families (58 times the 0.25 degree, 8-run, three-projector benchmark).
MAX_THETAS = 18_000
MAX_CELLS = 2_000_000
# Largest max_evals, about 8 times the shipped 12,000; restarts may not
# exceed it either.  A run scores at most 4 x max_evals points: see
# optproj.optimize for the formula.
MAX_EVALS = 100_000

# The keys each state kind takes besides ``kind``, all required.
STATE_KINDS = {"bell_psi_plus": (), "werner": ("p",), "matrix_csv": ("matrix_csv",)}


@dataclass(eq=False)
class SampleSpec:
    family: str
    thetas: np.ndarray
    template: PolElement | None = None


@dataclass(eq=False)
class ExperimentConfig:
    seed: int = 0
    runs: int = 8
    conditional: bool = False
    state: TwoQubitDensity = field(default_factory=bell_psi_plus)
    probe_elements: list[PolElement] = field(default_factory=list)
    projectors: list[list[PolElement]] = field(default_factory=list)
    samples: list[SampleSpec] = field(default_factory=list)
    counting: CountModel | None = None
    records_csv: str | None = None
    # The counting model with tomography.integration_time applied.
    tomography_model: CountModel | None = None
    optimize: OptimizationConfig | None = None


def _section(node, path: str, allowed: set[str],
             required: tuple[str, ...] = ()) -> dict:
    """``node`` as a mapping whose keys are all in ``allowed`` and which
    holds every key of ``required``; ``path`` "" is the document root."""
    if not isinstance(node, dict):
        raise ConfigError(f"'{path or '<root>'}' must be a mapping")
    for key in node:
        if key not in allowed:
            raise ConfigError(f"unknown key '{path}.{key}'" if path
                              else f"unknown key '{key}'")
    if any(key not in node for key in required):
        raise ConfigError(f"'{path}' needs {' and '.join(required)}")
    return node


def _one_of(names) -> str:
    names = list(names)
    return f"{', '.join(names[:-1])} or {names[-1]}"


def _kind_section(node, path: str, kinds: dict, fixed: tuple[str, ...] = (),
                  default: str | None = None) -> tuple[dict, str]:
    """``node`` as a mapping, and its ``kind``: a key of ``kinds``, or
    ``default`` when left out (else required).  That kind's keys in
    ``kinds`` and ``fixed`` are required and any other key is unknown;
    without a kind any kind's keys pass, so the missing kind is the error."""
    kind = node.get("kind", default) if isinstance(node, dict) else default
    if isinstance(node, dict) and "kind" in node and \
            not (isinstance(kind, str) and kind in kinds):
        raise ConfigError(f"'{path}.kind' must be {_one_of(kinds)}")
    keys = kinds[kind] if kind is not None else set().union(*kinds.values())
    node = _section(node, path, {"kind", *fixed, *keys},
                    fixed if default else ("kind", *fixed))
    if any(key not in node for key in keys):
        raise ConfigError(f"'{path}' with kind {kind} needs {' and '.join(keys)}")
    return node, kind


def _each(node, path: str, parse) -> list:
    """``parse(item, item_path)`` of each item of the list ``node``."""
    if not isinstance(node, list):
        raise ConfigError(f"'{path}' must be a list")
    return [parse(item, f"{path}[{i}]") for i, item in enumerate(node)]


def _number(node, path: str, finite: bool = False) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        try:  # PyYAML reads 3.0e9 and 1e9 as strings.
            numeric = isinstance(node, str) and math.isfinite(float(node))
        except ValueError:
            numeric = False
        raise ConfigError(f"'{path}' must be a number" + (
            f", not the string {node!r} (YAML reads a float only with a decimal "
            "point and a signed exponent, e.g. 3.0e+9)" if numeric else ""))
    try:
        value = float(node)
    except OverflowError:
        raise ConfigError(f"'{path}' is out of range") from None
    if finite and not math.isfinite(value):
        raise ConfigError(f"'{path}' must be finite")
    return value


def _integer(node, path: str, minimum: int) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ConfigError(f"'{path}' must be an integer")
    if node < minimum:
        raise ConfigError(f"'{path}' must be >= {minimum}")
    return node


def _boolean(node, path: str) -> bool:
    if not isinstance(node, bool):
        raise ConfigError(f"'{path}' must be true or false")
    return node


def _file_path(node, key: str, base_dir: str) -> str:
    """``node``, a file path relative to the config's ``base_dir``."""
    if not isinstance(node, str) or not node:
        raise ConfigError(f"'{key}' must be a file path")
    return os.path.join(base_dir, node)


def _cap(key: str, cells: int, what: str) -> None:
    if cells > MAX_CELLS:
        raise ConfigError(f"'{key}': {cells} {what} exceed {MAX_CELLS}")


def _built(key: str, make, /, *args, **kwargs):
    """``make(*args, **kwargs)``, an OSError or ValueError a config error at ``key``."""
    try:
        return make(*args, **kwargs)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"'{key}': {exc}") from exc


def parse_element(node, path: str) -> PolElement:
    node, kind = _kind_section(node, path, ELEMENT_KINDS, ("angle_deg",))
    # An extinction may be infinite: the partial polarizer is then ideal.
    values = {key: _number(node[key], f"{path}.{key}", finite=key != "extinction")
              for key in (*ELEMENT_KINDS[kind], "angle_deg")}
    return _built(path, PolElement, kind, values.pop("angle_deg"), **values)


def element_to_dict(element: PolElement) -> dict:
    params = ELEMENT_KINDS[element.kind]
    return {"kind": element.kind, "angle_deg": float(element.theta_deg),
            **{key: float(getattr(element, key)) for key in params}}


def _parse_element_chain(node, path: str) -> list[PolElement]:
    node = _section(node, path, {"elements"}, ("elements",))
    elements = _each(node["elements"], f"{path}.elements", parse_element)
    if not elements:
        raise ConfigError(f"'{path}.elements' must not be empty")
    return elements


def _parse_state(node, path: str, base_dir: str) -> TwoQubitDensity:
    node, kind = _kind_section(node, path, STATE_KINDS, default="bell_psi_plus")
    if kind == "bell_psi_plus":
        return bell_psi_plus()
    if kind == "werner":
        return _built(f"{path}.p", werner, _number(node["p"], f"{path}.p"))
    key = f"{path}.matrix_csv"
    return _built(key, load_density_csv, _file_path(node["matrix_csv"], key, base_dir))


def _parse_thetas(node, path: str) -> np.ndarray:
    if isinstance(node, list):
        if len(node) > MAX_THETAS:
            raise ConfigError(f"'{path}' has more than {MAX_THETAS} angles")
        grid = np.array([_number(v, f"{path}[{i}]", finite=True)
                         for i, v in enumerate(node)])
    else:  # Left out or null, the range defaults give 0, 1, ..., 179.
        node = _section({} if node is None else node, path, {"start", "stop", "step"})
        start = _number(node.get("start", 0.0), f"{path}.start", finite=True)
        stop = _number(node.get("stop", PERIOD_DEG), f"{path}.stop", finite=True)
        step = _number(node.get("step", 1.0), f"{path}.step", finite=True)
        if step <= 0.0:
            raise ConfigError(f"'{path}.step' must be > 0")
        # np.arange makes ceil((stop - start) / step) points, and refuses a
        # stop far below start instead of making none.
        n_points = (stop - start) / step
        if n_points > MAX_THETAS:
            raise ConfigError(f"'{path}' has more than {MAX_THETAS} angles")
        grid = np.arange(start, stop, step) if n_points > 0.0 else np.empty(0)
    if grid.size == 0 or not is_angle_grid(grid):
        raise ConfigError(f"'{path}' must be a non-empty, strictly increasing grid in [0, 180)")
    return grid + 0.0  # -0.0 passes the checks; + 0.0 makes it 0.0


def _sample_family(node: dict, path: str) -> tuple[str, PolElement | None]:
    """Family and template element of a sample mapping: ``element`` is
    required for the custom family and refused for the others."""
    family = node.get("family")
    if not (isinstance(family, str) and family in SAMPLE_FAMILIES):
        raise ConfigError(f"'{path}.family' must be {_one_of(SAMPLE_FAMILIES)}")
    custom = SAMPLE_FAMILIES[family] is None
    if ("element" in node) != custom:
        raise ConfigError(f"'{path}' custom family needs an element" if custom
                          else f"'{path}.element' is only valid for custom family")
    return family, parse_element(node["element"], f"{path}.element") if custom else None


def _parse_sample(node, path: str) -> SampleSpec:
    node = _section(node, path, {"family", "element", "thetas"})
    family, template = _sample_family(node, path)
    return SampleSpec(family, _parse_thetas(node.get("thetas"), f"{path}.thetas"),
                      template)


def _parse_counting(node, path: str) -> CountModel:
    from .countsim import CountModel
    node = _section(node, path, {
        "pair_rate", "integration_time", "eff_signal", "eff_idler",
        "coincidence_window", "singles_background", "drift_amplitude",
    }, ("pair_rate", "integration_time"))
    kwargs = {k: _number(v, f"{path}.{k}", finite=True) for k, v in node.items()}
    model = _built(path, CountModel, **kwargs)
    _check_means(model)
    return model


def _check_means(model: CountModel, key: str | None = None) -> None:
    """Reject a model whose Poisson means could exceed ``MAX_MEAN``.

    Each term of the largest cell mean, signal_mean(1) * (1 + drift) +
    accidental_mean(), is checked on its own and reported under ``key``,
    or else under the counting key that sets it; no singles are drawn.
    """
    from .countsim import MAX_MEAN
    terms = (
        ("pair_rate", model.signal_mean(1.0, 1.0 + model.drift_amplitude)),
        ("coincidence_window", model.accidental_mean()),
    )
    for name, mean in terms:
        if not mean <= MAX_MEAN:
            raise ConfigError(
                f"'{key or f'counting.{name}'}': mean count {mean:.3g} per "
                f"integration exceeds {MAX_MEAN:.0e}"
            )


def _parse_tomography(node, path: str, base_dir: str, counting: CountModel | None,
                      ) -> tuple[str | None, CountModel | None]:
    """``records_csv`` and the tomography counting model."""
    node = _section(node, path, {"integration_time", "records_csv"})
    if "integration_time" in node:
        key = f"{path}.integration_time"
        integration_time = _number(node["integration_time"], key, finite=True)
        if integration_time <= 0.0:
            raise ConfigError(f"'{key}' must be > 0")
        if "records_csv" in node:
            raise ConfigError(f"'{key}' is only valid without records_csv")
        if counting is not None:
            # A product that underflows to 0 would count only zeros.
            counting = _built(key, replace, counting, integration_time=integration_time)
            _check_means(counting, key)
    if "records_csv" in node:
        return _file_path(node["records_csv"], f"{path}.records_csv",
                          base_dir), counting
    return None, counting


def _parse_projector_param(node, path: str) -> ProjectorParam:
    from .optproj import ProjectorParam
    node = _section(node, path, {"qwp_deg", "lp_deg", "extinction", "qwp_first"},
                    ("lp_deg",))
    qwp = node.get("qwp_deg")
    if qwp is not None:
        qwp = _number(qwp, f"{path}.qwp_deg", finite=True)
    elif "qwp_first" in node:
        raise ConfigError(f"'{path}.qwp_first' is only valid with qwp_deg")
    extinction = _number(node.get("extinction", math.inf), f"{path}.extinction")
    if not extinction >= 1.0:
        raise ConfigError(f"'{path}.extinction' must be >= 1")
    return ProjectorParam(
        qwp, _number(node["lp_deg"], f"{path}.lp_deg", finite=True), extinction,
        _boolean(node.get("qwp_first", True), f"{path}.qwp_first"))


def _parse_setting_sample(node, path: str) -> PolElement:
    node = _section(node, path, {"family", "theta_deg", "element"}, ("theta_deg",))
    family, template = _sample_family(node, path)
    theta = _number(node["theta_deg"], f"{path}.theta_deg", finite=True)
    return sample_element(family, theta, template)


def _parse_optimize(node, path: str) -> OptimizationConfig:
    from .optproj import OptimizationConfig, search_stages
    node = _section(node, path, {
        "samples", "projectors", "probe", "mode", "restarts", "max_evals",
        "vary_probe", "vary_projectors", "vary_extinction",
    }, ("samples", "projectors"))
    samples = _each(node["samples"], f"{path}.samples", _parse_setting_sample)
    if len(samples) < 2:
        raise ConfigError(f"'{path}.samples' needs at least two samples")
    projectors = _each(node["projectors"], f"{path}.projectors",
                       _parse_projector_param)
    if not projectors:
        raise ConfigError(f"'{path}.projectors' must not be empty")
    options: dict = {}
    if "probe" in node:
        options["probe"] = _parse_projector_param(node["probe"], f"{path}.probe")
    if "mode" in node:
        if node["mode"] not in ("joint", "sequential"):
            raise ConfigError(f"'{path}.mode' must be joint or sequential")
        options["mode"] = node["mode"]
    max_evals = _integer(node.get("max_evals", OptimizationConfig.max_evals),
                         f"{path}.max_evals", 1)
    if max_evals > MAX_EVALS:
        raise ConfigError(f"'{path}.max_evals' must be <= {MAX_EVALS}")
    restarts = _integer(node.get("restarts", OptimizationConfig.restarts),
                        f"{path}.restarts", 1)
    if restarts > max_evals:
        raise ConfigError(f"'{path}.restarts' must be <= max_evals ({max_evals})")
    for flag in ("vary_probe", "vary_projectors", "vary_extinction"):
        if flag in node:
            options[flag] = _boolean(node[flag], f"{path}.{flag}")
    config = _built(path, OptimizationConfig, tuple(samples), tuple(projectors),
                    restarts=restarts, max_evals=max_evals, **options)
    # The objective's pairwise differences, the largest stage's simplex and starts.
    n = max(rows.size for _, (rows, _) in search_stages(config)[2])
    _cap(f"{path}.samples", len(samples) ** 2 * len(projectors),
         "pairwise cells (samples^2 x projectors)")
    _cap(f"{path}.projectors", (n + 1) * n,
         "simplex cells ((coordinates + 1) x coordinates)")
    _cap(f"{path}.restarts", restarts * n, "start cells (restarts x coordinates)")
    return config


def _check_keys(node, path: str, seen: set) -> None:
    """Refuse a key repeated in a mapping of the composed YAML ``node``;
    a node that aliases reach again is not walked again."""
    if not isinstance(node, yaml.CollectionNode) or id(node) in seen:
        return
    seen.add(id(node))
    names = set()
    for i, item in enumerate(node.value):  # a mapping's items are (key, value)
        if isinstance(node, yaml.SequenceNode):
            _check_keys(item, f"{path}[{i}]", seen)
        elif isinstance(item[0], yaml.ScalarNode):  # other keys fail construction
            name = f"{path}.{item[0].value}" if path else item[0].value
            if name in names:
                raise ConfigError(f"duplicate key '{name}'")
            names.add(name)
            _check_keys(item[1], name, seen)


def parse_config_text(text: str, base_dir: str = ".") -> ExperimentConfig:
    try:  # yaml.safe_load's compose and construct, with the key check between.
        loader = yaml.SafeLoader(text)
        node = loader.get_single_node()
        _check_keys(node, "", set())
        data = None if node is None else loader.construct_document(node)
    except ConfigError:
        raise
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise ConfigError(f"malformed YAML: {exc}") from exc
    if data is None:
        data = {}
    data = _section(data, "", {
        "seed", "runs", "conditional", "state", "probe", "projectors",
        "samples", "counting", "tomography", "optimize",
    })
    cfg = ExperimentConfig()
    cfg.seed = _integer(data.get("seed", cfg.seed), "seed", 0)
    cfg.runs = _integer(data.get("runs", cfg.runs), "runs", 1)
    cfg.conditional = _boolean(data.get("conditional", cfg.conditional), "conditional")
    if "state" in data:
        cfg.state = _parse_state(data["state"], "state", base_dir)
    if "probe" in data:
        cfg.probe_elements = _parse_element_chain(data["probe"], "probe")
    if "projectors" in data:
        cfg.projectors = _each(data["projectors"], "projectors", _parse_element_chain)
    if "samples" in data:
        cfg.samples = _each(data["samples"], "samples", _parse_sample)
        families = [s.family for s in cfg.samples]
        for i, family in enumerate(families):
            if family in families[:i]:
                raise ConfigError(
                    f"'samples[{i}].family' repeats {family} of "
                    f"samples[{families.index(family)}]; each family names "
                    f"its own output files"
                )
    if "counting" in data:
        cfg.counting = _parse_counting(data["counting"], "counting")
    cfg.records_csv, cfg.tomography_model = _parse_tomography(
        data.get("tomography", {}), "tomography", base_dir, cfg.counting)
    if "optimize" in data:
        cfg.optimize = _parse_optimize(data["optimize"], "optimize")
    n_points = sum(s.thetas.size for s in cfg.samples) * len(cfg.projectors)
    if cfg.counting is None:
        _cap("projectors", n_points, "response points (orientations x projectors)")
    else:
        _cap("runs", cfg.runs * n_points,
             "count cells (runs x orientations x projectors)")
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, base_dir=os.path.dirname(os.path.abspath(path)))


def settings_fragment(probe: ProjectorParam | None,
                      projectors: tuple[ProjectorParam, ...]) -> str:
    """Best measurement settings as a reusable YAML config fragment."""
    def chain(param: ProjectorParam) -> dict:
        return {"elements": [element_to_dict(e) for e in param.elements()]}

    doc = {} if probe is None else {"probe": chain(probe)}
    doc["projectors"] = [chain(p) for p in projectors]
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)
