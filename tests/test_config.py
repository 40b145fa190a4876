import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levylab import config
from levylab.config import (
    DEFAULTS,
    SUITE_NAMES,
    parse_config,
    serialize_config,
    with_overrides,
)
from levylab.errors import ConfigParseError, UnknownCoefficientName
from levylab.problems import REGISTRY

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

MINIMAL = """
[levy]
atoms = 1.0:1.0

[grid]
horizon = 1.0
n_steps = 50

[suite]
checks = orthonormality
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.levy.atoms == ((1.0, 1.0),)
    assert cfg.grid.n_steps == 50
    assert cfg.checks == ("orthonormality",)
    assert cfg.problem_name == DEFAULTS.problem_name
    assert cfg.penalization is None
    assert cfg.degree == DEFAULTS.degree


def test_unknown_key_reports_line():
    # the three removed knobs are unknown keys like any other
    for section, key, value in [
        ("grid", "bogus", "3"),
        ("forward", "a_mode", "local-time"),
        ("levy", "compensated", "false"),
        ("solver", "boundary_layer", "auto"),
    ]:
        text = f"[grid]\nhorizon = 1.0\n[{section}]\n{key} = {value}\n"
        with pytest.raises(ConfigParseError, match=f"unknown key '{key}'") as err:
            parse_config(text)
        assert err.value.line == 4, key


def test_unknown_section_rejected():
    with pytest.raises(ConfigParseError):
        parse_config("[nonsense]\nkey = 1\n")


def test_zero_steps_violates_grid_invariant():
    text = "[grid]\nn_steps = 0\n"
    with pytest.raises(ConfigParseError) as err:
        parse_config(text)
    assert err.value.line == 2


def test_unknown_coefficient_name():
    text = "[problem]\nname = examle51\n"
    with pytest.raises(UnknownCoefficientName):
        parse_config(text)


def test_duplicate_key_rejected():
    text = "[grid]\nn_steps = 5\nn_steps = 6\n"
    with pytest.raises(ConfigParseError):
        parse_config(text)


@pytest.mark.parametrize(
    "text, line",
    [
        ("[levy]\natoms = 0.3:2.0\nsigma = -0.5\n", 3),
        ("[levy]\nsigma = -0.5\n", 2),
    ],
    ids=["after-atoms", "alone"],
)
def test_negative_sigma_cites_its_line(text, line):
    with pytest.raises(ConfigParseError, match="sigma must be >= 0") as err:
        parse_config(text)
    assert err.value.line == line


def test_malformed_atoms_cite_their_line():
    text = "[levy]\natoms = 1.0:1.0, 1.0:2.0\n"
    with pytest.raises(ConfigParseError) as err:
        parse_config(text)
    assert err.value.line == 2


def test_bad_suite_name_rejected():
    with pytest.raises(ConfigParseError, match="nonsense") as err:
        parse_config("[suite]\nchecks = orthonormality, nonsense\n")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "text, line",
    [
        ("[problem]\nname = linear\nparam.phy = 0.5\n", 3),
        ("[problem]\nname = linear\nparam.fy = -0.2\nparam.bogus = 1\nparam.lx = 1.0\n", 4),
        # other overrides on earlier lines are not at fault
        ("[problem]\nparam.l0 = 2.0\nname = linear\nparam.phy = 0.5\nparam.lx = 1.0\n", 4),
    ],
    ids=["increasing-phi", "unknown-key", "increasing-phi-among-others"],
)
def test_bad_problem_param_cites_its_line(text, line):
    with pytest.raises(ConfigParseError, match="invalid problem parameters") as err:
        parse_config(text)
    assert err.value.line == line


def test_problem_error_naming_no_param_cites_the_name_line(monkeypatch):
    # a set whose own defaults break a declaration names no param. key
    defaults, constant = REGISTRY["constant"]

    def increasing(p):
        return {**constant(defaults), "beta_mono": 1.0}

    monkeypatch.setitem(REGISTRY, "increasing", ({}, increasing))
    with pytest.raises(ConfigParseError, match="beta_mono = 1.0") as err:
        parse_config("[problem]\ntheta = 1.0\nname = increasing\n")
    assert err.value.line == 3


@pytest.mark.parametrize("theta", ["0.0", "-1.0"])
def test_nonpositive_theta_rejected_on_its_line(theta):
    # the parser is the one check of theta: a problem no longer holds it
    with pytest.raises(ConfigParseError, match="theta must be positive") as err:
        parse_config(f"[problem]\nname = constant\ntheta = {theta}\nx0 = 0.0\n")
    assert err.value.line == 3


def test_x0_outside_domain_rejected():
    with pytest.raises(ConfigParseError):
        parse_config("[problem]\ntheta = 0.5\nx0 = 0.9\n")


def test_penalization_spellings():
    assert parse_config("[solver]\npenalization = projection\n").penalization is None
    assert parse_config("[solver]\npenalization = 16\n").penalization == 16.0
    with pytest.raises(ConfigParseError):
        parse_config("[solver]\npenalization = -4\n")


@pytest.mark.parametrize("schedule", ["4,4,16", "16,4", "0,4", "-1,4"])
def test_schedule_must_be_strictly_increasing_and_positive(schedule):
    # a repeated penalty would compare a family's solution with itself
    with pytest.raises(ConfigParseError, match="n_schedule must be") as err:
        parse_config(f"[solver]\nn_schedule = {schedule}\n")
    assert "line 2" in str(err.value)


def test_roundtrip_on_minimal():
    cfg = parse_config(MINIMAL)
    assert parse_config(serialize_config(cfg)) == cfg


def test_overrides():
    cfg = parse_config(MINIMAL)
    cfg2 = with_overrides(cfg, seed=9, n_paths=123, n_steps=7, penalization="8", out_dir="zzz")
    assert cfg2.seed == 9
    assert cfg2.n_paths == 123
    assert cfg2.grid.n_steps == 7
    assert cfg2.penalization == 8.0
    assert cfg2.out_dir == "zzz"
    assert with_overrides(cfg2, penalization="projection").penalization is None


@pytest.mark.parametrize(
    "override, message",
    [
        ({"penalization": "inf"}, "penalization must be finite"),
        ({"penalization": "1e400"}, "penalization must be finite"),
        ({"penalization": "-4"}, "penalization must be positive or 'projection'"),
        ({"seed": -1}, "seed must be a nonnegative integer"),
        ({"n_paths": 0}, "n_paths must be >= 1"),
        ({"n_steps": 0}, "n_steps must be >= 1"),
    ],
)
def test_overrides_use_the_file_parsers(override, message):
    cfg = parse_config(MINIMAL)
    with pytest.raises(ConfigParseError, match=message):
        with_overrides(cfg, **override)
    key, value = next(iter(override.items()))
    section = "grid" if key == "n_steps" else "solver"
    with pytest.raises(ConfigParseError, match=message):
        parse_config(f"[{section}]\n{key} = {value}\n")


PROBLEM_PARAMS = {name: tuple(defaults) for name, (defaults, _) in REGISTRY.items()}


def _number(draw, lo, hi):
    return f"{draw(st.floats(lo, hi)):.3f}"


@st.composite
def configs(draw):
    """Config text drawing every key of the schema, each present or absent."""
    n_atoms = draw(st.integers(0, 3))
    slots = draw(st.lists(st.integers(-6, 6).filter(lambda v: v != 0),
                          min_size=n_atoms, max_size=n_atoms, unique=True))
    atoms = ", ".join(f"{s / 4.0}:{_number(draw, 0.1, 3.0)}" for s in slots) or "none"
    name = draw(st.sampled_from(sorted(PROBLEM_PARAMS)))
    theta = draw(st.floats(0.5, 2.0))
    params = draw(st.lists(st.sampled_from(PROBLEM_PARAMS[name]), unique=True, max_size=3))
    sigma_x = draw(st.sampled_from([
        f"constant:{_number(draw, 0.1, 2.0)}",
        f"affine:{_number(draw, 0.5, 1.5)}:{_number(draw, -0.2, 0.2)}",
    ]))
    schedule = sorted(draw(st.lists(st.integers(1, 512), min_size=1, max_size=4, unique=True)))
    sections = {
        "levy": {
            "atoms": atoms,
            "drift_b": _number(draw, -1, 1),
            "sigma": draw(st.sampled_from(["0.0", _number(draw, 0.0, 1.0)])),
        },
        "grid": {
            "horizon": _number(draw, 0.5, 2.0),
            "n_steps": str(draw(st.integers(1, 300))),
        },
        "problem": {
            "name": name,
            "theta": f"{theta:.3f}",
            "x0": f"{draw(st.floats(-0.499, 0.499)):.3f}",
            **{f"param.{key}": _number(draw, -0.5, 0.0) for key in params},  # phy <= 0
        },
        "forward": {
            "sigma_x": sigma_x,
        },
        "solver": {
            "n_paths": str(draw(st.integers(1, 50000))),
            "penalization": draw(st.sampled_from(["projection", "4.0", "16.0", "0.5"])),
            "degree": str(draw(st.integers(0, 6))),
            "outer_b_samples": str(draw(st.integers(1, 8))),
            "seed": str(draw(st.integers(0, 2**32))),
            "n_schedule": ",".join(str(v) for v in schedule),
        },
        "fd": {
            "n_space": str(draw(st.integers(2, 400))),
            "n_time": str(draw(st.integers(1, 800))),
        },
        "suite": {
            "checks": draw(st.sampled_from(["all", "orthonormality", "skorokhod, uniqueness"])),
        },
        "output": {
            "dir": draw(st.sampled_from(["out", "out/quick", "results_1"])),
        },
    }
    lines = []
    for section, entries in sections.items():
        keys = draw(st.lists(st.sampled_from(sorted(entries)), unique=True))
        if any(key.startswith("param.") for key in keys) and "name" not in keys:
            keys.append("name")  # parameters belong to the drawn problem, not the default
        if keys:
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {entries[key]}" for key in keys)
    return "\n".join(lines) + "\n"


@given(configs())
@settings(max_examples=100, deadline=None)
def test_serialize_parse_roundtrip_property(text):
    cfg = parse_config(text)
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert serialize_config(again) == serialize_config(cfg)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_config_roundtrips(path):
    cfg = parse_config(path.read_text())
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    assert serialize_config(parse_config(text)) == text


def test_docstring_example_lists_every_key_and_roundtrips():
    # the format documented in the module docstring parses strictly, so it
    # can list no dead key, and it lists every key of the schema
    text = textwrap.dedent(config.__doc__.split("Example::", 1)[1])
    assert {(section, key) for section, key, *_ in config._KEYS} <= set(config._scan(text))
    cfg = parse_config(text)
    assert cfg.problem_params == (("fy", -0.1),)
    assert parse_config(serialize_config(cfg)) == cfg


def test_all_expands_to_every_suite():
    cfg = parse_config("[suite]\nchecks = all\n")
    assert cfg.checks == SUITE_NAMES
