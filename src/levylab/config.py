"""Plain-text experiment configuration: strict key=value format with
sections, documented below, plus a canonical serializer.

Format
------
Lines are ``key = value`` inside ``[section]`` headers; ``#`` starts a
comment; blank lines are ignored.  Unknown sections or keys are errors
(strict mode), and invariant violations are reported with the offending
line number.  Example::

    [levy]
    atoms = 0.3:2.0, -0.2:1.0    # jump_size:intensity pairs, or 'none'
    drift_b = 0.0
    sigma = 0.0

    [grid]
    horizon = 1.0
    n_steps = 200

    [problem]
    name = example51             # constant | linear | deterministic_obstacle | example51
    theta = 1.0
    x0 = 0.0
    param.fy = -0.1              # numeric overrides of the named set

    [forward]
    sigma_x = constant:1.0       # or affine:a:b for a + b*x

    [solver]
    n_paths = 20000
    penalization = projection    # or a positive number
    outer_b_samples = 1
    seed = 20240601

    [fd]
    n_space = 200
    n_time = 400

    [suite]
    checks = all                 # or a comma list of suite names

    [output]
    dir = out
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Callable

import numpy as np

from .errors import ConfigParseError, LevyLabError
from .levy import LevySpec
from .paths import PathEnsemble, TimeGrid, simulate_ensemble
from .problems import ProblemSpec, build_problem
from .suites import GATES

SUITE_NAMES = tuple(GATES)


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative experiment description; builders turn it into objects.

    ``sigma_x`` is the forward coefficient as ``("constant", v)`` or
    ``("affine", a, b)``.  ``penalization`` (``None``: projection) is the
    penalty of the ``solve`` command's sweep; the regression basis is the
    solver's constant ``DEGREE`` and the penalty schedule the suites'
    constant ``N_SCHEDULE``.  Callers that need another size or seed derive
    a config with ``dataclasses.replace`` and build from that.
    """

    levy: LevySpec
    grid: TimeGrid
    problem_name: str
    problem_params: tuple[tuple[str, float], ...]
    theta: float
    x0: float
    sigma_x: tuple
    n_paths: int
    penalization: float | None
    outer_b_samples: int
    seed: int
    fd_space: int
    fd_time: int
    checks: tuple[str, ...]
    out_dir: str | None

    def build_levy(self) -> LevySpec:
        return self.levy

    def build_problem(self) -> ProblemSpec:
        return build_problem(self.problem_name, dict(self.problem_params))

    def build_sigma_x(self) -> Callable:
        kind, *params = self.sigma_x
        if kind == "constant":
            value = params[0]
            return lambda x: np.full_like(np.asarray(x, dtype=float), value)
        if kind == "affine":
            a, b = params
            return lambda x: a + b * np.asarray(x, dtype=float)
        raise ValueError(f"unknown sigma_x kind {kind!r}")

    def build_ensemble(self, outer_index: int = 0) -> PathEnsemble:
        """The forward ensemble of outer Brownian sample ``outer_index``.

        The one place the driver, grid, path count, seed, domain, start
        point and forward coefficient reach the simulation.
        """
        return simulate_ensemble(
            self.build_levy(), self.grid, self.n_paths, self.seed, theta=self.theta,
            x0=self.x0, sigma_x=self.build_sigma_x(), outer_index=outer_index,
        )


DEFAULTS = ExperimentConfig(
    levy=LevySpec(drift_b=0.0, sigma=0.0, atoms=((0.3, 2.0), (-0.2, 1.0))),
    grid=TimeGrid(horizon=1.0, n_steps=100),
    problem_name="example51",
    problem_params=(),
    theta=1.0,
    x0=0.0,
    sigma_x=("constant", 1.0),
    n_paths=4000,
    penalization=None,
    outer_b_samples=1,
    seed=12345,
    fd_space=100,
    fd_time=200,
    checks=SUITE_NAMES,
    out_dir=None,
)


# ---------------------------------------------------------------------------
# value parsers: text -> value, raising ValueError with the key-less message


def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"is not an integer: {text!r}") from None


def _checked(parse: Callable, ok: Callable, message: str) -> Callable:
    """``parse``, then reject values failing ``ok`` with ``message``."""

    def checked(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(message)
        return value

    return checked


def _atoms(text: str) -> tuple[tuple[float, float], ...]:
    if text.lower() in ("none", ""):
        return ()
    atoms = []
    for chunk in text.split(","):
        parts = chunk.strip().split(":")
        if len(parts) != 2:
            raise ValueError(f"expects jump:intensity pairs, got {chunk.strip()!r}")
        atoms.append((_float(parts[0]), _float(parts[1])))
    return tuple(atoms)


def _sigma_x(text: str) -> tuple:
    kind, *params = (part.strip() for part in text.split(":"))
    if (kind, len(params)) not in (("constant", 1), ("affine", 2)):
        raise ValueError(f"expects constant:v or affine:a:b, got {text!r}")
    return (kind, *map(_float, params))


def _checks(text: str) -> tuple[str, ...]:
    if text.strip().lower() == "all":
        return SUITE_NAMES
    checks = tuple(v.strip() for v in text.split(","))
    for chk in checks:
        if chk not in SUITE_NAMES:
            raise ValueError(f"names unknown suite {chk!r}; known: {', '.join(SUITE_NAMES)}")
    return checks


def _positive_or(word: str) -> Callable:
    """A positive number, or ``word`` (in any case) standing for ``None``."""
    positive = _checked(_float, lambda v: v > 0, f"must be positive or {word!r}")
    return lambda text: None if text.lower() == word else positive(text)


def _repr_or(word: str) -> Callable:
    return lambda value: word if value is None else repr(value)


def _at_least(low: int) -> Callable:
    return _checked(_int, lambda v: v >= low, f"must be >= {low}")


_positive = _checked(_float, lambda v: v > 0, "must be positive")


#: The config schema: (section, key, ExperimentConfig field, parser,
#: formatter), in file order.  A dotted field names an attribute of a
#: nested spec (``levy.atoms`` is ``cfg.levy.atoms``).  Parsers map the
#: text to the value and check the key's own range; a formatter returning
#: ``None`` leaves the key out.  ``[problem]`` also takes ``param.<name>``
#: numbers, the overrides of the named coefficient set.
_KEYS: tuple[tuple[str, str, str, Callable, Callable], ...] = (
    ("levy", "atoms", "levy.atoms", _atoms,
     lambda atoms: ", ".join(f"{b!r}:{a!r}" for b, a in atoms) or "none"),
    ("levy", "drift_b", "levy.drift_b", _float, repr),
    ("levy", "sigma", "levy.sigma", _checked(_float, lambda v: v >= 0, "must be >= 0"), repr),
    ("grid", "horizon", "grid.horizon", _positive, repr),
    ("grid", "n_steps", "grid.n_steps", _at_least(1), str),
    ("problem", "name", "problem_name", str, str),
    ("problem", "theta", "theta", _positive, repr),
    ("problem", "x0", "x0", _float, repr),
    ("forward", "sigma_x", "sigma_x", _sigma_x,
     lambda v: ":".join([v[0], *map(repr, v[1:])])),
    ("solver", "n_paths", "n_paths", _at_least(1), str),
    ("solver", "penalization", "penalization", _positive_or("projection"), _repr_or("projection")),
    ("solver", "outer_b_samples", "outer_b_samples", _at_least(1), str),
    ("solver", "seed", "seed",
     _checked(_int, lambda v: v >= 0, "must be a nonnegative integer"), str),
    ("fd", "n_space", "fd_space", _at_least(2), str),
    ("fd", "n_time", "fd_time", _at_least(1), str),
    ("suite", "checks", "checks", _checks, ", ".join),
    ("output", "dir", "out_dir", str, lambda v: v),
)

_PARAM_PREFIX = "param."


def _parse(parse: Callable, text: str, key: str, line: int | None):
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigParseError(f"{key} {exc}", line) from exc


def _scan(text: str) -> dict[tuple[str, str], tuple[str, int]]:
    """(section, key) -> (raw value, line number), strict on shape."""
    known = {(section, key) for section, key, *_ in _KEYS}
    sections = {section for section, _ in known}
    out: dict[tuple[str, str], tuple[str, int]] = {}
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in sections:
                raise ConfigParseError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in line:
            raise ConfigParseError(f"expected key = value, got {line!r}", lineno)
        if section is None:
            raise ConfigParseError("key outside of any [section]", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if (section, key) not in known and not (
            section == "problem" and key.startswith(_PARAM_PREFIX)
        ):
            raise ConfigParseError(f"unknown key {key!r} in section [{section}]", lineno)
        if (section, key) in out:
            raise ConfigParseError(f"duplicate key {key!r} in section [{section}]", lineno)
        out[section, key] = (value, lineno)
    return out


def _apply(base: ExperimentConfig, entries: dict, params: tuple) -> ExperimentConfig:
    """``base`` with the (section, key) -> (text, line) ``entries`` parsed in.

    Every entry goes through its key's parser; then the cross-field checks
    run on the result.
    """
    groups: dict[str, dict] = {"levy": {}, "grid": {}, "": {}}
    lines = {}
    for section, key, field, parse, _ in _KEYS:
        outer, _, inner = field.rpartition(".")
        if (section, key) in entries:
            text, lines[key] = entries[section, key]
            groups[outer][inner] = _parse(parse, text, key, lines[key])
        else:
            groups[outer][inner] = attrgetter(field)(base)
    top = groups[""]
    try:
        levy = LevySpec(**groups["levy"])
    except (LevyLabError, ValueError) as exc:
        raise ConfigParseError(f"invalid driver spec: {exc}", lines.get("atoms")) from exc
    theta, x0 = top["theta"], top["x0"]
    if not (-theta <= x0 <= theta):
        raise ConfigParseError(f"x0 must lie in [-theta, theta] = [{-theta}, {theta}]", lines.get("x0"))
    name = top["problem_name"]
    try:
        build_problem(name, dict(params))
    except ValueError as exc:
        # cite the param. key that the message names first, else the name
        found = ((str(exc).find(repr(key[len(_PARAM_PREFIX):])), line)
                 for (_, key), (_, line) in entries.items() if key.startswith(_PARAM_PREFIX))
        line = min((hit for hit in found if hit[0] >= 0), default=(0, lines.get("name")))[1]
        raise ConfigParseError(f"invalid problem parameters for {name!r}: {exc}", line) from exc
    return ExperimentConfig(levy=levy, grid=TimeGrid(**groups["grid"]), problem_params=params, **top)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config file; see the module docstring for the format."""
    entries = _scan(text)
    params = tuple(sorted(
        (key[len(_PARAM_PREFIX):], _parse(_float, value, key, line))
        for (_, key), (value, line) in entries.items()
        if key.startswith(_PARAM_PREFIX)
    ))
    return _apply(DEFAULTS, entries, params)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(parse(text))) == parse(text)."""
    blocks = []
    for section, entries in groupby(_KEYS, key=lambda entry: entry[0]):
        block = [f"[{section}]"]
        for _, key, field, _, fmt in entries:
            text = fmt(attrgetter(field)(cfg))
            if text is not None:
                block.append(f"{key} = {text}")
        if section == "problem":
            block.extend(f"{_PARAM_PREFIX}{key} = {value!r}" for key, value in cfg.problem_params)
        blocks.append("\n".join(block))
    return "\n\n".join(blocks) + "\n"


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def with_overrides(
    cfg: ExperimentConfig,
    seed: int | None = None,
    out_dir: str | None = None,
    n_paths: int | None = None,
    n_steps: int | None = None,
    penalization: str | None = None,
) -> ExperimentConfig:
    """Apply command-line style overrides to a parsed config.

    An override replaces the config field of its name.  It goes through
    that key's parser and the cross-field checks, like a value in a file.
    """
    overrides = {
        "seed": seed, "out_dir": out_dir, "n_paths": n_paths, "n_steps": n_steps,
        "penalization": penalization,
    }
    entries = {}
    for section, key, field, *_ in _KEYS:
        value = overrides.get(field.rpartition(".")[2])
        if value is not None:
            entries[section, key] = (str(value), None)
    return _apply(cfg, entries, cfg.problem_params)
