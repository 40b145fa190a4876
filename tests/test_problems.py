import numpy as np
import pytest

from levylab.errors import UnknownCoefficientName
from levylab.problems import NO_OBSTACLE, REGISTRY, build_problem

T = np.array([0.0, 0.25, 0.9])
X = np.array([-0.8, 0.0, 0.6])
Y = np.array([-2.0, 0.5, 3.0])
Z = np.array([[0.3, -1.0], [-0.7, 2.0], [1.1, 0.4]])  # [point, component]


def closed_form(name, p):
    """(f, phi, g, terminal, obstacle) of set ``name`` at (T, X, Y, Z), written out."""
    zero = np.zeros(3)
    if name == "constant":
        return zero, zero, zero, np.full(3, p["terminal_level"]), np.full(3, p["obstacle_level"])
    if name == "linear":
        return (
            p["f0"] + p["fy"] * Y + p["fz1"] * Z[:, 0],
            p["phy"] * Y,
            p["g0"] + p["gy"] * Y,
            p["l0"] + p["lx"] * X,
            np.full(3, p["obstacle_level"]),
        )
    if name == "deterministic_obstacle":
        return zero, zero, zero, zero, p["level"] - p["slope"] * T
    assert name == "example51"
    return (
        p["fy"] * Y,
        p["phy"] * Y,
        zero,
        np.maximum(X, 0.0),
        p["h_scale"] * np.maximum(X, 0.0) + p["h_offset"],
    )


CASES = [
    ("constant", {}),
    ("constant", {"terminal_level": 2.5, "obstacle_level": 0.25}),
    ("linear", {}),
    ("linear", {"g0": 0.2, "gy": -0.3, "lx": 0.7, "fz1": 0.4, "obstacle_level": 0.1}),
    ("linear", {"phy": -1e5}),
    ("deterministic_obstacle", {}),
    ("deterministic_obstacle", {"level": 1.2, "slope": 0.5}),
    ("example51", {}),
    ("example51", {"h_scale": 1.0, "h_offset": 0.0, "fy": -0.3}),
    ("example51", {"phy": -1e6}),
]
IDS = [f"{name}-{'-'.join(overrides) or 'defaults'}" for name, overrides in CASES]


def test_cases_cover_every_registry_set():
    assert {name for name, _ in CASES} == set(REGISTRY)


@pytest.mark.parametrize("name, overrides", CASES, ids=IDS)
def test_coefficients_match_closed_forms(name, overrides):
    problem = build_problem(name, overrides)
    p = dict(problem.params)
    got = (
        problem.f(T, X, Y, Z),
        problem.phi(T, X, Y),
        problem.g(T, X, Y),
        problem.terminal(X),
        problem.obstacle(T, X),
    )
    for value, expected in zip(got, closed_form(name, p)):
        np.testing.assert_allclose(np.broadcast_to(value, (3,)), expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("name, overrides", CASES, ids=IDS)
def test_params_are_the_defaults_in_order_with_overrides(name, overrides):
    defaults, _ = REGISTRY[name]
    problem = build_problem(name, overrides)
    assert problem.params == tuple({**defaults, **overrides}.items())
    assert all(type(value) is float for _, value in problem.params)
    assert problem.name == name


@pytest.mark.parametrize("name, overrides", CASES, ids=IDS)
def test_phi_meets_its_declared_monotonicity_constant(name, overrides):
    # the deterministic form of the condition: for phi = beta * y the
    # product equals beta (y1 - y2)^2, so the declaration is exact
    problem = build_problem(name, overrides)
    assert problem.beta_mono <= 0.0
    y1, y2 = Y, np.array([1.5, -4.0, 3.25])
    lhs = (y1 - y2) * (problem.phi(T, X, y1) - problem.phi(T, X, y2))
    np.testing.assert_allclose(lhs, problem.beta_mono * (y1 - y2) ** 2, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", ["linear", "example51"])
@pytest.mark.parametrize("phy", [0.5, 1e-300, float("nan")])
def test_phi_increasing_in_y_is_rejected(name, phy):
    with pytest.raises(ValueError, match="phi must be nonincreasing in y"):
        build_problem(name, {"phy": phy})


@pytest.mark.parametrize("phy", [-1e5, -1e6, -0.0])
def test_phi_decreasing_steeply_is_accepted(phy):
    for name in ("linear", "example51"):
        assert build_problem(name, {"phy": phy}).beta_mono == phy


def test_bad_names_and_parameters():
    with pytest.raises(UnknownCoefficientName, match="nonsense"):
        build_problem("nonsense")
    with pytest.raises(ValueError, match=r"unknown parameters for 'example51': \['g0'\]"):
        build_problem("example51", {"g0": 1.0})


def test_flat_barrier_broadcasts_time_against_space():
    barrier = build_problem("linear").obstacle(T[:, None], X[None, :])
    np.testing.assert_array_equal(barrier, np.full((3, 3), NO_OBSTACLE))
