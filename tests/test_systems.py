import inspect
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delaykit as dk
from delaykit.errors import DivergenceError, ValidationError
from delaykit.systems import _CHECK_ROWS, _FLOAT_MAX_DIMENSION, DIVERGENCE_LIMIT

# Steps per divergence test for the oracle tests: every step its own block,
# blocks that a divergence falls inside, and the default.
CHECK_ROWS = [1, 7, _CHECK_ROWS]


class TestIntegrateRK4:
    def test_zero_field_stays_put(self):
        traj = dk.integrate_rk4(lambda x: np.zeros_like(x),
                                np.array([1.0, 2.0]), 0.3, 5)
        assert traj.shape == (5, 2)
        assert np.array_equal(traj, np.tile([1.0, 2.0], (5, 1)))

    def test_non_finite_dt_rejected(self):
        for dt in (np.inf, np.nan, 0.0, -0.1):
            with pytest.raises(ValidationError, match="positive and finite"):
                dk.integrate_rk4(lambda x: x, np.array([1.0]), dt, 2)

    def test_exponential_one_step(self):
        traj = dk.integrate_rk4(lambda x: x, np.array([1.0]), 0.1, 2)
        assert abs(traj[1, 0] - math.exp(0.1)) < 1e-7

    def test_fourth_order_convergence(self):
        # halving dt should shrink the one-step error by about 2^5
        def one_step_error(dt):
            traj = dk.integrate_rk4(lambda x: x, np.array([1.0]), dt, 2)
            return abs(traj[1, 0] - math.exp(dt))

        ratio = one_step_error(0.2) / one_step_error(0.1)
        assert 28 <= ratio <= 36

    def test_lorenz63_bounded(self):
        spec = dk.FlowSpec("lorenz63", {}, dt=1 / 64, steps=50000)
        traj = dk.integrate_rk4(spec.field_function(),
                                np.array([1.0, 1.0, 1.0]), spec.dt, spec.steps)
        assert np.max(np.abs(traj[:, 0])) < 25

    def test_divergence_reports_step(self):
        with pytest.raises(DivergenceError) as exc:
            dk.integrate_rk4(lambda x: x**2, np.array([10.0]), 1.0, 50)
        assert exc.value.step > 0

    def test_deterministic(self):
        spec = dk.FlowSpec("rossler", {}, dt=0.05, steps=500)
        args = (spec.field_function(), np.array([10.0, 0.0, 0.0]), 0.05, 500)
        assert np.array_equal(dk.integrate_rk4(*args), dk.integrate_rk4(*args))


class TestFlowTraces:
    def test_lorenz96_full_scale_length(self, lorenz96_50k):
        assert len(lorenz96_50k) == 50000

    def test_rossler_trace_length(self):
        spec = dk.FlowSpec("rossler", {"a": 0.15, "b": 0.20, "c": 10.0},
                           dt=math.pi / 100, steps=100000, transient=1000)
        series = dk.generate_flow_trace(spec, np.array([10.0, 0.0, 0.0]))
        assert len(series) == 99000

    def test_transient_boundary(self):
        spec = dk.FlowSpec("lorenz63", {}, dt=0.01, steps=10, transient=9)
        series = dk.generate_flow_trace(spec, np.array([1.0, 1.0, 1.0]))
        assert len(series) == 1

    def test_observed_index(self):
        spec_y = dk.FlowSpec("lorenz63", {}, dt=0.01, steps=50, observed_index=1)
        spec_x = dk.FlowSpec("lorenz63", {}, dt=0.01, steps=50, observed_index=0)
        x0 = np.array([2.0, -1.0, 20.0])
        assert dk.generate_flow_trace(spec_y, x0).values[0] == -1.0
        assert dk.generate_flow_trace(spec_x, x0).values[0] == 2.0

    def test_dimension_mismatch(self):
        spec = dk.FlowSpec("lorenz96", {"K": 5, "F": 5.0}, dt=0.01, steps=10)
        with pytest.raises(ValidationError):
            dk.generate_flow_trace(spec, np.zeros(4))

    def test_spec_invariants(self):
        with pytest.raises(ValidationError):
            dk.FlowSpec("lorenz96", {"K": 3, "F": 5.0})
        with pytest.raises(ValidationError):
            dk.FlowSpec("lorenz63", {}, dt=-0.1)
        with pytest.raises(ValidationError):
            dk.FlowSpec("lorenz63", {}, steps=10, transient=10)
        with pytest.raises(ValidationError):
            dk.FlowSpec("lorenz63", {}, observed_index=3)


class TestMapTraces:
    def test_logistic_hand_iteration(self):
        spec = dk.MapSpec("logistic", {"r": 3.65}, x0=(0.5,), n=3)
        values = dk.generate_map_trace(spec).values
        assert values[0] == 0.5
        assert values[1] == pytest.approx(0.9125, abs=1e-15)
        assert values[2] == pytest.approx(3.65 * 0.9125 * (1 - 0.9125), abs=1e-15)

    def test_logistic_fixed_point(self):
        r = 3.2
        spec = dk.MapSpec("logistic", {"r": r}, x0=(1 - 1 / r,), n=50)
        values = dk.generate_map_trace(spec).values
        assert np.allclose(values, 1 - 1 / r, atol=1e-12)

    def test_henon_bounded(self):
        spec = dk.MapSpec("henon", {"a": 1.4, "b": 0.3}, x0=(0.0, 0.0),
                          n=10000, transient=1000)
        values = dk.generate_map_trace(spec).values
        assert len(values) == 9000
        assert np.max(np.abs(values)) < 1.5

    def test_henon_divergence(self):
        spec = dk.MapSpec("henon", {}, x0=(50.0, 0.0), n=100)
        with pytest.raises(DivergenceError):
            dk.generate_map_trace(spec)

    def test_logistic_stays_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            spec = dk.MapSpec("logistic", {"r": rng.uniform(0.5, 4.0)},
                              x0=(rng.uniform(0, 1),), n=500)
            values = dk.generate_map_trace(spec).values
            assert np.all((values >= 0) & (values <= 1))

    def test_map_spec_invariants(self):
        with pytest.raises(ValidationError):
            dk.MapSpec("logistic", {"r": 4.5}, x0=(0.5,), n=10)
        with pytest.raises(ValidationError):
            dk.MapSpec("logistic", {}, x0=(1.5,), n=10)
        with pytest.raises(ValidationError):
            dk.MapSpec("henon", {}, x0=(0.1,), n=10)
        with pytest.raises(ValidationError):
            dk.MapSpec("logistic", {}, x0=(0.5,), n=5, transient=5)

    def test_deterministic(self):
        spec = dk.MapSpec("henon", {}, x0=(0.1, 0.1), n=2000, transient=100)
        a = dk.generate_map_trace(spec).values
        b = dk.generate_map_trace(spec).values
        assert np.array_equal(a, b)


@pytest.mark.parametrize("params", [{}, {"K": 6}, {"F": 8.0}])
def test_lorenz96_initial_state_merges_defaults(params):
    full = {**dk.systems.FLOW_DEFAULTS["lorenz96"], **params}
    x0 = dk.default_initial_state("lorenz96", params, 1)
    assert x0.tobytes() == dk.default_initial_state("lorenz96", full, 1).tobytes()
    # a draw for full parameters is the one it always was
    rng = np.random.default_rng(1)
    assert x0.tobytes() == (full["F"] + 0.1 * rng.standard_normal(full["K"])).tobytes()


@pytest.mark.parametrize("params", [{"K": 2.5}, {"K": -1}, {"K": 3}, {"F": np.inf}])
def test_lorenz96_initial_state_rejects_what_flowspec_rejects(params):
    with pytest.raises(ValidationError):
        dk.default_initial_state("lorenz96", params, 1)


def test_seeded_initial_states_replayable():
    for name in ("lorenz63", "lorenz96", "rossler", "henon", "logistic"):
        params = dict(dk.systems.FLOW_DEFAULTS.get(name, {}),
                      **dk.systems.MAP_DEFAULTS.get(name, {}))
        a = dk.default_initial_state(name, params, 42)
        b = dk.default_initial_state(name, params, 42)
        c = dk.default_initial_state(name, params, 43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, np.bool_(True), "3", None])
def test_seed_must_be_an_integer_of_at_least_zero(seed):
    with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
        dk.default_initial_state("lorenz63", {}, seed)


def test_numpy_integer_seed_draws_as_the_python_int():
    assert np.array_equal(dk.default_initial_state("rossler", {}, np.int32(7)),
                          dk.default_initial_state("rossler", {}, 7))


# the seeds below 4,000 whose first Henon draw diverges within 11 steps
HENON_ESCAPING_SEEDS = [231, 785, 1823, 1885, 1916, 2963, 3110]


@pytest.mark.parametrize("seed", HENON_ESCAPING_SEEDS)
def test_henon_escaping_draw_is_redrawn(seed):
    first = 0.1 * np.random.default_rng(seed).standard_normal(2)
    with pytest.raises(DivergenceError):
        dk.generate_map_trace(dk.MapSpec("henon", {}, x0=tuple(first), n=500))
    x0 = dk.default_initial_state("henon", {}, seed)
    assert not np.array_equal(x0, first)
    trace = dk.generate_map_trace(dk.MapSpec("henon", {}, x0=tuple(x0), n=20000))
    assert np.max(np.abs(trace.values)) < 2.0


def oracle_henon_draw(seed, a=1.4, b=0.3):
    """The Henon draw screened by its own copy of the step, as first
    written: the first of 100 draws that stays bounded for 1,000 steps."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        x0 = 0.1 * rng.standard_normal(2)
        x, y = float(x0[0]), float(x0[1])
        for _ in range(1000):
            x, y = 1.0 - a * x * x + y, b * x
            if not (abs(x) <= 1e12 and abs(y) <= 1e12):
                break
        else:
            return x0
    return x0


@pytest.mark.parametrize("a", [1.4, 1.43, 1.45])
def test_henon_draw_matches_the_screening_oracle(a):
    # past a = 1.427 the attractor is gone: most first draws escape, some
    # only after hundreds of steps
    for seed in [231, 785, 1823, *range(100)]:
        x0 = dk.default_initial_state("henon", {"a": a}, seed)
        assert x0.tobytes() == oracle_henon_draw(seed, a=a).tobytes()


def test_henon_bounded_draws_keep_their_first_draw():
    for seed in sorted(set(range(300)) - set(HENON_ESCAPING_SEEDS)):
        first = 0.1 * np.random.default_rng(seed).standard_normal(2)
        x0 = dk.default_initial_state("henon", {"a": 1.4, "b": 0.3}, seed)
        assert x0.tobytes() == first.tobytes()


# --------------------------------------------------------------------------
# Oracles: the per-step loops that the fast paths replaced, kept verbatim.
# Every trace and every divergence step must match them bit for bit.


def oracle_field(spec):
    """The fields as first written: numpy-scalar arithmetic and np.roll."""
    p = spec.params
    if spec.name == "lorenz63":
        sigma, rho, beta = p["sigma"], p["rho"], p["beta"]

        def f(v):
            x, y, z = v
            return np.array([sigma * (y - x), x * (rho - z) - y, x * y - beta * z])

        return f
    if spec.name == "rossler":
        a, b, c = p["a"], p["b"], p["c"]

        def f(v):
            x, y, z = v
            return np.array([-y - z, x + a * y, b + z * (x - c)])

        return f
    forcing = p["F"]

    def f(v):
        return (np.roll(v, -1) - np.roll(v, 2)) * np.roll(v, 1) - v + forcing

    return f


def oracle_integrate_rk4(field, x0, dt, steps):
    """The RK4 loop with the two-part finiteness and magnitude check."""
    x = np.array(x0, dtype=np.float64, copy=True)
    out = np.empty((steps, x.size), dtype=np.float64)
    out[0] = x
    half = dt / 2.0
    for i in range(1, steps):
        k1 = field(x)
        k2 = field(x + half * k1)
        k3 = field(x + half * k2)
        k4 = field(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > DIVERGENCE_LIMIT:
            raise DivergenceError(i)
        out[i] = x
    return out


def oracle_henon(spec):
    """The Henon loop with np.isfinite on every iterate."""
    a, b = spec.params["a"], spec.params["b"]
    xs = np.empty(spec.n, dtype=np.float64)
    x, y = spec.x0
    for i in range(spec.n):
        xs[i] = x
        x, y = 1.0 - a * x * x + y, b * x
        if not (np.isfinite(x) and np.isfinite(y)) or max(abs(x), abs(y)) > DIVERGENCE_LIMIT:
            raise DivergenceError(i + 1)
    return xs[spec.transient:]


def outcome(fn, *args):
    """``fn(*args)`` as bytes, or the step of the DivergenceError it raised,
    plus the distinct warnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = np.asarray(fn(*args)).tobytes()
        except DivergenceError as err:
            result = ("diverged", err.step)
    return result, {(w.category, str(w.message)) for w in caught}


FLOW_CASES = [
    ("lorenz96", {"K": 4}),
    ("lorenz96", {"K": 7, "F": 8}),
    ("lorenz96", {"K": 22}),
    ("lorenz96", {"K": 22, "F": 3.7}),
    # the widest field stepped on floats, and the narrowest on arrays
    ("lorenz96", {"K": _FLOAT_MAX_DIMENSION}),
    ("lorenz96", {"K": _FLOAT_MAX_DIMENSION + 1, "F": 8}),
    ("lorenz63", {}),
    ("lorenz63", {"rho": 35}),
    ("lorenz63", {"sigma": 9.5, "rho": np.float32(28.3), "beta": 2}),
    ("rossler", {}),
    ("rossler", {"a": 0.2, "b": 0.2, "c": 5.7}),
    ("rossler", {"c": 9}),
]


@pytest.mark.parametrize("dt", [1 / 64, 0.07])
@pytest.mark.parametrize("name,params", FLOW_CASES, ids=[
    "-".join([n, *(f"{k}={v}" for k, v in p.items())]) for n, p in FLOW_CASES])
def test_flows_match_oracle_bytes(name, params, dt):
    spec = dk.FlowSpec(name, params, dt=dt, steps=3000, transient=500,
                       observed_index=1)
    x0 = dk.default_initial_state(name, spec.params, seed=5)
    expected = oracle_integrate_rk4(oracle_field(spec), x0, dt, spec.steps)
    traj = dk.integrate_rk4(spec.field_function(), x0, dt, spec.steps)
    assert traj.tobytes() == expected.tobytes()
    series = dk.generate_flow_trace(spec, x0)
    assert series.values.tobytes() == expected[500:, 1].tobytes()


@pytest.mark.parametrize("params,x0", [
    ({}, (0.1, -0.05)),
    ({}, (0.0, 0.0)),
    ({"a": 1.2, "b": 0.25}, (0.3, 0.1)),
    ({"a": 1, "b": np.float32(0.3)}, (0.2, 0.2)),
])
def test_henon_matches_oracle_bytes(params, x0):
    spec = dk.MapSpec("henon", params, x0=x0, n=20000, transient=100)
    expected = oracle_henon(spec)
    assert dk.generate_map_trace(spec).values.tobytes() == expected.tobytes()


def _nan_above(v):
    return np.where(np.abs(v) > 50.0, np.nan, 2.0 * v)


def _inf_above(v):
    return np.where(np.abs(v) > 50.0, np.inf, 2.0 * v)


DIVERGENT_FIELDS = {
    "square": (lambda v: v * v, [10.0], 0.5),
    "nan": (_nan_above, [1.0, -3.0], 0.5),
    "inf": (_inf_above, [1.0, -3.0], 0.5),
    "above_limit": (lambda v: 50.0 * v, [1.0, 2.0, -1.0], 0.5),
}


@pytest.mark.parametrize("case", DIVERGENT_FIELDS, ids=list(DIVERGENT_FIELDS))
def test_divergence_step_and_warnings_match_oracle(case):
    field, x0, dt = DIVERGENT_FIELDS[case]
    x0 = np.array(x0)
    new, new_warnings = outcome(dk.integrate_rk4, field, x0, dt, 400)
    old, old_warnings = outcome(oracle_integrate_rk4, field, x0, dt, 400)
    assert new[0] == "diverged"
    assert new == old
    assert new_warnings <= old_warnings


@pytest.mark.parametrize("name,params,dt", [
    ("lorenz63", {}, 0.3),
    ("lorenz63", {"rho": 2800}, 0.05),
    ("lorenz96", {"K": 22, "F": 40}, 0.5),
    ("rossler", {"c": 1e3}, 1.0),
    ("rossler", {}, 0.16),
])
def test_flow_divergence_matches_oracle(monkeypatch, name, params, dt):
    spec = dk.FlowSpec(name, params, dt=dt, steps=2000)
    x0 = dk.default_initial_state(name, spec.params, seed=2)
    old, old_warnings = outcome(oracle_integrate_rk4, oracle_field(spec), x0, dt,
                                spec.steps)
    assert old[0] == "diverged"
    for rows in CHECK_ROWS:
        monkeypatch.setattr(dk.systems, "_CHECK_ROWS", rows)
        new, new_warnings = outcome(dk.integrate_rk4, spec.field_function(), x0, dt,
                                    spec.steps)
        assert new == old, rows
        assert new_warnings <= old_warnings


@pytest.mark.parametrize("x0", [(2.0, 2.0), (1.5, 0.0), (math.nan, 0.0),
                                (math.inf, 0.0), (50.0, 0.0)])
def test_henon_divergence_matches_oracle(monkeypatch, x0):
    spec = dk.MapSpec("henon", {}, x0=x0, n=500)
    old, old_warnings = outcome(oracle_henon, spec)
    assert old[0] == "diverged"
    for rows in CHECK_ROWS:
        monkeypatch.setattr(dk.systems, "_CHECK_ROWS", rows)
        new, new_warnings = outcome(lambda: dk.generate_map_trace(spec).values)
        assert new == old, rows
        assert new_warnings <= old_warnings


def test_flow_divergence_on_block_edges_and_last_step(monkeypatch):
    # Rossler at dt = 0.16 first fails at step 105: as the last step, as
    # the last row of a block, the first row of the next, or mid-block
    spec = dk.FlowSpec("rossler", {}, dt=0.16, steps=2000)
    x0 = dk.default_initial_state("rossler", spec.params, seed=2)
    field, oracle = spec.field_function(), oracle_field(spec)
    assert outcome(oracle_integrate_rk4, oracle, x0, spec.dt, 2000)[0] == (
        "diverged", 105)
    for rows in (1, 2, 7, 103, 104, 105, 1024):
        monkeypatch.setattr(dk.systems, "_CHECK_ROWS", rows)
        for steps in (105, 106, 107, 2000):
            new, new_warnings = outcome(dk.integrate_rk4, field, x0, spec.dt, steps)
            old, old_warnings = outcome(oracle_integrate_rk4, oracle, x0, spec.dt,
                                        steps)
            assert new == old, (rows, steps)
            assert new_warnings <= old_warnings


@pytest.mark.parametrize("params,x0", [
    ({}, (50.0, 0.0)),
    # |b| > 1: y passes the limit first
    ({"b": 1e13}, (0.5, 0.0)),
    ({"a": 0, "b": 3}, (0.1, 0.1)),
    ({"a": 0, "b": np.float32(3)}, (0.1, 0.1)),
    # numpy-scalar coefficients, which warn as they overflow
    ({"a": np.float32(1.4), "b": np.float32(0.3)}, (2.0, 2.0)),
    ({"b": np.float32(-2.5)}, (0.3, 0.1)),
    ({"a": np.float64(1.4)}, (1e200, 0.0)),
])
def test_henon_divergence_on_the_final_iterate(monkeypatch, params, x0):
    # with n = the failing iterate, the failure is the final iterate, which
    # the orbit never stores
    step = outcome(oracle_henon, dk.MapSpec("henon", params, x0=x0, n=5000))[0][1]
    for rows in (1, 2, 7, step - 1, step, 1024):
        monkeypatch.setattr(dk.systems, "_CHECK_ROWS", max(rows, 1))
        for n in (step, step + 1, 5000):
            spec = dk.MapSpec("henon", params, x0=x0, n=n)
            new, new_warnings = outcome(lambda: dk.generate_map_trace(spec).values)
            old, old_warnings = outcome(oracle_henon, spec)
            assert new == old == ("diverged", step), (rows, n)
            assert new_warnings <= old_warnings


@pytest.mark.parametrize("name,params", [("lorenz96", {"K": 5}),
                                         ("lorenz63", {}), ("rossler", {})],
                         ids=["lorenz96", "lorenz63", "rossler"])
def test_flow_trace_calls_integrator_through_module_global(monkeypatch, name,
                                                           params):
    # benchmark tracing wraps systems.integrate_rk4 and reads the arguments
    # by parameter name, so the lookup and the names are part of the contract
    # for the flows stepped on floats as well as on arrays
    original = dk.systems.integrate_rk4
    calls = []

    def counting(*args, **kwargs):
        calls.append(inspect.signature(original).bind(*args, **kwargs).arguments)
        return original(*args, **kwargs)

    monkeypatch.setattr(dk.systems, "integrate_rk4", counting)
    spec = dk.FlowSpec(name, params, dt=0.01, steps=40, transient=10)
    x0 = dk.default_initial_state(name, spec.params, seed=1)
    dk.generate_flow_trace(spec, x0)
    assert len(calls) == 1
    assert list(calls[0]) == ["field", "x0", "dt", "steps"]
    assert calls[0]["steps"] == 40
    assert np.array_equal(calls[0]["x0"], x0)


# --------------------------------------------------------------------------
# The float loop (Lorenz 63 and Rossler fields) against the array oracle.


@pytest.mark.parametrize("dt", [np.float32(1 / 64), np.float32(0.07),
                                np.float64(0.07), 1, np.longdouble(0.01)],
                         ids=["f32-1/64", "f32-0.07", "f64-0.07", "int", "longdouble"])
@pytest.mark.parametrize("name,params,x0", [
    ("lorenz63", {}, [1.0, 1.0, 1.0]),
    ("lorenz63", {"sigma": np.float32(10.0), "rho": np.float32(28.3)},
     np.array([2, -1, 20])),
    ("lorenz63", {"sigma": 10, "rho": 28, "beta": 3}, np.float32([1.5, 1.0, 9.0])),
    ("rossler", {}, [10.0, 0.0, 0.0]),
    ("rossler", {"a": np.float32(0.2), "b": 0, "c": 6}, np.array([1, 1, 0])),
    ("lorenz96", {"K": 22, "F": np.float32(5.3)},
     dk.default_initial_state("lorenz96", {"K": 22}, 3)),
    ("lorenz96", {"K": 7, "F": 8}, np.array([8, 8, 8, 8, 8, 8, 9])),
], ids=["l63", "l63-f32-coef-int-x0", "l63-int-coef-f32-x0", "rossler",
        "rossler-mixed-coef-int-x0", "l96-f32-forcing", "l96-int-forcing-int-x0"])
def test_step_constants_keep_caller_dtype(name, params, x0, dt):
    # a float32 dt / 6.0 must round in float32, as the array loop does,
    # before the float loop widens it; int dt diverges at the same step
    spec = dk.FlowSpec(name, params, dt=dt, steps=1500)
    new, new_warnings = outcome(dk.integrate_rk4, spec.field_function(), x0,
                                spec.dt, spec.steps)
    old, old_warnings = outcome(oracle_integrate_rk4, oracle_field(spec), x0,
                                spec.dt, spec.steps)
    assert new == old
    assert new_warnings <= old_warnings
    if not isinstance(dt, int):
        assert new[0] != "diverged"


@pytest.mark.parametrize("length", [2, 4, 7])
@pytest.mark.parametrize("name,params", [("lorenz63", {}), ("rossler", {}),
                                         ("lorenz96", {"K": 5})],
                         ids=["lorenz63", "rossler", "lorenz96-K5"])
def test_wrong_length_x0_is_validation_error(name, params, length):
    spec = dk.FlowSpec(name, params, dt=0.01, steps=10)
    expected = re.escape(f"x0 has shape ({length},), expected ({spec.dimension},)")
    with pytest.raises(ValidationError, match=expected):
        dk.integrate_rk4(spec.field_function(), np.ones(length), spec.dt, spec.steps)
    with pytest.raises(ValidationError, match=expected):
        dk.generate_flow_trace(spec, np.ones(length))


@pytest.mark.parametrize("dt", [1 / 64, np.float32(0.07)])
@pytest.mark.parametrize("name,params", [("lorenz63", {}), ("rossler", {}),
                                         ("lorenz96", {"K": 7, "F": 8})],
                         ids=["lorenz63", "rossler", "lorenz96-K7"])
def test_plain_callable_matches_spec_field(name, params, dt):
    # a plain callable has no float form, so it takes the array loop
    spec = dk.FlowSpec(name, params, dt=dt, steps=2000)
    x0 = dk.default_initial_state(name, spec.params, seed=7)
    field = spec.field_function()
    fast = dk.integrate_rk4(field, x0, dt, spec.steps)
    plain = dk.integrate_rk4(lambda v: field(v), x0, dt, spec.steps)
    assert fast.tobytes() == plain.tobytes()


def _number(draw, low, high):
    # a float in [low, high], drawn as a Python float, a float32 or, where
    # it rounds to a positive integer, an int
    value = draw(st.floats(low, high, allow_nan=False, allow_infinity=False))
    kind = draw(st.sampled_from(["float", "float32", "int"]))
    if kind == "int" and round(value) > 0:
        return round(value)
    return np.float32(value) if kind == "float32" else value


TAME = {
    "lorenz63": {"sigma": (5.0, 15.0), "rho": (0.5, 40.0), "beta": (0.5, 4.0)},
    "rossler": {"a": (0.0, 0.3), "b": (0.1, 1.0), "c": (2.0, 12.0)},
    "lorenz96": {"F": (0.0, 10.0)},
}
WILD = {
    "lorenz63": {"sigma": (0.1, 60.0), "rho": (0.1, 3000.0), "beta": (0.1, 20.0)},
    "rossler": {"a": (-1.0, 1.0), "b": (-1.0, 5.0), "c": (0.1, 1000.0)},
    "lorenz96": {"F": (-50.0, 50.0)},
}


@st.composite
def flow_cases(draw):
    # tame settings mostly stay bounded over the steps drawn; wild ones
    # mostly diverge, some to inf and NaN
    name = draw(st.sampled_from(["lorenz63", "rossler", "lorenz96"]))
    wild = draw(st.booleans())
    ranges = (WILD if wild else TAME)[name]
    params = {key: _number(draw, *r) for key, r in ranges.items()}
    if name == "lorenz96":
        params["K"] = draw(st.integers(4, _FLOAT_MAX_DIMENSION + 8))
    dt = _number(draw, 1e-3, 1.5) if wild else _number(draw, 1e-3, 0.05)
    spec = dk.FlowSpec(name, params, dt=dt, steps=draw(st.integers(1, 300)))
    if wild:
        scale = draw(st.sampled_from([1.0, 50.0, 1e6]))
        component = st.floats(-scale, scale) | st.sampled_from([math.nan, math.inf])
    else:
        component = st.floats(-10.0, 10.0)
    x0 = draw(st.lists(component, min_size=spec.dimension, max_size=spec.dimension))
    return spec, x0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(flow_cases())
def test_integrator_matches_oracle_property(case):
    # the same bytes, or the same divergence step, and no new warnings, for
    # every block size
    spec, x0 = case
    old, old_warnings = outcome(oracle_integrate_rk4, oracle_field(spec), x0,
                                spec.dt, spec.steps)
    for rows in CHECK_ROWS:
        with mock.patch.object(dk.systems, "_CHECK_ROWS", rows):
            new, new_warnings = outcome(dk.integrate_rk4, spec.field_function(),
                                        x0, spec.dt, spec.steps)
        assert new == old, rows
        assert new_warnings <= old_warnings


# --------------------------------------------------------------------------
# The compiled float steppers.


def test_stepper_compiled_once_per_shape():
    dk.systems._float_kernels.cache_clear()
    fields = [dk.FlowSpec("lorenz96", {"K": 22, "F": f}).field_function()
              for f in (5.0, 8, np.float32(3.5))]
    fields += [dk.FlowSpec("lorenz63", params).field_function()
               for params in ({}, {"rho": 35})]
    rk4 = {id(field.stepper.func) for field in fields}
    assert len(rk4) == 2
    assert dk.systems._float_kernels.cache_info().misses == 2
    other = dk.FlowSpec("lorenz96", {"K": 23}).field_function()
    assert other.stepper.func is not fields[0].stepper.func


def test_stepper_only_up_to_the_dimension_limit():
    widest = dk.FlowSpec("lorenz96", {"K": _FLOAT_MAX_DIMENSION})
    wider = dk.FlowSpec("lorenz96", {"K": _FLOAT_MAX_DIMENSION + 1})
    assert widest.field_function().stepper is not None
    assert wider.field_function().stepper is None


@pytest.mark.parametrize("name,params", [("lorenz96", {}), ("lorenz63", {}),
                                         ("rossler", {})],
                         ids=["lorenz96", "lorenz63", "rossler"])
def test_one_step_is_the_initial_state(name, params):
    spec = dk.FlowSpec(name, params, dt=0.01, steps=1)
    x0 = dk.default_initial_state(name, spec.params, seed=4)
    traj = dk.integrate_rk4(spec.field_function(), x0, spec.dt, 1)
    assert traj.shape == (1, spec.dimension)
    assert traj.tobytes() == x0.tobytes()


def test_stepper_allocates_nothing_beyond_its_output():
    # Rows are written into the output one at a time; a trajectory held as
    # Python floats first would need 4e5 float objects here. K = 4 keeps
    # the run short under tracemalloc, which slows every allocation.
    spec = dk.FlowSpec("lorenz96", {"K": 4}, dt=1 / 64, steps=100_000)
    field = spec.field_function()
    x0 = dk.default_initial_state("lorenz96", spec.params, seed=1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = dk.integrate_rk4(field, x0, spec.dt, spec.steps)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert traj.shape == (100_000, 4)
    assert peak <= traj.nbytes + 4096
