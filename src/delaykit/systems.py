"""Benchmark dynamical systems: chaotic flows via fixed-step RK4 and maps.

Flows (Lorenz 63, Lorenz 96, Rossler) are integrated with the classical
fourth-order Runge-Kutta scheme at a fixed step; maps (Henon, logistic) are
iterated directly. A trace observes a single state coordinate after
discarding a transient.

The built-in flows are stepped on Python floats by straight-line RK4 code
compiled once per field shape; wide Lorenz 96 fields and user-supplied ones
take a loop over numpy state arrays. Both do the same IEEE operations in
the same order, so a trajectory is byte-identical whichever produced it.

A state past ``DIVERGENCE_LIMIT`` raises ``DivergenceError`` with the first
step that failed. The float RK4 loop and the Henon loop test their states
once per block of ``_CHECK_ROWS`` steps, so a diverging run stops at the
end of its block; the array loop tests every step.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable

import numpy as np

from .errors import DivergenceError, ValidationError
from .timeseries import ScalarSeries, as_count

__all__ = [
    "FlowSpec",
    "MapSpec",
    "integrate_rk4",
    "generate_flow_trace",
    "generate_map_trace",
    "default_initial_state",
    "FLOW_DEFAULTS",
    "MAP_DEFAULTS",
]

# Any |state component| beyond this aborts with a divergence error rather
# than emitting a garbage series.
DIVERGENCE_LIMIT = 1e12

# Steps per divergence test in the float RK4 and Henon loops, which test a
# block once with two reductions in place of a Python test per step. Best
# of 9 on 2 shared cores, Python 3.11: Lorenz 96 (K = 22), 1,000 steps,
# 6.39 ms tested per step; 6.10, 5.96, 5.93 and 6.00 ms in blocks of 64,
# 256, 1,024 and 4,096. Henon, 11,000 iterates: 1.70 ms, then 1.25 ms.
_CHECK_ROWS = 1024


def _check_rows(rows: np.ndarray, first: int) -> None:
    """Raise ``DivergenceError`` at the first of ``rows``, the states of
    steps ``first, first + 1, ...``, with a component past
    ``DIVERGENCE_LIMIT`` or not a number. min() and max() allocate nothing
    and return NaN if any component is NaN, which fails both comparisons."""
    if not (rows.min() >= -DIVERGENCE_LIMIT and rows.max() <= DIVERGENCE_LIMIT):
        bounded = (np.abs(rows) <= DIVERGENCE_LIMIT).all(axis=1)
        raise DivergenceError(first + int(np.argmin(bounded)))

FLOW_DEFAULTS = {
    "lorenz63": {"sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0},
    "lorenz96": {"K": 22, "F": 5.0},
    "rossler": {"a": 0.15, "b": 0.20, "c": 10.0},
}

MAP_DEFAULTS = {
    "henon": {"a": 1.4, "b": 0.3},
    "logistic": {"r": 3.65},
}

# What a parameter is, where its name alone does not say.
_PARAMETER_WORDS = {"K": "dimension", "F": "forcing"}


def _parameter_defaults() -> dict[str, dict[str, float]]:
    """Every system parameter, in declaration order, with its default in
    each system that takes it, e.g. ``"a": {"rossler": 0.15, "henon": 1.4}``.
    A default's type is the parameter's: ``K`` is an int, the rest floats."""
    out: dict[str, dict[str, float]] = {}
    for system, params in {**FLOW_DEFAULTS, **MAP_DEFAULTS}.items():
        for name, value in params.items():
            out.setdefault(name, {})[system] = value
    return out


def _require_finite(name: str, params: dict) -> None:
    bad = [key for key, value in params.items() if not np.isfinite(value)]
    if bad:
        raise ValidationError(f"{name} coefficients must be finite: {', '.join(bad)}")


@dataclass(frozen=True)
class FlowSpec:
    """Parameters for one flow trace: system, coefficients, and sampling."""

    name: str
    params: dict = field(default_factory=dict)
    dt: float = 1.0 / 64.0
    steps: int = 10000
    transient: int = 0
    observed_index: int = 0

    def __post_init__(self):
        if self.name not in FLOW_DEFAULTS:
            raise ValidationError(f"unknown flow {self.name!r}")
        merged = {**FLOW_DEFAULTS[self.name], **self.params}
        object.__setattr__(self, "params", merged)
        _require_finite(self.name, merged)
        if not 0 < self.dt < np.inf:
            raise ValidationError("dt must be positive and finite")
        transient = as_count(self.transient, "transient", low=0)
        as_count(self.steps, "steps", low=transient + 1)
        if self.name == "lorenz96":
            k = merged["K"]
            if int(k) != k or k < 4:
                raise ValidationError("lorenz96 requires integer K >= 4")
        index = as_count(self.observed_index, "observed_index", low=None)
        if not 0 <= index < self.dimension:
            raise ValidationError(
                f"observed_index {self.observed_index} out of range for "
                f"{self.dimension}-dimensional state"
            )

    @property
    def dimension(self) -> int:
        return int(self.params["K"]) if self.name == "lorenz96" else 3

    def field_function(self) -> Callable[[np.ndarray], np.ndarray]:
        """The vector field: takes and returns a flat float64 state array."""
        p, size = self.params, self.dimension
        if size <= _FLOAT_MAX_DIMENSION:
            names, components = self._float_shape()
            on_floats, rk4 = _float_kernels(names, components)
            # a float32 coefficient times a Python float would stay float32
            coefficients = tuple(float(p[key]) for key in names)
            return _FlowField(size, partial(on_floats, coefficients),
                              partial(rk4, coefficients))
        # lorenz96 past the float limit; coupling wraps indices modulo K
        forcing = p["F"]
        site = np.arange(size)
        ahead, back1, back2 = (site + 1) % size, (site - 1) % size, (site - 2) % size

        def f(v):
            return (v[ahead] - v[back2]) * v[back1] - v + forcing

        return _FlowField(size, f)

    def _float_shape(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The coefficient names and the field, one expression per state
        component, in which ``{j}`` stands for component j."""
        names = tuple(key for key in FLOW_DEFAULTS[self.name] if key != "K")
        if self.name == "lorenz63":
            return names, ("sigma * ({1} - {0})", "{0} * (rho - {2}) - {1}",
                           "{0} * {1} - beta * {2}")
        if self.name == "rossler":
            return names, ("-{1} - {2}", "{0} + a * {1}", "b + {2} * ({0} - c)")
        size = self.dimension  # indices wrap modulo K, as in the array form
        return names, tuple("({%d} - {%d}) * {%d} - {%d} + F"
                            % ((i + 1) % size, (i - 2) % size, (i - 1) % size, i)
                            for i in range(size))


# The widest state stepped on floats: a float step costs about 0.35 us per
# component, an array step about 20 us up to K = 64 (BENCH_14.json).
_FLOAT_MAX_DIMENSION = 48


def _float_source(coefficients: tuple[str, ...], components: tuple[str, ...]) -> str:
    """Source of ``field(coef, v)``, the field of a state array on floats,
    and ``rk4(coef, out, half, dt, sixth, rows)``, which fills rows 1.. of
    ``out`` from row 0 with the array loop's float operations, in the same
    order, and tests each block of ``rows`` steps once with ``_check_rows``.
    Floats overflow to inf and NaN without raising or warning, so the steps
    before the first failing one are those the array loop makes."""
    d = len(components)
    xs, ys = [f"x{j}" for j in range(d)], [f"y{j}" for j in range(d)]
    state, coef = ", ".join(xs), ", ".join(coefficients)
    step = []
    for stage, scale in enumerate(("half", "half", "dt", None), start=1):
        step += [f"k{stage}_{j} = {c.format(*(ys if stage > 1 else xs))}"
                 for j, c in enumerate(components)]
        step += [f"y{j} = x{j} + {scale} * k{stage}_{j}" for j in range(d) if scale]
    step += [f"x{j} = x{j} + sixth * (k1_{j} + 2.0 * k2_{j} + 2.0 * k3_{j} + k4_{j})"
             for j in range(d)]
    step += [f"pack(out, {8 * d} * i, {state})"]
    field = ", ".join(c.format(*xs) for c in components)
    return (f"def field(coef, v):\n    {coef}, = coef\n    {state}, = v.tolist()\n"
            f"    return np.array([{field}])\n"
            f"def rk4(coef, out, half, dt, sixth, rows):\n    {coef}, = coef\n"
            f"    {state}, = out[0].tolist()\n    steps = len(out)\n"
            f"    for start in range(1, steps, rows):\n"
            f"        stop = min(start + rows, steps)\n"
            f"        for i in range(start, stop):\n"
            + "".join(f"            {line}\n" for line in step)
            + "        check(out[start:stop], start)\n")


@cache
def _float_kernels(coefficients: tuple[str, ...], components: tuple[str, ...]):
    """``_float_source`` compiled once per shape: per 3-D flow and per K."""
    namespace = {"np": np, "check": _check_rows,
                 "pack": struct.Struct(f"{len(components)}d").pack_into}
    exec(compile(_float_source(coefficients, components), "<rk4>", "exec"), namespace)
    return namespace["field"], namespace["rk4"]


class _FlowField:
    """A flow's vector field, callable on a flat float64 state array.

    ``dimension`` is the state length that ``integrate_rk4`` checks ``x0``
    against. A field of at most ``_FLOAT_MAX_DIMENSION`` components is
    compiled float code with a ``stepper(out, half, dt, sixth)`` that
    ``integrate_rk4`` runs in place of the array loop; else it is None.
    """

    __slots__ = ("dimension", "array", "stepper")

    def __init__(self, dimension: int, array: Callable, stepper: Callable | None = None):
        self.dimension, self.array, self.stepper = dimension, array, stepper

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.array(v)


@dataclass(frozen=True)
class MapSpec:
    """Parameters for one map trace: system, coefficients, start, count."""

    name: str
    params: dict = field(default_factory=dict)
    x0: tuple = (0.0,)
    n: int = 1000
    transient: int = 0

    def __post_init__(self):
        if self.name not in MAP_DEFAULTS:
            raise ValidationError(f"unknown map {self.name!r}")
        merged = {**MAP_DEFAULTS[self.name], **self.params}
        object.__setattr__(self, "params", merged)
        _require_finite(self.name, merged)
        x0 = tuple(float(v) for v in np.atleast_1d(self.x0))
        object.__setattr__(self, "x0", x0)
        transient = as_count(self.transient, "transient", low=0)
        as_count(self.n, "n", low=transient + 1)
        if self.name == "logistic":
            if len(x0) != 1:
                raise ValidationError("logistic map takes a scalar x0")
            if not 0.0 <= x0[0] <= 1.0:
                raise ValidationError("logistic x0 must lie in [0, 1]")
            if not 0.0 < merged["r"] <= 4.0:
                raise ValidationError("logistic r must lie in (0, 4]")
        if self.name == "henon" and len(x0) != 2:
            raise ValidationError("henon map takes a 2-vector x0")


def integrate_rk4(
    field: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    dt: float,
    steps: int,
) -> np.ndarray:
    """Classical fourth-order Runge-Kutta on an autonomous field.

    Returns a (steps, d) trajectory whose first row is ``x0``; each later
    row is one RK4 step from the previous. Deterministic for fixed inputs.

    ``FlowSpec`` fields of at most ``_FLOAT_MAX_DIMENSION`` components run
    their compiled loop on Python floats; wider ones and other callables
    take a loop over float64 arrays. The trajectory is byte-identical either
    way: the float loop does the array loop's operations in the same order.

    Raises
    ------
    ValidationError
        For a non-positive or non-finite ``dt``, ``steps < 1``, an ``x0``
        that is not a flat vector, or one whose length is not the
        dimension of a ``FlowSpec`` field.
    DivergenceError
        For any step whose state fails ``max|x_i| <= 1e12``; the one
        comparison also catches NaN and infinite components. Reports the
        first step that failed. The float loop tests a block of
        ``_CHECK_ROWS`` steps at once, so it stops at the end of the block.
    """
    if not 0 < dt < np.inf:
        raise ValidationError("dt must be positive and finite")
    steps = as_count(steps, "steps")
    x = np.array(x0, dtype=np.float64, copy=True)
    stepper = None
    if isinstance(field, _FlowField):
        if x.shape != (field.dimension,):
            raise ValidationError(
                f"x0 has shape {x.shape}, expected ({field.dimension},)"
            )
        field, stepper = field.array, field.stepper
    if x.ndim != 1:
        raise ValidationError("x0 must be a flat state vector")
    out = np.empty((steps, x.size), dtype=np.float64)
    out[0] = x
    # The step constants keep the caller's dtype: a float32 dt gives a
    # float32 dt / 6.0, as in the array loop. Against float64 states the
    # array loop widens them to float64, as float() does; a dt whose dtype
    # numpy does not widen to float64 (longdouble) keeps the array loop.
    half, sixth = dt / 2.0, dt / 6.0
    if stepper is not None and np.can_cast(np.asarray(dt).dtype, np.float64):
        stepper(out, float(half), float(dt), float(sixth), _CHECK_ROWS)
        return out
    for i in range(1, steps):
        k1 = field(x)
        k2 = field(x + half * k1)
        k3 = field(x + half * k2)
        k4 = field(x + dt * k3)
        x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.abs(x).max() <= DIVERGENCE_LIMIT:  # False for NaN too
            raise DivergenceError(i)
        out[i] = x
    return out


def generate_flow_trace(spec: FlowSpec, x0: np.ndarray) -> ScalarSeries:
    """Integrate a flow and observe one coordinate after the transient.

    The result has ``spec.steps - spec.transient`` samples. An ``x0`` whose
    shape is not ``(spec.dimension,)`` raises ``ValidationError``.
    """
    traj = integrate_rk4(spec.field_function(), x0, spec.dt, spec.steps)
    observed = traj[spec.transient :, spec.observed_index]
    return ScalarSeries(observed, sample_interval=spec.dt)


def generate_map_trace(spec: MapSpec) -> ScalarSeries:
    """Iterate a map and observe its leading coordinate past the transient.

    The first sample of the (pre-transient) orbit is the initial condition
    itself, so ``spec.n`` counts it. Deterministic.

    A Henon iterate, the final unstored one included, with a coordinate
    past ``DIVERGENCE_LIMIT`` or not a number raises ``DivergenceError``
    with its index. Iterates are tested once per block of ``_CHECK_ROWS``;
    a block that may hold a failure is run again, testing each iterate, to
    find the first. A diverging orbit so runs to the end of its block.
    """
    p = spec.params
    if spec.name == "logistic":
        r = p["r"]
        xs = np.empty(spec.n, dtype=np.float64)
        x = spec.x0[0]
        for i in range(spec.n):
            xs[i] = x
            x = r * x * (1.0 - x)
        return ScalarSeries(xs[spec.transient :])
    # henon: observe x
    a, b = p["a"], p["b"]
    n = spec.n
    xs = np.empty(n, dtype=np.float64)
    # A block is tested on its stored x and on the x of the iterate after
    # it. Each y is b * x of the iterate before, so when every such |x| is
    # at most `bound`, every |y| is within the limit too, after rounding in
    # any float type. A block that fails this test is run again from its
    # start with the test per iterate, which finds the first that failed.
    bound = DIVERGENCE_LIMIT / (2.0 * max(1.0, float(abs(b))))
    x, y = spec.x0
    for start in range(0, n, _CHECK_ROWS):
        stop = min(start + _CHECK_ROWS, n)
        begin = x, y
        # numpy-scalar coefficients warn as they overflow past the failing
        # iterate; the run again warns up to it, as the per-iterate test did
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(start, stop):
                xs[i] = x
                x, y = 1.0 - a * x * x + y, b * x
        block = xs[start:stop]
        if not (block.min() >= -bound and block.max() <= bound
                and -bound <= float(x) <= bound):
            x, y = begin
            for i in range(start, stop):
                x, y = 1.0 - a * x * x + y, b * x
                if not (abs(x) <= DIVERGENCE_LIMIT and abs(y) <= DIVERGENCE_LIMIT):
                    raise DivergenceError(i + 1)
    return ScalarSeries(xs[spec.transient :])


# A Henon draw whose orbit passes DIVERGENCE_LIMIT within this many
# iterates has left the basin; it is drawn again, up to _HENON_DRAWS times.
_HENON_SCREEN = 1000
_HENON_DRAWS = 100


def default_initial_state(name: str, params: dict, seed: int) -> np.ndarray:
    """Draw a reproducible initial condition for the named system.

    Ensemble runs perturb a generic on-basin base point with a generator
    seeded by ``seed``, an integer >= 0, so every experiment can be
    replayed exactly. Lorenz 96 ``params`` are completed and checked as by
    ``FlowSpec``, Henon ones as by ``MapSpec``. A Henon draw whose orbit
    escapes to infinity (seeds 231, 785 and 1823 among them) is replaced
    by the generator's next draw; every other seed keeps its first draw.
    """
    rng = np.random.default_rng(as_count(seed, "seed", low=0))
    if name == "lorenz63":
        return np.array([1.0, 1.0, 1.0]) + rng.standard_normal(3)
    if name == "lorenz96":
        p = FlowSpec(name, params).params
        return p["F"] + 0.1 * rng.standard_normal(int(p["K"]))
    if name == "rossler":
        return np.array([10.0, 0.0, 0.0]) + 0.5 * rng.standard_normal(3)
    if name == "henon":
        for _ in range(_HENON_DRAWS):
            x0 = 0.1 * rng.standard_normal(2)
            try:
                generate_map_trace(MapSpec("henon", params, x0=x0, n=_HENON_SCREEN))
                break
            except DivergenceError:
                pass
        return x0
    if name == "logistic":
        return np.array([rng.uniform(0.05, 0.95)])
    raise ValidationError(f"unknown system {name!r}")
