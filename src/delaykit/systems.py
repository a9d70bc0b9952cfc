"""Benchmark dynamical systems: chaotic flows via fixed-step RK4 and maps.

Flows (Lorenz 63, Lorenz 96, Rossler) are integrated with the classical
fourth-order Runge-Kutta scheme at a fixed step; maps (Henon, logistic) are
iterated directly. A trace observes a single state coordinate after
discarding a transient.

The 3-D flows (Lorenz 63, Rossler) are integrated on Python floats, one
whole step at a time; Lorenz 96 and user-supplied fields take a loop over
numpy state arrays. Both loops do the same IEEE operations in the same
order, so a trajectory is byte-identical whichever loop produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DivergenceError, ValidationError
from .timeseries import ScalarSeries

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

FLOW_DEFAULTS = {
    "lorenz63": {"sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0},
    "lorenz96": {"K": 22, "F": 5.0},
    "rossler": {"a": 0.15, "b": 0.20, "c": 10.0},
}

MAP_DEFAULTS = {
    "henon": {"a": 1.4, "b": 0.3},
    "logistic": {"r": 3.65},
}


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
        if not (self.steps > self.transient >= 0):
            raise ValidationError("require steps > transient >= 0")
        if self.name == "lorenz96":
            k = merged["K"]
            if int(k) != k or k < 4:
                raise ValidationError("lorenz96 requires integer K >= 4")
        if not 0 <= self.observed_index < self.dimension:
            raise ValidationError(
                f"observed_index {self.observed_index} out of range for "
                f"{self.dimension}-dimensional state"
            )

    @property
    def dimension(self) -> int:
        return int(self.params["K"]) if self.name == "lorenz96" else 3

    def field_function(self) -> Callable[[np.ndarray], np.ndarray]:
        """The vector field: takes and returns a flat float64 state array."""
        p = self.params
        # The 3-D fields are written once, on Python floats: the same IEEE
        # arithmetic as float64 numpy scalars without their per-operation
        # overhead. Coefficients become floats too: a float32 one times a
        # Python float would stay float32.
        if self.name == "lorenz63":
            sigma, rho, beta = (float(p[k]) for k in ("sigma", "rho", "beta"))

            def xyz(x, y, z):
                return sigma * (y - x), x * (rho - z) - y, x * y - beta * z

            return _FlowField.on_floats(xyz)
        if self.name == "rossler":
            a, b, c = (float(p[k]) for k in ("a", "b", "c"))

            def xyz(x, y, z):
                return -y - z, x + a * y, b + z * (x - c)

            return _FlowField.on_floats(xyz)
        # lorenz96: coupling reaches k-2, so indices wrap modulo K
        forcing = p["F"]
        site, size = np.arange(self.dimension), self.dimension
        ahead, back1, back2 = (site + 1) % size, (site - 1) % size, (site - 2) % size

        def f(v):
            return (v[ahead] - v[back2]) * v[back1] - v + forcing

        return _FlowField(size, f)


class _FlowField:
    """A flow's vector field, callable on a flat float64 state array.

    ``dimension`` is the state length that ``integrate_rk4`` checks ``x0``
    against. A 3-D field also carries ``xyz``, the same field on Python
    floats, ``(x, y, z) -> (dx, dy, dz)``, which ``integrate_rk4`` steps
    directly; otherwise ``xyz`` is None.
    """

    __slots__ = ("dimension", "array", "xyz")

    def __init__(self, dimension: int, array: Callable, xyz: Callable | None = None):
        self.dimension, self.array, self.xyz = dimension, array, xyz

    @classmethod
    def on_floats(cls, xyz: Callable) -> "_FlowField":
        return cls(3, lambda v: np.array(xyz(*v.tolist())), xyz)

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
        if not (self.n > self.transient >= 0):
            raise ValidationError("require n > transient >= 0")
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

    The Lorenz 63 and Rossler fields of ``FlowSpec.field_function`` are
    stepped on Python floats; Lorenz 96 and any other callable take a loop
    over float64 arrays. The trajectory is byte-identical either way: the
    float loop does the array loop's operations in the same order.

    Raises
    ------
    ValidationError
        For a non-positive or non-finite ``dt``, ``steps < 1``, an ``x0``
        that is not a flat vector, or one whose length is not the
        dimension of a ``FlowSpec`` field.
    DivergenceError
        After any step whose state fails ``max|x_i| <= 1e12``; the one
        comparison also catches NaN and infinite components. Reports the
        step at which it happened.
    """
    if not 0 < dt < np.inf:
        raise ValidationError("dt must be positive and finite")
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    x = np.array(x0, dtype=np.float64, copy=True)
    xyz = None
    if isinstance(field, _FlowField):
        if x.shape != (field.dimension,):
            raise ValidationError(
                f"x0 has shape {x.shape}, expected ({field.dimension},)"
            )
        field, xyz = field.array, field.xyz
    if x.ndim != 1:
        raise ValidationError("x0 must be a flat state vector")
    out = np.empty((steps, x.size), dtype=np.float64)
    out[0] = x
    # The step constants keep the caller's dtype: a float32 dt gives a
    # float32 dt / 6.0, as in the array loop. Against float64 states the
    # array loop widens them to float64, as float() does; a dt whose dtype
    # numpy does not widen to float64 (longdouble) keeps the array loop.
    half, sixth = dt / 2.0, dt / 6.0
    if xyz is not None and np.can_cast(np.asarray(dt).dtype, np.float64):
        _rk4_xyz(xyz, out, float(half), float(dt), float(sixth))
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


def _rk4_xyz(xyz, out: np.ndarray, half: float, dt: float, sixth: float) -> None:
    """Fill rows 1.. of the (steps, 3) ``out`` from its row 0 with RK4 steps
    of the float field ``xyz``: the array loop, one component at a time."""
    flat = memoryview(out.reshape(-1))
    x, y, z = out[0].tolist()
    for i in range(1, len(out)):
        a1, b1, c1 = xyz(x, y, z)
        a2, b2, c2 = xyz(x + half * a1, y + half * b1, z + half * c1)
        a3, b3, c3 = xyz(x + half * a2, y + half * b2, z + half * c2)
        a4, b4, c4 = xyz(x + dt * a3, y + dt * b3, z + dt * c3)
        x = x + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        y = y + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        z = z + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        # each comparison is False for NaN, as max() is in the array loop
        if not (abs(x) <= DIVERGENCE_LIMIT and abs(y) <= DIVERGENCE_LIMIT
                and abs(z) <= DIVERGENCE_LIMIT):
            raise DivergenceError(i)
        flat[3 * i], flat[3 * i + 1], flat[3 * i + 2] = x, y, z


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
    xs = np.empty(spec.n, dtype=np.float64)
    x, y = spec.x0
    for i in range(spec.n):
        xs[i] = x
        x, y = 1.0 - a * x * x + y, b * x
        if not (abs(x) <= DIVERGENCE_LIMIT and abs(y) <= DIVERGENCE_LIMIT):
            raise DivergenceError(i + 1)
    return ScalarSeries(xs[spec.transient :])


# A Henon draw whose orbit passes DIVERGENCE_LIMIT within this many
# iterates has left the basin; it is drawn again, up to _HENON_DRAWS times.
_HENON_SCREEN = 1000
_HENON_DRAWS = 100


def _henon_escapes(x0: np.ndarray, a: float, b: float) -> bool:
    x, y = float(x0[0]), float(x0[1])
    for _ in range(_HENON_SCREEN):
        x, y = 1.0 - a * x * x + y, b * x
        if not (abs(x) <= DIVERGENCE_LIMIT and abs(y) <= DIVERGENCE_LIMIT):
            return True
    return False


def default_initial_state(name: str, params: dict, seed: int) -> np.ndarray:
    """Draw a reproducible initial condition for the named system.

    Ensemble runs perturb a generic on-basin base point with a seeded
    generator so every experiment can be replayed exactly. A Henon draw
    whose orbit escapes to infinity (seeds 231, 785 and 1823 among them)
    is replaced by the generator's next draw; every other seed keeps its
    first draw.
    """
    rng = np.random.default_rng(seed)
    if name == "lorenz63":
        return np.array([1.0, 1.0, 1.0]) + rng.standard_normal(3)
    if name == "lorenz96":
        k = int(params["K"])
        return params["F"] + 0.1 * rng.standard_normal(k)
    if name == "rossler":
        return np.array([10.0, 0.0, 0.0]) + 0.5 * rng.standard_normal(3)
    if name == "henon":
        p = {**MAP_DEFAULTS["henon"], **params}
        for _ in range(_HENON_DRAWS):
            x0 = 0.1 * rng.standard_normal(2)
            if not _henon_escapes(x0, p["a"], p["b"]):
                break
        return x0
    if name == "logistic":
        return np.array([rng.uniform(0.05, 0.95)])
    raise ValidationError(f"unknown system {name!r}")
