"""Time evolution of radial graphs under inverse curvature flows.

The normal evolution with outward speed 1/rho(kappa) reduces for a radial
graph f to the scalar parabolic equation

    df/dt = sqrt(1 + |grad log f|^2) / rho(kappa(f)),

because the radial component of the outward normal is
1/sqrt(1 + |grad log f|^2).  Round spheres evolve exactly by
r(t) = r0 exp(t/mu) with mu = rho(1, 1).  Admissible speeds are
positive, symmetric, degree-1 homogeneous, strictly monotone and concave
on an open curvature cone; `class_c_audit` samples all five conditions.
The speeds of `SpeedFunction` are the three closed forms H, K/H and
sqrt K of the principal curvatures, each reached by several spellings
that share its one code path.

Time stepping is the classical explicit 4-stage scheme with a parabolic
step bound dt = dt_safety * h_min^2 / D, D the sampled diffusivity
max (sum_i d rho/d kappa_i) / (rho^2 f^2).  After each step the graph is
projected onto its resolved harmonic band with an exponential filter on
the top tenth of the band; a round sphere is a constant graph, whose one
coefficient (degree 0) the filter does not damp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CurvatureConeError, IcfLabError
from .radial_graph import N, StarShapedHypersurface, curvature, geometry
from .sphere_grid import ScalarField, make_grid
from . import invariants as inv

__all__ = [
    "SpeedFunction",
    "CustomSpeed",
    "curvature_norm_speed",
    "FlowConfig",
    "FlowTrace",
    "normal_speed",
    "step",
    "run",
    "asymptotics_check",
    "class_c_audit",
]


def _h_k(kappa) -> tuple[np.ndarray, np.ndarray]:
    """H = sigma_1 and K = sigma_2 of the two principal curvatures on the
    last axis."""
    kappa = np.asarray(kappa, dtype=float)
    k0, k1 = kappa[..., 0], kappa[..., 1]
    return k0 + k1, k1 * k0


@dataclass(frozen=True)
class SpeedFunction:
    """Degree-1 homogeneous symmetric curvature function on its cone.

    Spellings: mean curvature H; quotient sigma_k/sigma_{k-1}; root power
    sigma_k^(1/k); ratio root (sigma_i/sigma_j)^(1/(i-j)) for i > j.  For
    the two principal curvatures of a surface (sigma_1 = H, sigma_2 = K)
    they name three speeds, each with one closed form for rho, its
    gradient and its cone, whatever the spelling:

        H       H, quotient:1, power:1, ratio:1,0    cone H > 0
        K/H     quotient:2, ratio:2,1                cone H > 0, K > 0
        sqrt K  power:2, ratio:2,0                   cone H > 0, K > 0
    """

    kind: str
    i: int = 1
    j: int = 0

    def __post_init__(self):
        if self.kind not in ("H", "quotient", "power", "ratio"):
            raise ValueError(f"unknown speed kind {self.kind!r}")
        if self.kind == "ratio" and not self.i > self.j >= 0:
            raise ValueError("ratio speed needs i > j >= 0")
        if self.kind in ("quotient", "power") and self.i < 1:
            raise ValueError("k must be >= 1")
        if self.i > N:
            raise ValueError(f"sigma_{self.i} vanishes identically for n = {N}")

    # constructors -----------------------------------------------------
    @classmethod
    def mean_curvature(cls):
        return cls("H")

    @classmethod
    def quotient(cls, k: int):
        return cls("quotient", k)

    @classmethod
    def power(cls, k: int):
        return cls("power", k)

    @classmethod
    def ratio_root(cls, i: int, j: int):
        return cls("ratio", i, j)

    @classmethod
    def parse(cls, text: str) -> "SpeedFunction":
        """Parse 'H', 'quotient:k', 'power:k' or 'ratio:i,j'."""
        text = text.strip()
        if text == "H":
            return cls.mean_curvature()
        head, _, arg = text.partition(":")
        try:
            if head == "quotient":
                return cls.quotient(int(arg))
            if head == "power":
                return cls.power(int(arg))
            if head == "ratio":
                i, j = arg.split(",")
                return cls.ratio_root(int(i), int(j))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"cannot parse speed {text!r}") from exc
        raise ValueError(f"cannot parse speed {text!r}")

    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        return {"H": "H",
                "quotient": f"quotient:{self.i}",
                "power": f"power:{self.i}",
                "ratio": f"ratio:{self.i},{self.j}"}[self.kind]

    @property
    def _form(self) -> str:
        """The speed this spelling names: "H", "K/H" or "sqrt K"."""
        if self.kind == "H" or self.i == 1:
            return "H"
        if self.kind == "quotient" or (self.kind == "ratio" and self.j == 1):
            return "K/H"
        return "sqrt K"

    def in_cone(self, kappa: np.ndarray) -> np.ndarray:
        H, K = _h_k(kappa)
        if self._form == "H":
            return H > 0.0
        return (H > 0.0) & (K > 0.0)

    def rho(self, kappa: np.ndarray) -> np.ndarray:
        H, K = _h_k(kappa)
        form = self._form
        if form == "H":
            return H
        if form == "K/H":
            return K / H
        return K ** 0.5

    def drho(self, kappa: np.ndarray) -> np.ndarray:
        """Closed-form gradient d rho / d kappa_i, from dH/dkappa_i = 1 and
        dK/dkappa_i = H - kappa_i."""
        kappa = np.asarray(kappa, dtype=float)
        form = self._form
        if form == "H":
            return np.ones_like(kappa)
        H, K = (a[..., None] for a in _h_k(kappa))
        if form == "K/H":
            return ((H - kappa) * H - K) / H**2
        return 0.5 * K ** -0.5 * (H - kappa)

    @property
    def mu(self) -> float:
        """rho at the round point (1, 1)."""
        return float(self.rho(np.ones(N)))


@dataclass(frozen=True)
class CustomSpeed:
    """Ad-hoc curvature function for audits (e.g. negative controls)."""

    name: str
    rho_fn: object
    cone_fn: object

    @property
    def label(self):
        return self.name

    def rho(self, kappa):
        return self.rho_fn(kappa)

    def in_cone(self, kappa):
        return self.cone_fn(kappa)


def curvature_norm_speed() -> CustomSpeed:
    """The Euclidean norm of the shape operator, sqrt(sum kappa_i^2).

    Degree-1 homogeneous, symmetric, positive and monotone on the
    positive cone, but convex rather than concave; serves as the negative
    control for the concavity audit.
    """
    return CustomSpeed(
        "|A|",
        lambda kappa: np.sqrt(np.sum(np.asarray(kappa) ** 2, axis=-1)),
        lambda kappa: np.all(np.asarray(kappa) > 0.0, axis=-1),
    )


# ----------------------------------------------------------------------
# flow stepping


def _cone_rho(speed, kappa: np.ndarray) -> np.ndarray:
    """rho(kappa), after raising CurvatureConeError at the first node
    outside the speed's cone."""
    ok = speed.in_cone(kappa)
    if not np.all(ok):
        idx = np.unravel_index(int(np.argmin(ok)), ok.shape)
        raise CurvatureConeError(
            f"kappa = {kappa[idx]} at node {idx} outside the cone of {speed.label}",
            node=idx, kappa=kappa[idx])
    return speed.rho(kappa)


def normal_speed(surface: StarShapedHypersurface,
                 speed: SpeedFunction) -> ScalarField:
    """Outward normal speed field 1/rho(kappa); positive on the cone."""
    kappa = geometry(surface).kappa
    return ScalarField(surface.spec, 1.0 / _cone_rho(speed, kappa))


def _graph_rhs(grid, values, speed):
    c = curvature(grid, values)
    return c.sqv / _cone_rho(speed, c.kappa)


def _exp_filter(grid, cutoff_frac=0.9, order=4, strength=36.0):
    ell = grid.ell.astype(float)
    L = grid.l_max
    lc = cutoff_frac * L
    fac = np.ones(L + 1)
    hot = ell > lc
    fac[hot] = np.exp(-strength * ((ell[hot] - lc) / (L - lc)) ** order)
    return fac


def step(surface: StarShapedHypersurface, speed: SpeedFunction,
         dt: float) -> StarShapedHypersurface:
    """One classical 4-stage explicit step of the graph flow.

    On a round sphere the update reproduces r exp(dt/mu) to fifth order
    in dt.  The result is re-projected onto the resolved harmonic band,
    with the top tenth of the band damped exponentially to suppress
    aliasing of the nonlinear terms.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    grid = surface.grid()
    f0 = surface.values
    k1 = _graph_rhs(grid, f0, speed)
    k2 = _graph_rhs(grid, f0 + 0.5 * dt * k1, speed)
    k3 = _graph_rhs(grid, f0 + 0.5 * dt * k2, speed)
    k4 = _graph_rhs(grid, f0 + dt * k3, speed)
    f1 = f0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    f1 = grid.project(f1, _exp_filter(grid))
    return StarShapedHypersurface(ScalarField(surface.spec, f1))


def stable_dt(surface: StarShapedHypersurface, speed: SpeedFunction,
              dt_safety: float) -> float:
    """Parabolic step bound dt_safety * h_min^2 / max diffusivity."""
    kappa = curvature(surface.grid(), surface.values).kappa
    rho = _cone_rho(speed, kappa)
    diffusivity = (np.sum(speed.drho(kappa), axis=-1)
                   / (rho**2 * surface.values**2))
    h_min = min(np.pi / surface.spec.n_theta, 2.0 * np.pi / surface.spec.n_phi)
    return dt_safety * h_min**2 / float(diffusivity.max())


@dataclass
class FlowConfig:
    """Run parameters.  A run records every max(1, round(0.02 / dt0))
    steps, dt0 the first step bound, and at t_end: roughly 0.02 time units
    apart, fine enough that finite differences of the records resolve the
    energy rates to three digits."""

    speed: SpeedFunction
    t_end: float
    dt_safety: float = 0.2
    keep_snapshots: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise ValueError("t_end must be positive and finite")
        if not 0.0 < self.dt_safety <= 0.5:
            raise ValueError("dt_safety must lie in (0, 0.5]")


@dataclass
class FlowTrace:
    """Time series of monitored quantities, one entry per record."""

    speed_label: str
    mu: float
    t: list = field(default_factory=list)
    W: list = field(default_factory=list)
    Q1: list = field(default_factory=list)
    E_sup: dict = field(default_factory=dict)
    osc: list = field(default_factory=list)
    ubar_mean: list = field(default_factory=list)
    shape_dev: list = field(default_factory=list)
    beta: float = float("nan")
    snapshots: list = field(default_factory=list)

    def _record(self, t, surface, keep):
        if self.t and t <= self.t[-1]:
            raise IcfLabError("record times must increase strictly")
        self.t.append(t)
        self.W.append(inv.willmore(surface))
        self.Q1.append(inv.guan_li_q(surface, 1))
        for a in inv.DEFAULT_A_VALUES:
            self.E_sup.setdefault(a, []).append(inv.e_tensor(surface, a)[1])
        f = surface.values
        self.osc.append(float(f.max() / f.min()))
        # rescaled graph exp(-t/mu) f: round-sphere mean (its oscillation is osc)
        scale = math.exp(-t / self.mu)
        grid = make_grid(surface.spec)
        self.ubar_mean.append(scale * grid.integrate_values(f) / (4.0 * np.pi))
        # sup |f kappa_i - 1|: spectral norm of f h_i^j - delta_i^j,
        # invariant under the rescaling
        dev = np.abs(f[..., None] * geometry(surface).kappa - 1.0).max()
        self.shape_dev.append(float(dev))
        if keep:
            self.snapshots.append(ScalarField(surface.spec, f.copy()))

    def csv_header(self) -> list[str]:
        return (["t", "W", "Q1"]
                + [f"E_sup_a{a:g}" for a in inv.DEFAULT_A_VALUES]
                + ["osc", "ubar_mean", "shape_dev"])

    def csv_rows(self):
        for i in range(len(self.t)):
            row = [self.t[i], self.W[i], self.Q1[i]]
            row += [self.E_sup[a][i] for a in inv.DEFAULT_A_VALUES]
            row += [self.osc[i], self.ubar_mean[i], self.shape_dev[i]]
            yield row

    def summary(self) -> dict:
        return {
            "speed": self.speed_label,
            "mu": self.mu,
            "records": len(self.t),
            "t_final": self.t[-1],
            "W_initial": self.W[0], "W_final": self.W[-1],
            "Q1_initial": self.Q1[0], "Q1_final": self.Q1[-1],
            "osc_final": self.osc[-1],
            "shape_dev_final": self.shape_dev[-1],
            "beta": self.beta,
            "E_sup_final": {repr(a): self.E_sup[a][-1] for a in inv.DEFAULT_A_VALUES},
        }


def _decay_rate(t: list, values: list) -> float:
    """Least-squares exponential decay rate of the trailing half of a
    series; nan with fewer than 4 records."""
    m = len(t)
    if m < 4:
        return float("nan")
    tail = np.maximum(np.array(values[m // 2:]), 1e-300)
    return float(-np.polyfit(np.array(t[m // 2:]), np.log(tail), 1)[0])


def run(surface: StarShapedHypersurface, config: FlowConfig) -> FlowTrace:
    """Evolve a surface to t_end, recording diagnostics along the way."""
    speed = config.speed
    trace = FlowTrace(speed_label=speed.label, mu=speed.mu)

    t = 0.0
    current = surface
    trace._record(t, current, config.keep_snapshots)

    # the first step bound also sizes the record cadence
    dt = stable_dt(current, speed, config.dt_safety)
    cadence = max(1, round(0.02 / dt))

    k = 0
    while t < config.t_end - 1e-14:
        if k:
            dt = stable_dt(current, speed, config.dt_safety)
        dt = min(dt, config.t_end - t)
        current = step(current, speed, dt)
        t += dt
        k += 1
        if k % cadence == 0 or t >= config.t_end - 1e-14:
            trace._record(t, current, config.keep_snapshots)
    # exponential rate of the shape-operator deviation
    trace.beta = _decay_rate(trace.t, trace.shape_dev)
    return trace


@dataclass
class AsymptoticsReport:
    willmore_nonincreasing: bool
    q1_nonincreasing: bool
    e_sup_decreased: dict
    osc_monotone_from: int
    osc_monotone_tail: bool
    e_decay_rate: float
    flags_ok: bool


def asymptotics_check(trace: FlowTrace) -> AsymptoticsReport:
    """Audit the monotone quantities and fitted decay rates of a trace.

    Monotonicity tolerates per-step wiggles of 1e-8 relative (explicit
    stepping leaves residuals at discretization scale); violations are
    reported as flags, never raised.
    """
    if not trace.t:
        raise ValueError("empty trace")
    W = np.array(trace.W)
    Q = np.array(trace.Q1)
    w_ok = bool(np.all(np.diff(W) <= 1e-8 * W[:-1]))
    q_ok = bool(np.all(np.diff(Q) <= 1e-8 * Q[:-1]))
    e_dec = {a: bool(v[-1] < v[0] or v[0] < 1e-12)
             for a, v in trace.E_sup.items()}

    osc = np.array(trace.osc)
    rising = np.where(np.diff(osc) > 1e-10 * osc[:-1])[0]
    osc_from = int(rising[-1] + 1) if rising.size else 0
    tail_ok = osc_from <= max(1, len(osc) // 2)

    # decay rate of E_sup at the first a; nan once it is at round-off
    E = trace.E_sup[inv.DEFAULT_A_VALUES[0]]
    rate = (_decay_rate(trace.t, E) if max(E[len(E) // 2:]) > 1e-14
            else float("nan"))
    ok = w_ok and q_ok and all(e_dec.values()) and tail_ok
    return AsymptoticsReport(w_ok, q_ok, e_dec, osc_from, tail_ok, rate, ok)


# ----------------------------------------------------------------------
# class-C audit


def _fd_gradient(rho, kappa, h):
    n = kappa.shape[-1]
    grad = np.empty_like(kappa)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        grad[..., i] = (rho(kappa + h * e) * 8.0 - rho(kappa - h * e) * 8.0
                        - rho(kappa + 2 * h * e) + rho(kappa - 2 * h * e)) / (12.0 * h)
    return grad


def _fd_hessian(rho, kappa, h):
    n = kappa.shape[-1]
    H = np.empty(kappa.shape[:-1] + (n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = 1.0
        H[..., i, i] = (-rho(kappa + 2 * h * ei) + 16 * rho(kappa + h * ei)
                        - 30 * rho(kappa) + 16 * rho(kappa - h * ei)
                        - rho(kappa - 2 * h * ei)) / (12.0 * h * h)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = 1.0
            fine = (rho(kappa + h * ei + h * ej) - rho(kappa + h * ei - h * ej)
                    - rho(kappa - h * ei + h * ej) + rho(kappa - h * ei - h * ej)
                    ) / (4.0 * h * h)
            coarse = (rho(kappa + 2 * h * (ei + ej)) - rho(kappa + 2 * h * (ei - ej))
                      - rho(kappa - 2 * h * (ei - ej)) + rho(kappa - 2 * h * (ei + ej))
                      ) / (16.0 * h * h)
            H[..., i, j] = H[..., j, i] = (4.0 * fine - coarse) / 3.0
    return H


def class_c_audit(speed, n_samples: int = 10000, seed: int = 0) -> dict:
    """Sample the five admissibility conditions of a curvature function:
    positivity, symmetry, degree-1 homogeneity, strict monotonicity and
    concavity (semi-negative Hessian) on its cone.

    Samples are drawn in the cone and normalized to unit scale before the
    finite-difference Hessian check (homogeneity makes that lossless and
    keeps round-off far below the 1e-8 eigenvalue tolerance).  Returns a
    report dict with per-condition verdicts and worst violations.
    """
    rng = np.random.default_rng(seed)
    kappa = rng.uniform(0.2, 3.0, size=(n_samples, N))
    kappa = kappa[speed.in_cone(kappa)]
    rho = speed.rho

    values = rho(kappa)
    positive = bool(np.all(values > 0.0))

    sym_dev = 0.0
    for axis in range(1, N):
        perm = kappa.copy()
        perm[:, [0, axis]] = perm[:, [axis, 0]]
        sym_dev = max(sym_dev, float(np.abs(rho(perm) - values).max()
                                     / np.abs(values).max()))
    symmetric = sym_dev < 1e-12

    hom_dev = 0.0
    for c in (0.5, 3.0):
        hom_dev = max(hom_dev, float(np.abs(rho(c * kappa) - c * values).max()
                                     / np.abs(c * values).max()))
    homogeneous = hom_dev < 1e-12

    unit = kappa / np.linalg.norm(kappa, axis=-1, keepdims=True)
    grad = _fd_gradient(rho, unit, 1e-3)
    monotone = bool(np.all(grad > 0.0))

    hess = _fd_hessian(rho, unit, 1e-3)
    eigmax = float(np.linalg.eigvalsh(hess)[..., -1].max())
    concave = eigmax <= 1e-8

    return {
        "speed": speed.label,
        "n_samples": int(kappa.shape[0]),
        "positive": positive,
        "symmetric": symmetric, "symmetry_deviation": sym_dev,
        "homogeneous": homogeneous, "homogeneity_deviation": hom_dev,
        "monotone": monotone, "min_partial": float(grad.min()),
        "concave": concave, "max_hessian_eigenvalue": eigmax,
        "passed": positive and symmetric and homogeneous and monotone and concave,
    }
