"""Time evolution of radial graphs under inverse curvature flows.

The normal evolution with outward speed 1/rho(kappa) reduces for a radial
graph f to the scalar parabolic equation

    df/dt = sqrt(1 + |grad log f|^2) / rho(kappa(f)),

because the radial component of the outward normal is
1/sqrt(1 + |grad log f|^2).  Round spheres evolve exactly by
r(t) = r0 exp(t/mu) with mu = rho(1, 1).  Admissible speeds are
positive, symmetric, degree-1 homogeneous, strictly monotone and concave
on an open curvature cone; `class_c_audit` samples all five conditions.
A `SpeedFunction` carries its label and closed forms in
H = kappa_1 + kappa_2 and K = kappa_1 kappa_2 for rho, its cone and its
diffusivity; `SpeedFunction.parse` fills them from `_SPEEDS`, which maps
each accepted spelling to one of the forms H, K/H and sqrt K.  So all
spellings of a speed share one code path, no call dispatches on the
label, and the flow never forms the kappa_i.

Time stepping is exponential time differencing, ETDRK4 (Cox & Matthews,
JCP 176, 2002), on the harmonic coefficients of lam = log f, for which
the equation reads dlam/dt = sqrt(1 + |grad lam|^2) / (f rho).  Its
linearization about a round sphere is D Laplacian(lam), with the
closed-form diffusivity D = sum_i d rho/d kappa_i (2, (H^2 - 2K)/H^2 or
H/(2 sqrt K)) over rho^2 f^2.  A step treats D0 Laplacian, D0 half the
largest D, and a damping rate on the top tenth of the harmonic band
exactly, degree by degree, and the rest explicitly; its weights are
contour means (Kassam & Trefethen, SISC 26, 2005).  So accuracy, not
stability, bounds the step: at most 0.02, shorter where D varies
(`stable_dt`).  A round sphere is a constant lam, whose one coefficient
(degree 0) neither D0 nor the damping touches, and every step is exact
there.  A run takes only its speed and end time:
`run(surface, speed, t_end)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import CurvatureConeError
from .radial_graph import StarShapedHypersurface, curvature, geometry
from .sphere_grid import ScalarField
from . import invariants as inv

__all__ = [
    "SpeedFunction",
    "FlowTrace",
    "normal_speed",
    "step",
    "run",
    "asymptotics_check",
    "class_c_audit",
]


def _positive(H, K):
    return (H > 0.0) & (K > 0.0)


# the closed forms (rho, in_cone, diffusivity) of the three speeds, with
# D = sum_i d rho / d kappa_i from dH/dkappa_i = 1 and dK/dkappa_i =
# H - kappa_i, which sums to H
_MEAN = (lambda H, K: H, lambda H, K: H > 0.0,
         lambda H, K: np.full(np.shape(H), 2.0))
_QUOTIENT = (lambda H, K: K / H, _positive,
             lambda H, K: (H * H - 2.0 * K) / (H * H))
_ROOT = (lambda H, K: K ** 0.5, _positive,
         lambda H, K: H / (2.0 * np.sqrt(K)))

# every accepted spelling of a speed, and the closed forms it names
_SPEEDS = {"H": _MEAN, "quotient:1": _MEAN, "power:1": _MEAN, "ratio:1,0": _MEAN,
           "quotient:2": _QUOTIENT, "ratio:2,1": _QUOTIENT,
           "power:2": _ROOT, "ratio:2,0": _ROOT}


class SpeedFunction(NamedTuple):
    """Degree-1 homogeneous symmetric curvature function on its cone: its
    label and three closed forms in (H, K), rho, the cone test and the
    diffusivity D = sum_i d rho / d kappa_i.

    `parse` reads the spellings of `_SPEEDS`: mean curvature H; quotient
    sigma_k/sigma_{k-1}; root power sigma_k^(1/k); ratio root
    (sigma_i/sigma_j)^(1/(i-j)).  For the two principal curvatures of a
    surface (sigma_1 = H, sigma_2 = K) they name three speeds, and every
    spelling of a speed shares its closed forms:

        rho     spellings                          cone          D
        H       H, quotient:1, power:1, ratio:1,0  H > 0         2
        K/H     quotient:2, ratio:2,1              H, K > 0      (H^2 - 2K)/H^2
        sqrt K  power:2, ratio:2,0                 H, K > 0      H/(2 sqrt K)
    """

    label: str
    rho: Callable
    in_cone: Callable
    diffusivity: Callable

    @classmethod
    def parse(cls, text: str) -> "SpeedFunction":
        """The speed spelled by `text`, blanks ignored."""
        label = "".join(text.split())
        if label not in _SPEEDS:
            raise ValueError(f"unknown speed {label!r}; expected one of "
                             + ", ".join(_SPEEDS))
        return cls(label, *_SPEEDS[label])

    @property
    def mu(self) -> float:
        """rho at the round point kappa = (1, 1): H = 2, K = 1."""
        return float(self.rho(2.0, 1.0))


# ----------------------------------------------------------------------
# flow stepping

# the longest step, the record spacing of a run
_MAX_STEP = 0.02
# the step bound where D varies, times D_max - D_min: the product is
# 0.010000000000000002, not 0.01, and it fixes every step length
_DT_SPREAD = 0.2 * 0.05
# the upper half of the unit circle: the contour means of `_etd_weights`
# over it are real parts, for real z
_CONTOUR = np.exp(1j * np.pi * (np.arange(32) + 0.5) / 32)


def _cone_rho(speed, geom) -> np.ndarray:
    """rho(H, K) of a geometry bundle, after raising CurvatureConeError at
    the first node outside the speed's cone with the bundle's kappa there."""
    ok = speed.in_cone(geom.H, geom.K)
    if not np.all(ok):
        idx = tuple(map(int, np.unravel_index(int(np.argmin(ok)), ok.shape)))
        kappa = geom.kappa[idx]
        raise CurvatureConeError(
            f"kappa = {kappa} at node {idx} outside the cone of {speed.label}",
            node=idx, kappa=kappa)
    return speed.rho(geom.H, geom.K)


def normal_speed(surface: StarShapedHypersurface,
                 speed: SpeedFunction) -> ScalarField:
    """Outward normal speed field 1/rho(kappa); positive on the cone."""
    return ScalarField(surface.spec, 1.0 / _cone_rho(speed, geometry(surface)))


def _diffusivity(speed, geom, f, rho) -> np.ndarray:
    """D / (rho^2 f^2), D from the bundle's H and K: the coefficient of
    the round Laplacian of log f in the linearized graph equation."""
    return speed.diffusivity(geom.H, geom.K) / (rho * f) ** 2


def _damping(grid) -> np.ndarray:
    """Damping rate per degree, 36 x^4 / _MAX_STEP above 0.9 l_max and
    zero below, x the distance from that cutoff over the rest of the band:
    over a step of _MAX_STEP the top degree is damped by exp(-36)."""
    ell = grid.ell.astype(float)
    lc = 0.9 * grid.l_max
    x = (ell - lc) / (grid.l_max - lc)
    return np.where(ell > lc, 36.0 * x**4, 0.0) / _MAX_STEP


def _etd_weights(z: np.ndarray):
    """The ETDRK4 weights (Q, f1, f2, f3) of Cox & Matthews over h, at
    z = h L, as means over a circle of radius 1 about each z (Kassam &
    Trefethen): no cancellation at small z, where the closed forms lose
    every digit; at z = 0 they are 1/2 and 1/6."""
    r = z[:, None] + _CONTOUR
    e = np.exp(r)
    r3 = r ** 3
    Q = (np.exp(0.5 * r) - 1.0) / r
    f1 = (-4.0 - r + e * (4.0 - 3.0 * r + r * r)) / r3
    f2 = (2.0 + r + e * (r - 2.0)) / r3
    f3 = (-4.0 - 3.0 * r - r * r + e * (4.0 - r)) / r3
    return [w.mean(axis=1).real for w in (Q, f1, f2, f3)]


def step(surface: StarShapedHypersurface, speed: SpeedFunction,
         dt: float) -> StarShapedHypersurface:
    """One ETDRK4 step (Cox & Matthews, JCP 176, 2002) of the graph flow
    for the harmonic coefficients of lam = log f.

    The linear part L lam, with L = -(D0 l(l+1) + nu_l) per degree, is
    integrated exactly: D0 is half the largest D / (rho^2 f^2) at the
    start, nu the damping rate `_damping`.  The start is the geometry
    bundle's `lam`, which `stable_dt` builds in a run; a step on a
    surface without a bundle builds only its kernel part.  Each of the four
    stages passes its coefficients lam and f = exp(synthesis(lam)) to the
    curvature kernel, one evaluation per stage, and takes the rest of the
    equation, N = analysis(sqrt(1 + |grad lam|^2) / (f rho)) +
    D0 l(l+1) lam, from it.  On a round sphere N is a constant of degree
    0, where L vanishes, so the step is exact there: r exp(dt/mu).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    geom = geometry(surface)
    grid, f0, lam0 = geom.grid, surface.values, geom.lam
    ll = grid.ell * (grid.ell + 1.0)

    def graph_rhs(lam, f):
        """analysis(sqv / (f rho)), the bundle curvature(grid, lam, f), rho;
        sqv = sqrt(1 + |grad lam|^2), H and K are read from the bundle"""
        c = curvature(grid, lam, f)
        rho = _cone_rho(speed, c)
        return grid.analysis(c.sqv / (f * rho)), c, rho

    F0, c0, rho0 = graph_rhs(lam0, f0)
    D0 = 0.5 * float(_diffusivity(speed, c0, f0, rho0).max())  # at the start only
    del c0, rho0                # freed before the later stages run the kernel
    # dlam/dt = F - nu lam = L lam + N, F = graph_rhs(lam, f)[0]: N = F + D0 l(l+1) lam
    explicit = (D0 * ll)[:, None]

    def nonlinear(lam):
        return graph_rhs(lam, np.exp(grid.synthesis(lam)))[0] + explicit * lam

    N0 = F0 + explicit * lam0
    z = -dt * (D0 * ll + _damping(grid))
    Q, f1, f2, f3 = (dt * w[:, None] for w in _etd_weights(z))
    E2 = np.exp(0.5 * z)[:, None]
    a = E2 * lam0 + Q * N0
    Na = nonlinear(a)
    b = E2 * lam0 + Q * Na
    Nb = nonlinear(b)
    c = E2 * a + Q * (2.0 * Nb - N0)
    Nc = nonlinear(c)
    lam1 = E2 * E2 * lam0 + f1 * N0 + 2.0 * f2 * (Na + Nb) + f3 * Nc
    return StarShapedHypersurface(
        ScalarField(surface.spec, np.exp(grid.synthesis(lam1))))


def stable_dt(surface: StarShapedHypersurface, speed: SpeedFunction) -> float:
    """The step bound of `step`: _MAX_STEP, or _DT_SPREAD / (D_max - D_min)
    if shorter, D = diffusivity / (rho^2 f^2).  D - D0 is the part of the
    Laplacian term that `step` treats explicitly, so the bound keeps the
    step accurate, not stable.  H and K come from the surface's geometry
    bundle, which this call builds and a record of the same state then
    reads; raises CurvatureConeError if the surface leaves the speed's
    cone."""
    geom = geometry(surface)
    D = _diffusivity(speed, geom, surface.values, _cone_rho(speed, geom))
    spread = float(D.max() - D.min())
    return min(_MAX_STEP, _DT_SPREAD / spread) if spread > 0.0 else _MAX_STEP


@dataclass
class FlowTrace:
    """Time series of monitored quantities, one entry per record, and the
    number of steps taken; `tracefree_sq_sup` is max |A0|^2, and
    sup |E(a)| = |2a+1| times it."""

    speed_label: str
    mu: float
    t: list = field(default_factory=list)
    W: list = field(default_factory=list)
    Q1: list = field(default_factory=list)
    tracefree_sq_sup: list = field(default_factory=list)
    osc: list = field(default_factory=list)
    ubar_mean: list = field(default_factory=list)
    shape_dev: list = field(default_factory=list)
    beta: float = float("nan")
    steps: int = 0
    snapshots: list = field(default_factory=list)

    def _record(self, t, surface, keep):
        geom = geometry(surface)
        self.t.append(t)
        self.W.append(inv.willmore(surface))
        self.Q1.append(inv.guan_li_q(surface, 1))
        self.tracefree_sq_sup.append(float(geom.tracefree_sq.max()))
        f = surface.values
        self.osc.append(float(f.max() / f.min()))
        # rescaled graph exp(-t/mu) f: round-sphere mean (its oscillation is osc)
        scale = math.exp(-t / self.mu)
        self.ubar_mean.append(scale * geom.grid.integrate_values(f) / (4.0 * np.pi))
        # sup |f kappa_i - 1|: spectral norm of f h_i^j - delta_i^j,
        # invariant under the rescaling
        dev = np.abs(f[..., None] * geom.kappa - 1.0).max()
        self.shape_dev.append(float(dev))
        if keep:
            self.snapshots.append(surface.f)

    def csv_header(self) -> list[str]:
        return ["t", "W", "Q1", "tracefree_sq_sup", "osc", "ubar_mean", "shape_dev"]

    def csv_rows(self):
        return zip(*(getattr(self, c) for c in self.csv_header()))

    def summary(self) -> dict:
        """The run's speed, mu, step count and fitted rate beta; every
        recorded value is in the CSV rows, and only there."""
        return {"speed": self.speed_label, "mu": self.mu, "steps": self.steps,
                "beta": self.beta}


def _decay_rate(t: list, values: list, floor: float) -> float:
    """Least-squares exponential decay rate of the trailing half of a
    series; nan with fewer than 4 records, or with no signal: when the
    half stays at or below the round-off `floor`, or when the fitted log
    line falls across it by no more than the largest scatter about it."""
    m = len(t)
    if m < 4 or max(values[m // 2:]) <= floor:
        return float("nan")
    tt = np.array(t[m // 2:])
    y = np.log(np.maximum(np.array(values[m // 2:]), 1e-300))
    fit = np.polyfit(tt, y, 1)
    falls = -fit[0] * (tt[-1] - tt[0]) > np.abs(y - np.polyval(fit, tt)).max()
    return float(-fit[0]) if falls else float("nan")


def run(surface: StarShapedHypersurface, speed: SpeedFunction, t_end: float,
        keep_snapshots: bool = True) -> FlowTrace:
    """Evolve a surface to t_end, recording diagnostics along the way;
    raises ValueError before any step unless t_end is finite and positive.

    Each step is as long as `stable_dt` allows.  A run records the start,
    t_end and enough states between that records are at most 0.02 time
    units apart, fine enough that finite differences of the records
    resolve the energy rates to three digits; `keep_snapshots` keeps each
    recorded surface in the trace.  `stable_dt` builds the kernel part of
    each state's geometry bundle, which a record of the state reads; only
    the final record builds its own.  So a run evaluates the curvature
    kernel 5 times per step (4 stages, 1 step bound) and once more.  A
    record also builds the bundle's shape part (`kappa`, `tracefree_sq`);
    no state of a run builds the frame part."""
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError("t_end must be positive and finite")
    trace = FlowTrace(speed_label=speed.label, mu=speed.mu)

    t = t_rec = 0.0
    current = surface
    while t < t_end - 1e-14:
        dt = min(stable_dt(current, speed), t_end - t)
        # record the start, then keep records at most _MAX_STEP apart
        if not trace.t or t + dt > t_rec + _MAX_STEP + 1e-14:
            trace._record(t, current, keep_snapshots)
            t_rec = t
        current = step(current, speed, dt)
        t += dt
        trace.steps += 1
    trace._record(t, current, keep_snapshots)
    # exponential rate of the shape-operator deviation above 100 times its
    # round-off eps n_theta^2 (a round sphere's: 2e-14 at 16x32, 1.4e-12 at 128x256)
    trace.beta = _decay_rate(trace.t, trace.shape_dev,
                             100 * np.finfo(float).eps * surface.spec.n_theta ** 2)
    return trace


def asymptotics_check(trace: FlowTrace) -> dict:
    """Audit the monotone quantities and fitted decay rates of a trace;
    returns the flags, the record from which `osc` stays monotone, the
    decay rate of max |A0|^2 and their conjunction `flags_ok`.

    Monotonicity tolerates per-record wiggles of 1e-8 relative (time
    stepping leaves residuals at discretization scale); violations are
    reported as flags, never raised.
    """
    if not trace.t:
        raise ValueError("empty trace")
    W = np.array(trace.W)
    Q = np.array(trace.Q1)
    w_ok = bool(np.all(np.diff(W) <= 1e-8 * W[:-1]))
    q_ok = bool(np.all(np.diff(Q) <= 1e-8 * Q[:-1]))
    m = trace.tracefree_sq_sup
    # fell, or starts at round-off: the floor binds sup |E(1)| = 3 max |A0|^2
    m_dec = bool(m[-1] < m[0] or 3.0 * m[0] < 1e-12)

    osc = np.array(trace.osc)
    rising = np.where(np.diff(osc) > 1e-10 * osc[:-1])[0]
    osc_from = int(rising[-1] + 1) if rising.size else 0
    tail_ok = osc_from <= max(1, len(osc) // 2)

    # nan once the trailing half is at round-off, sup |E(-1/4)| <= 1e-14
    rate = _decay_rate(trace.t, m, 2e-14)
    ok = w_ok and q_ok and m_dec and tail_ok
    return {"willmore_nonincreasing": w_ok, "q1_nonincreasing": q_ok,
            "tracefree_sq_decreased": m_dec, "osc_monotone_from": osc_from,
            "osc_monotone_tail": tail_ok, "tracefree_sq_decay_rate": rate,
            "flags_ok": ok}


# ----------------------------------------------------------------------
# class-C audit

_CLASS_C_SAMPLES = 10000


def _fd_gradient(rho, kappa, h):
    grad = np.empty_like(kappa)
    for i, e in enumerate(np.eye(kappa.shape[-1])):
        grad[..., i] = (rho(kappa + h * e) * 8.0 - rho(kappa - h * e) * 8.0
                        - rho(kappa + 2 * h * e) + rho(kappa - 2 * h * e)) / (12.0 * h)
    return grad


def _fd_hessian(rho, kappa, h):
    n = kappa.shape[-1]
    eye = np.eye(n)
    H = np.empty(kappa.shape[:-1] + (n, n))
    for i, ei in enumerate(eye):
        H[..., i, i] = (-rho(kappa + 2 * h * ei) + 16 * rho(kappa + h * ei)
                        - 30 * rho(kappa) + 16 * rho(kappa - h * ei)
                        - rho(kappa - 2 * h * ei)) / (12.0 * h * h)
        for j, ej in enumerate(eye[i + 1:], i + 1):
            fine = (rho(kappa + h * ei + h * ej) - rho(kappa + h * ei - h * ej)
                    - rho(kappa - h * ei + h * ej) + rho(kappa - h * ei - h * ej)
                    ) / (4.0 * h * h)
            coarse = (rho(kappa + 2 * h * (ei + ej)) - rho(kappa + 2 * h * (ei - ej))
                      - rho(kappa - 2 * h * (ei - ej)) + rho(kappa - 2 * h * (ei + ej))
                      ) / (16.0 * h * h)
            H[..., i, j] = H[..., j, i] = (4.0 * fine - coarse) / 3.0
    return H


def class_c_audit(speed, seed: int = 0) -> dict:
    """Sample the five admissibility conditions of a curvature function:
    positivity, symmetry, degree-1 homogeneity, strict monotonicity and
    concavity (semi-negative Hessian) on its cone.

    Of `_CLASS_C_SAMPLES` points kappa in [0.2, 3]^2, those in the cone
    (the report's `n_samples`) are passed to the speed as
    (H, K) = (kappa.sum(-1), kappa.prod(-1)), so symmetry holds by
    construction; its check stays.  Samples are normalized to unit scale
    before the finite-difference Hessian check (homogeneity makes that
    lossless and keeps round-off far below the 1e-8 eigenvalue tolerance).
    Returns a report dict with per-condition verdicts and worst violations.
    """
    rng = np.random.default_rng(seed)
    kappa = rng.uniform(0.2, 3.0, size=(_CLASS_C_SAMPLES, 2))
    kappa = kappa[speed.in_cone(kappa.sum(-1), kappa.prod(-1))]

    def rho(k):
        return speed.rho(k.sum(-1), k.prod(-1))

    values = rho(kappa)
    positive = bool(np.all(values > 0.0))

    sym_dev = float(np.abs(rho(kappa[:, ::-1]) - values).max()
                    / np.abs(values).max())
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
