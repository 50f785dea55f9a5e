"""The three benchmark workloads: seeded inputs, one checked round, gates.

Every input is a function of the workload seed (and, for per-round
inputs, of the round index), so the same seed always gives the same
inputs.  A round is the unit the benchmark times; each round returns the
latencies of its operations and the gate failures of its outputs.
Round 0 is the warm-up: it is gated like every round but not timed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

# ----------------------------------------------------------------------
# gates (pure functions of the outputs; each returns a list of failures)

MONOTONE_REL_TOL = 1e-8      # acceptance 5-6: per-record wiggle allowance
REFERENCE_REL_TOL = 1e-6
FD_REL_TOL = 1e-3            # acceptance 6: rate vs central difference
SPHERE_MU_TOL = 1e-8         # acceptance 9: sphere soliton dilation rate
# Qbar meets both bounds with equality on round spheres, where round-off
# decides the comparison; a few ulps of slack keep that case decidable
QBAR_REL_SLACK = 1e-12


def flow_gate(W, Q1, reference=None) -> list[str]:
    """Willmore and Guan-Li monotonicity along IMCF, their sharp lower
    bounds 16 pi and 4 sqrt(pi), and (when given) the recorded final
    values."""
    W, Q1 = np.asarray(W, dtype=float), np.asarray(Q1, dtype=float)
    bad = []
    if W.size < 2:
        bad.append(f"only {W.size} records")
    if np.any(np.diff(W) > MONOTONE_REL_TOL * W[:-1]):
        bad.append("W increases between records")
    if np.any(np.diff(Q1) > MONOTONE_REL_TOL * Q1[:-1]):
        bad.append("Q1 increases between records")
    if W.min() < 16.0 * math.pi:
        bad.append(f"W = {W.min():.17g} below 16 pi")
    if Q1.min() < 4.0 * math.sqrt(math.pi):
        bad.append(f"Q1 = {Q1.min():.17g} below 4 sqrt(pi)")
    if reference is not None:
        for key, value in (("W_final", W[-1]), ("Q1_final", Q1[-1])):
            ref = reference[key]
            if abs(value - ref) > REFERENCE_REL_TOL * abs(ref):
                bad.append(f"{key} = {value:.17g}, reference {ref:.17g}")
    return bad


def transport_gate(rate: float, fd: float) -> list[str]:
    """Transport rate of Q1 against the central difference of Q1 over
    the pushed-forward surfaces (denominator as in acceptance 6)."""
    rel = abs(rate - fd) / max(abs(rate), abs(fd), 1e-10)
    if not rel < FD_REL_TOL:
        return [f"qk_rate {rate:.17g} vs FD {fd:.17g}: rel err {rel:.3g}"]
    return []


def audit_gate(exit_codes: dict, invariance: dict, inequality: dict,
               soliton: dict, sphere: bool) -> list[str]:
    """Exit codes, the invariance verdict, the Qbar bounds and, for the
    round-sphere controls, the soliton verdict with mu = 1/2."""
    bad = [f"{cmd} exited {code}" for cmd, code in exit_codes.items()
           if code != 0]
    if bad:
        return bad
    if invariance["passed"] is not True:
        bad.append("invariance audit did not pass")
    slack = QBAR_REL_SLACK * abs(inequality["Qbar"])
    if not (inequality["lower"] - slack <= inequality["Qbar"]
            <= inequality["upper"] + slack):
        bad.append(f"Qbar {inequality['Qbar']!r} outside "
                   f"[{inequality['lower']!r}, {inequality['upper']!r}]")
    if sphere:
        if soliton["verdict"] != "soliton":
            bad.append(f"sphere verdict {soliton['verdict']!r}")
        mu = soliton.get("fitted", {}).get("mu", math.nan)
        if not abs(mu - 0.5) < SPHERE_MU_TOL:
            bad.append(f"sphere mu = {mu!r}")
    return bad


# ----------------------------------------------------------------------
# helpers


@dataclass
class Outcome:
    """What one round did: operation latencies by kind (seconds), the
    number of checked operations, how many of them failed, and why."""

    ops: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def add(self, kind: str, seconds: float):
        self.ops.setdefault(kind, []).append(seconds)

    def check(self, failures: list[str]):
        """Count one checked operation and its gate failures."""
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures += failures


def run_cli(cli, *argv) -> int:
    """Call the icflab command line in-process, discarding its stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def node_directions(grid) -> np.ndarray:
    """Unit vectors of the grid nodes, shape (n_theta, n_phi, 3)."""
    st, ct = grid.sin_theta[:, None], grid.cos_theta[:, None]
    cp, sp = np.cos(grid.phi)[None, :], np.sin(grid.phi)[None, :]
    return np.stack([st * cp, st * sp, ct * np.ones_like(cp)], axis=-1)


def grid_label(spec) -> str:
    return f"{spec[0]}x{spec[1]}"


def _sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ----------------------------------------------------------------------
# workloads


class Imcf64:
    """`icflab flow --speed H` on a seeded mean-convex perturbation of
    the unit sphere: the long acceptance-5 run in miniature.

    The perturbation is a fixed polynomial with degree 2, 3 and 4 parts
    at sup amplitude 0.1, turned by a seeded random rotation.  A rotation
    changes the input without changing its stiffness, so every seed takes
    the same number of explicit steps and wall times compare across
    seeds.
    """

    name = "imcf64"
    default_grids = ((64, 128),)
    T_END = 0.06
    AMPLITUDE = 0.1

    def __init__(self, icf, seed: int, workdir: str, grids=None,
                 reference: dict | None = None):
        self.icf = icf
        self.seed = seed
        self.workdir = workdir
        self.spec = (grids or self.default_grids)[0]
        self.reference = reference
        self.surface_path = os.path.join(workdir, "input", "surface.json")
        self.out = os.path.join(workdir, "flow")

    @staticmethod
    def pattern(X):
        x, y, z = X[..., 0], X[..., 1], X[..., 2]
        return (x * x - y * y) + x * y * z + 0.5 * (x**4 + y**4 + z**4 - 0.6)

    def prepare(self) -> str:
        sg, rg = self.icf.sphere_grid, self.icf.radial_graph
        spec = sg.GridSpec(*self.spec)
        grid = sg.make_grid(spec)
        rot = random_rotation(np.random.default_rng(self.seed))
        q = self.pattern(node_directions(grid) @ rot)
        f = 1.0 + self.AMPLITUDE * q / np.abs(q).max()
        surface = rg.StarShapedHypersurface(sg.ScalarField(spec, f))
        os.makedirs(os.path.dirname(self.surface_path), exist_ok=True)
        self.icf.serialize.save_surface(
            self.surface_path, surface,
            {"name": "bench-imcf64", "seed": self.seed})
        return _sha256_file(self.surface_path)

    def run_round(self, index: int) -> Outcome:
        out = Outcome()
        t0 = time.perf_counter()
        code = run_cli(self.icf.cli, "flow", self.surface_path, "--speed", "H",
                       "--t-end", repr(self.T_END), "--out", self.out)
        out.add("op", time.perf_counter() - t0)
        if code != 0:
            out.check([f"flow exited {code}"])
            return out
        with open(os.path.join(self.out, "trace.csv")) as fh:
            rows = list(csv.DictReader(fh))
        W = [float(r["W"]) for r in rows]
        Q1 = [float(r["Q1"]) for r in rows]
        out.check(flow_gate(W, Q1, self.reference))
        return out


class Transport64:
    """Cross-validation of the Q1 transport rate under seeded conformal
    Killing fields (acceptance 6): qk_rate against the central difference
    of guan_li_q over pushforward_surface(V, +h) and (V, -h).

    The surface has l = 1, 2 and 3 modes (odd, so rates are nonzero),
    turned by a seeded rotation.  The rate is linear in the field's
    special-conformal part b; every field gets a b component of at least
    0.1 along the rate-gradient direction, so no rate is near zero and
    the relative-error gate stays well conditioned.
    """

    name = "transport64"
    default_grids = ((64, 128),)
    H = 1e-3
    # d qk_rate / d b of the unrotated pattern (v = S = mu = 0)
    RATE_GRADIENT = np.array([-0.02404398428721607, 0.0, -0.01837519054019015])

    def __init__(self, icf, seed: int, workdir: str, grids=None,
                 reference: dict | None = None):
        self.icf = icf
        self.seed = seed
        self.spec = (grids or self.default_grids)[0]
        self.rot = None
        self.surface = None

    @staticmethod
    def pattern(X):
        x, y, z = X[..., 0], X[..., 1], X[..., 2]
        return 0.12 * (x * x - y * y) + 0.07 * x * (5.0 * z * z - 1.0) + 0.1 * z

    def prepare(self) -> str:
        sg, rg = self.icf.sphere_grid, self.icf.radial_graph
        spec = sg.GridSpec(*self.spec)
        grid = sg.make_grid(spec)
        self.rot = random_rotation(np.random.default_rng(self.seed))
        f = 1.0 + self.pattern(node_directions(grid) @ self.rot)
        self.surface = rg.StarShapedHypersurface(sg.ScalarField(spec, f))
        return hashlib.sha256(f.tobytes()).hexdigest()

    def field(self, index: int):
        rng = np.random.default_rng((self.seed, index))
        g = self.RATE_GRADIENT / np.linalg.norm(self.RATE_GRADIENT)
        side = rng.choice((-1.0, 1.0)) * (0.1 + abs(rng.normal(0.0, 0.05)))
        noise = rng.normal(0.0, 0.15, 3)
        b = self.rot @ (side * g + noise - (noise @ g) * g)
        return self.icf.conformal.ConformalKillingField(
            rng.normal(0.0, 0.2, 3), rng.normal(0.0, 0.2, 3),
            rng.normal(0.0, 0.2), b)

    def run_round(self, index: int) -> Outcome:
        inv, conformal = self.icf.invariants, self.icf.conformal
        out = Outcome()
        V = self.field(index)
        try:
            rate = inv.qk_rate(self.surface, V, 1)
            q = []
            for h in (self.H, -self.H):
                t0 = time.perf_counter()
                moved = conformal.pushforward_surface(V, h, self.surface)
                out.add("op", time.perf_counter() - t0)
                q.append(inv.guan_li_q(moved, 1))
        except self.icf.errors.IcfLabError as exc:
            out.check([f"{type(exc).__name__}: {exc}"])
            return out
        out.check(transport_gate(rate, (q[0] - q[1]) / (2.0 * self.H)))
        return out


class AuditMixed:
    """The per-surface CLI audit chain (gen harmonic, diag, invariance
    --trials 20, soliton, inequality) on seeded harmonic surfaces at two
    resolutions; one round audits one surface per grid.  Round 0, the
    warm-up, audits the round-sphere controls, one per grid."""

    name = "audit_mixed"
    default_grids = ((64, 128), (128, 256))
    TERMS = 3
    AMP_RANGE = (0.01, 0.03)

    def __init__(self, icf, seed: int, workdir: str, grids=None,
                 reference: dict | None = None):
        self.icf = icf
        self.seed = seed
        self.workdir = workdir
        self.grids = tuple(grids or self.default_grids)

    def terms(self, index: int, grid_index: int) -> list[str]:
        rng = np.random.default_rng((self.seed, index, grid_index))
        out = []
        for _ in range(self.TERMS):
            ell = int(rng.integers(1, 5))
            m = int(rng.integers(-ell, ell + 1))
            amp = float(rng.choice((-1.0, 1.0)) * rng.uniform(*self.AMP_RANGE))
            out.append(f"{ell},{m},{amp!r}")
        return out

    def prepare(self) -> str:
        sg = self.icf.sphere_grid
        for spec in self.grids:
            sg.make_grid(sg.GridSpec(*spec))
        digest = hashlib.sha256()
        for index in range(4):
            for g in range(len(self.grids)):
                digest.update(" ".join(self.terms(index, g)).encode())
        return digest.hexdigest()

    def audit_surface(self, out: Outcome, kind: str, spec, gen_args,
                      invariance_seed: int, sphere: bool):
        cli = self.icf.cli
        d = os.path.join(self.workdir, f"audit-{grid_label(spec)}")
        surface = os.path.join(d, "surface.json")
        t0 = time.perf_counter()
        codes = {
            "gen": run_cli(cli, "gen", *gen_args, "--grid", grid_label(spec),
                           "--out", d),
            "diag": run_cli(cli, "diag", surface, "--out", d),
            "invariance": run_cli(cli, "invariance", surface, "--seed",
                                  invariance_seed, "--trials", 20, "--out", d),
            "soliton": run_cli(cli, "soliton", surface, "--speed", "H",
                               "--out", d),
            "inequality": run_cli(cli, "inequality", surface, "--out", d),
        }
        out.add(kind, time.perf_counter() - t0)
        docs = {}
        if all(code == 0 for code in codes.values()):
            for name in ("invariance", "inequality", "soliton"):
                with open(os.path.join(d, f"{name}.json")) as fh:
                    docs[name] = json.load(fh)
        out.check(audit_gate(codes, docs.get("invariance"),
                             docs.get("inequality"), docs.get("soliton"),
                             sphere))

    def run_round(self, index: int) -> Outcome:
        out = Outcome()
        for g, spec in enumerate(self.grids):
            kind = "op" if g == 0 else f"op_{grid_label(spec)}"
            if index == 0:
                self.audit_surface(out, "control", spec, ("sphere", "1.0"),
                                   self.seed, sphere=True)
            else:
                self.audit_surface(out, kind, spec,
                                   ("harmonic", "1.0", *self.terms(index, g)),
                                   self.seed + index, sphere=False)
        return out


WORKLOADS = {w.name: w for w in (Imcf64, Transport64, AuditMixed)}
