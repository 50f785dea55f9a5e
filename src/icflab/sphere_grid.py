"""Gauss-Legendre x Fourier discretization of the round unit sphere.

Nodes are (theta_i, phi_j) with cos(theta_i) the Gauss-Legendre points on
(-1, 1) and phi_j uniform on [0, 2pi); no node sits on a pole.  Smooth
fields are represented by their values on this grid and differentiated
through an orthonormal spherical-harmonic transform, so all covariant
operators (gradient, Hessian, Laplace-Beltrami) converge spectrally for
fields resolved by the grid.  Quadrature is exact for polynomials in
cos(theta) up to degree 2*n_theta-1 and trigonometric polynomials in phi
up to degree n_phi-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError

__all__ = [
    "GridSpec",
    "Grid",
    "ScalarField",
    "CovariantTensor2",
    "make_grid",
    "integrate",
    "gradient",
    "contravariant_gradient",
    "hessian",
    "laplacian",
]


@dataclass(frozen=True)
class GridSpec:
    """Node counts of a colatitude x longitude tensor grid."""

    n_theta: int
    n_phi: int

    def __post_init__(self):
        if self.n_theta < 8:
            raise ValueError("n_theta must be >= 8")
        if self.n_phi < 16:
            raise ValueError("n_phi must be >= 16")
        if self.n_phi % 2 != 0:
            raise ValueError("n_phi must be even")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_theta, self.n_phi)


def _check_spec(a, b):
    if a != b:
        raise GridMismatchError(f"grids differ: {a} vs {b}")


@dataclass
class ScalarField:
    """Real-valued samples on a grid, row-major in (theta, phi)."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.spec.shape:
            raise ValueError(f"value shape {v.shape} != grid shape {self.spec.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        self.values = v

    def __add__(self, other):
        if isinstance(other, ScalarField):
            _check_spec(self.spec, other.spec)
            return ScalarField(self.spec, self.values + other.values)
        return ScalarField(self.spec, self.values + other)

    def __mul__(self, c):
        return ScalarField(self.spec, self.values * c)

    __rmul__ = __mul__


@dataclass
class CovariantTensor2:
    """Symmetric rank-2 covariant tensor, coordinate components in the
    fixed (theta, phi) chart; array shape (n_theta, n_phi, 2, 2)."""

    spec: GridSpec
    components: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.components, dtype=float)
        if c.shape != self.spec.shape + (2, 2):
            raise ValueError("component array has wrong shape")
        if not np.allclose(c[..., 0, 1], c[..., 1, 0], rtol=0.0, atol=1e-12 * (1.0 + np.abs(c).max())):
            raise ValueError("tensor is not symmetric")
        self.components = c


class Grid:
    """Grid nodes, quadrature weights and spectral differentiation tables.

    Use :func:`make_grid` to obtain (cached) instances.  The transform
    methods operate on raw (n_theta, n_phi) arrays and are shared by the
    geometry and flow modules; the typed field operations below wrap them.

    Spectral coefficients are stored stacked-real with shape
    (m_max+1, l_max+1, 2): axis 0 is the Fourier order m >= 0, axis 1 the
    harmonic degree l (entries with l < m are zero), axis 2 holds
    real/imaginary parts.

    `legendre[m, i, l]` is the orthonormal associated Legendre function
    P_l^m(cos theta_i) at the colatitude nodes (Condon-Shortley phase,
    zero for l < m), shape (m_max+1, n_theta, l_max+1): the synthesis
    table, shared with the surface generators, hence read-only.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        nt, nph = spec.n_theta, spec.n_phi

        x, w = np.polynomial.legendre.leggauss(nt)
        order = np.argsort(-x)                    # theta increasing from north
        self.x = x[order]
        self.w_theta = w[order]
        self.theta = np.arccos(self.x)
        self.phi = 2.0 * np.pi * np.arange(nph) / nph
        self.sin_theta = np.sin(self.theta)
        self.cos_theta = self.x
        self.cot_theta = self.cos_theta / self.sin_theta
        self.weights = np.outer(self.w_theta, np.full(nph, 2.0 * np.pi / nph))

        self.l_max = nt - 1
        self.m_max = min(self.l_max, nph // 2 - 1)
        self.ell = np.arange(self.l_max + 1)
        self.m_values = np.arange(self.m_max + 1)

        self._build_tables()

    # ------------------------------------------------------------------
    # table construction

    def _build_tables(self):
        nt, L, M = self.spec.n_theta, self.l_max, self.m_max
        x, s = self.x, self.sin_theta

        # P[m][l] = orthonormal associated Legendre \bar P_l^m(x_i), with
        # Condon-Shortley phase, built by the standard stable recurrences.
        P = np.zeros((L + 1, nt, L + 1))
        diag = np.full(nt, np.sqrt(1.0 / (4.0 * np.pi)))
        P[0, :, 0] = diag
        for m in range(1, L + 1):
            diag = -np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s * diag
            P[m, :, m] = diag
        for m in range(L + 1):
            if m + 1 <= L:
                P[m, :, m + 1] = np.sqrt(2.0 * m + 3.0) * x * P[m, :, m]
            for l in range(m + 2, L + 1):
                a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                b = np.sqrt((2.0 * l + 1.0) * (l + m - 1.0) * (l - m - 1.0)
                            / ((2.0 * l - 3.0) * (l * l - m * m)))
                P[m, :, l] = a * x * P[m, :, l - 1] - b * P[m, :, l - 2]

        def slab(m):
            # \bar P_l^m table for signed m: \bar P_l^{-m} = (-1)^m \bar P_l^m
            if abs(m) > L:
                return np.zeros((nt, L + 1))
            return P[m] if m >= 0 else (-1.0) ** (-m) * P[-m]

        lv = np.arange(L + 1, dtype=float)

        def ap(m):  # sqrt((l-m)(l+m+1)), clipped at the degree boundary
            return np.sqrt(np.clip((lv - m) * (lv + m + 1.0), 0.0, None))

        def am(m):
            return np.sqrt(np.clip((lv + m) * (lv - m + 1.0), 0.0, None))

        # d/dtheta and d^2/dtheta^2 of \bar P_l^m(cos theta) from the
        # order-ladder identities; exact for every degree.
        Td = np.zeros((M + 1, nt, L + 1))
        Tdd = np.zeros((M + 1, nt, L + 1))
        for m in range(M + 1):
            Td[m] = 0.5 * (ap(m) * slab(m + 1) - am(m) * slab(m - 1))
            A = ap(m) * ap(m + 1)
            B = (lv - m) * (lv + m + 1.0) + (lv + m) * (lv - m + 1.0)
            C = am(m) * am(m - 1)
            Tdd[m] = 0.25 * (A * slab(m + 2) - B * slab(m) + C * slab(m - 2))

        self.legendre = np.ascontiguousarray(P[: M + 1])      # (M+1, nt, L+1)
        self.legendre.setflags(write=False)
        self._Td = Td
        self._Tdd = Tdd
        scale = 2.0 * np.pi / self.spec.n_phi
        self._TW = np.ascontiguousarray(
            np.swapaxes(self.legendre, 1, 2) * (self.w_theta * scale))  # (M+1, L+1, nt)

    # ------------------------------------------------------------------
    # transforms on raw arrays

    def analysis(self, values: np.ndarray) -> np.ndarray:
        """Project grid values onto orthonormal spherical harmonics."""
        F = np.fft.rfft(values, axis=1)[:, : self.m_max + 1].T
        F2 = np.stack([F.real, F.imag], axis=-1)              # (M+1, nt, 2)
        C2 = np.matmul(self._TW, F2)                          # (M+1, L+1, 2)
        C2[0, :, 1] = 0.0
        return C2

    def _synth_table(self, C2: np.ndarray, table: np.ndarray) -> np.ndarray:
        G2 = np.matmul(table, C2)                             # (M+1, nt, 2)
        buf = np.zeros((self.spec.n_theta, self.spec.n_phi // 2 + 1), dtype=complex)
        buf[:, : self.m_max + 1] = (G2[..., 0] + 1j * G2[..., 1]).T
        return np.fft.irfft(buf * self.spec.n_phi, n=self.spec.n_phi, axis=1)

    def synthesis(self, C2):
        return self._synth_table(C2, self.legendre)

    def synth_dtheta(self, C2):
        return self._synth_table(C2, self._Td)

    def synth_d2theta(self, C2):
        return self._synth_table(C2, self._Tdd)

    @staticmethod
    def _times_im(C2, m):
        out = np.empty_like(C2)
        out[..., 0] = -m[:, None] * C2[..., 1]
        out[..., 1] = m[:, None] * C2[..., 0]
        return out

    def synth_dphi(self, C2):
        return self._synth_table(self._times_im(C2, self.m_values), self.legendre)

    def synth_d2phi(self, C2):
        return self._synth_table(-self.m_values[:, None, None] ** 2 * C2, self.legendre)

    def synth_dtheta_dphi(self, C2):
        return self._synth_table(self._times_im(C2, self.m_values), self._Td)

    def synth_laplacian(self, C2):
        lam = -(self.ell * (self.ell + 1.0))
        return self._synth_table(lam[None, :, None] * C2, self.legendre)

    def project(self, values, ell_filter=None):
        """Round-trip through coefficient space (band-limit projection);
        optionally damp degrees by the given factor array over ell."""
        C2 = self.analysis(values)
        if ell_filter is not None:
            C2 = C2 * ell_filter[None, :, None]
        return self.synthesis(C2)

    def integrate_values(self, values: np.ndarray) -> float:
        return float(np.sum(self.weights * values))

    def chart_derivatives(self, values: np.ndarray):
        """All first and second chart partials of a scalar field.

        Returns (f_t, f_p, f_tt, f_tp, f_pp); partial derivatives with
        respect to theta and phi of the band-limited representative.
        The node mean is removed first (derivatives are unaffected), which
        keeps the outputs exactly covariant under constant shifts.
        """
        C2 = self.analysis(values - values.mean())
        return (
            self.synth_dtheta(C2),
            self.synth_dphi(C2),
            self.synth_d2theta(C2),
            self.synth_dtheta_dphi(C2),
            self.synth_d2phi(C2),
        )

    # ------------------------------------------------------------------
    # scattered evaluation (used by the conformal pushforward)

    def evaluate_scattered(self, C2_stack: np.ndarray, theta_s, phi_s,
                           derivatives: bool = False):
        """Evaluate K coefficient sets at arbitrary points off the grid.

        C2_stack has shape (K, m_max+1, l_max+1, 2).  Returns values of
        shape (K, P), and with ``derivatives=True`` also the theta and phi
        partials.  Points must avoid the poles.
        """
        theta_s = np.atleast_1d(np.asarray(theta_s, dtype=float))
        phi_s = np.atleast_1d(np.asarray(phi_s, dtype=float))
        K = C2_stack.shape[0]
        Pn = theta_s.size
        xs = np.cos(theta_s)
        ss = np.sin(theta_s)
        L, M = self.l_max, self.m_max

        C = C2_stack[..., 0] + 1j * C2_stack[..., 1]          # (K, M+1, L+1)
        val = np.zeros((K, Pn))
        dth = np.zeros((K, Pn)) if derivatives else None
        dph = np.zeros((K, Pn)) if derivatives else None

        diag = np.full(Pn, np.sqrt(1.0 / (4.0 * np.pi)))
        for m in range(M + 1):
            if m > 0:
                diag = -np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * ss * diag
            acc = np.zeros((K, Pn), dtype=complex)
            acc_t = np.zeros((K, Pn), dtype=complex) if derivatives else None
            p_prev = np.zeros(Pn)
            p_cur = diag
            for l in range(m, L + 1):
                if l > m:
                    a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                    b = 0.0 if l == m + 1 else np.sqrt(
                        (2.0 * l + 1.0) * (l + m - 1.0) * (l - m - 1.0)
                        / ((2.0 * l - 3.0) * (l * l - m * m)))
                    p_next = a * xs * p_cur - b * p_prev
                    p_prev, p_cur = p_cur, p_next
                acc += C[:, m, l][:, None] * p_cur
                if derivatives:
                    e = np.sqrt((l * l - m * m) * (2.0 * l + 1.0) / max(2.0 * l - 1.0, 1.0))
                    dp = (l * xs * p_cur - e * p_prev) / ss
                    acc_t += C[:, m, l][:, None] * dp
            phase = np.exp(1j * m * phi_s)
            wgt = 1.0 if m == 0 else 2.0
            val += wgt * (acc * phase).real
            if derivatives:
                dth += wgt * (acc_t * phase).real
                dph += wgt * (1j * m * acc * phase).real
        if derivatives:
            return val, dth, dph
        return val


_GRID_CACHE: dict[tuple[int, int], Grid] = {}


def make_grid(spec: GridSpec) -> Grid:
    """Build (or fetch the cached) grid for the given node counts."""
    key = (spec.n_theta, spec.n_phi)
    if key not in _GRID_CACHE:
        _GRID_CACHE[key] = Grid(spec)
    return _GRID_CACHE[key]


# ----------------------------------------------------------------------
# field-level operations


def integrate(f: ScalarField) -> float:
    """Quadrature of f against the round area element of the unit sphere."""
    return make_grid(f.spec).integrate_values(f.values)


def gradient(f: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Covector components (d_theta f, d_phi f) of the round-sphere gradient."""
    g = make_grid(f.spec)
    C2 = g.analysis(f.values - f.values.mean())
    return (ScalarField(f.spec, g.synth_dtheta(C2)),
            ScalarField(f.spec, g.synth_dphi(C2)))


def contravariant_gradient(f: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Raised components sigma^{ij} d_j f = (d_theta f, d_phi f / sin^2)."""
    g = make_grid(f.spec)
    ft, fp = gradient(f)
    return ft, ScalarField(f.spec, fp.values / g.sin_theta[:, None] ** 2)


def hessian(f: ScalarField) -> CovariantTensor2:
    """Second covariant derivative on the round sphere.

    Uses the chart Christoffel symbols Gamma^theta_{phi phi} = -sin cos
    and Gamma^phi_{theta phi} = cot(theta); returns the symmetric tensor
    nabla_i nabla_j f in the (theta, phi) chart.
    """
    g = make_grid(f.spec)
    ft, fp, ftt, ftp, fpp = g.chart_derivatives(f.values)
    st, ct = g.sin_theta[:, None], g.cos_theta[:, None]
    comp = np.empty(f.spec.shape + (2, 2))
    comp[..., 0, 0] = ftt
    comp[..., 0, 1] = ftp - (ct / st) * fp
    comp[..., 1, 0] = comp[..., 0, 1]
    comp[..., 1, 1] = fpp + st * ct * ft
    return CovariantTensor2(f.spec, comp)


def laplacian(f: ScalarField) -> ScalarField:
    """Laplace-Beltrami operator; spherical harmonics are exact
    eigenfunctions with eigenvalue -l(l+1)."""
    g = make_grid(f.spec)
    return ScalarField(f.spec, g.synth_laplacian(g.analysis(f.values - f.values.mean())))
