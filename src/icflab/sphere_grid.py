"""Gauss-Legendre x Fourier discretization of the round unit sphere.

Nodes are (theta_i, phi_j) with cos(theta_i) the Gauss-Legendre points on
(-1, 1) and phi_j uniform on [0, 2pi); no node sits on a pole.  Smooth
fields are represented by their values on this grid and differentiated
through an orthonormal spherical-harmonic transform, so chart partials and
the Laplace-Beltrami operator converge spectrally for fields resolved by
the grid.  Quadrature is exact for polynomials in cos(theta) up to degree
2*n_theta-1 and trigonometric polynomials in phi up to degree n_phi-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "GridSpec",
    "Grid",
    "ScalarField",
    "make_grid",
]

# points per block of scattered evaluation: bounds a block's profiles,
# 2(m_max+1) x points (4(m_max+1) with partials), to a few MB at 128x256,
# where all points at once take hundreds; 256 about the same, 1024+ slower
_SCATTER_BLOCK = 512
# orders per block of a Legendre product or of the build's order ladder:
# block [m0, m0 + 16) skips most of the zero triangle below degree m0, in
# few enough operations that the per-operation overhead stays small
_ORDER_BLOCK = 16


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


@dataclass(frozen=True)
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
        object.__setattr__(self, "values", v)


def _legendre(x, s, P):
    """Fill P, zeros of shape (M+1, L+1, x.size), with the orthonormal
    associated Legendre functions P[m, l] = P_l^m(x), Condon-Shortley
    phase (zero for l < m), and return it.  The three-term recurrence steps
    one degree l at a time for every order m <= l - 2 together: about L
    array operations, not L^2 / 2, each element through the same floating-
    point operations as a scalar loop over (m, l).  s is sin(theta) at x =
    cos(theta).  It may be negative: with the signed sine the table is the
    2pi-periodic continuation of P_l^m(cos theta) to theta in (pi, 2pi).
    """
    M, L = P.shape[0] - 1, P.shape[1] - 1
    m = np.arange(M + 1)
    diag = np.empty((M + 1, x.size))
    diag[0] = np.sqrt(1.0 / (4.0 * np.pi))
    diag[1:] = -np.sqrt((2.0 * m[1:] + 1.0) / (2.0 * m[1:]))[:, None] * s
    np.multiply.accumulate(diag, axis=0, out=diag)
    P[m, m] = diag
    m1 = m[m < L]                               # orders with a degree m + 1
    P[m1, m1 + 1] = np.sqrt(2.0 * m1 + 3.0)[:, None] * x * diag[m1]
    # the three-term coefficients of every (m, l), read where m <= l - 2
    l, k = np.arange(L + 1), m[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - k * k))[..., None]
        b = np.sqrt((2.0 * l + 1.0) * (l + k - 1.0) * (l - k - 1.0)
                    / ((2.0 * l - 3.0) * (l * l - k * k)))[..., None]
    for l in range(2, L + 1):
        n = min(l - 1, M + 1)                   # orders m <= l - 2
        P[:n, l] = a[:n, l] * x * P[:n, l - 1] - b[:n, l] * P[:n, l - 2]
    return P


def _order_product(blocks, x, out, degree_rows=False):
    """Write out[m] = table[m] @ x[m] for every order m, one block of
    orders [m0, m0 + _ORDER_BLOCK) at a time.  A table vanishes at degrees
    l < m, so each block stores only degrees l >= m0: on its last axis,
    where it reads only those rows of x, or with `degree_rows` on its rows,
    where it writes only those rows of `out` (the caller zeroes the rest).
    Every operand a block reads or writes keeps a unit last stride, so each
    product stays a BLAS call."""
    for k, table in enumerate(blocks):
        m0 = k * _ORDER_BLOCK
        m = slice(m0, m0 + len(table))
        if degree_rows:
            np.matmul(table, x[m], out=out[m, ..., m0:, :])
        else:
            np.matmul(table, x[m, ..., m0:, :], out=out[m])


class Grid:
    """Grid nodes, quadrature weights and spectral differentiation tables.

    Use :func:`make_grid` to obtain (cached) instances.  The transform
    methods operate on raw (n_theta, n_phi) arrays and are shared by the
    geometry, invariants and flow modules.

    Spectral coefficients are stored stacked-real with shape
    (m_max+1, l_max+1, 2): axis 0 is the Fourier order m >= 0, axis 1 the
    harmonic degree l (entries with l < m are zero), axis 2 holds
    real/imaginary parts.

    The orthonormal associated Legendre functions P_l^m(cos theta_i)
    (Condon-Shortley phase; `legendre(m, l)` reads one) are tabulated at
    the northern nodes i < (n_theta+1)//2, an odd grid's equator included.
    The nodes and weights are symmetric about the equator and P_l^m(-x) =
    (-1)^(l+m) P_l^m(x), so every table keeps only these rows (Schaeffer,
    G-cubed 14, 2013): a product with the coefficients split by the parity
    of l + m gives even and odd sums, whose sum is a northern row and whose
    difference the mirrored southern one (`_fold`); an analysis folds the
    row pairs first and picks each degree's sum by parity.

    Each table is a tuple of blocks of _ORDER_BLOCK orders from m0 = 0,
    _ORDER_BLOCK, ..., stored at the degrees l >= m0 only, below which
    every order of the block vanishes (the same paper's triangular
    storage): `_T3` stacks (Td, Tdd, P), whose one product in
    `chart_derivatives` gives all five partials and whose P slot serves
    synthesis, `_TW` is the weighted P of `analysis`, and `_dfs` serves
    scattered evaluation.  Every product with them goes through
    `_order_product`, one BLAS call per block.  The build vectorizes over
    orders too: its recurrence steps one degree at a time for all orders
    to min(l_max, m_max + 2) together, in an (order, degree, row) layout,
    and its derivative ladder fills one block at a time.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        nt, nph = spec.n_theta, spec.n_phi

        # numpy's Gauss-Legendre nodes, with weights 2(1 - x^2) / (n (x P_n -
        # P_{n-1}))^2 from one three-term pass: leggauss's own lose digits
        # as n grows (relative error 1.4e-11 at n = 128, 3.4e-13 here)
        x = np.polynomial.legendre.leggauss(nt)[0]
        p0, p1 = np.ones_like(x), x
        for k in range(1, nt):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        w = 2.0 * (1.0 - x * x) / (nt * (x * p1 - p0)) ** 2
        order = np.argsort(-x)                    # theta increasing from north
        self.cos_theta = x[order]
        self.w_theta = w[order]
        self.phi = 2.0 * np.pi * np.arange(nph) / nph
        # <= 1.1 ulp to n = 256 (sin(arccos x): 74), and CPU-independent bits
        self.sin_theta = np.sqrt((1.0 - self.cos_theta) * (1.0 + self.cos_theta))
        self.weights = np.outer(self.w_theta, np.full(nph, 2.0 * np.pi / nph))

        self.l_max = nt - 1
        self.m_max = min(self.l_max, nph // 2 - 1)
        self.ell = np.arange(self.l_max + 1)
        self.m_values = np.arange(self.m_max + 1)

        self._build_tables()

    @cached_property
    def node_frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unit node directions p and unit tangents e_theta, e_phi, each
        (n_theta, n_phi, 3); built on the first read, then the same
        read-only arrays on every later one."""
        st, ct = self.sin_theta[:, None], self.cos_theta[:, None]
        sph, cph = np.sin(self.phi)[None, :], np.cos(self.phi)[None, :]
        p = np.stack([st * cph, st * sph, ct * np.ones_like(cph)], axis=-1)
        e_t = np.stack([ct * cph, ct * sph, -st * np.ones_like(cph)], axis=-1)
        e_p = np.stack([-sph * np.ones_like(st), cph * np.ones_like(st),
                        np.zeros(self.spec.shape)], axis=-1)
        for arr in (p, e_t, e_p):
            arr.setflags(write=False)
        return p, e_t, e_p

    # ------------------------------------------------------------------
    # table construction

    def _build_tables(self):
        """`_T3`, `_TW`, `_even`.  Block k, orders from m0 = k * _ORDER_BLOCK
        at degrees l >= m0: `_T3` (orders, 3, nh, L + 1 - m0) holds (Td, Tdd,
        P), `_TW` (orders, L + 1 - m0, nh) the weighted P.  P holds at index
        m + 2 the signed orders -2 .. min(L, M + 2) + 2 that the ladder reads."""
        nt, L, M = self.spec.n_theta, self.l_max, self.m_max
        nh = (nt + 1) // 2              # northern rows, an odd grid's equator too
        P = np.zeros((min(L, M + 2) + 5, L + 1, nh))
        _legendre(self.cos_theta[:nh], self.sin_theta[:nh], P[2:-2])
        P[:2] = P[4], -P[3]                     # \bar P_l^{-m} = (-1)^m \bar P_l^m
        w = self.w_theta[:nh] * (2.0 * np.pi / self.spec.n_phi)
        w[nt // 2:] *= 0.5          # an odd grid's equator row enters analysis twice

        def ap(l, m):  # sqrt((l-m)(l+m+1)), clipped at the degree boundary
            return np.sqrt(np.clip((l - m) * (l + m + 1.0), 0.0, None))

        # d/dtheta and d^2/dtheta^2 of \bar P_l^m(cos theta) from the order
        # ladder, sqrt((l+m)(l-m+1)) = ap(l, -m); exact, zero at l < m.  A block
        # computes its degrees in P's layout in its own Tdd and P slots, then
        # writes Td, Tdd transposed and P over that scratch; its `_TW` block
        # is P times the weights in P's layout.
        T3, TW = [], []
        for m0 in range(0, M + 1, _ORDER_BLOCK):
            m = np.arange(m0, min(m0 + _ORDER_BLOCK, M + 1))[:, None, None]
            blk = np.empty((len(m), 3, nh, L + 1 - m0))
            l = np.arange(m0, L + 1.0)[:, None]    # degrees, along P's axis 1
            R, Q = (blk[:, k].reshape(len(m), L + 1 - m0, nh) for k in (2, 1))
            S = [P[m0 + k: m0 + k + len(m), m0:] for k in range(5)]  # orders m-2..m+2
            np.multiply(ap(l, m), S[3], out=R)
            np.subtract(R, np.multiply(ap(l, -m), S[1], out=Q), out=R)
            np.multiply(0.5, R.swapaxes(1, 2), out=blk[:, 0])
            A = ap(l, m) * ap(l, m + 1)
            B = (l - m) * (l + m + 1.0) + (l + m) * (l - m + 1.0)
            C = ap(l, -m) * ap(l, 1 - m)
            np.multiply(A, S[4], out=R)
            np.subtract(R, np.multiply(B, S[2], out=Q), out=R)
            np.add(R, np.multiply(C, S[0], out=Q), out=R)
            np.multiply(0.25, R.swapaxes(1, 2), out=blk[:, 1])
            blk[:, 2] = S[2].swapaxes(1, 2)
            T3.append(blk)
            TW.append(S[2] * w)
        for table in T3 + TW:
            table.setflags(write=False)
        self._T3, self._TW = tuple(T3), tuple(TW)
        # where l + m is even: P_l^m(-x) = (-1)^(l+m) P_l^m(x)
        self._even = (self.m_values[:, None] + self.ell) % 2 == 0
        self._even.setflags(write=False)

    def legendre(self, m: int, l: int) -> np.ndarray:
        """P_l^m(cos theta_i) at the northern nodes, 0 <= m <= min(l, m_max):
        a read-only view into the synthesis table."""
        if not 0 <= m <= min(l, self.m_max) or l > self.l_max:
            raise ValueError(f"no table row for order {m}, degree {l}")
        k, r = divmod(m, _ORDER_BLOCK)
        return self._T3[k][r, 2, :, l - m + r]

    # ------------------------------------------------------------------
    # transforms on raw arrays

    def analysis(self, values: np.ndarray) -> np.ndarray:
        """Project grid values onto orthonormal spherical harmonics."""
        M1, nh = self.m_max + 1, (self.spec.n_theta + 1) // 2
        F = np.fft.rfft(values, axis=1)[:, :M1].T
        # per order, north + south and north - south of the mirrored rows;
        # an odd grid's equator row is in both, at half weight in _TW
        north, south = F[:, :nh], F[:, ::-1][:, :nh]
        SD = np.empty((M1, nh, 2), dtype=complex)
        np.add(north, south, out=SD[..., 0])
        np.subtract(north, south, out=SD[..., 1])
        R = np.zeros((M1, self.l_max + 1, 2), dtype=complex)
        _order_product(self._TW, SD.view(float), R.view(float), degree_rows=True)
        C2 = np.where(self._even, R[..., 0], R[..., 1]).view(float).reshape(R.shape[:2] + (2,))
        C2[0, :, 1] = 0.0
        return C2

    def _split(self, C2: np.ndarray) -> np.ndarray:
        """Coefficients as columns even re/im, odd re/im by parity of l + m."""
        C = np.ascontiguousarray(C2).view(complex)[..., 0]
        X = np.empty(C.shape + (2,), dtype=complex)
        np.multiply(C, self._even, out=X[..., 0])
        np.multiply(C, ~self._even, out=X[..., 1])
        return X.view(float)

    def _fold(self, Y: np.ndarray, out: np.ndarray, sign: float):
        """Write a half-table product Y (m_max+1, northern rows, 4) of
        `_split` columns into complex grid rows out (m_max+1, n_theta):
        north even + odd, south `sign` (even - odd), -1 for d/dtheta, which
        flips under theta -> pi - theta.  (even, odd) pairs read as complex."""
        Z = Y.view(complex)
        n = self.spec.n_theta // 2
        np.add(Z[..., 0], Z[..., 1], out=out[:, : Z.shape[1]])
        even, odd = Z[:, :n, 0], Z[:, :n, 1]
        np.subtract(*((even, odd) if sign > 0 else (odd, even)), out=out[:, ::-1][:, :n])

    def synthesis(self, C2):
        Y = np.empty((self.m_max + 1, (self.spec.n_theta + 1) // 2, 4))
        _order_product((blk[:, 2] for blk in self._T3), self._split(C2), Y)
        buf = np.zeros((self.spec.n_theta, self.spec.n_phi // 2 + 1), dtype=complex)
        self._fold(Y, buf[:, : self.m_max + 1].T, 1.0)
        return np.fft.irfft(buf, n=self.spec.n_phi, axis=-1, norm="forward")

    # one partial each, sliced from the one stacked product of chart_derivatives
    def synth_dtheta(self, C2):
        return self.chart_derivatives(C2)[0]

    def synth_dphi(self, C2):
        return self.chart_derivatives(C2)[1]

    def synth_d2theta(self, C2):
        return self.chart_derivatives(C2)[2]

    def synth_dtheta_dphi(self, C2):
        return self.chart_derivatives(C2)[3]

    def synth_d2phi(self, C2):
        return self.chart_derivatives(C2)[4]

    def synth_laplacian(self, C2):
        return self.synthesis(-(self.ell * (self.ell + 1.0))[:, None] * C2)

    def project(self, values, ell_filter):
        """Round-trip through coefficient space (band-limit projection),
        damping each degree l by the factor ell_filter[l]."""
        return self.synthesis(self.analysis(values) * ell_filter[None, :, None])

    def integrate_values(self, values: np.ndarray) -> float:
        return float(np.sum(self.weights * values))

    def chart_derivatives(self, C2: np.ndarray):
        """All first and second chart partials of the field with
        coefficients C2, shape (m_max+1, l_max+1, 2).

        Returns one (5, n_theta, n_phi) array, which unpacks into
        (f_t, f_p, f_tt, f_tp, f_pp): partial derivatives with respect to
        theta and phi of the band-limited field.  The theta tables vanish
        at degree 0 and the phi partials multiply order 0 by zero, so the
        degree-0 coefficient adds exact zeros to every partial: a constant
        shift of the field changes no output value (at most the sign of a
        zero).  Callers holding grid values analyse them first.

        One order-blocked product of the parity-split coefficients with the
        stacked half (Td, Tdd, P) table, folded into the f_t, f_tt and f_pp
        slots of the inverse-FFT buffer, and one inverse FFT of all five: a
        phi-derivative multiplies order m by i m or -m^2, which commutes
        with the Legendre product, so f_p, f_tp and f_pp reuse the P and Td
        products.
        """
        Y = np.empty((self.m_max + 1, 3, (self.spec.n_theta + 1) // 2, 4))
        _order_product(self._T3, self._split(C2)[:, None], Y)
        buf = np.zeros((5, self.spec.n_theta, self.spec.n_phi // 2 + 1), dtype=complex)
        G = buf[..., : self.m_max + 1]
        for slot, sign in ((0, -1.0), (2, 1.0), (4, 1.0)):     # Td, Tdd, P
            self._fold(Y[:, slot // 2], G[slot].T, sign)
        im = 1j * self.m_values
        np.multiply(im, G[4], out=G[1])                 # f_p = i m (P C)
        np.multiply(im, G[0], out=G[3])                 # f_tp = i m (Td C)
        G[4] *= -self.m_values * self.m_values          # f_pp = -m^2 (P C)
        return np.fft.irfft(buf, n=self.spec.n_phi, axis=-1, norm="forward")

    # ------------------------------------------------------------------
    # scattered evaluation (used by the conformal pushforward)

    @cached_property
    def _dfs(self) -> tuple[np.ndarray, ...]:
        """Double-Fourier-sphere table, built on the first scattered call.

        Row q of order m's table holds the coefficients of cos(q theta) (m
        even) or sin(q theta) (m odd), q = 0..l_max, of P_l^m(cos theta)
        for each degree l: the signed-sine table at 2*l_max + 2 equispaced
        theta on [0, 2pi), in `_legendre`'s (order, degree, theta) layout,
        FFT-transformed over its last axis into order blocks as in `_T3`,
        shape (orders, l_max+1, l_max+1 - m0); read-only.
        """
        L = self.l_max
        n = 2 * L + 2
        th = 2.0 * np.pi * np.arange(n) / n
        P = _legendre(np.cos(th), np.sin(th), np.zeros((self.m_max + 1, L + 1, n)))
        blocks = []
        for m0 in range(0, self.m_max + 1, _ORDER_BLOCK):
            F = np.fft.rfft(P[m0: m0 + _ORDER_BLOCK, m0:], axis=-1)
            F = F[..., : L + 1].swapaxes(1, 2) * (2.0 / n)     # (order, q, degree)
            F[:, 0] *= 0.5
            odd = (self.m_values[m0: m0 + len(F)] % 2 == 1)[:, None, None]
            blocks.append(np.ascontiguousarray(np.where(odd, -F.imag, F.real)))
            blocks[-1].setflags(write=False)
        return tuple(blocks)

    def evaluate_scattered(self, C2: np.ndarray, theta_s, phi_s,
                           derivatives: bool = False):
        """Evaluate coefficients C2 (m_max+1, l_max+1, 2) at arbitrary
        points off the grid.

        Returns the values, shape (P,), and with ``derivatives=True`` also
        the theta and phi partials.  Valid at any theta, the poles
        included.

        Method: the double Fourier sphere (Townsend, Wilber & Wright,
        SIAM J. Sci. Comput. 38(4), 2016).  A band-limited expansion
        extended by f(-theta, phi + pi) is a bivariate trigonometric
        polynomial, so each order m has a theta profile that is a cosine
        series (m even) or a sine series (m odd) of degree l_max, with
        coefficients from the order-blocked `_dfs` (`_order_product`).
        Everything is laid out powers-major, points last: the coefficient
        rows, ordered (real/imag part, order) per parity, multiply the
        (l_max+1, P) tables cos(q theta_p) and sin(q theta_p) in two real
        matrix products, which give the profiles and their theta partials
        as (rows, P).  The phase rows (cos m phi_p, -sin m phi_p) then weight
        and sum them over (part, order); the phi partial uses the rows
        (-m sin m phi_p, -m cos m phi_p) on the same profiles.  Points are
        taken in fixed-size blocks, which bounds the memory.
        """
        theta_s = np.atleast_1d(np.asarray(theta_s, dtype=float))
        phi_s = np.atleast_1d(np.asarray(phi_s, dtype=float))
        Pn = theta_s.size
        L, M = self.l_max, self.m_max

        # coefficients of every order, weighted 1 (m = 0) or 2 (m > 0) for
        # the conjugate order -m
        D = np.empty((M + 1, L + 1, 2))
        _order_product(self._dfs, C2, D)
        D *= np.where(self.m_values == 0, 1.0, 2.0)[:, None, None]
        # per parity, rows ordered (real/imag part, order) against q
        even = D[0::2].transpose(2, 0, 1).reshape(-1, L + 1)  # cos(q theta)
        odd = D[1::2].transpose(2, 0, 1).reshape(-1, L + 1)   # sin(q theta)
        n_even, n_odd = len(even), len(odd)
        cos_rows, sin_rows = even, odd
        if derivatives:
            # theta partials: (cos q t)' = -q sin q t, (sin q t)' = q cos q t
            q = np.arange(L + 1.0)
            cos_rows = np.vstack([even, q * odd])
            sin_rows = np.vstack([odd, -q * even])
        m_even, m_odd = self.m_values[0::2, None], self.m_values[1::2, None]

        def phase_rows(z):
            # Re[(g_re + i g_im) z] = g_re Re z - g_im Im z: rows (Re z, -Im z)
            ph = np.empty((2,) + z.shape)
            ph[0] = z.real
            np.negative(z.imag, out=ph[1])
            return ph

        def dphi_rows(ph, m):
            # d/dphi of the same: rows (-m Im z, -m Re z)
            d = np.empty_like(ph)
            np.multiply(m, ph[1], out=d[0])
            np.multiply(-m, ph[0], out=d[1])
            return d

        def phase_sum(g_even, ph_even, g_odd, ph_odd):
            # sum over (part, order) of profiles times phase rows
            n = ph_even.shape[-1]
            return (np.einsum("jp,jp->p", g_even, ph_even.reshape(-1, n))
                    + np.einsum("jp,jp->p", g_odd, ph_odd.reshape(-1, n)))

        val, dth, dph = np.empty((3, Pn))
        for lo in range(0, Pn, _SCATTER_BLOCK):
            hi = min(lo + _SCATTER_BLOCK, Pn)
            eq = _exp_powers(theta_s[lo:hi], L + 1)
            # even-m profiles and odd-m theta partials, then the reverse
            cg = cos_rows @ np.ascontiguousarray(eq.real)
            sg = sin_rows @ np.ascontiguousarray(eq.imag)
            z = _exp_powers(phi_s[lo:hi], M + 1)
            ph_even, ph_odd = phase_rows(z[0::2]), phase_rows(z[1::2])
            val[lo:hi] = phase_sum(cg[:n_even], ph_even, sg[:n_odd], ph_odd)
            if derivatives:
                dth[lo:hi] = phase_sum(sg[n_odd:], ph_even, cg[n_even:], ph_odd)
                dph[lo:hi] = phase_sum(cg[:n_even], dphi_rows(ph_even, m_even),
                                       sg[:n_odd], dphi_rows(ph_odd, m_odd))
        return (val, dth, dph) if derivatives else val


def _exp_powers(angle, n):
    """exp(i k angle) for k = 0..n-1, shape (n, angle.size), by doubling:
    rows [k, 2k) are rows [0, k) times exp(i k angle), a factor squared
    for the next doubling, so about log2(n) vectorized products replace
    n cos and sin evaluations.  The error grows about linearly in k: within
    7e-14 of exp(1j * k * angle) for k < 128 and |angle| <= 2 pi, most of
    it that reference's own rounding of k * angle."""
    z = np.empty((n, angle.size), dtype=complex)
    z[0] = 1.0
    f = np.exp(1j * angle)
    k = 1
    while k < n:
        np.multiply(z[: min(k, n - k)], f, out=z[k: 2 * k])
        f *= f
        k *= 2
    return z


_GRID_CACHE: dict[tuple[int, int], Grid] = {}


def make_grid(spec: GridSpec) -> Grid:
    """Build (or fetch the cached) grid for the given node counts."""
    key = (spec.n_theta, spec.n_phi)
    if key not in _GRID_CACHE:
        _GRID_CACHE[key] = Grid(spec)
    return _GRID_CACHE[key]
