"""Product-space machinery on R^d x Y: Laplace-transform-type multipliers
m_kappa, kernels of T = m_kappa(L, A) and of the comparison operator built
from W_r, the local region N_s with the local/global operator split, the
difference integral D_I, the total variation of M_r - W_r in r, and
empirical growth and smoothness audits of the comparison kernel.

Y is one of two shipped heat-kernel models: Euclidean R^m (m in {1, 2}) with
an exact Gaussian kernel, or the unit-circumference torus with the wrapped
Gaussian (used for spectral/kernel cross-validation).  Everything is phrased
in the r = e^{-t} variable, so multipliers become integrals

    m_kappa(lam, a) = int_0^1 d/dr(r^lam) r^a kappa(r) dr,

and the kernel of T is int_0^1 dM_r/dr (x1,y1) p_{-log r}(x2,y2) kappa(r) dr
with the y1-integral against Lebesgue measure and y2 against mu.  Its
features sit at 1 - r ~ eta^2 for a pair eta apart, so every kernel takes
one r-rule, Gauss-Legendre in logit r, and carries omega = 1 - r next to r:
no integrand forms 1 - r from r.  D_I runs in omega for the same reason.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ouhermite import _mehler_dr_raw, _mehler_gamma_dr_raw, _mehler_kernel_raw, _product_grid, _w_dr_raw, hermite_basis
from .spectral import GridFunction, MultiplierSpec, SpectralSystem, _check_size, _legendre_on, _pair_rows

__all__ = [
    "KappaSpec",
    "kappa_one",
    "kappa_imag",
    "kappa_indicator",
    "m_kappa",
    "multiplier_from_kappa",
    "HeatKernelModel",
    "euclidean_heat_model",
    "torus_heat_model",
    "torus_system",
    "ProductGrid",
    "product_grid",
    "in_local_region",
    "local_mask",
    "kernel_Ktilde",
    "apply_T_split",
    "di_integral",
    "di_bound_ratio",
    "smallest_log_constant",
    "CZEstimateReport",
    "cz_growth_check",
    "cz_smooth_check",
    "sample_product_pairs",
    "sample_product_triples",
    "sample_local_pairs",
]

_UNIT_BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}


def _check_x1_dim(d) -> None:
    """Reject an x1 dimension other than 1, 2 or 3, those with a unit-ball volume."""
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d not in _UNIT_BALL_VOLUME:
        raise ValueError(f"d: the x1 dimension must be 1, 2 or 3, got {d!r}")


# -- kappa profiles and Laplace-transform-type multipliers -------------------


@dataclass(frozen=True)
class KappaSpec:
    """Damping profile in the r = e^{-t} variable.

    ``support`` = (r_lo, r_hi); (0, 1) marks full support, which is fine for
    m_kappa but rejected by the kernel quadratures (they need a compact
    r-interval).  ``closed_form(lam, a)`` is m_kappa in closed form:
    m_kappa and multiplier_from_kappa need it, the kernel quadratures read
    only ``evaluate``.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    support: tuple
    sup_norm: float
    closed_form: Callable | None = None
    name: str = ""

    def __post_init__(self):
        lo, hi = self.support
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError(f"support must satisfy 0 <= lo < hi <= 1, got {self.support}")
        if not 0.0 <= self.sup_norm < math.inf:  # NaN included
            raise ValueError(f"sup_norm must be finite and >= 0, got {self.sup_norm}")

    def __call__(self, r):
        return np.asarray(self.evaluate(np.asarray(r, dtype=float)), dtype=complex)

    @property
    def compact(self) -> bool:
        return self.support[0] > 0.0 and self.support[1] < 1.0


def kappa_one() -> KappaSpec:
    """kappa == 1: the Riesz multiplier lam/(lam+a)."""
    return KappaSpec(
        evaluate=lambda r: np.ones_like(np.asarray(r, dtype=float), dtype=complex),
        support=(0.0, 1.0),
        sup_norm=1.0,
        closed_form=lambda lam, a: lam / (lam + a),
        name="one",
    )


def kappa_imag(u: float) -> KappaSpec:
    """kappa(t) = t^{iu}/Gamma(1+iu): partial imaginary powers lam (lam+a)^{-1-iu}."""
    from scipy.special import gamma  # the only complex Gamma; kept off the import path

    g = gamma(1.0 + 1j * u)

    def ev(r):
        t = -np.log(np.asarray(r, dtype=float))
        # r this close to 1 rounds to 1.0 exactly; t^{iu} has modulus 1 and
        # the log-measure Jacobian kills the endpoint, so any bounded value do
        t = np.where(t > 0.0, t, 1.0)
        return t ** complex(0.0, u) / g

    return KappaSpec(
        evaluate=ev,
        support=(0.0, 1.0),
        sup_norm=float(1.0 / abs(g)),
        closed_form=lambda lam, a: lam * (lam + a) ** complex(-1.0, -u),
        name=f"imag(u={u})",
    )


def kappa_indicator(lo: float = 0.1, hi: float = 0.9) -> KappaSpec:
    """kappa = indicator of [lo, hi] in r; exact closed form for m_kappa."""
    if not 0.0 < lo < hi < 1.0:
        raise ValueError(f"lo, hi: need 0 < lo < hi < 1, got lo={lo}, hi={hi}")

    def closed(lam, a):
        lam = np.asarray(lam, dtype=float)
        a = np.asarray(a, dtype=float)
        c = lam + a
        out = np.where(c > 0, lam * (hi**c - lo**c) / np.where(c > 0, c, 1.0), 0.0)
        return out if out.ndim else complex(out)

    def ev(r):
        r = np.asarray(r, dtype=float)
        return ((r >= lo) & (r <= hi)).astype(complex)

    return KappaSpec(evaluate=ev, support=(lo, hi), sup_norm=1.0, closed_form=closed, name=f"chi[{lo},{hi}]")


def _check_spectral_points(lam, a) -> None:
    """Reject negative spectral points and the indeterminate origin (arrays or scalars)."""
    if np.any((lam < 0) | (a < 0)):
        raise ValueError("need lam >= 0 and a >= 0")
    if np.any((lam == 0) & (a == 0)):
        raise ValueError("m_kappa(0, 0) is indeterminate (the a > 0 convention does not apply)")


def _closed_form(kappa: KappaSpec) -> Callable:
    if kappa.closed_form is None:
        raise ValueError(f"closed_form: m_kappa needs kappa's closed form, and {kappa.name or 'kappa'} has none")
    return kappa.closed_form


def m_kappa(lam: float, a: float, kappa: KappaSpec) -> complex:
    """m_kappa(lam, a) = lam int_0^inf e^{-(lam+a)t} kappa(t) dt, kappa in t.

    Evaluated through kappa's closed form; a kappa without one raises a
    ValueError.  lam = a = 0 is indeterminate and rejected; lam = 0 with
    a > 0 gives 0.
    """
    closed = _closed_form(kappa)
    _check_spectral_points(lam, a)
    if lam == 0.0:
        return 0.0 + 0.0j
    return complex(closed(lam, a))


def multiplier_from_kappa(kappa: KappaSpec) -> MultiplierSpec:
    """The two-variable multiplier (lam, a) -> m_kappa(lam, a), kappa's closed form on all rows at once."""
    closed = _closed_form(kappa)

    def evaluate(lam):
        lam = np.atleast_2d(np.asarray(lam, dtype=float))
        l, a = lam[:, 0], lam[:, 1]
        _check_spectral_points(l, a)
        return np.where(l == 0.0, 0j, closed(l, a))

    return MultiplierSpec(arity=2, evaluate=evaluate, name=f"m[{kappa.name}]")


# -- heat kernel models ------------------------------------------------------


@dataclass(frozen=True)
class HeatKernelModel:
    """The second factor Y: heat kernel, metric, measure geometry.

    kernel(t, x2, y2) is the density of e^{-tA} against mu.  The trailing
    axis of x2 and y2 is the space axis; t broadcasts against the point
    axes in front of it, so t of shape (n_t,) with points of shape
    (n, 1, dim) gives an (n, n_t) array.  A value depends only on its own t
    and points: a 0-d t, or a block of the t, gives the same bits.
    """

    name: str
    dim: int
    kernel: Callable
    zeta: Callable
    ball_volume: Callable
    gauss_constants: tuple
    grid: Callable
    torus: bool = False


# half-width of the Euclidean model's quadrature window [-5, 5]^m
_EUCLID_WINDOW = 5.0


def euclidean_heat_model(m: int = 1) -> HeatKernelModel:
    """Y = R^m with the exact Gaussian kernel (4 pi t)^{-m/2} e^{-|x-y|^2/4t}."""
    if m not in (1, 2):
        raise ValueError("m must be 1 or 2")
    omega = _UNIT_BALL_VOLUME[m]

    def kernel(t, x2, y2):
        t = np.asarray(t, dtype=float)
        z = np.asarray(x2, dtype=float) - np.asarray(y2, dtype=float)
        q = np.sum(z * z, axis=-1)
        return np.power(4.0 * math.pi * t, -m / 2.0) * np.exp(-q / (4.0 * t))

    def zeta(x2, y2):
        z = np.asarray(x2, dtype=float) - np.asarray(y2, dtype=float)
        return np.sqrt(np.sum(z * z, axis=-1))

    def ball_volume(x2, R):
        return omega * np.asarray(R, dtype=float) ** m

    def grid(n):
        axis = ((np.arange(n) + 0.5) / n * (2.0 * _EUCLID_WINDOW) - _EUCLID_WINDOW)[:, None]
        pts = axis if m == 1 else _pair_rows(axis, axis)
        w = np.full(pts.shape[0], (2.0 * _EUCLID_WINDOW / n) ** m)
        return pts, w

    return HeatKernelModel(
        name=f"euclidean(m={m})",
        dim=m,
        kernel=kernel,
        zeta=zeta,
        ball_volume=ball_volume,
        gauss_constants=(omega * (4.0 * math.pi) ** (-m / 2.0), 0.25),
        grid=grid,
    )


_THETA_TRUNC = 1e-16
# empirical Gaussian-bound constants for the wrapped kernel; validated on a
# (t, zeta) lattice in the tests
_TORUS_GAUSS = (2.2, 0.125)


def _wrap(z):
    return z - np.round(z)


def _torus_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n equispaced points of the unit torus as an (n, 1) array, weights 1/n."""
    return (np.arange(n) / n)[:, None], np.full(n, 1.0 / n)


def torus_heat_model() -> HeatKernelModel:
    """Unit-circumference torus; kernel = wrapped Gaussian, mu(Y) = 1.

    The kernel at t sums the Gaussian's images z + j, |j| <= n_t, with
    n_t = ceil(1/2 + sqrt(-4 t log _THETA_TRUNC)) + 1 sized for that t alone,
    so a value does not depend on the other t of the call.
    """

    def kernel(t, x2, y2):
        # one pair of images z +- j at a time, the farthest first; past n_t a
        # pair adds an exact 0, so a value depends only on its own (t, z)
        t = np.asarray(t, dtype=float)
        z = _wrap(np.sum(np.asarray(x2, dtype=float) - np.asarray(y2, dtype=float), axis=-1))
        n_t = np.ceil(0.5 + np.sqrt(4.0 * t * -math.log(_THETA_TRUNC))) + 1
        scale = np.power(4.0 * math.pi * t, -0.5)

        def image(u):
            return scale * np.exp(-(u * u) / (4.0 * t))

        total = np.zeros(np.broadcast_shapes(z.shape, t.shape))
        for j in range(int(np.max(n_t)), 0, -1):
            total += np.where(j <= n_t, image(z - j) + image(z + j), 0.0)
        return total + image(z)

    def zeta(x2, y2):
        z = _wrap(np.sum(np.asarray(x2, dtype=float) - np.asarray(y2, dtype=float), axis=-1))
        return np.abs(z)

    def ball_volume(x2, R):
        return np.minimum(2.0 * np.asarray(R, dtype=float), 1.0)

    return HeatKernelModel(
        name="torus",
        dim=1,
        kernel=kernel,
        zeta=zeta,
        ball_volume=ball_volume,
        gauss_constants=_TORUS_GAUSS,
        grid=_torus_grid,
        torus=True,
    )


def torus_system(n_max: int, n_grid: int | None = None) -> SpectralSystem:
    """Fourier eigen-system of A = -d^2/dx^2 on the unit torus, n = 0 excluded.

    Index (n, s) with n in {1, ..., n_max}: s = 0 is sqrt(2) cos(2 pi n x),
    s = 1 is sqrt(2) sin(2 pi n x); eigenvalue (2 pi n)^2.  Dropping the
    constant mode keeps the spectrum of A strictly positive.
    """
    _check_size("n_max", n_max, 1)
    if n_grid is None:
        n_grid = max(8 * n_max, 32)
    _check_size("n_grid", n_grid, 1)
    if n_grid < 2 * n_max + 2:
        raise ValueError(
            f"n_grid: grid too coarse for the requested band, need n_grid >= 2*n_max + 2 = {2 * n_max + 2}, "
            f"got {n_grid}"
        )
    pts, w = _torus_grid(n_grid)
    n = np.arange(1, n_max + 1)
    arg = 2.0 * math.pi * n[:, None] * pts[:, 0]
    rows = np.stack([np.cos(arg), np.sin(arg)], axis=1)  # (n, s, x): s = 0 cos, s = 1 sin
    indices = np.column_stack([np.repeat(n, 2), np.tile([0, 1], n_max)])
    return SpectralSystem(
        basis_index_set=indices,
        eigenvalues=(2.0 * math.pi * indices[:, :1]) ** 2,
        basis=math.sqrt(2.0) * rows.reshape(2 * n_max, n_grid),
        points=pts,
        weights=w,
        name=f"torus(n<={n_max})",
    )


# -- product geometry --------------------------------------------------------


# A point x = (x1, x2) of R^d x Y is a row of d + model.dim floats, x2 in the
# last model.dim columns, as in ProductGrid.points(); a stack of points is an
# array of such rows.


def _columns(model: HeatKernelModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The x1 and x2 columns of the product points x."""
    if x.shape[-1] - model.dim not in _UNIT_BALL_VOLUME:
        raise ValueError(
            f"points: need rows of d + {model.dim} floats, x1 in R^d with d in 1..3, got rows of {x.shape[-1]}"
        )
    return x[..., :-model.dim], x[..., -model.dim:]


def _eta_rows(model: HeatKernelModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """eta(x, y) = max(|x1 - y1|, zeta(x2, y2)), the product metric, row by row."""
    (x1, x2), (y1, y2) = _columns(model, x), _columns(model, y)
    return np.maximum(np.linalg.norm(x1 - y1, axis=-1), model.zeta(x2, y2))


def _ball_volume_rows(model: HeatKernelModel, x: np.ndarray, R: np.ndarray) -> np.ndarray:
    """|B(x1, R)| * mu(B(x2, R)) row by row at the points x and radii R."""
    x1, x2 = _columns(model, x)
    d = x1.shape[-1]
    return _UNIT_BALL_VOLUME[d] * R**d * model.ball_volume(x2, R)


def _check_cutoff(s: float) -> None:
    if not s > 0:  # NaN included
        raise ValueError(f"s must be positive, got {s}")


def _point_pair(x1, y1) -> tuple[np.ndarray, np.ndarray]:
    """x1 and y1 as two 1-d float arrays of one length; any other pair would broadcast."""
    x1, y1 = np.asarray(x1, dtype=float), np.asarray(y1, dtype=float)
    if x1.ndim != 1 or x1.shape != y1.shape:
        raise ValueError(f"x1, y1: need two 1-d arrays of one length, got shapes {x1.shape} and {y1.shape}")
    return x1, y1


def in_local_region(x1, y1, s: float) -> bool:
    """|x1 - y1| <= s / (1 + |x1| + |y1|), boundary included; x1, y1 are two 1-d arrays of one length."""
    _check_cutoff(s)
    x1, y1 = _point_pair(x1, y1)
    return bool(
        np.linalg.norm(x1 - y1) <= s / (1.0 + np.linalg.norm(x1) + np.linalg.norm(y1))
    )


@dataclass(frozen=True)
class ProductGrid:
    """Tensor quadrature grid on R^d x Y (x1-major ordering)."""

    x1_points: np.ndarray
    x1_gamma_weights: np.ndarray
    y_points: np.ndarray
    y_weights: np.ndarray

    @property
    def shape(self) -> tuple:
        return (len(self.x1_points), len(self.y_points))

    def points(self) -> np.ndarray:
        return _pair_rows(self.x1_points, self.y_points)

    def weights(self) -> np.ndarray:
        return np.kron(self.x1_gamma_weights, self.y_weights)

    def function(self, values: np.ndarray) -> GridFunction:
        return GridFunction(self.points(), self.weights(), np.asarray(values).reshape(-1))


def product_grid(model: HeatKernelModel, d: int = 1, k_max: int = 12, n_y: int = 32,
                 n_x: int | None = None) -> ProductGrid:
    _check_x1_dim(d)
    _check_size("n_y", n_y, 1)
    x1, gw = _product_grid(*hermite_basis(k_max, n_x), d)
    y_pts, y_w = model.grid(n_y)
    return ProductGrid(x1, gw, y_pts, y_w)


# -- kernels -----------------------------------------------------------------


# Gauss-Legendre nodes of _r_quadrature, the one r-rule of every kernel.  At
# 96 nodes it meets a 30-digit oracle to 1e-13 relative on the sampled pairs
# and near the diagonal, and to 2e-13 with hi up to 1 - 1e-6; twice as many
# move no kernel value by 1e-12 (tests/test_products.py).
_N_R = 96

# the r-rule starts here on supports reaching further down: both kernel
# r-integrands stay bounded as r -> 0, so the part of a support below the
# floor is at most 2**-52 of that bound, while the 96 logit nodes spread
# over the whole support would lose digits (745 units of logit r at the
# smallest subnormal lo)
_R_FLOOR = 2.0**-52


def _r_quadrature(kappa: KappaSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The r-rule on kappa's support as (r, omega, t, w): omega = 1 - r, t = -log r, dr = r omega dv.

    Gauss-Legendre in v = logit r = log(r / (1 - r)) on [logit lo, logit hi],
    r = 1 / (1 + e^{-v}) and omega = 1 / (1 + e^{v}), each to full relative
    accuracy.  A kernel's r-integrand has its features at 1 - r ~ eta^2 for a
    pair eta apart, next to its singular point r = 1; in v they spread over a
    few units, and an integrand that takes omega in place of 1 - r keeps its
    digits there.  A lo below ``_R_FLOOR`` is raised to it, so omega < 1 at
    every node; a support whose hi does not reach above it is a ValueError.
    """
    if not kappa.compact:
        raise ValueError("kernel quadrature needs kappa with compact support inside (0, 1)")
    lo, hi = kappa.support
    if hi <= _R_FLOOR:
        raise ValueError(f"kernel quadrature needs kappa's support to reach above r = 2**-52, got {kappa.support}")
    v, w = _legendre_on(*(math.log(p / (1.0 - p)) for p in (max(lo, _R_FLOOR), hi)), _N_R)
    r = 1.0 / (1.0 + np.exp(-v))
    omega = 1.0 / (1.0 + np.exp(v))
    return r, omega, -np.log1p(-omega), w * r * omega


# the batched kernel quadratures take point pairs in blocks against all r-nodes
# at once: each (pairs, _N_R) float temporary of a block holds at most
# _BLOCK_BYTES, whatever the sample or grid size
_BLOCK_BYTES = 1 << 18


def _pair_blocks(n_pairs: int) -> list[slice]:
    step = max(1, _BLOCK_BYTES // (8 * _N_R))
    return [slice(lo, lo + step) for lo in range(0, n_pairs, step)]


def _ktilde_rows(x, y, kappa: KappaSpec, model: HeatKernelModel) -> np.ndarray:
    """The comparison kernel Ktilde at the point pairs (x, y), one pair per row.

    The r-integrand is kappa(r) dW_r/dr(x1 - y1) p_{-log r}(x2, y2).
    model.kernel is batched over the r-nodes and the pairs of a block at
    once.  Each element goes through the float operations of the one-pair
    quadrature, so batched and one-pair values agree bit for bit.
    """
    (x1, x2), (y1, y2) = _columns(model, x), _columns(model, y)
    r, omega, t, w = _r_quadrature(kappa)
    weight = w * kappa(r)
    out = np.empty(len(x1), dtype=complex)
    for blk in _pair_blocks(len(x1)):
        factor = _w_dr_raw(r, omega, x1[blk, None, :] - y1[blk, None, :])
        pk = model.kernel(t, x2[blk, None, :], y2[blk, None, :])
        out[blk] = np.sum(weight * factor * pk, axis=-1)
    return out


def kernel_Ktilde(x, y, kappa: KappaSpec, model: HeatKernelModel) -> complex:
    """Ktilde(x, y) = int kappa(r) dW_r/dr(x1 - y1) p_{-log r}(x2, y2) dr, the comparison kernel.

    x and y are product points, two 1-d arrays (x1, x2) of one length with x2 in the last model.dim entries.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"x, y: need two 1-d product points of one length, got shapes {x.shape} and {y.shape}")
    return complex(_ktilde_rows(x[None], y[None], kappa, model)[0])


def local_mask(grid: ProductGrid, s: float = 2.0) -> np.ndarray:
    """Pairwise chi_{N_s}(x1_i, x1_j) over the grid's first factor."""
    _check_cutoff(s)
    x1 = grid.x1_points
    norms = np.linalg.norm(x1, axis=1)
    dist = np.linalg.norm(x1[:, None, :] - x1[None, :, :], axis=-1)
    return dist <= s / (1.0 + norms[:, None] + norms[None, :])


def _heat_spectrum(model: HeatKernelModel, y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """DFT along y of c_t[b] = p_t(y_b - y_0), the first column of the circulant
    heat factor, at the frequencies 0..n_y // 2: a real (n_y // 2 + 1, n_t) array.

    The column comes from one call of the heat kernel at every t.  It is
    even, c_t[b] = c_t[n_y - b], so its DFT is real and even; the real part
    is the DFT of the computed column's even part.
    """
    return np.fft.rfft(model.kernel(t, y[:, None, :], y[0]), axis=0).real


def apply_T_split(
    f: Sequence[GridFunction],
    kappa: KappaSpec,
    model: HeatKernelModel,
    grid: ProductGrid,
    s: float = 2.0,
) -> list[tuple[GridFunction, GridFunction]]:
    """[(T_loc f_k, T_glob f_k)] for each f_k of the sequence f, with the rough cutoff chi_{N_s}(x1, y1).

    T integrates K(x, y) f(y) dmu(y2) dy1 on the product grid; the local part
    keeps pairs with (x1, y1) in N_s, the global part is the exact quadrature
    complement.  B below is built once for the whole sequence.

    Only the torus model on its own uniform y-grid (the one ``product_grid``
    builds for it) is accepted; any other model or ``grid.y_points`` raises a
    ValueError, and so do ``grid.x1_points`` that are not mirrored about 0
    (x1[::-1] == -x1, as on every Gauss-Hermite grid).  There the heat factor
    p_{-log r}(y_a - y_b) depends only on (b - a) mod n_y: it is circulant,
    and the DFT along y diagonalizes it with one column's spectrum c_r[xi],
    which is real and even.  The r-quadrature is summed first, before any
    product with f, into one x1-kernel per frequency,

        B_xi = sum_r kappa(r) w_r c_r[xi] dK_r/dr  (= B_{-xi}),

    with K_r = pi^{d/2} e^{|y1|^2} M_r the Mehler kernel against gamma, so that
    B_xi times the gamma weights is the Lebesgue-weighted sum over dM_r/dr.
    K_r is symmetric and even, K(-x, -y) = K(x, y), bit for bit, and
    x1[n1-1-i] = -x1[i], so B_xi takes one value on each class of x1 pairs
    {(i, j), (j, i), (n1-1-i, n1-1-j), (n1-1-j, n1-1-i)}: the r-sum runs on
    the representatives i <= j, i + j <= n1 - 1 only, one real product over
    the real and imaginary r-weights, and each sum is written at the four
    places of its class in the full complex (n_f, n1, n1) B.
    The gamma weights and the local cutoff multiply B in place.
    Then T_full^ = B_xi G^ and T_loc^ = (B_xi chi_{N_s}) G^, with G^ the DFT
    along y of f_k times the y-weights, one complex product of B_xi with the
    columns of G^ at xi and -xi, and one inverse DFT gives both parts.
    """
    if isinstance(f, GridFunction):
        raise ValueError("f: need a sequence of functions on the grid, got one GridFunction")
    fs = list(f)
    if not fs:
        raise ValueError("f: need at least one function on the grid")
    n1, n2 = grid.shape
    if any(g.values.shape[0] != n1 * n2 for g in fs):
        raise ValueError("function does not live on the given product grid")
    if not model.torus:
        raise ValueError(f"model: the T split needs the torus heat model, got {model.name}")
    y_pts, y_w = model.grid(n2)
    if not (np.array_equal(grid.y_points, y_pts) and np.array_equal(grid.y_weights, y_w)):
        raise ValueError("grid.y_points: the T split needs the torus model's own uniform grid")
    x1 = grid.x1_points
    if not np.array_equal(x1[::-1], -x1):
        raise ValueError("grid.x1_points: the T split needs nodes mirrored about 0, x1[::-1] == -x1")
    # B.w^Leb = K.w^gamma: the kernel against gamma takes the gamma weights
    weights = np.broadcast_to(grid.x1_gamma_weights, (n1, n1))
    mask = local_mask(grid, s)
    r, omega, t, w = _r_quadrature(kappa)
    # B_xi = B_{-xi}: the frequencies 0..n2 // 2 carry every kernel
    n_f = n2 // 2 + 1
    neg = -np.arange(n_f) % n2
    coef = _heat_spectrum(model, grid.y_points, t) * (kappa(r) * w)
    coef = np.concatenate([coef.real, coef.imag])  # the complex r-sum as one real product
    F = np.stack([g.values.reshape(n1, n2) for g in fs])
    G = np.fft.fft(F * grid.y_weights, axis=-1)
    # each function's columns at xi and -xi, (n_f, n1, 2); a function is applied
    # on its own, so its split does not depend on the rest of the stack
    G = np.stack([G[..., :n_f], G[..., neg]], axis=-1).transpose(0, 2, 1, 3)
    # one pair (i, j) per class, i <= j and i + j <= n1 - 1; its r-sum, B_xi[i, j]
    # at every xi, goes to the whole class.  B is held as B[x, xi, y]: a class's
    # sums are written a few kilobytes apart, not one whole B_xi apart, and each
    # B_xi of the (n_f, n1, n1) view is still a matrix with unit stride along y
    a, b = np.triu_indices(n1)
    keep = a + b <= n1 - 1
    a, b = a[keep], b[keep]
    B = np.empty((n1, n_f, n1), dtype=complex)
    for blk in _pair_blocks(len(a)):
        i, j = a[blk], b[blk]
        sums = coef @ _mehler_gamma_dr_raw(r[:, None], omega[:, None], x1[i], x1[j])
        sums = (sums[:n_f] + 1j * sums[n_f:]).T
        for p, q in ((i, j), (j, i), (n1 - 1 - i, n1 - 1 - j), (n1 - 1 - j, n1 - 1 - i)):
            B[p, :, q] = sums
    B = B.transpose(1, 0, 2)
    T_full = np.empty(F.shape, dtype=complex)
    T_loc = np.empty(F.shape, dtype=complex)
    for scale, T in ((weights, T_full), (mask, T_loc)):
        B *= scale
        for out, g in zip(T, G):
            prod = B @ g
            out[:, neg] = prod[..., 1].T
            out[:, :n_f] = prod[..., 0].T
    T_full = np.fft.ifft(T_full, axis=-1)
    T_loc = np.fft.ifft(T_loc, axis=-1)
    pts, wts = grid.points(), grid.weights()  # shared by every returned function
    return [
        (GridFunction(pts, wts, loc.reshape(-1)), GridFunction(pts, wts, (full - loc).reshape(-1)))
        for loc, full in zip(T_loc, T_full)
    ]


# -- the difference integral of the local-part analysis ----------------------


# D_I finds the sign changes of its integrand on a grid in omega = 1 - r, all
# cells then bisected at once: _DI_UNIFORM nodes on (1/2, 1] with r = 0
# included (sampled pairs have roots near r = 0.0013), then _DI_TAIL geometric
# in omega down to 1e-16.  Phi is stationary at a root, so a root error e
# moves D_I by O(e^2).
_DI_UNIFORM, _DI_TAIL, _DI_BISECTIONS = 64, 256, 60


def di_integral(x1, y1) -> float:
    """D_I = int_0^1 |dM_r/dr(x1,y1) - dW_r/dr(x1-y1)| dr on the region N_2.

    x1, y1: two 1-d arrays of one length.  D_I is the total variation of
    Phi(r) = M_r(x1, y1) - W_r(x1 - y1) on [0, 1]: sum |Phi(r_{i+1}) - Phi(r_i)|
    over r_0 = 0, the sign changes of Phi' and r = 1, where Phi = 0 as x1 != y1.
    Near the diagonal those sign changes sit at 1 - r ~ |x1 - y1|^2, so the
    grid, the bisection and Phi all run in omega = 1 - r, never in r.
    """
    x1, y1 = _point_pair(x1, y1)
    if np.array_equal(x1, y1):
        raise ValueError("x1 must differ from y1")
    if not in_local_region(x1, y1, 2.0):
        raise ValueError("(x1, y1) lies outside the local region N_2")
    z = x1 - y1

    def phi_dr(omega):  # Phi'(r) at an array of omega = 1 - r in (0, 1]
        r = 1.0 - omega
        return _mehler_dr_raw(r, omega, x1[None], y1[None]) - _w_dr_raw(r, omega, z)

    grid = np.append(np.linspace(1.0, 0.5, _DI_UNIFORM, endpoint=False), np.geomspace(0.5, 1e-16, _DI_TAIL))
    sign = np.sign(phi_dr(grid))
    cells = np.flatnonzero(sign[:-1] != sign[1:])
    lo, h = grid[cells], np.diff(grid)[cells]
    for _ in range(_DI_BISECTIONS):
        h = 0.5 * h
        lo = np.where(np.sign(phi_dr(lo + h)) == sign[cells], lo + h, lo)  # the root lies past lo + h
    omega = np.append(1.0, lo)
    # Phi = M_r (1 - W_r / M_r), W_r / M_r = exp(2 x1.y1 / (1 + r) - |x1|^2)
    # = exp((omega |x1|^2 - 2 x1.z) / (2 - omega)), free of cancellation
    ratio = (omega * (x1 @ x1) - 2.0 * (x1 @ z)) / (2.0 - omega)
    phi = np.append(-_mehler_kernel_raw(omega, x1, y1) * np.expm1(ratio), 0.0)
    return float(np.sum(np.abs(np.diff(phi))))


def di_bound_ratio(x1, y1, c0: float = 4.0) -> float:
    """D_I divided by the target bound (1+|x1|)/|x1-y1|^{d-1} (log form for d=1)."""
    D = di_integral(x1, y1)  # which rejects any pair but two 1-d arrays of one length
    nx, dist = float(np.linalg.norm(x1)), float(np.linalg.norm(np.subtract(x1, y1)))
    if len(x1) > 1:
        return D * dist ** (len(x1) - 1) / (1.0 + nx)
    if nx == 0.0:
        raise ValueError("the d=1 bound needs x1 != 0")
    arg = c0 / (nx * dist)
    if arg <= 1.0:
        raise ValueError(f"log constant {c0} too small at |x1||x1-y1| = {nx * dist:.3g}")
    return D / ((1.0 + nx) * math.log(arg))


def smallest_log_constant(samples) -> float:
    """Least C0 making D_I <= (1+|x1|) log(C0/(|x1||x1-y1|)) on the sample (d=1)."""
    best = 0.0
    for x1, y1 in samples:
        D = di_integral(x1, y1)
        nx, dist = float(np.linalg.norm(x1)), float(np.linalg.norm(np.subtract(x1, y1)))
        best = max(best, nx * dist * math.exp(D / (1.0 + nx)))
    return best


# -- empirical Calderon-Zygmund kernel audits --------------------------------


@dataclass
class CZEstimateReport:
    sup: float
    values: np.ndarray
    n_used: int
    n_filtered: int
    kind: str


def _report(vals: np.ndarray, n_filtered: int, kind: str, kappa: KappaSpec) -> CZEstimateReport:
    """The audit report of the kernel values vals, taken relative to sup|kappa| when it is > 0."""
    if kappa.sup_norm > 0:
        vals = vals / kappa.sup_norm
    return CZEstimateReport(
        sup=float(vals.max()) if len(vals) else 0.0,
        values=vals,
        n_used=len(vals),
        n_filtered=n_filtered,
        kind=kind,
    )


def cz_growth_check(pairs, kappa: KappaSpec, model: HeatKernelModel) -> CZEstimateReport:
    """sup over pairs of |Ktilde(x,y)| (Lambda x mu)(B(x, eta(x,y))) / sup|kappa|.

    pairs is an (n, 2, d + model.dim) array, as sample_product_pairs draws it.
    Pairs with eta(x, y) = 0 are filtered out; the rest are evaluated in one
    batched kernel quadrature.
    """
    x, y = np.moveaxis(pairs, 1, 0)
    e = _eta_rows(model, x, y)
    keep = e != 0.0
    x, y, e = x[keep], y[keep], e[keep]
    K = _ktilde_rows(x, y, kappa, model)
    # hypot rounds like Python's abs(complex); NumPy's complex abs can differ in the last bit
    vals = np.hypot(K.real, K.imag) * _ball_volume_rows(model, x, e)
    return _report(vals, len(keep) - len(vals), "growth", kappa)


def cz_smooth_check(triples, kappa: KappaSpec, model: HeatKernelModel) -> CZEstimateReport:
    """Smoothness audit on triples (x, y, y') with 2 eta(y,y') <= eta(x,y).

    triples is an (n, 3, d + model.dim) array, as sample_product_triples draws it.
    """
    x, y, yp = np.moveaxis(triples, 1, 0)
    e_xy = _eta_rows(model, x, y)
    e_yy = _eta_rows(model, y, yp)
    keep = (e_yy != 0.0) & ~(2.0 * e_yy > e_xy)
    x, y, yp, e_xy, e_yy = x[keep], y[keep], yp[keep], e_xy[keep], e_yy[keep]
    diff = _ktilde_rows(x, y, kappa, model) - _ktilde_rows(x, yp, kappa, model)
    vals = np.hypot(diff.real, diff.imag) * (e_xy / e_yy) * _ball_volume_rows(model, x, e_xy)
    return _report(vals, len(keep) - len(vals), "smooth", kappa)


# -- seeded samplers (prefix-stable: first n of a 2n draw equal the n draw) --


# standard deviation of the Gaussian point draws of the product samplers
_SAMPLE_SD = 1.5


# SeedSequence's hash (numpy/random/bit_generator.pyx): mix_entropy's and
# generate_state's multiplicative hashes and the pool mix, all mod 2^32
_MASK32 = 0xFFFFFFFF
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _child_seed_words(seed: int, n: int) -> np.ndarray:
    """The PCG64 seed words of SeedSequence(seed).spawn(n) as an (n, 4) uint64 array.

    Child i hashes the entropy words of seed (zero-padded to the pool size 4)
    followed by its spawn key i, then draws generate_state(4, np.uint64).
    The hash constants step the same way whatever the data, so the words
    every child shares run as Python ints and the spawn key as one uint32
    array, each step on all children at once.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed: expected a non-negative integer, got {seed}")
    run = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = run + [0] * (4 - len(run)) + [np.arange(n, dtype=np.uint32)]
    const = _HASH_INIT_A

    def hashmix(value):
        nonlocal const
        xor, const = const, const * _HASH_MULT_A & _MASK32
        value = (value ^ xor) * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        out = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
        return out ^ out >> 16

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _HASH_INIT_B
    state = np.empty((n, 8), dtype=np.uint32)
    for k in range(8):
        xor, const = const, const * _HASH_MULT_B & _MASK32
        value = (pool[k % 4] ^ xor) * const & _MASK32
        state[:, k] = value ^ value >> 16
    return state.astype("<u4").view("<u8")


def _child_rngs(seed: int, n: int):
    """The n child streams of SeedSequence(seed).spawn(n), in order, as one reused Generator.

    Each step yields the same Generator, its PCG64 state set to what
    default_rng(SeedSequence(seed).spawn(n)[i]) starts from: PCG64 seeds
    itself with two 128-bit LCG steps from the words of _child_seed_words.
    The next step re-seeds it, so a caller draws from step i's stream only
    within step i and keeps no reference to it: use it as the iterable of a
    for loop, directly or through zip or enumerate.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for s_hi, s_lo, i_hi, i_lo in _child_seed_words(seed, n).tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def _sample_points(n: int, seed: int, model: HeatKernelModel, d: int, triples: bool):
    """The (x, y) of n samples as an (n, 2, d + model.dim) array, and for triples each one's v and u.

    Sample i draws from child stream i, in the order x1, y1, x2, y2 and then
    v and u = (u1, u2): one call for its consecutive normals and one for
    the torus's uniform x2 and y2.  The columns go into place for all rows at once.
    """
    _check_x1_dim(d)
    k = d + model.dim
    n_normal = 2 * d if model.torus else 2 * k
    xy = np.empty((n, 2 * k))
    v, u = np.empty(n), np.empty((n, k))
    for i, rng in enumerate(_child_rngs(seed, n)):
        xy[i, :n_normal] = rng.normal(0.0, _SAMPLE_SD, n_normal)
        if model.torus:
            xy[i, n_normal:] = rng.uniform(0.0, 1.0, 2)
        if triples:
            v[i] = rng.uniform(0.2, 1.0)
            u[i] = rng.normal(0.0, 1.0, k)
    out = np.empty((n, 2, k))
    out[..., :d] = xy[:, :2 * d].reshape(n, 2, d)
    out[..., d:] = xy[:, 2 * d:].reshape(n, 2, model.dim)
    return out, v, u


def sample_product_pairs(n: int, seed: int, model: HeatKernelModel, d: int = 1) -> np.ndarray:
    """Random (x, y) pairs on R^d x Y for the growth audit, as an (n, 2, d + model.dim) array."""
    return _sample_points(n, seed, model, d, triples=False)[0]


def sample_product_triples(n: int, seed: int, model: HeatKernelModel, d: int = 1) -> np.ndarray:
    """Random (x, y, y') triples with y' a small perturbation of y, as an (n, 3, d + model.dim) array."""
    xy, v, u = _sample_points(n, seed, model, d, triples=True)
    x, y = xy[:, 0], xy[:, 1]
    u1, u2 = _columns(model, u)
    scale = 0.25 * _eta_rows(model, x, y) * v
    # |u|^2 from one dot product per row and factor: the stacked matmul rounds
    # like u1 @ u1, where a sum over the row can differ in the last bit
    sq = (u1[:, None, :] @ u1[:, :, None] + u2[:, None, :] @ u2[:, :, None])[:, 0, 0]
    return np.stack([x, y, y + scale[:, None] * u / np.sqrt(sq)[:, None]], axis=1)


def sample_local_pairs(n: int, seed: int, d: int = 2):
    """Random (x1, y1) in N_2 with x1 != y1 (and x1 != 0), for D_I checks."""
    _check_x1_dim(d)
    out = []
    for rng in _child_rngs(seed, n):
        x1 = rng.normal(0.0, 1.0, d)
        while float(x1 @ x1) == 0.0:
            x1 = rng.normal(0.0, 1.0, d)
        u = rng.normal(0.0, 1.0, d)
        u /= np.linalg.norm(u)
        frac = rng.uniform(0.05, 0.98)
        rho = frac * 2.0 / (1.0 + 2.0 * np.linalg.norm(x1))
        for _ in range(40):
            y1 = x1 + rho * u
            cap = 2.0 / (1.0 + np.linalg.norm(x1) + np.linalg.norm(y1))
            if rho <= cap:
                break
            rho *= 0.9
        y1 = x1 + rho * u
        if not in_local_region(x1, y1, 2.0):
            rho *= 0.5
            y1 = x1 + rho * u
        out.append((x1, y1))
    return out
