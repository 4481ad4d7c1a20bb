"""Product-space machinery on R^d x Y: Laplace-transform-type multipliers
m_kappa, kernels of T = m_kappa(L, A) and of the comparison operator built
from W_r, the local region N_s with the local/global operator split, the
Mehler-vs-convolution difference integral D_I, and empirical growth and
smoothness audits of the comparison kernel.

Y is one of two shipped heat-kernel models: Euclidean R^m (m in {1, 2}) with
an exact Gaussian kernel, or the unit-circumference torus with the wrapped
Gaussian (used for spectral/kernel cross-validation).  Everything is phrased
in the r = e^{-t} variable, so multipliers become integrals

    m_kappa(lam, a) = int_0^1 d/dr(r^lam) r^a kappa(r) dr,

and the kernel of T is int_0^1 dM_r/dr (x1,y1) p_{-log r}(x2,y2) kappa(r) dr
with the y1-integral against Lebesgue measure and y2 against mu.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import gamma as _gamma

from .ouhermite import _mehler_dr_raw, _product_grid, _w_dr_raw, hermite_basis, lebesgue_weights
from .spectral import GridFunction, MultiplierSpec, SpectralSystem, _trapezoid, gauss_legendre

__all__ = [
    "KappaSpec",
    "kappa_one",
    "kappa_imag",
    "kappa_indicator",
    "kappa_zero",
    "m_kappa",
    "multiplier_from_kappa",
    "HeatKernelModel",
    "euclidean_heat_model",
    "torus_heat_model",
    "torus_system",
    "ProductPoint",
    "EtaMetric",
    "ProductGrid",
    "product_grid",
    "in_local_region",
    "local_mask",
    "ball_volume_product",
    "kernel_K",
    "kernel_K_bound",
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


# -- kappa profiles and Laplace-transform-type multipliers -------------------


@dataclass(frozen=True)
class KappaSpec:
    """Damping profile in the r = e^{-t} variable.

    ``support`` = (r_lo, r_hi); (0, 1) marks full support, which is fine for
    m_kappa but rejected by the kernel quadratures (they need a compact
    r-interval).  ``closed_form`` short-circuits m_kappa when recognized.
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
        if self.sup_norm < 0:
            raise ValueError("sup_norm must be >= 0")

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
    g = _gamma(1.0 + 1j * u)

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
        raise ValueError("need 0 < lo < hi < 1")

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


def kappa_zero() -> KappaSpec:
    return KappaSpec(
        evaluate=lambda r: np.zeros_like(np.asarray(r, dtype=float), dtype=complex),
        support=(0.25, 0.75),
        sup_norm=0.0,
        closed_form=lambda lam, a: 0.0 * lam,
        name="zero",
    )


_LAPLACE_N = 8192


def _check_spectral_points(lam, a) -> None:
    """Reject negative spectral points and the indeterminate origin (arrays or scalars)."""
    if np.any((lam < 0) | (a < 0)):
        raise ValueError("need lam >= 0 and a >= 0")
    if np.any((lam == 0) & (a == 0)):
        raise ValueError("m_kappa(0, 0) is indeterminate (the a > 0 convention does not apply)")


def m_kappa(lam: float, a: float, kappa: KappaSpec, force_numeric: bool = False) -> complex:
    """m_kappa(lam, a) = lam int_0^inf e^{-(lam+a)t} kappa(t) dt, kappa in t.

    lam = a = 0 is indeterminate and rejected; lam = 0 with a > 0 gives 0.
    The numeric path integrates in log t for full-support profiles (both
    endpoints are then tame) and by Gauss-Legendre in t on compact supports.
    """
    _check_spectral_points(lam, a)
    if lam == 0.0:
        return 0.0 + 0.0j
    if kappa.closed_form is not None and not force_numeric:
        return complex(kappa.closed_form(lam, a))
    c = lam + a
    if not kappa.compact:
        v = np.linspace(-46.0, math.log(46.0 / c), _LAPLACE_N)
        w = _trapezoid(_LAPLACE_N, v[1] - v[0])
        t = np.exp(v)
        return complex(lam * np.sum(w * np.exp(-c * t) * kappa(np.exp(-t)) * t))
    t_lo, t_hi = -math.log(kappa.support[1]), -math.log(kappa.support[0])
    xi, w = gauss_legendre(512)
    t = 0.5 * (t_hi - t_lo) * xi + 0.5 * (t_hi + t_lo)
    w = 0.5 * (t_hi - t_lo) * w
    return complex(lam * np.sum(w * np.exp(-c * t) * kappa(np.exp(-t))))


def multiplier_from_kappa(kappa: KappaSpec, force_numeric: bool = False) -> MultiplierSpec:
    """The two-variable multiplier (lam, a) -> m_kappa(lam, a).

    A closed form is evaluated on all rows at once; the numeric path calls
    m_kappa row by row.
    """

    def evaluate(lam):
        lam = np.atleast_2d(np.asarray(lam, dtype=float))
        if kappa.closed_form is None or force_numeric:
            return np.array([m_kappa(float(l), float(a), kappa, True) for l, a in lam], dtype=complex)
        l, a = lam[:, 0], lam[:, 1]
        _check_spectral_points(l, a)
        return np.where(l == 0.0, 0j, kappa.closed_form(l, a))

    return MultiplierSpec(arity=2, evaluate=evaluate, sup_norm_hint=None, name=f"m[{kappa.name}]")


# -- heat kernel models ------------------------------------------------------


@dataclass(frozen=True)
class HeatKernelModel:
    """The second factor Y: heat kernel, metric, measure geometry.

    kernel(t, x2, y2) broadcasts over t and over point arrays whose trailing
    axis is the space axis; it is the density of e^{-tA} against mu.
    """

    name: str
    dim: int
    kernel: Callable
    zeta: Callable
    ball_volume: Callable
    lipschitz_delta: float
    gauss_constants: tuple
    grid: Callable
    torus: bool = False
    window: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.lipschitz_delta <= 1.0:
            raise ValueError("lipschitz_delta must lie in (0, 1]")


def euclidean_heat_model(m: int = 1, window: float = 5.0) -> HeatKernelModel:
    """Y = R^m with the exact Gaussian kernel (4 pi t)^{-m/2} e^{-|x-y|^2/4t}."""
    if m not in (1, 2):
        raise ValueError("m must be 1 or 2")
    omega = _UNIT_BALL_VOLUME[m]

    def kernel(t, x2, y2):
        # batch either t or the point pair, not both
        t = np.asarray(t, dtype=float)
        z = np.asarray(x2, dtype=float) - np.asarray(y2, dtype=float)
        q = np.sum(z * z, axis=-1)
        if t.ndim and np.ndim(q):
            raise ValueError("batch either t or the points, not both")
        return (4.0 * math.pi * t) ** (-m / 2.0) * np.exp(-q / (4.0 * t))

    def zeta(x2, y2):
        z = np.asarray(x2, dtype=float) - np.asarray(y2, dtype=float)
        return np.sqrt(np.sum(z * z, axis=-1))

    def ball_volume(x2, R):
        return omega * np.asarray(R, dtype=float) ** m

    def grid(n):
        axis = (np.arange(n) + 0.5) / n * (2.0 * window) - window
        if m == 1:
            pts = axis[:, None]
        else:
            A, B = np.meshgrid(axis, axis, indexing="ij")
            pts = np.stack([A.ravel(), B.ravel()], axis=1)
        w = np.full(pts.shape[0], (2.0 * window / n) ** m)
        return pts, w

    return HeatKernelModel(
        name=f"euclidean(m={m})",
        dim=m,
        kernel=kernel,
        zeta=zeta,
        ball_volume=ball_volume,
        lipschitz_delta=1.0,
        gauss_constants=(omega * (4.0 * math.pi) ** (-m / 2.0), 0.25),
        grid=grid,
        window=window,
    )


_THETA_TRUNC = 1e-16
# empirical Gaussian-bound constants for the wrapped kernel; validated on a
# (t, zeta) lattice in the tests
_TORUS_GAUSS = (2.2, 0.125)


def _wrap(z):
    return z - np.round(z)


def torus_heat_model() -> HeatKernelModel:
    """Unit-circumference torus; kernel = wrapped Gaussian, mu(Y) = 1."""

    def kernel(t, x2, y2):
        # wrapped Gaussian; batch either t or the point pair, not both
        t = np.asarray(t, dtype=float)
        z = _wrap(np.sum(np.asarray(x2, dtype=float) - np.asarray(y2, dtype=float), axis=-1))
        if t.ndim and np.ndim(z):
            raise ValueError("batch either t or the points, not both")
        tmax = float(np.max(t))
        n_img = int(math.ceil(0.5 + math.sqrt(4.0 * tmax * -math.log(_THETA_TRUNC)))) + 1
        j = np.arange(-n_img, n_img + 1)
        zz = np.asarray(z)[..., None] + j
        tt = t[..., None] if t.ndim else t
        return np.sum((4.0 * math.pi * tt) ** -0.5 * np.exp(-(zz * zz) / (4.0 * tt)), axis=-1)

    def zeta(x2, y2):
        z = _wrap(np.sum(np.asarray(x2, dtype=float) - np.asarray(y2, dtype=float), axis=-1))
        return np.abs(z)

    def ball_volume(x2, R):
        return np.minimum(2.0 * np.asarray(R, dtype=float), 1.0)

    def grid(n):
        pts = (np.arange(n) / n)[:, None]
        return pts, np.full(n, 1.0 / n)

    return HeatKernelModel(
        name="torus",
        dim=1,
        kernel=kernel,
        zeta=zeta,
        ball_volume=ball_volume,
        lipschitz_delta=1.0,
        gauss_constants=_TORUS_GAUSS,
        grid=grid,
        torus=True,
    )


def torus_system(n_max: int, n_grid: int | None = None) -> SpectralSystem:
    """Fourier eigen-system of A = -d^2/dx^2 on the unit torus, n = 0 excluded.

    Index (n, s) with n in {1, ..., n_max}: s = 0 is sqrt(2) cos(2 pi n x),
    s = 1 is sqrt(2) sin(2 pi n x); eigenvalue (2 pi n)^2.  Dropping the
    constant mode keeps the spectrum of A strictly positive.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_grid is None:
        n_grid = max(8 * n_max, 32)
    if n_grid < 2 * n_max + 2:
        raise ValueError("grid too coarse for the requested band")
    pts = (np.arange(n_grid) / n_grid)[:, None]
    w = np.full(n_grid, 1.0 / n_grid)
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


@dataclass(frozen=True)
class ProductPoint:
    x1: np.ndarray
    x2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x1", np.atleast_1d(np.asarray(self.x1, dtype=float)))
        object.__setattr__(self, "x2", np.atleast_1d(np.asarray(self.x2, dtype=float)))


def _split_point(p) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(p, ProductPoint):
        return p.x1, p.x2
    x1, x2 = p
    return np.atleast_1d(np.asarray(x1, dtype=float)), np.atleast_1d(np.asarray(x2, dtype=float))


def _stack_points(points) -> tuple[np.ndarray, np.ndarray]:
    """(x1, x2) arrays with one row per product point."""
    if not len(points):
        return np.empty((0, 1)), np.empty((0, 1))
    x1, x2 = zip(*(_split_point(p) for p in points))
    return np.array(x1), np.array(x2)


def _eta_rows(model: HeatKernelModel, x, y) -> np.ndarray:
    """max(|x1 - y1|, zeta(x2, y2)) row by row at stacked points x = (x1, x2), y = (y1, y2)."""
    return np.maximum(np.linalg.norm(x[0] - y[0], axis=-1), model.zeta(x[1], y[1]))


def _ball_volume_rows(model: HeatKernelModel, x, R: np.ndarray) -> np.ndarray:
    """|B(x1, R)| * mu(B(x2, R)) row by row at stacked points x = (x1, x2) and radii R."""
    d = x[0].shape[1]
    return _UNIT_BALL_VOLUME[d] * R**d * model.ball_volume(x[1], R)


class EtaMetric:
    """eta(x, y) = max(|x1 - y1|, zeta(x2, y2)): the product metric."""

    def __init__(self, model: HeatKernelModel):
        self.model = model

    def __call__(self, x, y) -> float:
        return float(_eta_rows(self.model, _stack_points([x]), _stack_points([y]))[0])


def in_local_region(x1, y1, s: float) -> bool:
    """|x1 - y1| <= s / (1 + |x1| + |y1|), boundary included."""
    if s <= 0:
        raise ValueError("s must be positive")
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    y1 = np.atleast_1d(np.asarray(y1, dtype=float))
    return bool(
        np.linalg.norm(x1 - y1) <= s / (1.0 + np.linalg.norm(x1) + np.linalg.norm(y1))
    )


def ball_volume_product(model: HeatKernelModel, x, R: float) -> float:
    """(Lambda x mu)(B_eta(x, R)) = |B_Rd(x1,R)| * mu(B_Y(x2,R))."""
    return float(_ball_volume_rows(model, _stack_points([x]), np.array([R], dtype=float))[0])


@dataclass(frozen=True)
class ProductGrid:
    """Tensor quadrature grid on R^d x Y (x1-major ordering)."""

    x1_points: np.ndarray
    x1_gamma_weights: np.ndarray
    x1_lebesgue_weights: np.ndarray
    y_points: np.ndarray
    y_weights: np.ndarray

    @property
    def d(self) -> int:
        return self.x1_points.shape[1]

    @property
    def shape(self) -> tuple:
        return (len(self.x1_points), len(self.y_points))

    def points(self) -> np.ndarray:
        n1, n2 = self.shape
        return np.hstack(
            [np.repeat(self.x1_points, n2, axis=0), np.tile(self.y_points, (n1, 1))]
        )

    def weights(self) -> np.ndarray:
        return np.kron(self.x1_gamma_weights, self.y_weights)

    def function(self, values: np.ndarray) -> GridFunction:
        return GridFunction(self.points(), self.weights(), np.asarray(values).reshape(-1))


def product_grid(model: HeatKernelModel, d: int = 1, k_max: int = 12, n_y: int = 32,
                 n_x: int | None = None) -> ProductGrid:
    basis = hermite_basis(d, k_max, n_x)
    x1, gw = _product_grid(basis.gh_nodes, basis.gh_weights, d)
    y_pts, y_w = model.grid(n_y)
    return ProductGrid(x1, gw, lebesgue_weights(x1, gw), y_pts, y_w)


# -- kernels -----------------------------------------------------------------


def _r_quadrature(kappa: KappaSpec, n_r: int) -> tuple[np.ndarray, np.ndarray]:
    if not kappa.compact:
        raise ValueError("kernel quadrature needs kappa with compact support inside (0, 1)")
    lo, hi = kappa.support
    xi, w = gauss_legendre(n_r)
    return 0.5 * (hi - lo) * xi + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


# point pairs per block of the batched kernel quadrature: the (pairs, n_r)
# work arrays stay at a few hundred kB whatever the sample size
_PAIR_BLOCK = 32


def _kernel_rows(kind: str, x, y, kappa: KappaSpec, model: HeatKernelModel, n_r: int) -> np.ndarray:
    """One of the three kernels at stacked point pairs x = (x1, x2), y = (y1, y2).

    The kernels differ in one factor of the r-integrand: ``"K"`` takes
    dM_r/dr(x1, y1), ``"bound"`` takes |dM_r/dr| with sup|kappa| in place of
    kappa, ``"Ktilde"`` takes dW_r/dr(x1 - y1).  model.kernel is batched over
    the r-nodes for one pair at a time.  Each element goes through the float
    operations of the one-pair quadrature, so batched and one-pair values
    agree bit for bit.
    """
    (x1, x2), (y1, y2) = x, y
    r, w = _r_quadrature(kappa, n_r)
    t = -np.log(r)
    weight = w if kind == "bound" else w * kappa(r)
    out = np.empty(len(x1), dtype=float if kind == "bound" else complex)
    for lo in range(0, len(x1), _PAIR_BLOCK):
        blk = slice(lo, lo + _PAIR_BLOCK)
        a, b = x1[blk, None, :], y1[blk, None, :]
        if kind == "Ktilde":
            factor = _w_dr_raw(r, a - b, x1.shape[1])
        else:
            factor = _mehler_dr_raw(r, a, b, x1.shape[1])
            if kind == "bound":
                factor = np.abs(factor)
        pk = np.array([model.kernel(t, p, q) for p, q in zip(x2[blk], y2[blk])])
        out[blk] = np.sum(weight * factor * pk, axis=-1)
    return kappa.sup_norm * out if kind == "bound" else out


def kernel_K(x, y, kappa: KappaSpec, model: HeatKernelModel, n_r: int = 512) -> complex:
    """K(x, y) = int kappa(r) dM_r/dr(x1, y1) p_{-log r}(x2, y2) dr."""
    return complex(_kernel_rows("K", _stack_points([x]), _stack_points([y]), kappa, model, n_r)[0])


def kernel_K_bound(x, y, kappa: KappaSpec, model: HeatKernelModel, n_r: int = 512) -> float:
    """sup|kappa| * int |dM_r/dr| p_{-log r} dr >= |K| (p is positive)."""
    return float(_kernel_rows("bound", _stack_points([x]), _stack_points([y]), kappa, model, n_r)[0])


def kernel_Ktilde(x, y, kappa: KappaSpec, model: HeatKernelModel, n_r: int = 512) -> complex:
    """Comparison kernel: dW_r/dr(x1 - y1) in place of the Mehler derivative."""
    return complex(_kernel_rows("Ktilde", _stack_points([x]), _stack_points([y]), kappa, model, n_r)[0])


def local_mask(grid: ProductGrid, s: float = 2.0) -> np.ndarray:
    """Pairwise chi_{N_s}(x1_i, x1_j) over the grid's first factor."""
    x1 = grid.x1_points
    norms = np.linalg.norm(x1, axis=1)
    dist = np.linalg.norm(x1[:, None, :] - x1[None, :, :], axis=-1)
    return dist <= s / (1.0 + norms[:, None] + norms[None, :])


def apply_T_split(
    f: GridFunction | Sequence[GridFunction],
    kappa: KappaSpec,
    model: HeatKernelModel,
    grid: ProductGrid,
    s: float = 2.0,
    base_mask: np.ndarray | None = None,
    n_r: int = 512,
) -> tuple[GridFunction, GridFunction] | list[tuple[GridFunction, GridFunction]]:
    """(T_loc f, T_glob f) with the rough cutoff chi_{N_s}(x1, y1).

    T integrates K(x, y) f(y) dmu(y2) dy1 on the product grid; the local part
    keeps pairs with (x1, y1) in N_s, the global part is the exact quadrature
    complement.  ``base_mask`` restricts the kernel itself to a pair set (used
    to verify idempotence of the cutoff).

    ``f`` may also be a sequence of functions on the grid: each r-node's
    Mehler and heat matrices are then built once for the whole stack, and a
    list of (T_loc f, T_glob f) pairs comes back.
    """
    single = isinstance(f, GridFunction)
    fs = [f] if single else list(f)
    n1, n2 = grid.shape
    if any(g.values.shape[0] != n1 * n2 for g in fs):
        raise ValueError("function does not live on the given product grid")
    F = np.stack([g.values.reshape(n1, n2) for g in fs])  # (k, n1, n2)
    x1 = grid.x1_points
    mask = local_mask(grid, s)
    base = np.ones((n1, n1), dtype=bool) if base_mask is None else np.asarray(base_mask, dtype=bool)
    r, w = _r_quadrature(kappa, n_r)
    kr = kappa(r) * w
    y2 = grid.y_points
    wy = grid.y_weights
    wx = grid.x1_lebesgue_weights
    T_full = np.zeros(F.shape, dtype=complex)
    T_loc = np.zeros(F.shape, dtype=complex)
    for ri, ki in zip(r, kr):
        md = _mehler_dr_raw(float(ri), x1[:, None, :], x1[None, :, :], grid.d)
        pk = model.kernel(-math.log(ri), y2[:, None, :], y2[None, :, :])
        right = F @ (pk * wy[None, :]).T
        A = md * base * wx[None, :]
        T_full += ki * (A @ right)
        T_loc += ki * ((A * mask) @ right)
    pts, wts = grid.points(), grid.weights()  # shared by every returned function
    splits = [
        (GridFunction(pts, wts, loc.reshape(-1)), GridFunction(pts, wts, (full - loc).reshape(-1)))
        for loc, full in zip(T_loc, T_full)
    ]
    return splits[0] if single else splits


# -- the difference integral of the local-part analysis ----------------------


def _di_integrand(r: float, x1: np.ndarray, y1: np.ndarray, d: int) -> float:
    s = 1.0 - r * r
    if s <= 0.0:
        return 0.0
    return float(abs(_mehler_dr_raw(np.float64(r), x1, y1, d) - _w_dr_raw(np.float64(r), x1 - y1, d)))


def di_integral(x1, y1) -> float:
    """D_I = int_0^1 |dM_r/dr(x1,y1) - dW_r/dr(x1-y1)| dr on the region N_2.

    Split at 1/2 and at r* = max(1/2, 1 - |x1|^2), where the two kernels
    change regime.
    """
    from scipy.integrate import quad

    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    y1 = np.atleast_1d(np.asarray(y1, dtype=float))
    if np.array_equal(x1, y1):
        raise ValueError("x1 must differ from y1")
    if not in_local_region(x1, y1, 2.0):
        raise ValueError("(x1, y1) lies outside the local region N_2")
    d = len(x1)
    rstar = max(0.5, 1.0 - float(x1 @ x1))
    total = 0.0
    cuts = [0.0, 0.5] + ([rstar] if rstar > 0.5 else []) + [1.0]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        val, _ = quad(_di_integrand, lo, hi, args=(x1, y1, d), limit=200)
        total += val
    return total


def di_bound_ratio(x1, y1, c0: float = 4.0) -> float:
    """D_I divided by the target bound (1+|x1|)/|x1-y1|^{d-1} (log form for d=1)."""
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    y1 = np.atleast_1d(np.asarray(y1, dtype=float))
    d = len(x1)
    D = di_integral(x1, y1)
    nx = float(np.linalg.norm(x1))
    dist = float(np.linalg.norm(x1 - y1))
    if d > 1:
        return D * dist ** (d - 1) / (1.0 + nx)
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
        x1 = np.atleast_1d(np.asarray(x1, dtype=float))
        y1 = np.atleast_1d(np.asarray(y1, dtype=float))
        D = di_integral(x1, y1)
        nx = float(np.linalg.norm(x1))
        dist = float(np.linalg.norm(x1 - y1))
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


def _select(x, keep: np.ndarray):
    return x[0][keep], x[1][keep]


def _report(vals: np.ndarray, n_filtered: int, kind: str) -> CZEstimateReport:
    return CZEstimateReport(
        sup=float(vals.max()) if len(vals) else 0.0,
        values=vals,
        n_used=len(vals),
        n_filtered=n_filtered,
        kind=kind,
    )


def cz_growth_check(pairs, kappa: KappaSpec, model: HeatKernelModel, n_r: int = 512) -> CZEstimateReport:
    """sup over pairs of |Ktilde(x,y)| (Lambda x mu)(B(x, eta(x,y))) / sup|kappa|.

    Pairs with eta(x, y) = 0 are filtered out; the rest are evaluated in one
    batched kernel quadrature.
    """
    x = _stack_points([p[0] for p in pairs])
    y = _stack_points([p[1] for p in pairs])
    e = _eta_rows(model, x, y)
    keep = e != 0.0
    x, y, e = _select(x, keep), _select(y, keep), e[keep]
    denom = kappa.sup_norm if kappa.sup_norm > 0 else 1.0
    K = _kernel_rows("Ktilde", x, y, kappa, model, n_r)
    # hypot rounds like Python's abs(complex); NumPy's complex abs can differ in the last bit
    vals = np.hypot(K.real, K.imag) * _ball_volume_rows(model, x, e) / denom
    return _report(vals, len(keep) - len(vals), "growth")


def cz_smooth_check(triples, kappa: KappaSpec, model: HeatKernelModel, n_r: int = 512) -> CZEstimateReport:
    """Smoothness audit on triples (x, y, y') with 2 eta(y,y') <= eta(x,y)."""
    x, y, yp = (_stack_points([t[i] for t in triples]) for i in range(3))
    e_xy = _eta_rows(model, x, y)
    e_yy = _eta_rows(model, y, yp)
    keep = (e_yy != 0.0) & ~(2.0 * e_yy > e_xy)
    x, y, yp = _select(x, keep), _select(y, keep), _select(yp, keep)
    e_xy, e_yy = e_xy[keep], e_yy[keep]
    denom = kappa.sup_norm if kappa.sup_norm > 0 else 1.0
    diff = _kernel_rows("Ktilde", x, y, kappa, model, n_r) - _kernel_rows("Ktilde", x, yp, kappa, model, n_r)
    ratio = (e_xy / e_yy) ** model.lipschitz_delta
    vals = np.hypot(diff.real, diff.imag) * ratio * _ball_volume_rows(model, x, e_xy) / denom
    return _report(vals, len(keep) - len(vals), "smooth")


# -- seeded samplers (prefix-stable: first n of a 2n draw equal the n draw) --


def _child_rngs(seed: int, n: int):
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n)]


def sample_product_pairs(n: int, seed: int, model: HeatKernelModel, d: int = 1,
                         spread: float = 1.5):
    """Random (x, y) pairs on R^d x Y for the growth audit."""
    out = []
    for rng in _child_rngs(seed, n):
        x1, y1 = rng.normal(0.0, spread, d), rng.normal(0.0, spread, d)
        if model.torus:
            x2, y2 = rng.uniform(0.0, 1.0, 1), rng.uniform(0.0, 1.0, 1)
        else:
            x2 = rng.normal(0.0, spread, model.dim)
            y2 = rng.normal(0.0, spread, model.dim)
        out.append((ProductPoint(x1, x2), ProductPoint(y1, y2)))
    return out


def sample_product_triples(n: int, seed: int, model: HeatKernelModel, d: int = 1,
                           spread: float = 1.5):
    """Random (x, y, y') triples with y' a small perturbation of y."""
    out = []
    eta = EtaMetric(model)
    for rng in _child_rngs(seed, n):
        x1, y1 = rng.normal(0.0, spread, d), rng.normal(0.0, spread, d)
        if model.torus:
            x2, y2 = rng.uniform(0.0, 1.0, 1), rng.uniform(0.0, 1.0, 1)
        else:
            x2 = rng.normal(0.0, spread, model.dim)
            y2 = rng.normal(0.0, spread, model.dim)
        x = ProductPoint(x1, x2)
        y = ProductPoint(y1, y2)
        scale = 0.25 * eta(x, y) * rng.uniform(0.2, 1.0)
        u1 = rng.normal(0.0, 1.0, d)
        u2 = rng.normal(0.0, 1.0, model.dim)
        nrm = math.sqrt(float(u1 @ u1 + u2 @ u2))
        yp = ProductPoint(y1 + scale * u1 / nrm, y2 + scale * u2 / nrm)
        out.append((x, y, yp))
    return out


def sample_local_pairs(n: int, seed: int, d: int = 2, spread: float = 1.0):
    """Random (x1, y1) in N_2 with x1 != y1 (and x1 != 0), for D_I checks."""
    out = []
    for rng in _child_rngs(seed, n):
        x1 = rng.normal(0.0, spread, d)
        while float(x1 @ x1) == 0.0:
            x1 = rng.normal(0.0, spread, d)
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
