"""Quantitative multiplier analysis: Marcinkiewicz norms, Mellin transform,
scaled heat-type envelopes m_{N,t} with decay verification, boundary-rotated
multipliers, order-threshold arithmetic and the Littlewood-Paley square
function g_N.

Conventions
-----------
All integrals over (0, infty) in the multiplicative measure dlam/lam are
computed after the substitution lam = e^s.  The Mellin transform is then an
ordinary Fourier integral in s,

    M(m)(u) = int lam^{-iu} m(lam) dlam/lam = int e^{-ius} m(e^s) ds,

truncated to a window [-S, S]^d with an explicit tail-mass guard.  Dyadic
sups are truncated to R in {2^l : |l| <= K} plus a few seeded non-dyadic
samples per decade.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .spectral import (
    CoefficientVector,
    GridFunction,
    MultiplierSpec,
    SpectralSystem,
    _pair_rows,
    _trapezoid,
    gauss_legendre,
)

__all__ = [
    "MarcOrder",
    "DyadicRange",
    "DecayProfile",
    "SquareFunctionParams",
    "LogGrid",
    "DecayReport",
    "MellinTailError",
    "ATLViolation",
    "marcinkiewicz_seminorm",
    "mar_norm",
    "mellin",
    "mellin_on_grid",
    "mellin_inverse",
    "plancherel_residual",
    "make_mNt",
    "decay_check",
    "rotate_multiplier",
    "phi_star",
    "required_order",
    "worst_case_order",
    "square_function",
    "square_function_params",
    "square_constant",
    "default_t_grid",
    "builtin_multiplier",
    "BUILTIN_MULTIPLIERS",
]


class MellinTailError(ValueError):
    """The integrand carries non-negligible mass at the window edge."""


class ATLViolation(ValueError):
    """A coefficient sits on a zero eigenvalue where the construction needs
    the spectrum to stay away from it."""


# -- Marcinkiewicz seminorms ------------------------------------------------


@dataclass(frozen=True)
class MarcOrder:
    rho: tuple

    def __post_init__(self):
        object.__setattr__(self, "rho", tuple(int(r) for r in self.rho))
        if any(r < 0 for r in self.rho):
            raise ValueError("order entries must be >= 0")

    def gammas(self) -> Iterator[tuple]:
        """Every order gamma <= rho componentwise, the last entry fastest."""
        return itertools.product(*(range(r + 1) for r in self.rho))


@dataclass(frozen=True)
class DyadicRange:
    """Truncation R in {2^l : -K <= l <= K} plus seeded non-dyadic samples.

    ``n_offdyadic`` log-uniform draws per decade guard against a sup that
    sits between dyadic points.
    """

    K: int = 20
    n_offdyadic: int = 3
    seed: int = 7

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")

    def radii(self) -> np.ndarray:
        R = 2.0 ** np.arange(-self.K, self.K + 1)
        if self.n_offdyadic > 0:
            rng = np.random.default_rng(self.seed)
            lo, hi = math.log10(R[0]), math.log10(R[-1])
            extra = []
            a = math.floor(lo)
            while a < hi:
                b = min(a + 1.0, hi)
                lo_d = max(float(a), lo)
                draws = 10.0 ** rng.uniform(lo_d, b, size=self.n_offdyadic)
                extra.append(draws)
                a += 1
            R = np.concatenate([R, *extra])
        return np.sort(R)


_STEP_REL = 1e-4  # relative step for central differences
_TILE_POINTS = 1 << 13  # grid points per seminorm tile: each temporary fits in 128 KiB, so malloc reuses it


def _axis_outer(factors) -> np.ndarray:
    """The product of per-axis 1-d factors on their tensor grid, last axis fastest."""
    return functools.reduce(np.multiply.outer, factors).ravel()


def _axis_rows(axes) -> np.ndarray:
    """The tensor grid of the 1-d axes as (n, d) rows, last axis fastest."""
    return functools.reduce(_pair_rows, [a[:, None] for a in axes])


def _partial_values(m: MultiplierSpec, gamma, axes) -> np.ndarray:
    """lam^0-free partial derivative values d^gamma m on the tensor grid of axes.

    Analytic partials win; otherwise the tensor central-difference stencil
    with per-axis relative steps h_j = _STEP_REL * lam_j, nodes
    lam_j + (g_j/2 - i) h_j and weights (-1)^i C(g_j, i), last axis fastest.
    Steps, shifted nodes and the divisor prod_j h_j^g_j are formed on the
    axes; only the multiplier sees (n, d) rows.
    """
    gamma = tuple(int(g) for g in gamma)
    if m.partials is not None and gamma in m.partials:
        lam = _axis_rows(axes)
        return np.asarray(m.partials[gamma](lam), dtype=complex).reshape(lam.shape[0])
    if not any(gamma):
        return m(_axis_rows(axes))
    h = [_STEP_REL * a for a in axes]
    stencil = [[(g / 2.0 - i, (-1.0) ** i * math.comb(g, i)) for i in range(g + 1)] for g in gamma]
    vals = np.zeros(math.prod(len(a) for a in axes), dtype=complex)
    for node in itertools.product(*stencil):
        offset, coeff = zip(*node)
        vals += math.prod(coeff) * m(_axis_rows([a + o * hj for a, o, hj in zip(axes, offset, h)]))
    # scalar exponents: NumPy squares for g = 2, where an exponent array would call pow
    return vals / _axis_outer([hj**g for hj, g in zip(h, gamma)])


def marcinkiewicz_seminorm(
    m: MultiplierSpec,
    gamma,
    dyadic: DyadicRange = DyadicRange(),
    n_gl: int = 32,
) -> float:
    """sup over R-boxes of int_{R < lam < 2R} |lam^gamma d^gamma m|^2 dlam/lam.

    Per-axis Gauss-Legendre in log lam on the d-fold tensor grid, evaluated
    one radius of the first axis at a time.  Each radius block is filled in
    tiles of a few first-axis nodes against the full axes of the others, so
    every temporary stays near _TILE_POINTS points; the weight
    prod_j lam_j^gamma_j and the stencil are formed on the axes.  Each block
    contracts its node axes but the first, and the stacked (n_R, n_gl, ...)
    blocks contract the first node axis in one product.  Exact
    2-homogeneity in m.
    """
    gamma = tuple(int(g) for g in gamma)
    d = m.arity
    if len(gamma) != d:
        raise ValueError("gamma must have one entry per multiplier argument")
    if d > 2:
        raise NotImplementedError("seminorm implemented for d <= 2")
    R = dyadic.radii()
    xi, wq = gauss_legendre(n_gl)
    # per-axis abscissae: log lam = log R_i + xi_j log 2, xi_j on [0, 1]
    lam_axis = np.exp((np.log(R)[:, None] + (xi[None, :] + 1.0) / 2.0 * math.log(2.0)).ravel())
    rows = max(1, _TILE_POINTS // len(lam_axis) ** (d - 1))
    blocks = []
    for first in lam_axis.reshape(len(R), n_gl):
        box = np.empty((n_gl,) + (len(R), n_gl) * (d - 1))
        for i in range(0, n_gl, rows):
            axes = [first[i : i + rows]] + [lam_axis] * (d - 1)
            weight = _axis_outer([a**g for a, g in zip(axes, gamma)])
            tile = box[i : i + rows]
            tile[...] = (np.abs(weight * _partial_values(m, gamma, axes)) ** 2).reshape(tile.shape)
        for axis in range(2 * d - 2, 0, -2):  # contract the other node axes, last first
            box = np.moveaxis(box, axis, -1) @ (wq / 2.0)
        blocks.append(box)
    box = np.moveaxis(np.stack(blocks), 1, -1) @ (wq / 2.0)
    return float(box.max() * math.log(2.0) ** d)


def mar_norm(m: MultiplierSpec, rho: MarcOrder, dyadic: DyadicRange = DyadicRange()) -> float:
    """sup over gamma <= rho of the Marcinkiewicz seminorms."""
    if len(rho.rho) != m.arity:
        raise ValueError("order length must match multiplier arity")
    return max([0.0] + [marcinkiewicz_seminorm(m, gamma, dyadic) for gamma in rho.gammas()])


# -- Mellin transform -------------------------------------------------------


@dataclass(frozen=True)
class LogGrid:
    """Uniform trapezoid grid in s = log lam on [-s_max, s_max]."""

    s_max: float = 30.0
    n: int = 1 << 14
    tail_tol: float = 1e-9

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        s = np.linspace(-self.s_max, self.s_max, self.n)
        return s, _trapezoid(self.n, s[1] - s[0])


def _edge_mass(x: np.ndarray, w: np.ndarray, a: np.ndarray, edge: float) -> float:
    """sum of w * a over the nodes x with |x| >= edge."""
    zone = np.abs(x) >= edge
    return float(np.sum(w[zone] * a[zone]))


def _check_tails(g: np.ndarray, s: np.ndarray, w: np.ndarray, grid: LogGrid, what: str):
    edge = 0.95 * grid.s_max
    mass = _edge_mass(s, w, np.abs(g), edge)
    if mass > grid.tail_tol:
        raise MellinTailError(
            f"{what}: tail mass {mass:.3e} beyond |log lam| = {edge:.1f} exceeds {grid.tail_tol}"
        )


def mellin(m: MultiplierSpec, u, grid: LogGrid = LogGrid()) -> complex:
    """d-dimensional Mellin transform at frequency u (scalar or d-vector)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if len(u) != m.arity:
        raise ValueError("u must have one entry per multiplier argument")
    if m.arity == 1:
        return complex(mellin_on_grid(m, u, grid)[0])
    s, w = grid.nodes()
    if m.arity == 2:
        # row-chunked tensor quadrature; the full grid is never materialized
        e1 = w * np.exp(-1j * u[0] * s)
        e2 = w * np.exp(-1j * u[1] * s)
        lam2 = np.exp(s)
        total = 0.0 + 0.0j
        prof1 = np.zeros(len(s))
        prof2 = np.zeros(len(s))
        chunk = max(1, (1 << 22) // len(s))
        for i in range(0, len(s), chunk):
            s1 = s[i : i + chunk]
            pts = np.empty((len(s1) * len(s), 2))
            pts[:, 0] = np.repeat(np.exp(s1), len(s))
            pts[:, 1] = np.tile(lam2, len(s1))
            G = m(pts).reshape(len(s1), len(s))
            A = np.abs(G)
            prof1[i : i + chunk] = A.max(axis=1)
            prof2 = np.maximum(prof2, A.max(axis=0))
            total += e1[i : i + chunk] @ G @ e2
        _check_tails(prof1, s, w, grid, "mellin integrand")
        _check_tails(prof2, s, w, grid, "mellin integrand")
        return complex(total)
    raise NotImplementedError("mellin implemented for d <= 2")


def mellin_on_grid(m: MultiplierSpec, u_values: np.ndarray, grid: LogGrid = LogGrid()) -> np.ndarray:
    """Vectorized 1-d Mellin transform on many frequencies."""
    if m.arity != 1:
        raise ValueError("mellin_on_grid handles d = 1")
    s, w = grid.nodes()
    g = m(np.exp(s)[:, None])
    _check_tails(g, s, w, grid, "mellin integrand")
    return _fourier_rows(np.asarray(u_values, dtype=float), s, w * g)


# frequencies per phase block: the complex (block, len(s)) matrix e^{-ius}
# is 64 MB on the default 2^14-node log grid
_U_BLOCK = 256


def _phase_blocks(u: np.ndarray, s: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """(rows, e^{-i u[rows] s}) for consecutive blocks of at most _U_BLOCK frequencies."""
    for i in range(0, len(u), _U_BLOCK):
        rows = slice(i, i + _U_BLOCK)
        yield rows, np.exp(-1j * np.outer(u[rows], s))


def _fourier_rows(u: np.ndarray, s: np.ndarray, wg: np.ndarray) -> np.ndarray:
    out = np.empty(len(u), dtype=complex)
    for rows, E in _phase_blocks(u, s):
        out[rows] = E @ wg
    return out


def mellin_inverse(u_nodes: np.ndarray, m_values: np.ndarray, lam, tail_tol: float = 1e-9):
    """(2 pi)^{-1} int M(u) lam^{iu} du on the given u-window (d = 1)."""
    u = np.asarray(u_nodes, dtype=float)
    M = np.asarray(m_values, dtype=complex)
    du = np.diff(u)
    w = np.empty_like(u)
    w[0] = du[0] / 2
    w[-1] = du[-1] / 2
    w[1:-1] = (du[:-1] + du[1:]) / 2
    mass = _edge_mass(u, w, np.abs(M), 0.95 * max(abs(u[0]), abs(u[-1])))
    if mass > tail_tol:
        raise MellinTailError(
            f"inversion window too small: transform mass {mass:.3e} at the edge exceeds {tail_tol}"
        )
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    out = np.exp(1j * np.outer(np.log(lam_arr), u)) @ (w * M) / (2.0 * np.pi)
    return complex(out[0]) if np.isscalar(lam) or np.ndim(lam) == 0 else out


def plancherel_residual(
    m: MultiplierSpec,
    grid: LogGrid = LogGrid(),
    u_max: float = 40.0,
    n_u: int = 4096,
) -> float:
    """| ||m||^2_{L^2(dlam/lam)} - (2 pi)^{-d} ||Mellin m||^2_{L^2(du)} | for d = 1."""
    s, w = grid.nodes()
    g = m(np.exp(s)[:, None])
    lhs = float(np.sum(w * np.abs(g) ** 2))
    if lhs == 0.0:
        return 0.0
    _check_tails(g, s, w, grid, "plancherel integrand")
    u = np.linspace(-u_max, u_max, n_u)
    M = _fourier_rows(u, s, w * g)
    wu = _trapezoid(n_u, u[1] - u[0])
    edge_mass = _edge_mass(u, wu, np.abs(M) ** 2, 0.95 * u_max)
    if edge_mass > grid.tail_tol:
        raise MellinTailError(f"plancherel u-window too small: edge mass {edge_mass:.3e}")
    rhs = float(np.sum(wu * np.abs(M) ** 2)) / (2.0 * np.pi)
    return abs(lhs - rhs)


# -- scaled envelopes m_{N,t} and the decay pipeline ------------------------


def make_mNt(m: MultiplierSpec, N, t) -> MultiplierSpec:
    """The damped multiplier prod_j (t_j lam_j)^{N_j} e^{-<t, lam>} m(lam)."""
    N = np.atleast_1d(np.asarray(N, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if len(N) != m.arity or len(t) != m.arity:
        raise ValueError("N and t must have one entry per multiplier argument")
    if np.any(t <= 0):
        raise ValueError("t must be positive")
    if np.any(N < 1):
        raise ValueError("N must be >= 1 componentwise")

    def evaluate(lam):
        tl = t[None, :] * lam
        return np.prod(tl ** N[None, :], axis=1) * np.exp(-tl.sum(axis=1)) * m(lam)

    return MultiplierSpec(
        arity=m.arity,
        evaluate=evaluate,
        name=f"{m.name or 'm'}[N={tuple(N.astype(int))},t={tuple(t)}]",
    )


@dataclass
class DecayReport:
    u_grid: np.ndarray
    sup_abs: np.ndarray           # S(u) = max over t samples of |Mellin(m_{N,t})(u)|
    slopes: tuple                 # fitted log-log slope per axis, largest decade
    constant: float               # sup_u S(u) * prod (1+|u_j|)^{rho_j}
    N: tuple
    rho: tuple
    t_samples: np.ndarray

    def slope_ok(self, margin: float = 0.15) -> bool:
        return all(s <= -r + margin for s, r in zip(self.slopes, self.rho))


def decay_check(
    m: MultiplierSpec,
    N,
    rho,
    u_grid: np.ndarray | None = None,
    grid: LogGrid = LogGrid(),
) -> DecayReport:
    """Envelope decay of sup_t |Mellin(m_{N,t})(u)| against (1+|u|)^{-rho}.

    Implemented for d = 1.  The sup over t is sampled on a log grid (the
    true sup runs over all t > 0; smooth multipliers vary slowly in t).  The
    t loop runs inside each block of at most _U_BLOCK frequencies, so the
    phase matrix never holds more than one block.
    """
    if m.arity != 1:
        raise NotImplementedError("decay_check handles d = 1")
    N = np.atleast_1d(np.asarray(N, dtype=float))
    rho_v = np.atleast_1d(np.asarray(rho, dtype=float))
    if not np.all(N > rho_v):
        raise ValueError("need N > rho componentwise")
    if u_grid is None:
        u_grid = np.geomspace(2.0, 40.0, 25)
    # reference scale lam ~ 1: same [1e-4, 1e4] span as the g_N grid
    t_samples = np.geomspace(1e-4, 1e4, 256)
    s, w = grid.nodes()
    lam = np.exp(s)
    base = m(lam[:, None])
    S = np.zeros(len(u_grid))
    for rows, E in _phase_blocks(u_grid, s):
        for t in t_samples:
            tl = t * lam
            g = tl ** N[0] * np.exp(-tl) * base
            S[rows] = np.maximum(S[rows], np.abs(E @ (w * g)))
    u_max = float(u_grid.max())
    decade = u_grid >= u_max / 10.0
    x = np.log1p(u_grid[decade])
    y = np.log(np.maximum(S[decade], 1e-300))
    slope = float(np.polyfit(x, y, 1)[0]) if np.any(S[decade] > 0) else -np.inf
    constant = float(np.max(S * (1.0 + np.abs(u_grid)) ** rho_v[0]))
    return DecayReport(
        u_grid=u_grid,
        sup_abs=S,
        slopes=(slope,),
        constant=constant,
        N=tuple(N),
        rho=tuple(rho_v),
        t_samples=t_samples,
    )


# -- boundary rotations and order bookkeeping -------------------------------


def rotate_multiplier(m: MultiplierSpec, phi, eps) -> MultiplierSpec:
    """Rotate the first n arguments onto the rays e^{i eps_j phi_j} (0, infty)."""
    if m.sector_evaluate is None:
        raise ValueError("multiplier has no sector evaluator; cannot rotate")
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    if len(phi) != len(eps):
        raise ValueError("phi and eps must have equal length")
    if len(phi) > m.arity:
        raise ValueError("more angles than multiplier arguments")
    if not np.all(np.isin(eps, (-1.0, 1.0))):
        raise ValueError("eps entries must be +-1")
    rot = np.ones(m.arity, dtype=complex)
    rot[: len(phi)] = np.exp(1j * eps * phi)

    def sector(z):
        return m.sector_evaluate(np.atleast_2d(np.asarray(z, dtype=complex)) * rot[None, :])

    return MultiplierSpec(
        arity=m.arity,
        evaluate=sector,
        sector_evaluate=sector,
        name=f"{m.name or 'm'}[rotated]",
    )


def phi_star(p: float) -> float:
    """The critical sector angle arcsin|2/p - 1|."""
    if not 1.0 < p < np.inf:
        raise ValueError("p must lie in (1, infty)")
    return float(np.arcsin(abs(2.0 / p - 1.0)))


@dataclass(frozen=True)
class DecayProfile:
    """Growth exponents of imaginary powers: |||L^{iu}||| <= C e^{phi|u|}(1+|u|)^theta
    on the first block, polynomial exponents sigma on the second."""

    theta: tuple
    sigma: tuple
    phi_p: tuple = ()
    p: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(float(v) for v in self.theta))
        object.__setattr__(self, "sigma", tuple(float(v) for v in self.sigma))
        object.__setattr__(self, "phi_p", tuple(float(v) for v in self.phi_p))
        if any(v < 0 for v in self.theta):
            raise ValueError("theta entries must be >= 0")
        if any(v <= 0 for v in self.sigma):
            raise ValueError("sigma entries must be > 0")
        if any(not 0.0 <= v < np.pi / 2 for v in self.phi_p):
            raise ValueError("angles must lie in [0, pi/2)")
        if not 1.0 < self.p < np.inf:
            raise ValueError("p must lie in (1, infty)")


def required_order(p: float, profile: DecayProfile) -> np.ndarray:
    """The strict order threshold |1/p - 1/2| (theta, sigma) + 1."""
    if not 1.0 < p < np.inf:
        raise ValueError("p must lie in (1, infty)")
    v = np.array(profile.theta + profile.sigma, dtype=float)
    return abs(1.0 / p - 0.5) * v + 1.0


def worst_case_order(profile: DecayProfile) -> np.ndarray:
    """sup over p in (1, infty) of required_order(p): the factor becomes 1/2."""
    v = np.array(profile.theta + profile.sigma, dtype=float)
    return 0.5 * v + 1.0


# -- square function --------------------------------------------------------


def default_t_grid(lam_min: float, lam_max: float, n: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Log-spaced t in [1e-4/lam_max, 1e4/lam_min] with trapezoid dt/t weights."""
    if not 0 < lam_min <= lam_max:
        raise ValueError("need 0 < lam_min <= lam_max")
    t = np.geomspace(1e-4 / lam_max, 1e4 / lam_min, n)
    return t, _trapezoid(n, math.log(t[-1] / t[0]) / (n - 1))


@dataclass(frozen=True)
class SquareFunctionParams:
    N: tuple
    t_nodes: tuple    # per-axis node arrays
    t_weights: tuple  # per-axis dt/t weights

    def __post_init__(self):
        object.__setattr__(self, "N", tuple(int(n) for n in self.N))
        if any(n < 1 for n in self.N):
            raise ValueError("N must be >= 1 componentwise")
        if len(self.t_nodes) != len(self.N) or len(self.t_weights) != len(self.N):
            raise ValueError("need one t-grid per axis")
        for w in self.t_weights:
            if np.any(np.asarray(w) <= 0):
                raise ValueError("t-grid weights must be positive")


def square_function_params(sys: SpectralSystem, N, n: int = 256) -> SquareFunctionParams:
    """Default parameters with per-axis t-ranges from the nonzero spectrum."""
    N = tuple(int(v) for v in np.atleast_1d(N))
    if len(N) != sys.dimension:
        raise ValueError("N must have one entry per eigenvalue map")
    lam = sys.eigenvalue_matrix()
    nodes, weights = [], []
    for j in range(sys.dimension):
        pos = lam[:, j][lam[:, j] > 0]
        if len(pos) == 0:
            raise ATLViolation(f"eigenvalue map {j} is identically zero")
        t, w = default_t_grid(float(pos.min()), float(pos.max()), n)
        nodes.append(t)
        weights.append(w)
    return SquareFunctionParams(N, tuple(nodes), tuple(weights))


def square_constant(N) -> float:
    """prod_j Gamma(2 N_j) / 4^{N_j}: the exact L^2 factor of g_N."""
    return float(math.prod(math.gamma(2 * n) / 4.0**n for n in np.atleast_1d(N).tolist()))


def square_function(sys: SpectralSystem, c: CoefficientVector, params: SquareFunctionParams) -> GridFunction:
    """g_N(f)(x) = ( sum_t w_t | sum_k (t lam(k))^N e^{-<t,lam(k)>} c_k H_k(x) |^2 )^{1/2}.

    The t-sum over the tensor grid is contracted analytically per axis, which
    is an exact rearrangement of the finite sums.
    """
    if len(params.N) != sys.dimension:
        raise ValueError("params.N must match system dimension")
    support = np.flatnonzero(c.values)
    if not support.size:
        return sys.grid_function(np.zeros(len(sys.weights)))
    rows = sys.positions(c.indices)[support]
    lam = sys.eigenvalue_matrix()[rows]  # (n_sup, d)
    if np.any(lam == 0.0):
        i, j = np.argwhere(lam == 0.0)[0]
        raise ATLViolation(
            f"coefficient at index {c.indices[support[i]]} sits on a zero eigenvalue (axis {int(j)})"
        )
    cvec = c.values[support]
    # per-axis kernels: k_j(a, b) = sum_i w_i (t_i a)^N (t_i b)^N e^{-t_i (a+b)}
    M = np.ones((len(support), len(support)))
    for j, (t, w, Nj) in enumerate(zip(params.t_nodes, params.t_weights, params.N)):
        a, inv = np.unique(lam[:, j], return_inverse=True)
        P = (np.outer(a, t)) ** Nj * np.exp(-np.outer(a, t))  # (n_a, n_t)
        Kj = (P * w) @ P.T
        M *= Kj[np.ix_(inv, inv)]
    B = sys.basis_matrix()[rows]
    C = (cvec[:, None] * np.conj(cvec)[None, :]) * M
    # B is real, so only Re C reaches the real part of sum_ab C_ab B_bp B_ap
    g2 = np.einsum("ap,ap->p", C.real @ B, B)
    return sys.grid_function(np.sqrt(np.clip(g2, 0.0, None)))


# -- built-in multiplier family ---------------------------------------------
#
# MultiplierSpec.__call__ hands every evaluator an (n, arity) array, and
# _partial_values hands the partials the same rows.


def _one(lam):
    return np.ones(lam.shape[0], dtype=complex)


def _zeros(lam):
    return np.zeros(lam.shape[0], dtype=complex)


def _riesz1(z):
    return z[:, 0] / (1.0 + z[:, 0])


def _riesz1_partial(k: int):
    """d^k/dlam^k lam/(1+lam) = (-1)^(k+1) k! / (1+lam)^(k+1)."""
    c = float((-1) ** (k + 1) * math.factorial(k))
    return lambda lam: c / (1.0 + lam[:, 0]) ** (k + 1)


def _imag_partial(u: float, k: int):
    """d^k/dlam^k lam^{iu} = prod_{j<k} (iu - j) lam^{iu-k}."""
    c = math.prod((1j * u - j for j in range(1, k)), start=1j * u)
    return lambda lam: c * lam[:, 0] ** complex(-k, u)


# orders of the closed-form partials of riesz1 and imag: every order the
# Marcinkiewicz schema accepts
_PARTIAL_ORDERS = range(1, 5)


def builtin_multiplier(name: str, u: float = 1.0) -> MultiplierSpec:
    """Named multipliers used across tests and the CLI.

    one, zero, riesz1 (lam/(1+lam)), imag (lam^{iu}), imag_decay
    (lam^{iu} e^{-lam}), log_bump (exp(-(log lam)^2/2)), riesz2
    (lam1/(lam1+lam2)).
    """
    if name == "one":
        return MultiplierSpec(1, _one, sector_evaluate=_one, name="one")
    if name == "zero":
        return MultiplierSpec(1, _zeros, name="zero")
    if name == "riesz1":
        partials = {(k,): _riesz1_partial(k) for k in _PARTIAL_ORDERS}
        return MultiplierSpec(1, _riesz1, partials=partials, sector_evaluate=_riesz1, name="riesz1")
    if name == "imag":
        f = lambda z: z[:, 0] ** complex(0, u)
        partials = {(k,): _imag_partial(u, k) for k in _PARTIAL_ORDERS}
        return MultiplierSpec(1, f, partials=partials, sector_evaluate=f, name=f"imag(u={u})")
    if name == "imag_decay":
        def f(lam):
            x = lam[:, 0]
            return x ** complex(0, u) * np.exp(-x)
        return MultiplierSpec(1, f, name=f"imag_decay(u={u})")
    if name == "log_bump":
        def f(lam):
            return np.exp(-0.5 * np.log(lam[:, 0]) ** 2)
        def f1(lam):
            x = lam[:, 0]
            return np.exp(-0.5 * np.log(x) ** 2) * (-np.log(x) / x)
        def f2(lam):
            x = lam[:, 0]
            lg = np.log(x)
            return np.exp(-0.5 * lg**2) * (lg**2 + lg - 1.0) / x**2
        return MultiplierSpec(1, f, partials={(1,): f1, (2,): f2}, name="log_bump")
    if name == "riesz2":
        def f(lam):
            tot = lam[:, 0] + lam[:, 1]
            return np.divide(lam[:, 0], tot, out=np.zeros(len(tot)), where=tot > 0)
        def sector(z):
            return z[:, 0] / (z[:, 0] + z[:, 1])
        return MultiplierSpec(2, f, sector_evaluate=sector, name="riesz2")
    raise KeyError(f"unknown multiplier {name!r}")


BUILTIN_MULTIPLIERS = ("one", "zero", "riesz1", "imag", "imag_decay", "log_bump", "riesz2")
