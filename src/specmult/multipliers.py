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

truncated to a window [-S, S] with an explicit tail-mass guard.  Dyadic
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
    EvaluationError,
    GridFunction,
    MultiplierSpec,
    SpectralSystem,
    _check_size,
    _coefficients,
    _legendre_on,
    _trapezoid,
)

__all__ = [
    "DyadicRange",
    "DecayProfile",
    "DecayReport",
    "MellinTailError",
    "ATLViolation",
    "marcinkiewicz_seminorm",
    "mellin_on_grid",
    "decay_check",
    "rotate_multiplier",
    "phi_star",
    "required_order",
    "worst_case_order",
    "square_function",
    "square_constant",
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
class DyadicRange:
    """Truncation R in {2^l : -K <= l <= K} plus seeded non-dyadic samples.

    ``n_offdyadic`` log-uniform draws per decade guard against a sup that
    sits between dyadic points.
    """

    K: int = 20
    n_offdyadic: int = 3
    seed: int = 7

    def __post_init__(self):
        _check_size("K", self.K, 1)
        _check_size("n_offdyadic", self.n_offdyadic, 0)
        _check_size("seed", self.seed, 0)

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
_CAUCHY_NODES = 64  # trapezoid nodes on the Cauchy circle of a d = 1 partial
_CAUCHY_RADIUS = 0.5  # that circle's radius relative to lam
_TILE_POINTS = 1 << 14  # grid points per seminorm tile: each temporary fits in 256 KiB, so malloc reuses it


def _axis_rows(axes) -> np.ndarray:
    """The tensor grid of the 1-d axes as (n, d) rows, last axis fastest.

    The rows are the transpose of a (d, n) array filled axis by axis, so
    each column an evaluator reads is contiguous.
    """
    cols = np.empty((len(axes),) + tuple(len(a) for a in axes))
    for j, a in enumerate(axes):
        cols[j] = a.reshape((-1,) + (1,) * (len(axes) - 1 - j))
    return cols.reshape(len(axes), -1).T


def _partial_values(m: MultiplierSpec, gamma: tuple[int, ...], axes) -> tuple[np.ndarray, float]:
    """(v, c) with c v = lam^gamma d^gamma m on the tensor grid of axes.

    For d = 1 and a multiplier with ``sector_evaluate``, the Cauchy integral
    on the circle |z - lam| = rho lam, rho = _CAUCHY_RADIUS, by the
    trapezoid rule on _CAUCHY_NODES nodes theta_j:
    lam^k d^k m(lam) = k! rho^{-k} mean_j m(lam (1 + rho e^{i theta_j})) e^{-i k theta_j},
    reduced over the node axis row by row, so a row does not depend on the tile.
    Otherwise the tensor central-difference stencil with per-axis relative
    steps h_j = _STEP_REL * lam_j, nodes lam_j + (g_j/2 - i) h_j and weights
    (-1)^i C(g_j, i), last axis fastest: lam^gamma / h^gamma is the constant
    c = _STEP_REL^{-|gamma|}.  v is the weighted sum of multiplier values and
    c depends only on m and gamma, so a caller scales once, not per point.
    Shifted nodes are formed on the axes; only the multiplier sees (n, d) rows.
    """
    if not any(gamma):
        return m(_axis_rows(axes)), 1.0
    if len(gamma) == 1 and m.sector_evaluate is not None:
        (k,), (lam,) = gamma, axes
        theta = 2.0 * math.pi * np.arange(_CAUCHY_NODES) / _CAUCHY_NODES
        z = np.multiply.outer(lam, 1.0 + _CAUCHY_RADIUS * np.exp(1j * theta))
        vals = m.sector_evaluate(z.reshape(-1, 1)).reshape(z.shape)
        return (vals * np.exp(-1j * k * theta)).mean(axis=1), math.factorial(k) / _CAUCHY_RADIUS**k
    h = [_STEP_REL * a for a in axes]
    stencil = [[(g / 2.0 - i, (-1.0) ** i * math.comb(g, i)) for i in range(g + 1)] for g in gamma]
    vals = None  # the first node's weight is 1, and its term sets the dtype: a real multiplier stays real
    for node in itertools.product(*stencil):
        offset, coeff = zip(*node)
        term = m(_axis_rows([a + o * hj for a, o, hj in zip(axes, offset, h)]))
        coeff = math.prod(coeff)
        if vals is None:
            vals = term
        elif coeff == 1.0:
            vals += term
        elif coeff == -1.0:
            vals -= term
        else:
            term *= coeff
            vals += term
    return vals, _STEP_REL ** -sum(gamma)


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
    every temporary stays near _TILE_POINTS points; the stencil is formed on
    the axes, and the constant scale of _partial_values is applied once, to
    the largest box.  Each block contracts its node axes but the first, and
    the stacked (n_R, n_gl, ...) blocks contract the first node axis in one
    product.  Exact 2-homogeneity in m.
    """
    d = m.arity
    gamma = tuple(gamma)
    if len(gamma) != d:
        raise ValueError("gamma must have one entry per multiplier argument")
    for g in gamma:
        _check_size("gamma", g, 0)
    gamma = tuple(int(g) for g in gamma)
    if d > 2:
        raise NotImplementedError("seminorm implemented for d <= 2")
    R = dyadic.radii()
    xi, wq = _legendre_on(0.0, 1.0, n_gl)
    # per-axis abscissae: log lam = log R_i + xi_j log 2, xi_j on [0, 1]
    lam_axis = np.exp((np.log(R)[:, None] + xi[None, :] * math.log(2.0)).ravel())
    rows = max(1, _TILE_POINTS // len(lam_axis) ** (d - 1))
    blocks = []
    for first in lam_axis.reshape(len(R), n_gl):
        box = np.empty((n_gl,) + (len(R), n_gl) * (d - 1))
        for i in range(0, n_gl, rows):
            vals, scale = _partial_values(m, gamma, [first[i : i + rows]] + [lam_axis] * (d - 1))
            np.square(np.abs(vals), out=box[i : i + rows].reshape(-1))  # a view: box is C-contiguous
        for axis in range(2 * d - 2, 0, -2):  # contract the other node axes, last first
            box = np.moveaxis(box, axis, -1) @ wq
        blocks.append(box)
    box = np.moveaxis(np.stack(blocks), 1, -1) @ wq
    return float(box.max() * scale**2 * math.log(2.0) ** d)


# -- Mellin transform -------------------------------------------------------


_S_MAX = 30.0  # the log grid spans s = log lam in [-_S_MAX, _S_MAX]
_LOG_NODES = 1 << 14  # its uniform trapezoid nodes
_TAIL_TOL = 1e-9  # largest integrand mass allowed in the outer 5% of that window


def _log_grid() -> tuple[np.ndarray, np.ndarray]:
    """The trapezoid rule of _LOG_NODES uniform nodes in s = log lam on [-_S_MAX, _S_MAX]: (s, weights)."""
    s = np.linspace(-_S_MAX, _S_MAX, _LOG_NODES)
    return s, _trapezoid(_LOG_NODES, s[1] - s[0])


def _check_tails(g: np.ndarray, s: np.ndarray, w: np.ndarray, what: str):
    edge = 0.95 * _S_MAX
    zone = np.abs(s) >= edge
    mass = float(np.sum(w[zone] * np.abs(g)[zone]))
    if mass > _TAIL_TOL:
        raise MellinTailError(
            f"{what}: tail mass {mass:.3e} beyond |log lam| = {edge:.1f} exceeds {_TAIL_TOL}"
        )


def _frequencies(u, name: str, least: int = 0) -> np.ndarray:
    """u as a 1-d float array of at least ``least`` finite frequencies, or a ValueError naming it."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size < least or not np.isfinite(u).all():
        what = f"at least {least} finite frequencies" if least else "finite frequencies"
        raise ValueError(f"{name}: expected a 1-d array of {what}, got shape {u.shape}")
    return u


def mellin_on_grid(m: MultiplierSpec, u_values: np.ndarray) -> np.ndarray:
    """Vectorized 1-d Mellin transform on a 1-d array of finite frequencies, on the log grid."""
    if m.arity != 1:
        raise ValueError("mellin_on_grid handles d = 1")
    u_values = _frequencies(u_values, "u_values")
    s, w = _log_grid()
    g = m(np.exp(s)[:, None])
    _check_tails(g, s, w, "mellin integrand")
    return _fourier_rows(u_values, s, w * g)


# frequencies per phase block: the complex (block, len(s)) matrix e^{-ius}
# is at most 10.5 MB on the 2^14-node log grid, and 8 MB at decay_check's cut
_U_BLOCK = 40
_EXP_ZERO = 750.0  # np.exp(-x) is exactly 0.0 for every x >= ~745.2
# orders below it keep (t lam)**N finite up to every cut (log of the largest double: 709.78)
_N_MAX = 709.0 / math.log(_EXP_ZERO)


def _phase_blocks(u: np.ndarray, s: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """(rows, e^{-i u[rows] s}) for consecutive near-equal blocks of at most _U_BLOCK frequencies.

    Every block is a view of one buffer, refilled in place for the next, so
    the caller uses it before advancing.  No block has a single row unless u
    does: a 1-row product rounds differently from a multi-row one.  The
    exponent is written into the buffer and exponentiated there, equal bit
    for bit to np.exp(-1j * np.outer(u, s)) with no temporary beside it.
    """
    if not len(u):
        return
    size = -(-len(u) // -(-len(u) // _U_BLOCK))
    buf = np.empty((size, len(s)), dtype=complex)
    for i in range(0, len(u), size):
        rows = slice(i, i + size)
        E = buf[: len(u[rows])]
        np.multiply.outer(-1j * u[rows], s, out=E)
        yield rows, np.exp(E, out=E)


def _fourier_rows(u: np.ndarray, s: np.ndarray, wg: np.ndarray) -> np.ndarray:
    out = np.empty(len(u), dtype=complex)
    for rows, E in _phase_blocks(u, s):
        out[rows] = E @ wg
    return out


# -- scaled envelopes m_{N,t} and the decay pipeline ------------------------


@dataclass
class DecayReport:
    u_grid: np.ndarray
    sup_abs: np.ndarray           # S(u) = max over t samples of |Mellin(m_{N,t})(u)|
    slope: float                  # fitted log-log slope on the largest decade of u
    constant: float               # sup_u S(u) * (1+|u|)^rho
    rho: float
    t_samples: np.ndarray

    def slope_ok(self) -> bool:
        """The fitted slope is at most -rho + 0.15."""
        return self.slope <= -self.rho + 0.15


def decay_check(
    m: MultiplierSpec,
    N: float,
    rho: float,
    u_grid: np.ndarray | None = None,
) -> DecayReport:
    """Envelope decay of sup_t |Mellin(m_{N,t})(u)| against (1+|u|)^{-rho}.

    Implemented for d = 1, so the orders N > rho are two numbers.  The sup
    over t is sampled on a log grid (the true sup runs over all t > 0;
    smooth multipliers vary slowly in t).  u_grid is a 1-d array of finite
    frequencies with at least two distinct ones in its top decade, where the
    slope is fitted.  Each t sums only the nodes below its cut
    t lam < _EXP_ZERO, past which the envelope is an exact zero, so the phase
    matrix is built only up to the largest cut.  0 < N makes the Mellin
    integral converge at lam -> 0, N < _N_MAX keeps (t lam)**N finite below
    every cut, and m must be finite on the log grid.
    The t loop runs inside each block of at most _U_BLOCK frequencies, one
    block is held at a time, and each t's envelope is written into buffers
    allocated once per call.
    """
    if m.arity != 1:
        raise NotImplementedError("decay_check handles d = 1")
    if np.ndim(N) or np.ndim(rho):
        raise ValueError(f"N, rho: expected two numbers, got {N!r} and {rho!r}")
    N, rho = float(N), float(rho)
    if not N > rho:
        raise ValueError("need N > rho")
    if not 0.0 < N < _N_MAX:
        raise ValueError(
            f"N: expected an order in (0, {_N_MAX:.2f}), where the Mellin integral converges"
            f" and (t lam)**N stays finite, got {N!r}"
        )
    if u_grid is None:
        u_grid = np.geomspace(2.0, 40.0, 25)
    u_grid = _frequencies(u_grid, "u_grid", least=2)
    decade = u_grid >= u_grid.max() / 10.0  # the slope is fitted on the top decade
    if len(np.unique(u_grid[decade])) < 2:
        raise ValueError("u_grid: the slope fit needs at least 2 distinct frequencies in its top decade")
    # reference scale lam ~ 1: same [1e-4, 1e4] span as the g_N grid
    t_samples = np.geomspace(1e-4, 1e4, 256)
    s, w = _log_grid()
    lam = np.exp(s)
    base = m(lam[:, None])
    bad = ~np.isfinite(base)
    if bad.any():
        raise EvaluationError(
            f"multiplier {m.name or 'm'} is not finite at lambda = {float(lam[np.argmax(bad)])!r} on the log grid"
        )
    cuts = np.searchsorted(lam, _EXP_ZERO / t_samples)
    K = int(cuts.max())
    tl, e, g = np.empty(K), np.empty(K), np.empty(K, dtype=base.dtype)
    S = np.zeros(len(u_grid))
    for rows, E in _phase_blocks(u_grid, s[:K]):
        for t, k in zip(t_samples, cuts):
            # w (t lam)**N e^{-t lam} m(lam) below the cut, in the buffers' first k entries
            tl_k, e_k, g_k = tl[:k], e[:k], g[:k]
            np.multiply(t, lam[:k], out=tl_k)
            np.exp(np.negative(tl_k, out=e_k), out=e_k)
            tl_k **= N  # the operator keeps NumPy's scalar fast paths (N = 2 squares)
            tl_k *= e_k
            np.multiply(tl_k, base[:k], out=g_k)
            np.multiply(w[:k], g_k, out=g_k)
            np.maximum(S[rows], np.abs(E[:, :k] @ g_k), out=S[rows])
    x = np.log1p(u_grid[decade])
    y = np.log(np.maximum(S[decade], 1e-300))
    slope = float(np.polyfit(x, y, 1)[0]) if np.any(S[decade] > 0) else -np.inf
    constant = float(np.max(S * (1.0 + np.abs(u_grid)) ** rho))
    return DecayReport(
        u_grid=u_grid, sup_abs=S, slope=slope, constant=constant, rho=rho, t_samples=t_samples
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
        z = np.asarray(z, dtype=complex)
        if z.ndim != 2 or z.shape[1] != m.arity:
            raise ValueError(f"z: expected an (n, {m.arity}) array, got shape {z.shape}")
        return m.sector_evaluate(z * rot)

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


_T_NODES = 256  # log-spaced t per axis of the square function


@functools.lru_cache(maxsize=32)
def _t_grid(lam_min: float, lam_max: float) -> tuple[np.ndarray, np.ndarray]:
    """_T_NODES log-spaced t in [1e-4/lam_max, 1e4/lam_min] with trapezoid dt/t weights.

    Built once per (lam_min, lam_max) and shared by every caller, so both
    arrays are read-only.
    """
    t = np.geomspace(1e-4 / lam_max, 1e4 / lam_min, _T_NODES)
    w = _trapezoid(_T_NODES, math.log(t[-1] / t[0]) / (_T_NODES - 1))
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


@functools.lru_cache(maxsize=8)
def _t_kernel(lam: bytes, bounds: tuple[tuple[float, float], ...], N: tuple[int, ...]) -> np.ndarray:
    """The t-kernel of g_N on the supported eigenvalue rows, an (n_sup, n_sup) array.

    ``lam`` is the float64 bytes of the (n_sup, d) supported rows, axis j
    sums t over ``_t_grid(*bounds[j])``, and M(a, b) is the product over
    axes of k_j(a, b) = sum_i w_i (t_i a)^N_j (t_i b)^N_j e^{-t_i (a+b)}.
    It does not depend on the coefficients, so a trial loop over one
    support builds it once; shared by every caller, so it is read-only.
    """
    lam = np.frombuffer(lam).reshape(-1, len(N))
    M = np.ones((len(lam), len(lam)))
    for j, (bound, Nj) in enumerate(zip(bounds, N)):
        t, w = _t_grid(*bound)
        a, inv = np.unique(lam[:, j], return_inverse=True)
        P = (np.outer(a, t)) ** Nj * np.exp(-np.outer(a, t))  # (n_a, n_t)
        Kj = (P * w) @ P.T
        M *= Kj[np.ix_(inv, inv)]
    M.flags.writeable = False
    return M


def square_constant(N) -> float:
    """prod_j Gamma(2 N_j) / 4^{N_j}: the exact L^2 factor of g_N."""
    return float(math.prod(math.gamma(2 * n) / 4.0**n for n in np.atleast_1d(N).tolist()))


def square_function(sys: SpectralSystem, c: np.ndarray, N) -> GridFunction:
    """g_N(f)(x) = ( sum_t w_t | sum_k (t lam(k))^N e^{-<t,lam(k)>} c_k H_k(x) |^2 )^{1/2}.

    N holds one integer order >= 1 per eigenvalue map.  Axis j sums t over the
    _t_grid of its positive eigenvalues.  The t-sum over the tensor grid is
    contracted analytically per axis, which is an exact rearrangement of the
    finite sums; the resulting t-kernel is cached per supported spectrum and N.
    """
    orders = np.atleast_1d(N)
    if len(orders) != sys.dimension or not np.all((orders >= 1) & (orders % 1 == 0)):
        raise ValueError(f"N: expected one integer order >= 1 per eigenvalue map ({sys.dimension}), got {N!r}")
    N = tuple(int(v) for v in orders)
    spectrum = sys._lam
    bounds = []
    for j in range(sys.dimension):
        pos = spectrum[:, j][spectrum[:, j] > 0]
        if len(pos) == 0:
            raise ATLViolation(f"eigenvalue map {j} is identically zero")
        bounds.append((float(pos.min()), float(pos.max())))
    c = _coefficients(c, sys)
    rows = np.flatnonzero(c)
    if not rows.size:
        return sys.grid_function(np.zeros(len(sys.weights)))
    lam = spectrum[rows]  # (n_sup, d)
    if np.any(lam == 0.0):
        i, j = np.argwhere(lam == 0.0)[0]
        raise ATLViolation(
            f"coefficient at index {tuple(sys.basis_index_set[rows[i]].tolist())} "
            f"sits on a zero eigenvalue (axis {int(j)})"
        )
    cvec = c[rows]
    M = _t_kernel(lam.tobytes(), tuple(bounds), N)
    B = sys.basis_matrix()[rows]
    C = (cvec[:, None] * np.conj(cvec)[None, :]) * M
    # B is real, so only Re C reaches the real part of sum_ab C_ab B_bp B_ap
    g2 = np.einsum("ap,ap->p", C.real @ B, B)
    return sys.grid_function(np.sqrt(np.clip(g2, 0.0, None)))


# -- built-in multiplier family ---------------------------------------------
#
# MultiplierSpec.__call__ hands every evaluator an (n, arity) array, and
# _partial_values hands sector_evaluate complex (n, 1) rows on its Cauchy
# circles: a d = 1 built-in's partials come from its sector_evaluate.


def _one(lam):
    return np.ones(lam.shape[0], dtype=complex)


def _zeros(lam):
    return np.zeros(lam.shape[0], dtype=complex)


def _riesz1(z):
    return z[:, 0] / (1.0 + z[:, 0])


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
        return MultiplierSpec(1, _riesz1, sector_evaluate=_riesz1, name="riesz1")
    if name == "imag":
        f = lambda z: z[:, 0] ** complex(0, u)
        return MultiplierSpec(1, f, sector_evaluate=f, name=f"imag(u={u})")
    if name == "imag_decay":
        def f(lam):
            x = lam[:, 0]
            return x ** complex(0, u) * np.exp(-x)
        return MultiplierSpec(1, f, name=f"imag_decay(u={u})")
    if name == "log_bump":
        def f(lam):
            return np.exp(-0.5 * np.log(lam[:, 0]) ** 2)
        return MultiplierSpec(1, f, sector_evaluate=f, name="log_bump")
    if name == "riesz2":
        def f(lam):
            tot = lam[:, 0] + lam[:, 1]
            with np.errstate(divide="ignore", invalid="ignore"):
                out = lam[:, 0] / tot
            out[~(tot > 0)] = 0.0  # the origin, and NaN rows
            return out
        def sector(z):
            return z[:, 0] / (z[:, 0] + z[:, 1])
        return MultiplierSpec(2, f, sector_evaluate=sector, name="riesz2")
    raise KeyError(f"unknown multiplier {name!r}")


BUILTIN_MULTIPLIERS = ("one", "zero", "riesz1", "imag", "imag_decay", "log_bump", "riesz2")
