"""Finite joint spectral calculus on truncated eigen-systems.

A :class:`SpectralSystem` holds a finite orthonormal basis as arrays: an
(n, d) array of joint eigenvalues, an (n, n_points) matrix of basis values
and a quadrature rule for the underlying measure.  Joint multiplier
operators m(L_1, ..., L_d) are diagonal in the basis, so applying one is
multiplying the coefficient array by m evaluated on the eigenvalue rows.
A coefficient vector is a complex (n,) array in the same row order.

Everything here is exact linear algebra on finite sums; the only analysis
lives in the quadrature rule a system is built with.  The L^2 domain
condition for m(L) is vacuous for finite systems and is not modeled.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "GridFunction",
    "MultiplierSpec",
    "SpectralSystem",
    "EvaluationError",
    "CapacityError",
    "decompose",
    "reconstruct",
    "apply_multiplier",
    "tensor",
    "gauss_legendre",
]

TAU_ORTH = 1e-10  # orthonormality tolerance of shipped quadrature rules


def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """SciPy's ``roots_legendre(n)``, step for step, in NumPy.

    Golub-Welsch: the eigenvalues of the Jacobi matrix, one Newton step on
    the three-term recurrence, then log-normalized, symmetrized weights
    scaled to sum to 2.  ``eigvalsh`` of the dense tridiagonal ends in the
    LAPACK ``dsterf`` that SciPy's ``eigvals_banded`` ends in.
    """
    if n == 1:
        return np.zeros(1), np.full(1, 2.0)
    k = np.arange(1, n, dtype=float)
    off = k * np.sqrt(1.0 / (4 * k * k - 1))
    x = np.linalg.eigvalsh(np.diag(off, -1))
    p_prev, p_n = _legendre_pair(n, x)
    dy = (-n * x * p_n + n * p_prev) / (1 - x**2)
    x = x - p_n / dy
    fm = _legendre_pair(n, x)[0]
    log_fm = np.log(np.abs(fm))
    log_dy = np.log(np.abs(dy))
    fm = fm / np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy = dy / np.exp((log_dy.max() + log_dy.min()) / 2.0)
    w = 1.0 / (fm * dy)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_{n-1}(x), P_n(x)) for n >= 2, in the operation order of SciPy's
    integer-n ``eval_legendre`` recurrence (its |x| < 1e-5 power series,
    reached only by the middle node of an odd n, is not taken)."""
    xm1 = x - 1
    d, p = xm1, x
    for k in map(float, range(1, n)):
        prev = p
        d = ((2 * k + 1) / (k + 1)) * xm1 * p + (k / (k + 1)) * d
        p = d + p
    return prev, p


@lru_cache(maxsize=32)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1]: (nodes, weights).

    Golub-Welsch with one Newton step, ported from SciPy's
    ``roots_legendre``: bit-identical to it for every even n, and for odd n
    equal in the nodes with weights within 2e-12 relative (the middle node
    runs the recurrence, not SciPy's power series).  It inherits SciPy's
    loss of accuracy at large n: the n = 512 weights carry a 1.5e-9
    relative error, and the dense eigensolve costs O(n^3).  No package
    path takes that size: the kernel r-rule has 96 nodes, and the
    seminorms take 32 by default (ROADMAP item 9).

    Built once per n on first use and shared by every caller, so both
    arrays are read-only; map them to an interval with new arrays.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    nodes, weights = _legendre_rule(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _legendre_on(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule mapped onto [lo, hi]: (nodes, weights)."""
    xi, w = gauss_legendre(n)
    return 0.5 * (hi - lo) * xi + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


def _pair_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product rule on rows: row (i, j) is row i of a next to row j of b."""
    return np.hstack([np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1))])


def _check_size(name: str, value, least: int) -> None:
    """Reject a system size that is not an integer of at least ``least``, naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name}: expected an integer >= {least}, got {value!r}")


def _quadrature_rule(points, weights) -> tuple[np.ndarray, np.ndarray]:
    """A quadrature rule as (n, dim) float points and n positive float weights."""
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1:
        raise ValueError(f"weights must be a 1-D array, got shape {weights.shape}")
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points: expected an (n, dim) array, got shape {points.shape}")
    if len(points) != len(weights):
        raise ValueError(f"points: expected one row per weight ({len(weights)}), got {len(points)}")
    if np.any(weights <= 0):
        raise ValueError("quadrature weights must be positive")
    return points, weights


class EvaluationError(ValueError):
    """A multiplier evaluated non-finite on a spectrum point."""


class CapacityError(ValueError):
    """A constructed basis would exceed the size cap."""


@dataclass(frozen=True)
class GridFunction:
    """A function sampled on a quadrature grid.

    Parameters
    ----------
    points : (n, dim) ndarray
        Grid nodes.
    weights : (n,) ndarray
        Positive quadrature weights of the underlying measure.
    values : (n,) ndarray
        Samples; real or complex.
    """

    points: np.ndarray
    weights: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        points, weights = _quadrature_rule(self.points, self.weights)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "values", np.asarray(self.values))
        if self.values.shape != self.weights.shape:
            raise ValueError("values must be one per grid point")

    def norm_lp(self, p: float) -> float:
        """L^p norm with respect to the grid measure, for p in (0, inf]."""
        if not 0 < p <= np.inf:  # NaN fails too
            raise ValueError(f"p: expected a real in (0, inf], got {p!r}")
        a = np.abs(self.values)
        if p == np.inf:
            return float(a.max(initial=0.0))
        with np.errstate(over="ignore", under="ignore"):  # handled below
            total = self.weights @ a**p
        if np.finfo(float).tiny <= total < np.inf:
            # a term that underflowed moves total by less than its weight * ulp(total)
            return float(total ** (1.0 / p))
        # a**p overflowed or underflowed as a whole: factor out the sup
        scale = a.max(initial=0.0)
        if scale == 0.0 or not np.isfinite(scale):
            return float(scale)
        return float(scale * (self.weights @ (a / scale) ** p) ** (1.0 / p))

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.points, self.weights, values)


@dataclass(frozen=True)
class MultiplierSpec:
    """A scalar multiplier function on (0, inf)^arity.

    ``evaluate`` is vectorized: it maps an (n, arity) array of spectral points
    to an (n,) complex or real array.  Calling the spec takes that array
    ``lam`` and nothing else; a real result comes back as float64.
    ``sector_evaluate`` is the holomorphic extension: it accepts complex
    arguments, for rotated rays and for the Cauchy-integral partials of a
    d = 1 Marcinkiewicz seminorm; without it, partials come from central
    differences.
    """

    arity: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    sector_evaluate: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = ""

    def __call__(self, lam: np.ndarray) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        if lam.ndim != 2 or lam.shape[1] != self.arity:
            raise ValueError(f"lam: expected an (n, {self.arity}) array, got shape {lam.shape}")
        out = np.asarray(self.evaluate(lam))
        # a real multiplier stays in real arithmetic downstream
        return out.astype(complex if np.iscomplexobj(out) else float, copy=False).reshape(len(lam))


class SpectralSystem:
    """Truncated joint eigen-system of d commuting operators, held as arrays.

    Row i of every per-basis array, and entry i of a coefficient array,
    belongs to the multi-index ``basis_index_set[i]``.

    Parameters
    ----------
    basis_index_set : (n, L) ints, or n multi-indices
        All of one common length, not necessarily d; entries >= 0.  Kept
        as a read-only (n, L) int array.
    eigenvalues : (n, d) array
        Row i is the joint eigenvalue (lambda_1, ..., lambda_d) >= 0 of
        basis element i; d is the multiplier arity.
    basis : (n, n_points) array
        Values of the basis elements on the quadrature grid, kept
        read-only, so ``reconstruct``'s complex copy of it stays equal: a
        writable array is copied, and a read-only one is shared, so a large
        basis built read-only (as ``tensor`` builds its own) is not held twice.
    points, weights : quadrature rule for the underlying measure
        Checked once here and kept as read-only copies, so the rule cannot
        change afterwards and ``grid_function`` need not check it again.

    ``atl`` ("away from the low end") is true when no index carries an
    all-zero eigenvalue vector; it is read off the spectrum.
    """

    def __init__(
        self,
        basis_index_set,
        eigenvalues: np.ndarray,
        basis: np.ndarray,
        points: np.ndarray,
        weights: np.ndarray,
        name: str = "",
    ):
        try:
            index = np.array(basis_index_set, dtype=int)
        except ValueError:
            raise ValueError("all multi-indices must share one length") from None
        if index.ndim != 2 or len(index) == 0:
            raise ValueError("basis_index_set must be a non-empty list of multi-indices")
        if np.any(index < 0):
            raise ValueError("multi-index entries must be >= 0")
        index.flags.writeable = False
        self.basis_index_set = index
        n = len(index)

        lam = np.asarray(eigenvalues, dtype=float)
        if lam.ndim != 2 or lam.shape[0] != n or lam.shape[1] < 1:
            raise ValueError("eigenvalues must be an (n_basis, d) array with d >= 1")
        if not np.all(np.isfinite(lam)) or np.any(lam < 0):
            raise ValueError("eigenvalues must be finite and >= 0")
        self._lam = lam
        self.dimension = lam.shape[1]
        self.atl = bool(np.all(lam.max(axis=1) > 0))

        self.points, self.weights = (np.array(a) for a in _quadrature_rule(points, weights))
        self.points.flags.writeable = False
        self.weights.flags.writeable = False
        basis = np.asarray(basis, dtype=float)
        if basis.shape != (n, len(self.weights)):
            raise ValueError("basis matrix has wrong shape")
        if basis.flags.writeable:
            basis = basis.copy()
            basis.flags.writeable = False
        self._basis = basis
        self.name = name

    # -- derived structure ------------------------------------------------

    def __len__(self) -> int:
        return len(self.basis_index_set)

    def position(self, k) -> int:
        """Basis row of the multi-index k; KeyError if k is not in the basis."""
        k = tuple(k)
        if len(k) == self.basis_index_set.shape[1]:
            hit = np.flatnonzero(np.all(self.basis_index_set == k, axis=1))
            if hit.size:
                return int(hit[0])
        raise KeyError(f"index {k} not in basis")

    def eigenvalue_matrix(self) -> np.ndarray:
        """(n_basis, d) array of eigenvalue vectors in basis order."""
        return self._lam.copy()

    def basis_matrix(self) -> np.ndarray:
        """(n_basis, n_points) matrix of basis values on the grid, read-only."""
        return self._basis

    @cached_property
    def _complex_basis(self) -> np.ndarray:
        # the cast NumPy makes for ``complex @ real``, made once and held
        return self._basis.astype(complex)

    def orthonormality_defect(self) -> float:
        """max |Gram - I| under the quadrature inner product."""
        B = self.basis_matrix()
        gram = (B * self.weights) @ B.T
        return float(np.abs(gram - np.eye(len(self))).max())

    def grid_function(self, values: np.ndarray) -> GridFunction:
        """values, one per grid point, as a GridFunction on the system's rule.

        The rule was checked and frozen at construction, so only the shape
        of ``values`` is checked here.
        """
        values = np.asarray(values)
        if values.shape != self.weights.shape:
            raise ValueError("values must be one per grid point")
        f = object.__new__(GridFunction)
        object.__setattr__(f, "points", self.points)
        object.__setattr__(f, "weights", self.weights)
        object.__setattr__(f, "values", values)
        return f

    def random_coefficients(self, rng: np.random.Generator, *, atl_safe: bool = False) -> np.ndarray:
        """i.i.d. standard-normal coefficients in basis order, as a complex array.

        With ``atl_safe`` the coefficients vanish wherever any per-axis
        eigenvalue is zero.
        """
        c = rng.standard_normal(len(self)).astype(complex)
        if atl_safe:
            c[np.any(self._lam == 0.0, axis=1)] = 0.0
        return c


# -- operations -----------------------------------------------------------


def _coefficients(c, sys: SpectralSystem) -> np.ndarray:
    """c as a complex array in basis order; ValueError unless one entry per basis row."""
    c = np.asarray(c, dtype=complex)
    if c.shape != (len(sys),):
        raise ValueError(f"need {len(sys)} coefficients in basis order, got shape {c.shape}")
    return c


def decompose(f: GridFunction, sys: SpectralSystem) -> np.ndarray:
    """Quadrature inner products of f with every basis element, in basis order."""
    if f.values.shape != sys.weights.shape or f.points.shape != sys.points.shape:
        raise ValueError("grid mismatch: f is not sampled on the system quadrature")
    return (sys.basis_matrix() @ (sys.weights * f.values)).astype(complex, copy=False)


def reconstruct(c: np.ndarray, sys: SpectralSystem) -> GridFunction:
    """Sum of c_k * basis_k on the system grid.

    The coefficients are complex, so the product runs against a complex
    copy of the basis that the system makes on its first reconstruct and
    keeps (twice the bytes of the float basis).  It is the product NumPy
    runs for ``c @ basis_matrix()``, without casting the basis per call.
    """
    values = _coefficients(c, sys) @ sys._complex_basis
    if not values.imag.any():
        values = values.real
    return sys.grid_function(values)


def apply_multiplier(m: MultiplierSpec, sys: SpectralSystem, c: np.ndarray) -> np.ndarray:
    """Coefficient-wise multiplication by m on the joint spectrum.

    m is evaluated only on the rows where c is non-zero; the others stay 0.
    """
    if m.arity != sys.dimension:
        raise ValueError(f"multiplier arity {m.arity} != system dimension {sys.dimension}")
    c = _coefficients(c, sys)
    out = np.zeros_like(c)
    rows = np.flatnonzero(c)
    if not rows.size:
        return out
    lam = sys._lam[rows]
    vals = m(lam)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        hint = ""
        if not sys.atl and np.all(lam[i] == 0.0):
            hint = " (zero eigenvalue vector on a non-ATL system)"
        point = tuple(float(v) for v in lam[i])
        raise EvaluationError(
            f"multiplier {m.name or 'm'} is not finite at lambda = {point}{hint}"
        )
    out[rows] = c[rows] * vals
    return out


# the largest tensor basis, in elements
_MAX_BASIS = 100_000


def tensor(sys_a: SpectralSystem, sys_b: SpectralSystem) -> SpectralSystem:
    """Tensor product of two systems on the product grid.

    Indices concatenate, eigenvalue columns concatenate (dimension adds),
    the basis is the Kronecker product, the quadrature is the product rule.
    A basis of more than _MAX_BASIS elements raises a CapacityError.
    """
    na, nb = len(sys_a), len(sys_b)
    if na * nb > _MAX_BASIS:
        raise CapacityError(f"tensor basis would have {na * nb} > {_MAX_BASIS} elements")
    basis = np.kron(sys_a.basis_matrix(), sys_b.basis_matrix())
    basis.flags.writeable = False  # the system shares it, with no second copy
    return SpectralSystem(
        _pair_rows(sys_a.basis_index_set, sys_b.basis_index_set),
        _pair_rows(sys_a.eigenvalue_matrix(), sys_b.eigenvalue_matrix()),
        basis,
        _pair_rows(sys_a.points, sys_b.points),
        np.kron(sys_a.weights, sys_b.weights),
        name=f"{sys_a.name}(x){sys_b.name}",
    )
