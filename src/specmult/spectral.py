"""Finite joint spectral calculus on truncated eigen-systems.

A :class:`SpectralSystem` holds a finite orthonormal basis as arrays: an
(n, d) array of joint eigenvalues, an (n, n_points) matrix of basis values
and a quadrature rule for the underlying measure.  Joint multiplier
operators m(L_1, ..., L_d) are diagonal in the basis, so applying one is
multiplying the coefficient array by m evaluated on the eigenvalue rows.

Everything here is exact linear algebra on finite sums; the only analysis
lives in the quadrature rule a system is built with.  The L^2 domain
condition for m(L) is vacuous for finite systems and is not modeled.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.special import roots_legendre

__all__ = [
    "MultiIndex",
    "GridFunction",
    "CoefficientVector",
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

#: Multi-indices are plain tuples of non-negative ints.
MultiIndex = tuple

TAU_ORTH = 1e-10  # orthonormality tolerance of shipped quadrature rules


@lru_cache(maxsize=32)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1]: (nodes, weights).

    Built once per n on first use and shared by every caller, so both
    arrays are read-only; map them to an interval with new arrays.
    """
    nodes, weights = roots_legendre(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _trapezoid(n: int, h: float) -> np.ndarray:
    """Weights of the n-node trapezoid rule with uniform spacing h."""
    w = np.full(n, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _pair_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product rule on rows: row (i, j) is row i of a next to row j of b."""
    return np.hstack([np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1))])


def _point_rows(points, n: int) -> np.ndarray:
    """Grid points as an (n, dim) float array; one row of n != 1 values is n scalar points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return pts.T if pts.shape[0] == 1 and n != 1 else pts


class EvaluationError(ValueError):
    """A multiplier evaluated non-finite on a spectrum point."""


class CapacityError(ValueError):
    """A constructed basis would exceed the configured size cap."""


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
        object.__setattr__(self, "points", _point_rows(self.points, np.asarray(self.weights).size))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values))
        if self.weights.ndim != 1 or len(self.weights) != len(self.points):
            raise ValueError("weights must be one per grid point")
        if self.values.shape != self.weights.shape:
            raise ValueError("values must be one per grid point")
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")

    def norm_lp(self, p: float) -> float:
        """L^p norm with respect to the grid measure (p = inf allowed)."""
        a = np.abs(self.values)
        if np.isinf(p):
            return float(a.max(initial=0.0))
        if p <= 0:
            raise ValueError("p must be positive")
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


class CoefficientVector:
    """Spectral coefficients: ``values[i]`` belongs to the multi-index ``indices[i]``.

    Build one from a mapping ``{multi-index: value}``, or from matching
    ``indices`` and ``values`` sequences.
    """

    def __init__(
        self,
        coeffs: Mapping[MultiIndex, complex] | None = None,
        *,
        indices: Sequence[MultiIndex] = (),
        values=(),
    ):
        if coeffs is not None:
            coeffs = {tuple(k): v for k, v in dict(coeffs).items()}
            indices, values = tuple(coeffs), list(coeffs.values())
        self.indices = tuple(indices)
        self.values = np.asarray(values, dtype=complex)
        if self.values.shape != (len(self.indices),):
            raise ValueError("need one value per index")

    @cached_property
    def _position(self) -> dict:
        return dict(zip(self.indices, range(len(self.indices))))

    def get(self, k: MultiIndex) -> complex:
        i = self._position.get(tuple(k))
        return 0.0 + 0.0j if i is None else complex(self.values[i])

    def items(self):
        return zip(self.indices, self.values.tolist())

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class MultiplierSpec:
    """A scalar multiplier function on (0, inf)^arity.

    ``evaluate`` is vectorized: it maps an (n, arity) array of spectral points
    to an (n,) complex or real array; a real one comes back as float64.
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
        if lam.ndim == 1:
            if self.arity == 1 and lam.shape != (1,):
                lam = lam[:, None]  # a batch of scalar arguments
            else:
                lam = lam[None, :]
        if lam.shape[-1] != self.arity:
            raise ValueError(f"multiplier arity {self.arity}, got points of length {lam.shape[-1]}")
        out = np.asarray(self.evaluate(lam))
        # a real multiplier stays in real arithmetic downstream
        return out.astype(complex if np.iscomplexobj(out) else float, copy=False).reshape(lam.shape[:-1])


class SpectralSystem:
    """Truncated joint eigen-system of d commuting operators, held as arrays.

    Row i of every per-basis array belongs to the multi-index
    ``basis_index_set[i]``.

    Parameters
    ----------
    basis_index_set : (n, L) ints, or n multi-indices
        All of one common length, not necessarily d; entries >= 0.
    eigenvalues : (n, d) array
        Row i is the joint eigenvalue (lambda_1, ..., lambda_d) >= 0 of
        basis element i; d is the multiplier arity.
    basis : (n, n_points) array
        Values of the basis elements on the quadrature grid.
    points, weights : quadrature rule for the underlying measure

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
            index = np.asarray(basis_index_set, dtype=int)
        except ValueError:
            raise ValueError("all multi-indices must share one length") from None
        if index.ndim != 2 or len(index) == 0:
            raise ValueError("basis_index_set must be a non-empty list of multi-indices")
        if np.any(index < 0):
            raise ValueError("multi-index entries must be >= 0")
        self.basis_index_set = tuple(map(tuple, index.tolist()))
        n = len(index)

        lam = np.asarray(eigenvalues, dtype=float)
        if lam.ndim != 2 or lam.shape[0] != n or lam.shape[1] < 1:
            raise ValueError("eigenvalues must be an (n_basis, d) array with d >= 1")
        if not np.all(np.isfinite(lam)) or np.any(lam < 0):
            raise ValueError("eigenvalues must be finite and >= 0")
        self._lam = lam
        self.dimension = lam.shape[1]
        self.atl = bool(np.all(lam.max(axis=1) > 0))

        self.points = _point_rows(points, np.asarray(weights).size)
        self.weights = np.asarray(weights, dtype=float)
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")
        self._basis = np.asarray(basis, dtype=float)
        if self._basis.shape != (n, len(self.weights)):
            raise ValueError("basis matrix has wrong shape")
        self.name = name
        self._position = dict(zip(self.basis_index_set, range(n)))

    # -- derived structure ------------------------------------------------

    def __len__(self) -> int:
        return len(self.basis_index_set)

    def position(self, k: MultiIndex) -> int:
        k = tuple(k)
        if k not in self._position:
            raise KeyError(f"index {k} not in basis")
        return self._position[k]

    def positions(self, indices: Sequence[MultiIndex]) -> np.ndarray:
        """Basis rows of ``indices``; KeyError for an index not in the basis."""
        if indices is self.basis_index_set:
            return np.arange(len(self))
        try:
            return np.fromiter(map(self._position.__getitem__, indices), np.intp, len(indices))
        except KeyError as exc:
            raise KeyError(f"index {exc.args[0]} not in basis") from None

    def eigenvalues(self, k: MultiIndex) -> np.ndarray:
        """The d-vector (lambda_1(k), ..., lambda_d(k))."""
        return self._lam[self.position(k)].copy()

    def eigenvalue_matrix(self) -> np.ndarray:
        """(n_basis, d) array of eigenvalue vectors in basis order."""
        return self._lam.copy()

    def basis_matrix(self) -> np.ndarray:
        """(n_basis, n_points) matrix of basis values on the grid."""
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
        return GridFunction(self.points, self.weights, values)

    def random_coefficients(self, rng: np.random.Generator, *, atl_safe: bool = False) -> CoefficientVector:
        """i.i.d. standard-normal coefficients on the basis index set.

        With ``atl_safe`` the coefficients vanish wherever any per-axis
        eigenvalue is zero.
        """
        draws = rng.standard_normal(len(self))
        if not atl_safe:
            return CoefficientVector(indices=self.basis_index_set, values=draws)
        keep = np.all(self._lam != 0.0, axis=1)
        return CoefficientVector(
            indices=tuple(compress(self.basis_index_set, keep.tolist())), values=draws[keep]
        )


# -- operations -----------------------------------------------------------


def decompose(f: GridFunction, sys: SpectralSystem) -> CoefficientVector:
    """Quadrature inner products of f with every basis element."""
    if f.values.shape != sys.weights.shape or f.points.shape != sys.points.shape:
        raise ValueError("grid mismatch: f is not sampled on the system quadrature")
    c = sys.basis_matrix() @ (sys.weights * f.values)
    return CoefficientVector(indices=sys.basis_index_set, values=c)


def reconstruct(c: CoefficientVector, sys: SpectralSystem) -> GridFunction:
    """Sum of c_k * basis_k on the system grid.

    The coefficients are complex, so the product runs against a complex
    copy of the basis that the system makes on its first reconstruct and
    keeps (twice the bytes of the float basis).  It is the product NumPy
    runs for ``vec @ basis_matrix()``, without casting the basis per call.
    """
    vec = np.zeros(len(sys), dtype=complex)
    vec[sys.positions(c.indices)] = c.values
    values = vec @ sys._complex_basis
    if np.max(np.abs(values.imag), initial=0.0) == 0.0:
        values = values.real
    return sys.grid_function(values)


def apply_multiplier(m: MultiplierSpec, sys: SpectralSystem, c: CoefficientVector) -> CoefficientVector:
    """Coefficient-wise multiplication by m on the joint spectrum.

    m is evaluated only on the eigenvalues of the indices c carries.
    """
    if m.arity != sys.dimension:
        raise ValueError(f"multiplier arity {m.arity} != system dimension {sys.dimension}")
    if not len(c):
        return c
    lam = sys._lam[sys.positions(c.indices)]
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
    return CoefficientVector(indices=c.indices, values=c.values * vals)


def tensor(sys_a: SpectralSystem, sys_b: SpectralSystem, max_basis: int = 100_000) -> SpectralSystem:
    """Tensor product of two systems on the product grid.

    Indices concatenate, eigenvalue columns concatenate (dimension adds),
    the basis is the Kronecker product, the quadrature is the product rule.
    """
    na, nb = len(sys_a), len(sys_b)
    if na * nb > max_basis:
        raise CapacityError(f"tensor basis would have {na * nb} > {max_basis} elements")
    return SpectralSystem(
        _pair_rows(np.array(sys_a.basis_index_set), np.array(sys_b.basis_index_set)),
        _pair_rows(sys_a.eigenvalue_matrix(), sys_b.eigenvalue_matrix()),
        np.kron(sys_a.basis_matrix(), sys_b.basis_matrix()),
        _pair_rows(sys_a.points, sys_b.points),
        np.kron(sys_a.weights, sys_b.weights),
        name=f"{sys_a.name}(x){sys_b.name}",
    )
