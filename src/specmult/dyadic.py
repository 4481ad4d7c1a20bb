"""Dyadic analysis on the unit interval.

Generation averages, the dyadic maximal function, a fibered
Calderon-Zygmund decomposition by stopping-time cube selection, and
weak-L1 quasinorms.

The base space is [0, 1) carrying a uniform grid whose size is a power
of two, so every dyadic cube is an exact slice of grid points.  Fibered
data is an array whose last axis runs over the grid; leading axes index
fibers and are never mixed by any operation here.  A function sampled
on a ``GridFunction`` grid is passed as its values and weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import _check_size

__all__ = [
    "CZBad",
    "CZResult",
    "DyadicCube",
    "DyadicSystem",
    "cz_decompose",
    "dyadic_average",
    "dyadic_maximal",
    "dyadic_system",
    "weak_quasinorm",
]


@dataclass(frozen=True)
class DyadicCube:
    """One dyadic cube: a half-open subinterval holding a grid slice."""

    level: int
    lo: float
    hi: float
    measure: float
    start: int
    stop: int

    @property
    def slice(self) -> slice:
        return slice(self.start, self.stop)

    def __repr__(self) -> str:
        return f"DyadicCube(level={self.level}, [{self.lo:g}, {self.hi:g}))"


@dataclass(frozen=True)
class DyadicSystem:
    """Dyadic cubes over a uniform midpoint grid of n points on [0, 1).

    Level l splits the interval into 2**l half-open cubes; the finest
    level keeps at least four grid points per cube so cube averages
    stay meaningful.  Halving gives doubling constant 2 exactly.
    """

    n: int

    def __post_init__(self):
        if self.n < 8 or self.n & (self.n - 1):
            raise ValueError(f"n: grid size must be a power of two, at least 8, got {self.n}")

    @property
    def l_max(self) -> int:
        return self.n.bit_length() - 1 - 2

    @property
    def levels(self) -> range:
        return range(0, self.l_max + 1)

    @property
    def doubling_constant(self) -> float:
        return 2.0

    @property
    def points(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) / self.n

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.n, 1.0 / self.n)

    def check_level(self, l: int) -> None:
        if l not in self.levels:
            raise ValueError(f"level {l} outside available range 0..{self.l_max}")

    def cube(self, level: int, index: int) -> DyadicCube:
        self.check_level(level)
        count = 1 << level
        if not 0 <= index < count:
            raise ValueError(f"cube index {index} outside level {level}")
        width = 1.0 / count
        pts = self.n >> level
        return DyadicCube(
            level=level,
            lo=index * width,
            hi=(index + 1) * width,
            measure=width,
            start=index * pts,
            stop=(index + 1) * pts,
        )

    def cubes(self, level: int) -> tuple[DyadicCube, ...]:
        self.check_level(level)
        return tuple(self.cube(level, k) for k in range(1 << level))


def dyadic_system(n: int = 256) -> DyadicSystem:
    _check_size("n", n, 0)
    return DyadicSystem(n=int(n))


def dyadic_average(f, l: int, system: DyadicSystem) -> np.ndarray:
    """Generation-l conditional expectation: the cube average, per fiber.

    Constant on each level-l cube; uniform weights make the mu-average
    a plain mean over the cube's grid slice.
    """
    system.check_level(l)
    arr = np.asarray(f)
    if arr.shape[-1] != system.n:
        raise ValueError("last axis of f must match the system grid")
    pts = system.n >> l
    block = arr.reshape(arr.shape[:-1] + (1 << l, pts)).mean(axis=-1)
    return np.repeat(block, pts, axis=-1)


def dyadic_maximal(f, system: DyadicSystem) -> np.ndarray:
    """Pointwise sup over levels of the averages of |f|."""
    a = np.abs(np.asarray(f))
    out = np.zeros_like(a, dtype=float)
    for l in system.levels:
        np.maximum(out, dyadic_average(a, l, system), out=out)
    return out


@dataclass(frozen=True)
class CZBad:
    """One bad part: cube, the fibers that selected it, and b on them.

    ``values[i]`` holds b restricted to the cube's grid slice for fiber
    ``fibers[i]``; ``averages[i]`` is the stopping-time cube average of
    f there, so f = averages + values on the support.
    """

    cube: DyadicCube
    fibers: np.ndarray
    values: np.ndarray
    averages: np.ndarray

    def expand(self, n_fibers: int, n_grid: int) -> np.ndarray:
        out = np.zeros((n_fibers, n_grid))
        out[self.fibers[:, None], np.arange(self.cube.start, self.cube.stop)] = self.values
        return out


@dataclass(frozen=True)
class CZResult:
    """Decomposition f = good + sum of bad parts at a threshold."""

    good: np.ndarray
    bads: tuple[CZBad, ...]
    system: DyadicSystem
    n_fibers: int

    def selection_mask(self) -> np.ndarray:
        """Union of the supports S_j as a (fibers, grid) boolean mask."""
        mask = np.zeros((self.n_fibers, self.system.n), dtype=bool)
        for bad in self.bads:
            mask[bad.fibers[:, None], np.arange(bad.cube.start, bad.cube.stop)] = True
        return mask

    def bad_sum(self) -> np.ndarray:
        """Sum of the bad parts as one (fibers, grid) array.

        Each part is added into its own (fibers, cube) slice, so no
        full-size array is built per part; off the supports the sum is 0.
        """
        total = np.zeros((self.n_fibers, self.system.n))
        for bad in self.bads:
            total[bad.fibers, bad.cube.slice] += bad.values
        return total


def cz_decompose(f, s: float, system: DyadicSystem) -> CZResult:
    """Stopping-time Calderon-Zygmund split of a non-negative f.

    Per fiber, walks levels coarse to fine and selects the maximal
    cubes whose average first exceeds s (strictly; equality leaves a
    cube unselected).  The good part replaces f by the cube average on
    each selected cube; each bad part is f minus that average there,
    hence mean-zero on its cube.

    Parameters
    ----------
    f : array
        Non-negative samples, grid on the last axis; leading axes are
        fibers.
    s : float
        Positive stopping threshold.
    system : DyadicSystem

    Returns
    -------
    CZResult
        With ``good`` shaped as f and bad parts merged by cube identity
        across fibers.
    """
    if not s > 0:  # NaN included
        raise ValueError(f"threshold s must be positive, got {s!r}")
    arr = np.asarray(f)
    if arr.shape[-1] != system.n:
        raise ValueError("last axis of f must match the system grid")
    if not np.all(np.isfinite(arr)):
        raise ValueError("f must be finite")
    if np.any(arr < 0):
        raise ValueError("f must be non-negative")

    flat = arr.reshape(-1, system.n).astype(float)
    nf = flat.shape[0]
    good = flat.copy()
    bads: list[CZBad] = []
    covered = np.zeros((nf, 1), dtype=bool)
    for l in system.levels:
        pts = system.n >> l
        avg = flat.reshape(nf, 1 << l, pts).mean(axis=-1)
        if l > 0:
            covered = np.repeat(covered, 2, axis=1)
        selected = (avg > s) & ~covered
        covered |= selected
        for k in np.nonzero(selected.any(axis=0))[0]:
            fib = np.nonzero(selected[:, k])[0]
            cube = system.cube(l, int(k))
            a = avg[fib, k]
            b = flat[fib, cube.start : cube.stop] - a[:, None]
            good[fib, cube.start : cube.stop] = a[:, None]
            bads.append(CZBad(cube=cube, fibers=fib, values=b, averages=a))

    return CZResult(good=good.reshape(arr.shape), bads=tuple(bads), system=system, n_fibers=nf)


def weak_quasinorm(values, weights) -> float:
    """The L^{1,inf} quasinorm sup_s s * measure{|f| > s} on a grid.

    ``values`` holds f and ``weights`` the measure of each grid point, one
    per value.  The sup over continuous s of the piecewise-constant
    distribution function is approached just below each attained value,
    so it equals the max over distinct values v > 0 of v * measure{|f| >= v}.
    """
    a = np.abs(np.asarray(values, dtype=float).ravel())
    w = np.asarray(weights, dtype=float).ravel()
    if a.shape != w.shape:
        raise ValueError(f"weights: expected one per value ({a.size}), got {w.size}")
    if not np.all(np.isfinite(a)):
        raise ValueError("values: expected finite values")
    if not np.all((w >= 0) & np.isfinite(w)):
        raise ValueError("weights: expected finite non-negative weights")
    order = np.argsort(a)[::-1]
    a = a[order]
    cum = np.cumsum(w[order])
    positive = a > 0
    if not positive.any():
        return 0.0
    return float(np.max(a[positive] * cum[positive]))
