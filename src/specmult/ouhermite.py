"""Ornstein-Uhlenbeck spectral toolbox on L^2(R^d, gamma).

gamma is the Gaussian probability measure pi^{-d/2} e^{-|x|^2} dx.  The
normalized Hermite polynomials H_k are an orthonormal eigenbasis of the OU
operator with eigenvalue |k| = k_1 + ... + k_d.  The semigroup r^L (r = e^{-t})
has the Gaussian kernel M_r against *Lebesgue* measure and the symmetric
kernel K_r = pi^{d/2} e^{|y|^2} M_r against gamma; W_r is the matching
convolution kernel used for comparison estimates.  One Gauss-Hermite grid
serves both measures: Lebesgue weights are the gamma weights divided by the
gamma density.

Formulas for the r-derivatives are stated in closed form and are unit-tested
against central finite differences.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .spectral import GridFunction, SpectralSystem, _check_size, _pair_rows

__all__ = [
    "hermite_basis",
    "hermite_vandermonde",
    "hermite_eval",
    "ou_system",
    "lebesgue_weights",
    "mehler_kernel",
    "apply_semigroup_kernel",
]

_MAX_HERMITE_NODES = 370  # hermgauss(371) has a zero weight


def hermite_vandermonde(k_max: int, x: np.ndarray) -> np.ndarray:
    """Values of the gamma-normalized 1-d Hermite polynomials.

    Returns the (k_max+1, len(x)) array V with V[n] = H_n(x), where
    ||H_n||_{L^2(gamma)} = 1.  Three-term recurrence:
    H_{n+1} = x*sqrt(2/(n+1))*H_n - sqrt(n/(n+1))*H_{n-1}.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    V = np.empty((k_max + 1, len(x)))
    V[0] = 1.0
    if k_max >= 1:
        V[1] = np.sqrt(2.0) * x
    for n in range(1, k_max):
        V[n + 1] = x * np.sqrt(2.0 / (n + 1)) * V[n] - np.sqrt(n / (n + 1.0)) * V[n - 1]
    return V


def hermite_eval(k, x) -> np.ndarray:
    """H_k(x) for a multi-index k, a sequence of d ints, at points x of shape (n, d)."""
    k = tuple(int(e) for e in k)
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != len(k):
        raise ValueError(f"x: expected an (n, {len(k)}) array, got shape {x.shape}")
    out = np.ones(x.shape[0])
    for axis, kj in enumerate(k):
        out *= hermite_vandermonde(kj, x[:, axis])[kj]
    return out


def hermite_basis(k_max: int, n_nodes: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Hermite rule for degrees up to k_max on one axis: (nodes, weights).

    The weights are those of the Gaussian probability measure, so they sum to 1.
    At most 370 nodes: from 371 NumPy's ``hermgauss`` underflows to a zero
    weight, and from 372 to NaN weights.

    Built once per node count on first use and shared by every caller, so
    both arrays are read-only.
    """
    _check_size("k_max", k_max, 0)
    if n_nodes is None:
        n_nodes = default_node_count(k_max)
    if n_nodes < k_max + 1:
        raise ValueError(f"n_nodes: need at least k_max+1 = {k_max + 1} Gauss-Hermite nodes, got {n_nodes}")
    if n_nodes > _MAX_HERMITE_NODES:
        raise ValueError(f"n_nodes: at most {_MAX_HERMITE_NODES} Gauss-Hermite nodes, got {n_nodes}")
    return _hermite_rule(n_nodes)


@lru_cache(maxsize=32)
def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, w = hermgauss(n)
    weights = w / np.sqrt(np.pi)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def default_node_count(k_max: int) -> int:
    # enough slack that kernel-path semigroup integrals hold to 1e-8
    return max(2 * k_max + 8, 48)


def _product_grid(nodes: np.ndarray, weights: np.ndarray, d: int):
    pts, w = nodes[:, None], weights
    for _ in range(d - 1):
        pts, w = _pair_rows(pts, nodes[:, None]), np.kron(w, weights)
    return pts, w


def ou_system(d: int, k_max: int, n_nodes: int | None = None) -> SpectralSystem:
    """The truncated OU eigen-system: indices {|k| <= k_max}, eigenvalue |k|.

    The ATL flag is false: k = 0 carries eigenvalue 0.
    """
    if d not in (1, 2):
        raise ValueError("dimension d must be 1 or 2")
    nodes, weights = hermite_basis(k_max, n_nodes)
    pts, wts = _product_grid(nodes, weights, d)

    if d == 1:
        indices = np.arange(k_max + 1)[:, None]
    else:
        k1, k2 = np.triu_indices(k_max + 1)
        indices = np.column_stack([k1, k2 - k1])  # k1 + k2 <= k_max, k1 major

    V = hermite_vandermonde(k_max, nodes)
    B = V[indices[:, 0]]
    if d == 2:
        n = len(nodes)
        B = (B[:, :, None] * V[indices[:, 1]][:, None, :]).reshape(len(indices), n * n)

    return SpectralSystem(
        basis_index_set=indices,
        eigenvalues=indices.sum(axis=1, keepdims=True).astype(float),
        basis=B,
        points=pts,
        weights=wts,
        name=f"ou(d={d},K={k_max})",
    )


def lebesgue_weights(points: np.ndarray, gamma_weights: np.ndarray) -> np.ndarray:
    """Convert gamma-measure weights to Lebesgue weights on the same (n, d) grid."""
    points = np.asarray(points, dtype=float)
    return gamma_weights * np.pi ** (points.shape[1] / 2.0) * np.exp(np.sum(points**2, axis=1))


def _check_r(r: float) -> None:
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie strictly in (0,1), got {r}")


def _mehler_kernel_raw(omega, x1, y1):
    """M_r(x1, y1) = W_r(r x1 - y1) at omega = 1 - r, with broadcasting; the
    trailing axis is the space axis.  r x1 - y1 is formed as (x1 - y1) - omega x1,
    which keeps its digits near the diagonal as r nears 1."""
    omega = np.asarray(omega, dtype=float)
    return _w_raw(omega, (x1 - y1) - (omega[..., None] * x1 if omega.ndim else omega * x1))


def _mehler_dr_raw(r, omega, x1, y1):
    """Exact r-derivative dM_r/dr(x1, y1) = pi^{-d/2} e^{-|y1|^2} dK_r/dr(x1, y1).

    Broadcast as _mehler_gamma_dr_raw, with at least one point axis in
    front of the space axis.
    """
    d = np.broadcast_shapes(np.shape(x1), np.shape(y1))[-1]
    return np.pi ** (-d / 2.0) * np.exp(-np.sum(y1 * y1, axis=-1)) * _mehler_gamma_dr_raw(r, omega, x1, y1)


def _mehler_gamma_dr_raw(r, omega, x1, y1):
    """Exact r-derivative dK_r/dr(x1, y1) of the Mehler kernel against gamma.

    r and omega = 1 - r are given together, each to full relative accuracy:
    no factor 1 - r is formed from r, so the value keeps its digits as r
    nears 1, where the kernel's features sit at 1 - r ~ |x1 - y1|^2.

    K_r = pi^{d/2} e^{|y1|^2} M_r = s^{-d/2} exp(-r (r (|x1|^2 + |y1|^2) - 2 x1.y1) / s),
    s = 1 - r^2 = omega (2 - omega), is the kernel of r^L against gamma.  r^L
    is self-adjoint there, so K_r is symmetric; it is also even under
    (x1, y1) -> (-x1, -y1).  With D = |x1 - y1|^2 and Q = x1 . y1 its exponent is
    -r^2 D / s + 2 r Q / (1 + r), at most (|x1|^2 + |y1|^2) / 2, and

        dK_r/dr = s^{-d/2-1} [d r - 2 r D / s + 2 omega Q / (1 + r)] exp(...).

    In D and Q no two large terms cancel, as they would in |x1|^2 + |y1|^2
    against 2 Q far from the origin, and both are symmetric and even bit for
    bit, so the result is too.  The trailing axis of the points is the space
    axis, and r and omega broadcast against the point axes in front of it, of
    which there must be at least one.  The T split passes its r-nodes as a
    column, r[:, None], against one row of x1 and y1 per point pair, and gets
    an (nodes, pairs) array; the r-only factors are formed on the column
    before they meet the pair axis.
    """
    r = np.asarray(r, dtype=float)
    omega = np.asarray(omega, dtype=float)
    z = x1 - y1
    d = z.shape[-1]
    D = np.sum(z * z, axis=-1)
    Q = np.sum(x1 * y1, axis=-1)
    s = omega * (2.0 - omega)
    # np.power even for a scalar r, whose s ** would take the C library's pow:
    # it can differ from NumPy's vectorized pow in the last bit, and a value
    # must not depend on whether its r-node came alone or in a block
    c = np.power(s, -d / 2.0 - 1.0)
    e = (2.0 * r / (1.0 + r)) * Q
    e -= (r * r / s) * D
    np.exp(e, out=e)
    k = (c * 2.0 * omega / (1.0 + r)) * Q
    k -= (c * 2.0 * r / s) * D
    k += c * d * r
    k *= e
    return k


def mehler_kernel(r: float, x1, y1):
    """M_r(x1, y1) = pi^{-d/2} (1-r^2)^{-d/2} exp(-|r x1 - y1|^2 / (1-r^2)).

    This is the kernel of r^L against Lebesgue measure in y1; it is positive
    and has unit Lebesgue mass in y1 for every x1.  The trailing axis of the
    points is the space axis; d is its length after broadcasting.  Scalar
    points are read as 1-d, and a 0-d result is returned as a float.
    """
    _check_r(r)
    x1, y1 = (np.atleast_1d(np.asarray(p, dtype=float)) for p in (x1, y1))
    out = _mehler_kernel_raw(np.asarray(1.0 - r), x1, y1)
    return float(out) if np.ndim(out) == 0 else out


def _w_raw(omega, z):
    """Comparison kernel W_r(z) = pi^{-d/2} s^{-d/2} exp(-|z|^2/s) at omega = 1 - r.

    s = 1 - r^2 = omega (2 - omega).  The trailing axis of z is the space axis.
    """
    omega = np.asarray(omega, dtype=float)
    z = np.asarray(z, dtype=float)
    d = z.shape[-1]
    q = np.sum(z**2, axis=-1)
    s = omega * (2.0 - omega)
    return np.pi ** (-d / 2.0) * s ** (-d / 2.0) * np.exp(-q / s)


def _w_dr_raw(r, omega, z):
    """Exact r-derivative dW_r/dr(z) at r and omega = 1 - r, broadcast like _w_raw."""
    r = np.asarray(r, dtype=float)
    omega = np.asarray(omega, dtype=float)
    z = np.asarray(z, dtype=float)
    d = z.shape[-1]
    q = np.sum(z**2, axis=-1)
    s = omega * (2.0 - omega)
    # np.power for the same reason as in _mehler_gamma_dr_raw
    return np.pi ** (-d / 2.0) * r * np.power(s, -d / 2.0 - 1.0) * np.exp(-q / s) * (d - 2.0 * q / s)


def apply_semigroup_kernel(r: float, f: GridFunction) -> GridFunction:
    """Kernel-path application of r^L to a function on the OU gamma-grid.

    The integral r^L f(x) = int M_r(x, y) f(y) dy is taken against Lebesgue
    measure, so the gamma weights of the grid are divided by the gamma
    density.  Agrees with the spectral path (coefficient scaling r^{|k|})
    for band-limited f in L^2(gamma).  The kernel narrows as r -> 1, so
    quadrature accuracy there needs more nodes than the spectral default.
    """
    _check_r(r)
    leb = lebesgue_weights(f.points, f.weights)
    K = _mehler_kernel_raw(np.asarray(1.0 - r), f.points[:, None, :], f.points[None, :, :])
    return f.with_values(K @ (leb * f.values))
