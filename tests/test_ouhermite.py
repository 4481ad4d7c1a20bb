import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from specmult import ouhermite
from specmult.ouhermite import (
    _mehler_dr_raw,
    _mehler_gamma_dr_raw,
    _w_dr_raw,
    _w_raw,
    apply_semigroup_kernel,
    hermite_basis,
    hermite_eval,
    lebesgue_weights,
    mehler_kernel,
    ou_system,
)
from specmult.products import product_grid, torus_heat_model
from specmult.spectral import MultiplierSpec, apply_multiplier, reconstruct


@pytest.fixture(scope="module")
def ou1():
    return ou_system(1, 16)


@pytest.fixture(scope="module")
def ou_dense():
    # Lebesgue-path kernel quadrature wants more nodes than the spectral
    # default, which only guarantees Gauss-Hermite polynomial exactness
    return ou_system(1, 16, 64)


def l2_gamma(sys_, values) -> float:
    return float(np.sqrt(sys_.weights @ np.abs(values) ** 2))


def test_hermite_h0_is_one():
    x = np.linspace(-3, 3, 7)
    assert np.allclose(hermite_eval((0,), x[:, None]), 1.0)


def test_hermite_h1_is_sqrt2_x():
    x = np.linspace(-3, 3, 7)
    assert np.allclose(hermite_eval((1,), x[:, None]), np.sqrt(2.0) * x, atol=1e-14)


def test_hermite_eval_takes_rows_only():
    # one point per row of x: a 1-D x is not guessed to be n scalars or one point
    x = np.array([0.5, 1.0])
    for k, bad in (((1,), x), ((1, 0), x), ((1, 0), x[:, None]), ((1,), x[None, :, None])):
        with pytest.raises(ValueError, match=rf"x: expected an \(n, {len(k)}\) array, got shape"):
            hermite_eval(k, bad)
    np.testing.assert_array_equal(hermite_eval((1, 0), x[None, :]), [np.sqrt(2.0) * 0.5])


def test_gamma_weights_are_probability():
    _, weights = hermite_basis(8)
    assert abs(weights.sum() - 1.0) < 1e-14


def test_orthonormality_matrix_identity():
    sys_ = ou_system(1, 8)
    assert sys_.orthonormality_defect() < 1e-10


def test_ou_eigenvalues_d1():
    sys_ = ou_system(1, 3)
    assert sorted(sys_.eigenvalue_matrix()[:, 0].tolist()) == [0, 1, 2, 3]


def test_ou_eigenvalue_multiplicity_d2():
    sys_ = ou_system(2, 2)
    assert np.count_nonzero(sys_.eigenvalue_matrix()[:, 0] == 2.0) == 3


def test_apply_eigenvalue_to_h21():
    sys_ = ou_system(2, 4)
    m = MultiplierSpec(1, lambda lam: np.atleast_2d(lam)[:, 0].astype(complex))
    i = sys_.position((2, 1))
    out = apply_multiplier(m, sys_, np.eye(len(sys_))[i])
    assert out[i] == 3.0


def test_mehler_closed_form_at_origin():
    value = mehler_kernel(0.5, 0.0, 0.0)
    assert abs(value - (0.75 * math.pi) ** -0.5) < 1e-15


def test_mehler_r_validation():
    for r in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError, match="strictly"):
            mehler_kernel(r, 0.0, 0.0)


def test_mehler_unit_lebesgue_mass(ou_dense):
    # closed Gaussian integral: int M_r(x,y) dy = 1 for every x and r
    leb = lebesgue_weights(ou_dense.points, ou_dense.weights)
    for r in (0.1, 0.5, 0.9):
        for x1 in (0.0, 0.7, -1.3):
            K = mehler_kernel(r, np.full((len(leb), 1), x1), ou_dense.points)
            assert abs(K @ leb - 1.0) < 1e-8


def test_mehler_eigenrelation_via_kernel(ou1):
    # r^L H_k = r^{|k|} H_k; compared in L2(gamma), the norm in which the
    # basis is orthonormal (the sup over raw grid nodes is dominated by
    # points of negligible gamma-weight where H_k is astronomically large)
    for r in (0.3, 0.5, 0.8):
        for k in (0, 1, 5, 12):
            f = reconstruct(np.eye(len(ou1))[ou1.position((k,))], ou1)
            g = apply_semigroup_kernel(r, f)
            assert l2_gamma(ou1, g.values - r**k * f.values) < 1e-8


def _pair(x1, y1):
    """One 1-d pair as (1, 1, 1) arrays: the T split's (n, 1, d) and (1, n, d) points at n = d = 1."""
    return np.array([[[x1]]]), np.array([[[y1]]])


def test_mehler_dr_matches_finite_difference():
    h = 1e-5
    for r, x1, y1 in [(0.5, 0.3, -0.7), (0.2, 1.1, 0.9), (0.8, -0.4, 0.1)]:
        exact = float(_mehler_dr_raw(r, 1 - r, *_pair(x1, y1))[0, 0])
        fd = (
            mehler_kernel(r + h, x1, y1)
            - mehler_kernel(r - h, x1, y1)
        ) / (2 * h)
        assert abs(exact - fd) / abs(fd) < 1e-6


def test_mehler_dr_at_origin_closed_form():
    for r in (0.2, 0.5, 0.9):
        expected = math.pi**-0.5 * r * (1 - r * r) ** -1.5
        assert abs(float(_mehler_dr_raw(r, 1 - r, *_pair(0.0, 0.0))[0, 0]) - expected) < 1e-13


def test_mehler_dr_growth_constant_finite():
    # |dM_r/dr| <= C_eps (1+|x1|) away from r in {0,1}; assert the
    # empirical constant over a grid is finite
    eps = 0.1
    rs = np.linspace(eps, 1 - eps, 9)
    xs = np.linspace(-3, 3, 13)
    worst = 0.0
    for r in rs:
        vals = np.abs(_mehler_dr_raw(r, 1 - r, xs[:, None, None], xs[None, :, None]))
        worst = max(worst, float(np.max(vals / (1.0 + np.abs(xs[:, None])))))
    assert math.isfinite(worst) and worst > 0


def test_mehler_dimension_comes_from_points():
    # d is the length of the points' trailing axis: a 2-d pair gets the 2-d
    # normalization pi^{-1} (1-r^2)^{-1}, not the 1-d one
    one_d = (0.75 * math.pi) ** -0.5 * math.exp(-((0.05 - 0.2) ** 2) / 0.75)
    two_d = (0.75 * math.pi) ** -1.0 * math.exp(-((0.05 - 0.2) ** 2) / 0.75)
    assert mehler_kernel(0.5, 0.1, 0.2) == pytest.approx(one_d, rel=1e-15)
    assert mehler_kernel(0.5, [0.1, 0.0], [0.2, 0.0]) == pytest.approx(two_d, rel=1e-15)


_ORACLE_PAIRS = [
    ([0.0], [0.0]),
    ([0.3], [-0.7]),
    ([1.5], [1.2]),
    ([0.2, -0.4], [0.5, 0.1]),
    ([-1.0, 0.6], [-0.8, 0.9]),
]


def _gaussian_mp(r, z):
    """pi^{-d/2} (1-r^2)^{-d/2} exp(-|z|^2/(1-r^2)) in mpmath precision."""
    s = 1 - r * r
    d = mpmath.mpf(len(z))
    return mpmath.pi ** (-d / 2) * s ** (-d / 2) * mpmath.exp(-sum(v * v for v in z) / s)


_ORACLE_R = [0.05, 0.3, 0.5, 0.8, 0.95, 0.99]


def _oracle_derivatives(r, x1, y1):
    """(dM_r/dr(x1, y1), dW_r/dr(x1 - y1)) by mpmath.diff of the closed forms at 30 digits."""
    with mpmath.workdps(30):
        x, y = [mpmath.mpf(v) for v in x1], [mpmath.mpf(v) for v in y1]
        dm = float(mpmath.diff(lambda t: _gaussian_mp(t, [t * a - b for a, b in zip(x, y)]), r))
        dw = float(mpmath.diff(lambda t: _gaussian_mp(t, [a - b for a, b in zip(x, y)]), r))
    return dm, dw


@pytest.mark.parametrize("r", _ORACLE_R)
def test_mehler_dr_and_w_dr_match_mpmath(r):
    # a scalar r against (n, 1, d) and (1, n, d) points, as in the T split:
    # entry (i, j) belongs to the pair (x_i, x_j)
    for x1, y1 in _ORACLE_PAIRS:
        x = np.array([x1, y1], dtype=float)
        md = _mehler_dr_raw(r, 1 - r, x[:, None, :], x[None, :, :])
        wd = _w_dr_raw(r, 1 - r, x[:, None, :] - x[None, :, :])
        assert md.shape == wd.shape == (2, 2)
        dm, dw = _oracle_derivatives(r, x1, y1)
        assert md[0, 1] == pytest.approx(dm, rel=1e-12)
        assert wd[0, 1] == pytest.approx(dw, rel=1e-12)
        dm, dw = _oracle_derivatives(r, y1, x1)
        assert md[1, 0] == pytest.approx(dm, rel=1e-12)
        assert wd[1, 0] == pytest.approx(dw, rel=1e-12)


def test_kernel_derivatives_on_r_nodes_match_mpmath():
    # an array of r-nodes against (pairs, 1, d) points, as in the comparison
    # kernel's quadrature: entry (p, k) belongs to pair p at r-node k
    r = np.array(_ORACLE_R)
    for d in (1, 2):
        pairs = [(x1, y1) for x1, y1 in _ORACLE_PAIRS if len(x1) == d]
        x = np.array([x1 for x1, _ in pairs], dtype=float)[:, None, :]
        y = np.array([y1 for _, y1 in pairs], dtype=float)[:, None, :]
        md = _mehler_dr_raw(r, 1 - r, x, y)
        wd = _w_dr_raw(r, 1 - r, x - y)
        assert md.shape == wd.shape == (len(pairs), len(r))
        for p, (x1, y1) in enumerate(pairs):
            for k, rk in enumerate(_ORACLE_R):
                dm, dw = _oracle_derivatives(rk, x1, y1)
                assert md[p, k] == pytest.approx(dm, rel=1e-12)
                assert wd[p, k] == pytest.approx(dw, rel=1e-12)


def _gamma_kernel_mp(r, x, y):
    """K_r(x, y) = (1-r^2)^{-d/2} exp(-r (r (|x|^2 + |y|^2) - 2 x.y) / (1-r^2)) in mpmath precision."""
    s = 1 - r * r
    p = sum(v * v for v in x) + sum(v * v for v in y)
    q = sum(a * b for a, b in zip(x, y))
    return s ** (-mpmath.mpf(len(x)) / 2) * mpmath.exp(-r * (r * p - 2 * q) / s)


# the oracle pairs and two farther out, where the exponent of K_r is large
_GAMMA_ORACLE_PAIRS = _ORACLE_PAIRS + [([4.0], [3.5]), ([3.0, -2.0], [2.5, -2.5])]


@pytest.mark.parametrize("d", [1, 2])
def test_mehler_gamma_dr_matches_mpmath_and_the_lebesgue_kernel(d):
    # dK_r/dr for the kernel against gamma, K_r = pi^{d/2} e^{|y|^2} M_r, on an
    # r-block against (n, 1, d) and (1, n, d) points, as in the T split
    pairs = [(x1, y1) for x1, y1 in _GAMMA_ORACLE_PAIRS if len(x1) == d]
    x = np.array([v for pair in pairs for v in pair], dtype=float)
    r = np.array(_ORACLE_R)
    kd = _mehler_gamma_dr_raw(r[:, None, None], 1 - r[:, None, None], x[:, None, :], x[None, :, :])
    assert kd.shape == (len(r), len(x), len(x))
    # symmetric and even bit for bit
    assert np.array_equal(kd, kd.transpose(0, 2, 1))
    assert np.array_equal(_mehler_gamma_dr_raw(r[:, None, None], 1 - r[:, None, None], -x[:, None, :], -x[None, :, :]), kd)
    # pi^{d/2} e^{|y|^2} dM_r/dr with y the column point
    md = _mehler_dr_raw(r[:, None, None], 1 - r[:, None, None], x[:, None, :], x[None, :, :])
    lebesgue = np.pi ** (d / 2) * np.exp(np.sum(x * x, axis=1)) * md
    np.testing.assert_allclose(kd, lebesgue, rtol=1e-12, atol=0)
    for p in range(len(pairs)):
        i, j = 2 * p, 2 * p + 1
        for k, rk in enumerate(_ORACLE_R):
            with mpmath.workdps(30):
                xs, ys = ([mpmath.mpf(float(v)) for v in x[n]] for n in (i, j))
                want = float(mpmath.diff(lambda t: _gamma_kernel_mp(t, xs, ys), rk))
            assert kd[k, i, j] == pytest.approx(want, rel=1e-12)


def test_hermite_basis_rule_is_shared_and_read_only(monkeypatch):
    # built once per node count and shared: a second call returns the same
    # read-only arrays, hermgauss scaled to the Gaussian measure, and the OU
    # system and the product grid of one size build one rule between them
    builds = []

    def counting(n):
        builds.append(n)
        return hermgauss(n)

    monkeypatch.setattr(ouhermite, "hermgauss", counting)
    ouhermite._hermite_rule.cache_clear()
    try:
        nodes, weights = hermite_basis(16, 40)
        want_nodes, want_w = hermgauss(40)
        assert np.array_equal(nodes, want_nodes) and np.array_equal(weights, want_w / np.sqrt(np.pi))
        assert not nodes.flags.writeable and not weights.flags.writeable
        again = hermite_basis(12, 40)
        assert again[0] is nodes and again[1] is weights
        ou_system(1, 16, 40)
        product_grid(torus_heat_model(), 1, 16, 8, n_x=40)
        assert builds == [40]
    finally:
        ouhermite._hermite_rule.cache_clear()  # drop the rules built through the patched name


def test_hermite_basis_rejects_node_counts_numpy_cannot_weight():
    # hermgauss(371) gives a zero weight and hermgauss(372) NaN weights
    nodes, weights = hermite_basis(16, 370)
    assert len(nodes) == 370 and weights.min() > 0.0
    for n in (371, 372, 1000):
        with pytest.raises(ValueError, match=f"n_nodes: at most 370 Gauss-Hermite nodes, got {n}"):
            ou_system(1, 16, n_nodes=n)
    with pytest.raises(ValueError, match="n_nodes: need at least k_max"):
        hermite_basis(16, 16)


def test_gauss_hermite_nodes_are_mirrored_bit_for_bit():
    # the T split evaluates half of the x1 rows and mirrors the rest
    for n in range(2, 257):
        nodes, _ = hermite_basis(1, n)
        assert np.array_equal(nodes[::-1], -nodes), n


@pytest.mark.parametrize("d", [1, 2])
def test_mehler_dr_on_an_r_block_is_per_node_and_even(d):
    # the T split's convention: an r-block against (rows, 1, d) and (1, n, d)
    # points gives entry (k, i, j) for r-node k and the pair (x_i, x_j)
    x = ou_system(d, 4, 9).points
    r = np.linspace(0.05, 0.95, 7)
    block = _mehler_dr_raw(r[:, None, None], 1 - r[:, None, None], x[:5, None, :], x[None, :, :])
    assert block.shape == (len(r), 5, len(x))
    for k, rk in enumerate(r):
        assert np.array_equal(block[k], _mehler_dr_raw(float(rk), 1 - float(rk), x[:5, None, :], x[None, :, :]))
    full = _mehler_dr_raw(r[:, None, None], 1 - r[:, None, None], x[:, None, :], x[None, :, :])
    assert np.array_equal(_mehler_dr_raw(r[:, None, None], 1 - r[:, None, None], -x[:, None, :], -x[None, :, :]), full)
    # x[::-1] == -x on the product grid, so row n-1-i is row i reversed
    assert np.array_equal(full[:, ::-1, ::-1], full)
    # dW_r/dr as the batched Ktilde quadrature calls it, on differences x_i - x_j
    z = x[:, None, :] - x[None, :, :]
    block = _w_dr_raw(r[:, None, None], 1 - r[:, None, None], z[:5])
    assert block.shape == (len(r), 5, len(x))
    for k, rk in enumerate(r):
        assert np.array_equal(block[k], _w_dr_raw(float(rk), 1 - float(rk), z[:5]))
    full = _w_dr_raw(r[:, None, None], 1 - r[:, None, None], z)
    assert np.array_equal(_w_dr_raw(r[:, None, None], 1 - r[:, None, None], -z), full)
    assert np.array_equal(full[:, ::-1, ::-1], full)


def test_w_kernel_matches_mehler_at_origin():
    for r in (0.3, 0.6):
        assert float(_w_raw(1 - r, np.zeros(1))) == mehler_kernel(r, 0.0, 0.0)


def test_w_dr_matches_finite_difference():
    h = 1e-5
    for r, z in [(0.5, 0.4), (0.25, -1.0), (0.75, 0.05)]:
        z = np.array([z])
        exact = float(_w_dr_raw(r, 1 - r, z))
        fd = (float(_w_raw(1 - (r + h), z)) - float(_w_raw(1 - (r - h), z))) / (2 * h)
        assert abs(exact - fd) / abs(fd) < 1e-6


def test_w_dr_integral_bounded_by_inverse_power():
    from scipy.integrate import quad

    # int_0^1 |dW_r/dr| dr <~ |z|^{-d}; the ratio must stay bounded
    ratios = []
    for z in np.geomspace(0.05, 2.0, 12):
        total, _ = quad(lambda r: abs(float(_w_dr_raw(r, 1 - r, np.array([z])))), 0.0, 1.0, limit=200)
        ratios.append(total * z)
    assert max(ratios) < 10.0


def test_semigroup_preserves_constants(ou1):
    ones = ou1.grid_function(np.ones(len(ou1.weights)))
    out = apply_semigroup_kernel(0.4, ones)
    assert np.max(np.abs(out.values - 1.0)) < 1e-8


def test_semigroup_scales_h2(ou1):
    f = reconstruct(np.eye(len(ou1))[ou1.position((2,))], ou1)
    out = apply_semigroup_kernel(0.6, f)
    assert np.max(np.abs(out.values - 0.36 * f.values)) < 1e-8


def test_semigroup_law(ou_dense):
    f = reconstruct(ou_dense.random_coefficients(np.random.default_rng(5)), ou_dense)
    one_step = apply_semigroup_kernel(0.28, f)
    two_step = apply_semigroup_kernel(0.7, apply_semigroup_kernel(0.4, f))
    assert np.max(np.abs(two_step.values - one_step.values)) < 1e-8


def test_semigroup_spectral_agreement_band_limited(ou1):
    k_max = 16
    for r in (0.3, 0.5, 0.8):
        for k in range(0, k_max - 4 + 1, 3):
            f = reconstruct(np.eye(len(ou1))[ou1.position((k,))], ou1)
            g = apply_semigroup_kernel(r, f)
            assert l2_gamma(ou1, g.values - r**k * f.values) < 1e-8


def test_semigroup_lp_contractivity(ou1):
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = reconstruct(ou1.random_coefficients(rng), ou1)
        g = apply_semigroup_kernel(0.45, f)
        for p in (1.0, 2.0, 4.0, math.inf):
            assert g.norm_lp(p) <= f.norm_lp(p) * (1.0 + 1e-10)


def test_ou_system_dimension_validation():
    with pytest.raises(ValueError, match="1 or 2"):
        ou_system(3, 4)
