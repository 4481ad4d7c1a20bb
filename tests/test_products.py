import ast
import dataclasses
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import roots_legendre

from specmult import cli, products, spectral
from specmult.ouhermite import _mehler_dr_raw, _mehler_gamma_dr_raw, _w_dr_raw, lebesgue_weights, ou_system
from specmult.products import (
    _ball_volume_rows,
    _eta_rows,
    _r_quadrature,
    KappaSpec,
    apply_T_split,
    cz_growth_check,
    cz_smooth_check,
    di_bound_ratio,
    di_integral,
    euclidean_heat_model,
    in_local_region,
    kappa_imag,
    kappa_indicator,
    kappa_one,
    kernel_Ktilde,
    local_mask,
    m_kappa,
    multiplier_from_kappa,
    product_grid,
    sample_local_pairs,
    sample_product_pairs,
    sample_product_triples,
    smallest_log_constant,
    torus_heat_model,
    torus_system,
)
from specmult.spectral import apply_multiplier, gauss_legendre, reconstruct, tensor

# frozen regression values (seeded samplers, default quadrature)
KTILDE_GROWTH_R1 = 0.1654779510228895      # x=(0,0), y=(1,1), chi_[0.1,0.9], R x R
# the D_I values come from the 30-digit oracle of test_di_matches_mpmath_oracle
DI_HALF = 1.1371932196464576               # D_I((0.5,0), (0.6,0))
DI_RATIO_HALF = 0.07581288130976382
DI_RATIO_SUP_D2 = 0.22626654432876597      # 100 pairs, seed 321
DI_LOG_C0 = 1.086618718663151              # 40 pairs, seed 99, d=1
DI_RATIO_SUP_D1 = 0.27395070930910476      # same sample, C0=4
CZ_GROWTH_SUP = 0.5209168935166102         # 200 pairs, seed 7
CZ_SMOOTH_SUP = 2.6104116782059372         # 200 triples, seed 8

# the zero profile: every kernel and multiplier built from it vanishes
KAPPA_ZERO = KappaSpec(
    evaluate=lambda r: np.zeros_like(np.asarray(r, dtype=float), dtype=complex),
    support=(0.25, 0.75),
    sup_norm=0.0,
    closed_form=lambda lam, a: 0.0 * lam,
    name="zero",
)


@pytest.fixture(scope="module")
def euclid1():
    return euclidean_heat_model(1)


@pytest.fixture(scope="module")
def torus():
    return torus_heat_model()


@pytest.fixture(scope="module")
def kid():
    return kappa_indicator(0.1, 0.9)


# -- Laplace-transform-type multipliers ---------------------------------------


def test_m_kappa_riesz_closed_form():
    assert m_kappa(1.0, 1.0, kappa_one()) == 0.5


def test_m_kappa_imaginary_power():
    k = kappa_imag(1.0)
    expect = 0.5 * np.exp(-1j * math.log(2.0))
    assert abs(m_kappa(1.0, 1.0, k) - expect) < 1e-15


def test_m_kappa_indicator():
    k = kappa_indicator(0.1, 0.9)
    c = 3.0
    expect = 2.0 * (0.9**c - 0.1**c) / c
    assert m_kappa(2.0, 1.0, k) == pytest.approx(expect, rel=1e-15)


def _kappa_imag_mp(u):
    g = mpmath.gamma(1 + 1j * u)
    return lambda t: t ** (1j * u) / g


# each closed form against its defining integral: kappa in t and the t-interval it lives on,
# built inside the 30-digit context; chi[lo, hi] in r is the indicator of t in [-log hi, -log lo]
_LAPLACE_MP = [
    (kappa_one(), lambda: (lambda t: 1, [0, mpmath.inf])),
    (kappa_imag(0.5), lambda: (_kappa_imag_mp(0.5), [0, mpmath.inf])),
    (kappa_imag(2.0), lambda: (_kappa_imag_mp(2.0), [0, mpmath.inf])),
    (kappa_indicator(0.1, 0.9), lambda: (lambda t: 1, [-mpmath.log(mpmath.mpf(0.9)), -mpmath.log(mpmath.mpf(0.1))])),
]


@pytest.mark.parametrize("kappa, kappa_mp", _LAPLACE_MP, ids=[k.name for k, _ in _LAPLACE_MP])
def test_m_kappa_numeric_matches_mpmath(kappa, kappa_mp):
    # m_kappa = lam int_0^inf e^{-(lam + a)t} kappa(t) dt by a 30-digit mpmath.quad,
    # the half-line split at 1/(lam + a), where e^{-(lam + a)t} has fallen by 1/e
    for lam in (0.07, 0.5, 1.0, 3.0, 40.0, 400.0):
        for a in (0.0, 0.3, 2.0, 39.48):
            with mpmath.workdps(30):
                f, (lo, hi) = kappa_mp()
                c = mpmath.mpf(lam) + mpmath.mpf(a)
                cuts = [lo, hi] if hi != mpmath.inf else [lo, 1 / c, hi]
                want = complex(mpmath.mpf(lam) * mpmath.quad(lambda t: mpmath.exp(-c * t) * f(t), cuts))
            assert abs(m_kappa(lam, a, kappa) - want) <= 1e-14 * abs(want), (lam, a)


def test_m_kappa_zero_eigenvalue_convention():
    assert m_kappa(0.0, 2.0, kappa_one()) == 0.0


def test_m_kappa_indeterminate_origin():
    with pytest.raises(ValueError, match="indeterminate"):
        m_kappa(0.0, 0.0, kappa_one())


def test_m_kappa_rejects_negative_arguments():
    with pytest.raises(ValueError, match="lam >= 0"):
        m_kappa(-1.0, 1.0, kappa_one())


def test_m_kappa_zero_profile():
    assert m_kappa(3.0, 1.0, KAPPA_ZERO) == 0.0


def test_multiplier_from_kappa():
    m = multiplier_from_kappa(kappa_one())
    assert m.arity == 2
    vals = m(np.array([[1.0, 1.0], [2.0, 2.0]]))
    assert np.allclose(vals, [0.5, 0.5])


@pytest.mark.parametrize(
    "kappa", [kappa_one(), kappa_imag(1.5), kappa_indicator(0.2, 0.7), KAPPA_ZERO], ids=lambda k: k.name
)
def test_multiplier_from_kappa_rows_match_m_kappa(kappa):
    # the closed form on all rows at once against m_kappa point by point;
    # NumPy's array power differs from Python's scalar power by a few ulp
    lam = np.array([[0.0, 1.0], [0.0, 3.5], [1.0, 0.0], [2.0, 1.0], [0.3, 7.0], [12.0, 39.4784]])
    got = multiplier_from_kappa(kappa)(lam)
    want = np.array([m_kappa(float(l), float(a), kappa) for l, a in lam])
    np.testing.assert_allclose(got, want, rtol=2e-15, atol=0.0)
    assert np.all(got[:2] == 0.0)
    with pytest.raises(ValueError, match="indeterminate"):
        multiplier_from_kappa(kappa)(np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="lam >= 0"):
        multiplier_from_kappa(kappa)(np.array([[-1.0, 1.0]]))


def test_m_kappa_needs_a_closed_form(kid):
    # the kernel side reads only kappa's values, the spectral side only its closed form
    bare = dataclasses.replace(kid, closed_form=None)
    with pytest.raises(ValueError, match="closed_form"):
        m_kappa(2.0, 1.0, bare)
    with pytest.raises(ValueError, match="closed_form"):
        multiplier_from_kappa(bare)


def test_kappa_spec_validation():
    with pytest.raises(ValueError, match="support"):
        KappaSpec(evaluate=lambda r: r, support=(0.5, 0.2), sup_norm=1.0)
    for sup_norm in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"sup_norm must be finite and >= 0, got {sup_norm}"):
            KappaSpec(evaluate=lambda r: r, support=(0.1, 0.9), sup_norm=sup_norm)
    # a NaN u gives a NaN Gamma(1 + iu), and with it a NaN sup_norm
    with pytest.raises(ValueError, match="sup_norm must be finite and >= 0, got nan"):
        kappa_imag(math.nan)
    with pytest.raises(ValueError, match=r"lo, hi: need 0 < lo < hi < 1, got lo=0.0, hi=0.9"):
        kappa_indicator(0.0, 0.9)


# -- heat kernel models --------------------------------------------------------


def test_euclidean_gaussian_bound_is_tight(euclid1):
    # (C, c) = (omega_m (4 pi)^{-m/2}, 1/4) makes the bound an identity
    C, c = euclid1.gauss_constants
    for t in (0.01, 0.1, 1.0, 5.0):
        for z in (0.0, 0.3, 2.0):
            lhs = euclid1.kernel(t, np.array([z]), np.array([0.0]))
            rhs = C / euclid1.ball_volume(np.array([0.0]), math.sqrt(t)) * math.exp(-c * z * z / t)
            assert lhs <= rhs * (1.0 + 1e-12)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_torus_gaussian_bound_on_lattice(torus):
    C, c = torus.gauss_constants
    for t in -np.log(np.linspace(0.05, 0.95, 19)):
        for z in np.linspace(0.0, 0.5, 11):
            lhs = torus.kernel(float(t), np.array([z]), np.array([0.0]))
            vol = torus.ball_volume(np.array([0.0]), math.sqrt(t))
            assert lhs <= C / vol * math.exp(-c * z * z / t) * (1.0 + 1e-12)


def test_kernel_mass_contraction(euclid1, torus):
    pts, w = euclid1.grid(64)
    for t in (0.04, 0.25, 1.0):
        mass = float(np.sum(w * euclid1.kernel(t, np.array([0.0]), pts)))
        assert mass <= 1.0 + 1e-9
    pts, w = torus.grid(64)
    for t in (0.05, 0.5, 3.0):
        mass = float(np.sum(w * torus.kernel(t, np.array([0.3]), pts)))
        assert mass == pytest.approx(1.0, abs=1e-12)


def test_ball_volume_doubling(euclid1, torus):
    x = np.array([0.0])
    for R in (0.01, 0.3, 1.0, 4.0):
        assert euclid1.ball_volume(x, 2 * R) <= 2.0 * euclid1.ball_volume(x, R)
        assert torus.ball_volume(x, 2 * R) <= 2.0 * torus.ball_volume(x, R)


@pytest.mark.parametrize("d", [1, 2])
def test_kernel_joint_batching_matches_per_pair(euclid1, torus, d):
    # t and the points broadcast together: row i of the joint call is the
    # per-pair call of pair i, and column k is the call at t[k] alone (0-d)
    # and the same column of calls on blocks of 32 t, bit for bit: a value
    # does not depend on the other t of its call
    t = -np.log(np.linspace(0.1, 0.9, 512))
    for model in (euclid1, euclidean_heat_model(2), torus):
        pairs = sample_product_pairs(32, 5, model, d=d)
        x2, y2 = pairs[:, 0, d:], pairs[:, 1, d:]
        joint = model.kernel(t, x2[:, None, :], y2[:, None, :])
        assert joint.shape == (32, 512)
        assert np.array_equal(joint, np.array([model.kernel(t, p, q) for p, q in zip(x2, y2)]))
        assert np.array_equal(joint, np.stack([model.kernel(t_k, x2, y2) for t_k in t], axis=1))
        blocks = [model.kernel(t[lo:lo + 32], x2[:, None, :], y2[:, None, :]) for lo in range(0, 512, 32)]
        assert np.array_equal(joint, np.concatenate(blocks, axis=1))


def test_torus_kernel_matches_mpmath():
    # the wrapped Gaussian against a 40-digit reference: its image sum for
    # t < 0.5, where it converges fast, and 1 + 2 sum_k e^{-4 pi^2 k^2 t}
    # cos(2 pi k z) for t >= 0.5
    t = np.geomspace(1e-3, 50.0, 23)
    z = np.linspace(0.0, 0.5, 11)
    got = torus_heat_model().kernel(t, z[:, None, None], np.zeros(1))

    def reference(t, z):
        t, z = mpmath.mpf(t), mpmath.mpf(z)
        if t < 0.5:
            images = mpmath.nsum(lambda j: mpmath.exp(-((z + j) ** 2) / (4 * t)), [-mpmath.inf, mpmath.inf])
            return images / mpmath.sqrt(4 * mpmath.pi * t)
        k2 = 4 * mpmath.pi**2 * t
        return 1 + 2 * mpmath.nsum(lambda k: mpmath.exp(-k2 * k * k) * mpmath.cos(2 * mpmath.pi * k * z), [1, mpmath.inf])

    with mpmath.workdps(40):
        want = np.array([[float(reference(t_k, z_i)) for t_k in t] for z_i in z])
    assert np.max(np.abs(got - want) / want) <= 1e-14


def test_euclidean_model_dimension():
    with pytest.raises(ValueError, match="1 or 2"):
        euclidean_heat_model(3)


def test_torus_system_validation():
    with pytest.raises(ValueError, match="n_max"):
        torus_system(0)
    with pytest.raises(ValueError, match=r"n_grid: grid too coarse .* n_grid >= 2\*n_max \+ 2 = 10, got 8"):
        torus_system(4, 8)


# -- product geometry ----------------------------------------------------------


def test_local_region_examples():
    assert in_local_region([0.0], [0.0], 1.0)
    assert in_local_region([0.0, 0.0], [1.0, 0.0], 2.0)      # boundary included
    assert not in_local_region([3.0, 0.0], [4.0, 0.0], 2.0)  # 1 > 2/8


def test_local_region_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x1, y1 = rng.normal(0, 1.5, 2), rng.normal(0, 1.5, 2)
        assert in_local_region(x1, y1, 2.0) == in_local_region(y1, x1, 2.0)
    for s in (0.0, math.nan):
        with pytest.raises(ValueError, match="s must be positive"):
            in_local_region([0.0], [0.0], s)


def test_eta_metric(euclid1):
    # points (x1, x2) of R^1 x R^1 as rows
    x = np.array([[0.0, 0.0]])
    y = np.array([[1.0, 0.3]])
    assert _eta_rows(euclid1, x, y).tolist() == [1.0]
    assert _eta_rows(euclid1, y, x).tolist() == [1.0]


@pytest.mark.parametrize("d", [0, 4, -1, True, 2.0])
def test_x1_dimension_outside_1_to_3_is_rejected(euclid1, torus, d):
    # d = 0 once sent sample_local_pairs into an endless redraw of x1 = 0 and
    # made product_grid a d = 1 grid; d = 4 reached _UNIT_BALL_VOLUME as a KeyError
    calls = [
        lambda: product_grid(torus, d=d),
        lambda: sample_product_pairs(3, 0, euclid1, d=d),
        lambda: sample_product_triples(3, 0, euclid1, d=d),
        lambda: sample_local_pairs(2, 0, d=d),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"d: the x1 dimension must be 1, 2 or 3, got {d!r}")):
            call()


@pytest.mark.parametrize("n_x1", [0, 4])
def test_points_without_1_to_3_x1_columns_are_rejected(euclid1, kid, n_x1):
    # product points of R^d x R with d = 0 or 4: rows of 1 or 5 floats
    x, y = np.full(n_x1 + 1, 0.5), np.full(n_x1 + 1, 0.3)
    message = re.escape(f"points: need rows of d + 1 floats, x1 in R^d with d in 1..3, got rows of {n_x1 + 1}")
    calls = [
        lambda: kernel_Ktilde(x, y, kid, euclid1),
        lambda: cz_growth_check(np.stack([x, y])[None], kid, euclid1),
        lambda: cz_smooth_check(np.stack([x, y, y])[None], kid, euclid1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_ball_volume_product(euclid1):
    # |B_R(x1)| * mu(B_R(x2)) = 2R * 2R in R^1 x R^1
    x = np.array([[0.0, 0.0]])
    assert _ball_volume_rows(euclid1, x, np.array([1.0])).tolist() == [4.0]


# -- kernels -------------------------------------------------------------------


def test_kernel_zero_kappa(euclid1):
    x, y = [0.0, 0.0], [1.0, 1.0]
    assert kernel_Ktilde(x, y, KAPPA_ZERO, euclid1) == 0.0


def test_kernel_requires_compact_support(euclid1):
    x, y = [0.0, 0.0], [1.0, 1.0]
    with pytest.raises(ValueError, match="compact support"):
        kernel_Ktilde(x, y, kappa_one(), euclid1)


# points whose lengths differ, or that are not 1-d, would broadcast in the kernel
@pytest.mark.parametrize(
    "x, y", [([0.5, 0.3], [0.5, 0.1, 0.3]), ([0.5, 0.1, 0.3], [0.5, 0.3]), ([[0.5], [0.3]], [[0.5], [0.3]])],
    ids=["short_x", "short_y", "2d"],
)
def test_kernel_rejects_a_pair_that_is_not_two_product_points(euclid1, kid, x, y):
    with pytest.raises(ValueError, match=r"x, y: need two 1-d product points of one length"):
        kernel_Ktilde(x, y, kid, euclid1)


def test_kernel_linear_in_kappa(euclid1, kid):
    x, y = [0.2, 0.1], [1.0, 0.7]
    bump = KappaSpec(
        evaluate=lambda r: np.sin(np.pi * np.asarray(r)).astype(complex),
        support=(0.1, 0.9),
        sup_norm=1.0,
    )
    plus = KappaSpec(
        evaluate=lambda r: kid(r) + bump(r),
        support=(0.1, 0.9),
        sup_norm=2.0,
    )
    doubled = KappaSpec(evaluate=lambda r: 2.0 * kid(r), support=(0.1, 0.9), sup_norm=2.0)
    a = kernel_Ktilde(x, y, kid, euclid1)
    b = kernel_Ktilde(x, y, bump, euclid1)
    assert kernel_Ktilde(x, y, doubled, euclid1) == 2.0 * a
    assert abs(kernel_Ktilde(x, y, plus, euclid1) - (a + b)) < 1e-13 * max(abs(a + b), 1.0)


def test_ktilde_translation_invariance(euclid1, kid):
    # x1, y1 enter only through x1 - y1; a power-of-two shift is exact
    a = kernel_Ktilde([0.25, 0.1], [1.0, 0.6], kid, euclid1)
    b = kernel_Ktilde([0.75, 0.1], [1.5, 0.6], kid, euclid1)
    assert a == b


_LEGENDRE = roots_legendre(products._N_R)  # the reference rule, independent of the cache


def _r_rule(kappa):
    """The logit r-rule written out: Gauss-Legendre in v = log(r / (1 - r)),
    r = 1 / (1 + e^{-v}), omega = 1 - r = 1 / (1 + e^{v}), dr = r omega dv."""
    a, b = (math.log(p / (1.0 - p)) for p in kappa.support)
    xi, w = _LEGENDRE
    v = 0.5 * (b - a) * xi + 0.5 * (b + a)
    r, omega = 1.0 / (1.0 + np.exp(-v)), 1.0 / (1.0 + np.exp(v))
    return r, omega, 0.5 * (b - a) * w * r * omega


def _split(model, x):
    """The x1 and x2 parts of a product point held as one row."""
    return x[:-model.dim], x[-model.dim:]


def _ktilde_pointwise(x, y, kappa, model):
    """The comparison kernel of one pair, its r-quadrature written out."""
    (x1, x2), (y1, y2) = _split(model, x), _split(model, y)
    r, omega, w = _r_rule(kappa)
    pk = model.kernel(-np.log1p(-omega), x2, y2)
    return complex(np.sum(w * kappa(r) * _w_dr_raw(r, omega, x1 - y1) * pk))


@pytest.mark.parametrize("d", [1, 2])
def test_kernels_match_pointwise_formulas(euclid1, torus, kid, d):
    # the batched evaluator reproduces the per-pair quadrature bit for bit
    for model in (euclid1, euclidean_heat_model(2), torus):
        for x, y in sample_product_pairs(6, 17, model, d=d):
            assert kernel_Ktilde(x, y, kid, model) == _ktilde_pointwise(x, y, kid, model)


def _eta_pointwise(model, x, y):
    (x1, x2), (y1, y2) = _split(model, x), _split(model, y)
    return float(max(np.linalg.norm(x1 - y1), model.zeta(x2, y2)))


def _volume_pointwise(model, x, R):
    """|B(x1, R)| * mu(B(x2, R)) written out: 2R in R^1, pi R^2 in R^2."""
    x1, x2 = _split(model, x)
    omega_rd = 2.0 * R if len(x1) == 1 else math.pi * R**2
    return float(omega_rd * model.ball_volume(x2, R))


def test_cz_values_match_pointwise_formulas(euclid1, kid):
    # every audited value, not only the sup, equals the per-pair formula on
    # the frozen samples (seeds 7 and 8, x1 in R^1)
    growth = cz_growth_check(sample_product_pairs(200, 7, euclid1), kid, euclid1)
    want = []
    for x, y in sample_product_pairs(200, 7, euclid1):
        e = _eta_pointwise(euclid1, x, y)
        want.append(abs(_ktilde_pointwise(x, y, kid, euclid1)) * _volume_pointwise(euclid1, x, e))
    assert np.array_equal(growth.values, np.array(want) / kid.sup_norm)

    smooth = cz_smooth_check(sample_product_triples(200, 8, euclid1), kid, euclid1)
    want, skipped = [], 0
    for x, y, yp in sample_product_triples(200, 8, euclid1):
        e_xy, e_yy = _eta_pointwise(euclid1, x, y), _eta_pointwise(euclid1, y, yp)
        if e_yy == 0.0 or 2.0 * e_yy > e_xy:
            skipped += 1
            continue
        diff = abs(_ktilde_pointwise(x, y, kid, euclid1) - _ktilde_pointwise(x, yp, kid, euclid1))
        want.append(diff * (e_xy / e_yy) ** 1.0 * _volume_pointwise(euclid1, x, e_xy) / kid.sup_norm)
    assert np.array_equal(smooth.values, want)
    assert smooth.n_filtered == skipped


def test_cz_batched_matches_scalar_helpers():
    # with x1 in R^2 and a complex kappa the audits still agree exactly with
    # the one-pair eta, the written-out ball volume and abs(kernel_Ktilde) pair by pair
    model = euclidean_heat_model(2)
    chirp = KappaSpec(evaluate=lambda r: np.exp(7j * np.asarray(r)), support=(0.1, 0.9), sup_norm=1.0)
    pairs = sample_product_pairs(200, 3, model, d=2)
    want = [
        abs(kernel_Ktilde(x, y, chirp, model)) * _volume_pointwise(model, x, float(_eta_rows(model, x, y)))
        for x, y in pairs
    ]
    assert np.array_equal(cz_growth_check(pairs, chirp, model).values, want)
    assert cz_growth_check(pairs[:0], chirp, model).n_used == 0


def test_gauss_legendre_rule_is_shared_and_read_only():
    nodes, weights = gauss_legendre(16)
    assert gauss_legendre(16)[0] is nodes
    assert np.array_equal(nodes, roots_legendre(16)[0])
    with pytest.raises(ValueError, match="read-only"):
        nodes[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        weights *= 2.0


def test_no_rule_rebuilt_per_call(monkeypatch, euclid1, torus, kid):
    # kernel audits and the T split reuse the cached rule instead of
    # rebuilding the _N_R-point rule on every call
    builds = []
    build = spectral._legendre_rule

    def counting(n):
        builds.append(n)
        return build(n)

    monkeypatch.setattr(spectral, "_legendre_rule", counting)
    gauss_legendre.cache_clear()
    pairs = sample_product_pairs(400, 7, euclid1)
    grid = product_grid(torus, d=1, k_max=6, n_y=16)
    f = grid.function(np.ones(grid.shape[0] * grid.shape[1]))
    cz_growth_check(pairs[:2], kid, euclid1)
    apply_T_split([f], kid, torus, grid)
    assert builds == [products._N_R]
    cz_growth_check(pairs, kid, euclid1)
    apply_T_split([f], kid, torus, grid)
    assert builds == [products._N_R]
    gauss_legendre.cache_clear()  # drop the rules built through the patched name
    # and no other module builds a rule of its own
    package = Path(spectral.__file__).parent
    callers = [p.name for p in package.glob("*.py") if "_legendre_rule(" in p.read_text()]
    assert callers == ["spectral.py"]
    # nor does products map a rule onto an interval anywhere but in _r_quadrature,
    # so a second r-rule cannot come back beside the logit one
    tree = ast.parse((package / "products.py").read_text())
    (rule,) = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_r_quadrature"]

    def maps(node):
        return [
            call for call in ast.walk(node)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) in ("_legendre_on", "gauss_legendre")
        ]

    assert len(maps(tree)) == len(maps(rule)) == 1


def test_ktilde_growth_frozen(euclid1, kid):
    x, y = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    e = _eta_pointwise(euclid1, x, y)
    got = abs(kernel_Ktilde(x, y, kid, euclid1)) * _volume_pointwise(euclid1, x, e) / kid.sup_norm
    assert got == pytest.approx(KTILDE_GROWTH_R1, rel=1e-12)


def _heat_kernel_mp(model, t, z2):
    """p_t at the offset z2 in mpmath precision: the Gaussian on R^m; on the
    torus its images for t < 0.5 and its Fourier series for t >= 0.5."""
    if not model.torus:
        q = sum(v * v for v in z2)
        return (4 * mpmath.pi * t) ** (-mpmath.mpf(len(z2)) / 2) * mpmath.exp(-q / (4 * t))
    (z,) = z2
    if t < 0.5:
        n = 2 + int(mpmath.sqrt(300 * t))  # for |z| < 1 an image past n adds less than e^-75 of the largest
        return sum(mpmath.exp(-((z + j) ** 2) / (4 * t)) for j in range(-n, n + 1)) / mpmath.sqrt(4 * mpmath.pi * t)
    k2 = 4 * mpmath.pi**2 * t
    return 1 + 2 * sum(mpmath.exp(-k2 * k * k) * mpmath.cos(2 * mpmath.pi * k * z) for k in range(1, 4))


def _ktilde_mp(x, y, kappa, model):
    """Ktilde(x, y) for an indicator kappa (1 on its support) by mpmath.quad
    at 30 digits, as an mpf.  The integrand is divided by its largest sampled
    value, so the quadrature's tolerance is relative even where Ktilde is tiny."""
    (x1, x2), (y1, y2) = _split(model, x), _split(model, y)
    with mpmath.workdps(30):
        z1 = [mpmath.mpf(a) - mpmath.mpf(b) for a, b in zip(x1, y1)]
        z2 = [mpmath.mpf(a) - mpmath.mpf(b) for a, b in zip(x2, y2)]
        d, q = len(z1), sum(v * v for v in z1)

        def integrand(r):
            s = 1 - r * r
            dw = mpmath.pi ** (-mpmath.mpf(d) / 2) * r * s ** (-mpmath.mpf(d) / 2 - 1) * mpmath.exp(-q / s) * (d - 2 * q / s)
            return dw * _heat_kernel_mp(model, -mpmath.log(r), z2)

        lo, hi = (mpmath.mpf(v) for v in kappa.support)
        scale = max(abs(integrand(r)) for r in mpmath.linspace(lo, hi, 33))
        return scale * mpmath.quad(lambda r: integrand(r) / scale, mpmath.linspace(lo, hi, 9))


# near-diagonal pairs made by hand: x = (0.5, 0.3) against y offset by 1e-2 or
# 1e-3 in x1 or in x2, whose kernels have their features at 1 - r ~ 1e-4, 1e-6
_NEAR_PAIRS = [
    (np.array([0.5, 0.3]), np.array([0.5, 0.3]) + offset)
    for offset in ([1e-2, 0.0], [1e-3, 0.0], [0.0, 1e-2], [0.0, 1e-3])
]


# the audits' own support, three that reach toward r = 0 or r = 1, and two
# whose hi is within 1e-5 and 1e-6 of the singular point r = 1 (measured worst
# 1.3e-13 and 1.5e-13: the residue of the rule's weights, ROADMAP item 9)
_ORACLE_SUPPORTS = [
    ((0.1, 0.9), 1e-13), ((0.05, 0.99), 1e-13), ((0.5, 0.999), 1e-13), ((0.01, 0.5), 1e-13),
    ((0.5, 1.0 - 1e-5), 2e-13), ((0.05, 1.0 - 1e-6), 2e-13),
]


def _ktilde_oracle_pairs():
    """(model, x, y) for each model: of its draw as cz-estimates makes it at
    its default config and seed 0 (400 pairs, x1 in R^1), the pairs farthest
    apart in x1 and in x2 and the pair nearest the diagonal; then, for a
    1-dimensional x1, the hand-made near pairs."""
    for model in (euclidean_heat_model(1), euclidean_heat_model(2), torus_heat_model()):
        pairs = sample_product_pairs(400, 0, model, d=1)
        x, y = pairs[:, 0], pairs[:, 1]
        picks = {int(np.argmax(np.abs(x[:, 0] - y[:, 0]))), int(np.argmax(model.zeta(x[:, 1:], y[:, 1:])))}
        picks.add(int(np.argmin(_eta_rows(model, x, y))))
        near = _NEAR_PAIRS if model.dim == 1 else []
        for xi, yi in [(x[i], y[i]) for i in sorted(picks)] + near:
            yield model, xi, yi


# _ktilde_mp on each support's _ktilde_oracle_pairs, in order, frozen as
# mpmath.nstr(value, 30, min_fixed=1, max_fixed=0): 17 pairs a support, about
# 0.2 s each to recompute.  The oracle test recomputes one pair per support.
_KTILDE_30 = {
    (0.1, 0.9): (
        "-2.02260586081492083101941373789e-6",
        "3.99482841817378092849960258591e-1",
        "-2.65999694303190880347326738041e-15",
        "4.20397624598482280343551498276e-1",
        "4.20801720820323998614862310655e-1",
        "4.20749197561317243631006309012e-1",
        "4.20805237743621611895256732859e-1",
        "-4.25586946618331260781486215898e-13",
        "-1.9294809242015176119779679133e-16",
        "2.83051293713480914638958208352e-2",
        "-6.32032785843409462772271651168e-2",
        "7.28759243134770851604161171643e-1",
        "-2.67754859028800499645346736325e-14",
        "7.29975580696293421131295223978e-1",
        "7.30597623753923309975303363518e-1",
        "7.30597404671899221036945761188e-1",
        "7.30603843735830370258111731869e-1",
    ),
    (0.05, 0.99): (
        "-3.72012851690196196704885848437e-6",
        "3.4895976461403195075940174618",
        "-3.38497381223359759718145102058e-15",
        "5.37709471868725009037967409861",
        "5.41873782723138065021409451457",
        "5.41227238325636984056247947373",
        "5.41909071435329595291815452192",
        "-9.8895879395994064379013095866e-13",
        "-2.5536812026008868093062373884e-16",
        "-1.33276578392587745692458020348",
        "-3.36843811723106652129489119815e-1",
        "5.08903349403669874431192657814",
        "-3.35964212500137380084134179952e-14",
        "5.72862352986955318030141297734",
        "5.77057210307303412733234329066",
        "5.76424656649095164291871591736",
        "5.77092944478414126971884884592",
    ),
    (0.5, 0.999): (
        "-4.75849268308969472732589770903e-11",
        "-8.88646894382802577843509403625",
        "-8.18650059119914225040672276372e-20",
        "5.18680766010071113596243773957e+1",
        "5.59307968699770914365203392649e+1",
        "5.52768347359848867454073020235e+1",
        "5.59659680726579410841671695833e+1",
        "-1.34670860972372995634088553698e-20",
        "-1.77737514126671257127608802861e-21",
        "-1.37234826430593075242466215676",
        "-3.67598612761046791740873796649e-1",
        "1.91701684039969894344042276997e+1",
        "-1.67396314733714020129960231393e-18",
        "5.21570874904537939697280756897e+1",
        "5.62200917075206391641836162964e+1",
        "5.5566268642154044068927495992e+1",
        "5.62552671412163819484345879042e+1",
    ),
    (0.01, 0.5): (
        "-5.18321321632798069995933856134e-6",
        "2.3694764770799945423784088882e-2",
        "-3.6462379253434852314602404815e-15",
        "2.41294596269737674980452370991e-2",
        "2.41379001326523997371731691357e-2",
        "2.41373632219153858395434148042e-2",
        "2.41379791768520977836949757781e-2",
        "-1.53315899546243185561336430807e-12",
        "-2.78620684574033992163793992987e-16",
        "4.14271262934176791288505249422e-3",
        "3.10445158345514885046414230702e-2",
        "8.71927590329916746892032879086e-2",
        "-3.60990558692961761819635102433e-14",
        "8.72217884502540933818397576244e-2",
        "8.72519163755839816222863076793e-2",
        "8.72522207277522986664487319063e-2",
        "8.72522207277523247799736962037e-2",
    ),
    (0.5, 0.99999): (
        "-4.75849268308969472732589770903e-11",
        "-1.5211520164091628217440330611e+1",
        "-8.18650059119914225040672276372e-20",
        "-1.04232271570293427311128877065e+3",
        "5.21604775317967578295304827899e+3",
        "2.06567681474055899101478492613e+3",
        "5.55679729094465657064649527725e+3",
        "-1.34670860972372995634088553698e-20",
        "-1.77737514126671257127608802861e-21",
        "-1.37234826430593075242466215916",
        "-3.67598612761046791740873796649e-1",
        "2.04184651184465802083476009586e+1",
        "-1.67396314733714020129960231393e-18",
        "-1.04203370481348759050118513093e+3",
        "5.21633704801721933068071149702e+3",
        "2.06596624864672814833830506182e+3",
        "5.55708659001321501151076263657e+3",
    ),
    (0.05, 0.999999): (
        "-3.72012851690196196704885848437e-6",
        "-1.51879275680570010935087285693e+1",
        "-3.38497381223359759718145102058e-15",
        "-1.12570803680274908980350624688e+3",
        "2.39773621572615942596423370934e+4",
        "2.25045861571144443488184633212e+3",
        "4.97868617563909423120270397797e+4",
        "-9.8895879395994064379013095866e-13",
        "-2.5536812026008868093062373884e-16",
        "-1.36821611417333306220821514089",
        "-3.3684408668583657861591588065e-1",
        "2.05049799251343491711721881559e+1",
        "-3.35964212500137380084134179952e-14",
        "-1.1253565079915598454575984816e+3",
        "2.39777139915374429633218628421e+4",
        "2.25081058989468701432815024205e+3",
        "4.97872135951213802179269610117e+4",
    ),
}


@pytest.mark.parametrize(
    "support, rel, live", [pytest.param(*case, 3 * i, id=str(case[0])) for i, case in enumerate(_ORACLE_SUPPORTS)]
)
def test_ktilde_default_rule_matches_mpmath(support, rel, live):
    # the default r-rule against the frozen 30-digit values; pair `live`, a
    # different one for each support, is recomputed by _ktilde_mp, so the table
    # stays tied to the oracle that made it (and to the draw: a moved pair misses its value)
    kappa = kappa_indicator(*support)
    cases, want = list(_ktilde_oracle_pairs()), _KTILDE_30[support]
    assert len(cases) == len(want)
    for (model, xi, yi), value in zip(cases, want):
        got = kernel_Ktilde(xi, yi, kappa, model)
        assert got == pytest.approx(float(value), rel=rel, abs=0.0), (model.name, xi, yi)
    model, xi, yi = cases[live]
    with mpmath.workdps(30):
        value = mpmath.mpf(want[live])
        assert abs(_ktilde_mp(xi, yi, kappa, model) - value) <= 1e-20 * abs(value), (model.name, xi, yi)


def test_ktilde_rule_doubling_agrees(monkeypatch):
    # twice the nodes move no kernel value, near pairs and hi -> 1 included:
    # the default rule is converged there
    kappas = [kappa_indicator(0.1, 0.9), kappa_indicator(0.05, 1.0 - 1e-6)]
    for model in (euclidean_heat_model(1), torus_heat_model()):
        pairs = np.concatenate([sample_product_pairs(50, 0, model, d=1), np.stack([np.stack(p) for p in _NEAR_PAIRS])])
        default = [products._ktilde_rows(pairs[:, 0], pairs[:, 1], kappa, model) for kappa in kappas]
        with monkeypatch.context() as m:
            m.setattr(products, "_N_R", 2 * products._N_R)
            doubled = [products._ktilde_rows(pairs[:, 0], pairs[:, 1], kappa, model) for kappa in kappas]
        for want, got in zip(doubled, default):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_r_rule_stays_finite_as_lo_reaches_zero():
    # a lo below 2**-52 is raised to it, so omega < 1 at every node and no
    # node gives an infinite heat time, an overflowing image count or an
    # overflowing e^{-v}, down to a subnormal lo; the default rule keeps the
    # bits of the written-out rule
    r, omega, t, w = _r_quadrature(kappa_indicator(0.1, 0.9))
    want_r, want_omega, want_w = _r_rule(kappa_indicator(0.1, 0.9))
    assert np.array_equal(r, want_r) and np.array_equal(omega, want_omega) and np.array_equal(w, want_w)
    assert np.array_equal(t, -np.log1p(-want_omega))
    x, y = np.array([0.5, 0.3]), np.array([0.6, 0.35])
    models = (euclidean_heat_model(1), torus_heat_model())
    grid = product_grid(torus_heat_model(), d=1, k_max=6, n_y=16)
    f = grid.function(np.random.default_rng(0).standard_normal(grid.shape[0] * grid.shape[1]))

    def split(lo):
        ((loc, glob),) = apply_T_split([f], kappa_indicator(lo, 0.5), torus_heat_model(), grid)
        return loc.values + glob.values

    # the r-integrand of Ktilde carries a factor r, so what lies below 1e-10 is
    # far below the rule's accuracy (measured 8.0e-15 and 7.2e-15); the T
    # split's is only bounded, so its reference support starts at 1e-14
    # (measured 4.3e-14; before the floor 2.0e-3 to 3.4e-1 off at these lo)
    want_k = [kernel_Ktilde(x, y, kappa_indicator(1e-10, 0.5), model) for model in models]
    want_t = split(1e-14)
    for lo in (1e-17, 1e-100, 1e-200, 1e-300, 1e-320, 5e-324):
        kappa = kappa_indicator(lo, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r, omega, t, w = _r_quadrature(kappa)
            assert np.all(omega < 1.0)
            assert all(np.all(np.isfinite(a)) for a in (r, omega, t, w))
            for model, want in zip(models, want_k):
                assert kernel_Ktilde(x, y, kappa, model) == pytest.approx(want, rel=1e-12, abs=0.0)
            np.testing.assert_allclose(split(lo), want_t, rtol=0.0, atol=1e-12 * np.max(np.abs(want_t)))


def test_r_rule_rejects_a_support_below_its_floor():
    with pytest.raises(ValueError, match=r"support to reach above r = 2\*\*-52, got \(1e-300, 1e-20\)"):
        _r_quadrature(kappa_indicator(1e-300, 1e-20))
    with pytest.raises(ValueError, match="support to reach above"):
        _r_quadrature(kappa_indicator(1e-300, 2.0**-52))
    assert np.all(np.isfinite(_r_quadrature(kappa_indicator(1e-300, 2.0**-51))[0]))


# -- T split on the product grid -----------------------------------------------


def test_t_split_additivity_and_idempotence(torus, kid):
    # the idempotence of the cutoff is checked by the with_base cases of the r-node loop tests
    grid = product_grid(torus, d=1, k_max=6, n_y=16)
    rng = np.random.default_rng(9)
    f = grid.function(rng.standard_normal(grid.shape[0] * grid.shape[1]))
    ((loc, glob),) = apply_T_split([f], kid, torus, grid)
    # a huge region cap makes every pair local: the full operator
    ((full, rest),) = apply_T_split([f], kid, torus, grid, s=1e9)
    assert np.all(rest.values == 0.0)
    assert np.allclose(loc.values + glob.values, full.values, rtol=1e-12, atol=1e-14)


def test_t_split_stack_matches_single_calls(torus, kid):
    grid = product_grid(torus, d=1, k_max=6, n_y=16)
    rng = np.random.default_rng(4)
    n = grid.shape[0] * grid.shape[1]
    fs = [grid.function(rng.standard_normal(n) + 1j * rng.standard_normal(n)) for _ in range(3)]
    stacked = apply_T_split(fs, kid, torus, grid)
    assert len(stacked) == 3
    for f, (loc, glob) in zip(fs, stacked):
        ((loc1, glob1),) = apply_T_split([f], kid, torus, grid)
        assert np.array_equal(loc.values, loc1.values)
        assert np.array_equal(glob.values, glob1.values)


def test_t_split_grid_mismatch(torus, kid):
    grid = product_grid(torus, d=1, k_max=6, n_y=16)
    bad = grid.function(np.zeros(grid.shape[0] * grid.shape[1]))
    small = product_grid(torus, d=1, k_max=6, n_y=8)
    with pytest.raises(ValueError, match="product grid"):
        apply_T_split([bad], kid, torus, small)


def _split_by_r_nodes(f, kappa, model, grid, mask):
    """Reference T split, the local part cut by the x1-pair mask: the
    r-quadrature summed node by node over dense Mehler-derivative and
    heat-kernel matrices, with no use of the circulant structure or the FFT."""
    n1, n2 = grid.shape
    F = f.values.reshape(n1, n2)
    x1, y2 = grid.x1_points, grid.y_points
    leb = lebesgue_weights(x1, grid.x1_gamma_weights)
    r, omega, _, w = _r_quadrature(kappa)
    T_full = np.zeros(F.shape, dtype=complex)
    T_loc = np.zeros(F.shape, dtype=complex)
    for ri, oi, ki in zip(r, omega, kappa(r) * w):
        md = _mehler_dr_raw(float(ri), float(oi), x1[:, None, :], x1[None, :, :])
        pk = model.kernel(-math.log1p(-oi), y2[:, None, :], y2[None, :, :])
        right = F @ (pk * grid.y_weights[None, :]).T
        A = md * leb[None, :]
        T_full += ki * (A @ right)
        T_loc += ki * ((A * mask) @ right)
    return T_loc.reshape(-1), (T_full - T_loc).reshape(-1), np.max(np.abs(T_full))


# (k_max, n_y, n_x): the default-size grid, the cross-check grid, a grid of
# several x1-row tiles (the last one short) with an odd number of y-points,
# and an odd n_x, whose middle row is its own mirror in the last, short tile
_ORACLE_GRIDS = [(6, 16, None), (8, 32, 64), (8, 15, 96), (8, 16, 97)]


# a compact profile with a genuinely complex value, so the imaginary part of
# the r-sum is exercised too
_KAPPA_TWIST = KappaSpec(
    evaluate=lambda r: np.exp(2j * np.pi * r) * ((r >= 0.1) & (r <= 0.9)),
    support=(0.1, 0.9),
    sup_norm=1.0,
    name="twist",
)


@pytest.mark.parametrize("with_base", [False, True])
@pytest.mark.parametrize("s", [2.0, 1e9])
@pytest.mark.parametrize("k_max, n_y, n_x", _ORACLE_GRIDS)
@pytest.mark.parametrize("kappa", [kappa_indicator(0.1, 0.9), _KAPPA_TWIST], ids=["chi", "twist"])
def test_t_split_matches_r_node_loop(torus, kappa, k_max, n_y, n_x, s, with_base):
    grid = product_grid(torus, d=1, k_max=k_max, n_y=n_y, n_x=n_x)
    _check_split_against_r_nodes(torus, kappa, grid, s, with_base, seed=n_y)


@pytest.mark.parametrize("with_base", [False, True])
@pytest.mark.parametrize("s", [2.0, 1e9])
@pytest.mark.parametrize("kappa", [kappa_indicator(0.1, 0.9), _KAPPA_TWIST], ids=["chi", "twist"])
def test_t_split_matches_r_node_loop_on_a_2d_grid(torus, kappa, s, with_base):
    # x1 in R^2: the lexicographic product grid reverses its flattened index
    # under x1 -> -x1, so the mirrored rows are those of the d = 1 grid
    grid = product_grid(torus, d=2, k_max=3, n_y=8, n_x=8)
    _check_split_against_r_nodes(torus, kappa, grid, s, with_base, seed=2)


def test_t_split_matches_r_node_loop_at_the_schema_edge(torus):
    # the largest k_max and n_x the riesz-cross-check schema admits: |x1|^2
    # reaches about 480, where the exponent of the kernel against gamma and
    # the Lebesgue weights are at their largest
    grid = product_grid(torus, d=1, k_max=24, n_y=8, n_x=256)
    _check_split_against_r_nodes(torus, kappa_indicator(0.1, 0.9), grid, 2.0, True, seed=8)


def _check_split_against_r_nodes(model, kappa, grid, s, with_base, seed):
    rng = np.random.default_rng(seed)
    n = grid.shape[0] * grid.shape[1]
    f = grid.function(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    mask = local_mask(grid, s)
    if with_base:
        # the reference cuts its kernel at N_{1/2} before N_s, which contains it:
        # cutting twice changes nothing, so that is the split at s = 1/2
        mask &= local_mask(grid, 0.5)
        s = 0.5
    ((loc, glob),) = apply_T_split([f], kappa, model, grid, s=s)
    want_loc, want_glob, scale = _split_by_r_nodes(f, kappa, model, grid, mask)
    assert scale > 0.0
    assert np.max(np.abs(loc.values - want_loc)) <= 1e-12 * scale
    assert np.max(np.abs(glob.values - want_glob)) <= 1e-12 * scale


@pytest.mark.parametrize("k_max, n_y, n_x, n_pairs", [(12, 32, 128, 4160), (8, 16, 97, 49**2)], ids=["default", "odd_n_x"])
def test_t_split_sums_one_x1_pair_per_symmetry_class(torus, kid, monkeypatch, k_max, n_y, n_x, n_pairs):
    # the default riesz-cross-check grid and an odd n_x: dK_r/dr is evaluated
    # once against all r-nodes on each pair i <= j, i + j <= n1 - 1, one per
    # class {(i, j), (j, i), (n1-1-i, n1-1-j), (n1-1-j, n1-1-i)}, and nowhere else
    grid = product_grid(torus, d=1, k_max=k_max, n_y=n_y, n_x=n_x)
    index = {float(x): k for k, x in enumerate(grid.x1_points[:, 0])}
    n_nodes, pairs, entries = products._N_R, [], []

    def recording(r, omega, x1, y1):
        out = _mehler_gamma_dr_raw(r, omega, x1, y1)
        assert np.size(r) == np.size(omega) == n_nodes
        xb, yb = (p[..., 0].ravel().tolist() for p in np.broadcast_arrays(x1, y1))
        pairs.extend((index[x], index[y]) for x, y in zip(xb, yb))
        entries.append(out.size)
        return out

    monkeypatch.setattr(products, "_mehler_gamma_dr_raw", recording)
    apply_T_split([grid.function(np.ones(n_x * n_y))], kid, torus, grid)
    assert sorted(pairs) == [(i, j) for i in range(n_x) for j in range(i, n_x - i)]
    assert len(pairs) == n_pairs
    assert sum(entries) == n_pairs * n_nodes  # 399,360 at the default grid


@pytest.mark.parametrize(
    "overrides", [{}, {"n_x": "256", "k_max": "24", "n_max": "8", "n_y": "128"}], ids=["default", "schema_max"]
)
def test_t_split_default_rule_matches_the_spectral_side(overrides):
    # riesz-cross-check's kernel path on the default r-rule against its
    # spectral side, at the default grid and at the largest the schema admits
    results, _, _ = cli._run_riesz_cross_check(cli.build_config("riesz-cross-check", overrides=overrides, seed=0))
    assert results["max_relative_error"] <= 1e-14


def test_t_split_rejects_non_torus_input(torus, euclid1, kid):
    grid = product_grid(torus, d=1, k_max=6, n_y=16)
    f = grid.function(np.ones(grid.shape[0] * grid.shape[1]))
    with pytest.raises(ValueError, match=r"model: .*euclidean\(m=1\)"):
        apply_T_split([f], kid, euclid1, grid)
    # the torus model on y-points other than its own uniform grid
    for y in (grid.y_points + 0.5 / 16, product_grid(euclid1, d=1, k_max=6, n_y=16).y_points):
        shifted = dataclasses.replace(grid, y_points=y)
        with pytest.raises(ValueError, match="grid.y_points"):
            apply_T_split([shifted.function(f.values)], kid, torus, shifted)


def test_t_split_rejects_unmirrored_x1_points(torus, kid):
    # the split computes half of the x1 rows and mirrors the rest
    grid = product_grid(torus, d=1, k_max=6, n_y=16)
    shifted = dataclasses.replace(grid, x1_points=grid.x1_points + 0.01)
    f = shifted.function(np.ones(grid.shape[0] * grid.shape[1]))
    with pytest.raises(ValueError, match="grid.x1_points"):
        apply_T_split([f], kid, torus, shifted)


def test_t_split_rejects_bad_arguments(torus, kid):
    grid = product_grid(torus, d=1, k_max=6, n_y=16)
    f = grid.function(np.ones(grid.shape[0] * grid.shape[1]))
    # a NaN s once put every pair in the global part
    for s in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="s must be positive"):
            local_mask(grid, s)
        with pytest.raises(ValueError, match="s must be positive"):
            apply_T_split([f], kid, torus, grid, s=s)
    with pytest.raises(ValueError, match="f: need at least one function"):
        apply_T_split([], kid, torus, grid)
    with pytest.raises(ValueError, match="f: need a sequence of functions"):
        apply_T_split(f, kid, torus, grid)


@pytest.mark.parametrize("k_max, n_y, n_x", [(12, 32, 128), (24, 128, 256)], ids=["default", "schema_edge"])
def test_t_split_memory_below_one_full_kernel(torus, kid, k_max, n_y, n_x):
    # the default riesz-cross-check grid and the largest its schema admits,
    # where B is largest: the split holds the complex (n_y // 2 + 1, n_x, n_x)
    # B, never the whole (n_y, n_x, n_x) complex kernel, 8.4 MB and 134 MB here
    grid = product_grid(torus, d=1, k_max=k_max, n_y=n_y, n_x=n_x)
    rng = np.random.default_rng(5)
    n = n_x * n_y
    fs = [grid.function(rng.standard_normal(n) + 1j * rng.standard_normal(n)) for _ in range(5)]
    apply_T_split(fs, kid, torus, grid)  # warm-up: the cached Legendre rule
    tracemalloc.start()
    try:
        apply_T_split(fs, kid, torus, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_y * n_x * n_x * 16


def test_kernel_path_matches_spectral_path(torus, kid):
    # band-limited cross-check of the kernel representation of m_kappa(L, A)
    n_x = 64
    grid = product_grid(torus, d=1, k_max=8, n_y=32, n_x=n_x)
    sys2 = tensor(ou_system(1, 8, n_x), torus_system(3, 32))
    mker = multiplier_from_kappa(kid)
    c = sys2.random_coefficients(np.random.default_rng(11))
    f = reconstruct(c, sys2)
    g_spec = reconstruct(apply_multiplier(mker, sys2, c), sys2)
    ((loc, glob),) = apply_T_split([f], kid, torus, grid)
    rel = grid.function(loc.values + glob.values - g_spec.values).norm_lp(2) / f.norm_lp(2)
    assert rel < 1e-5


# -- difference integral ---------------------------------------------------------


def test_di_frozen_values():
    assert di_integral([0.5, 0.0], [0.6, 0.0]) == pytest.approx(DI_HALF, rel=1e-12)
    assert di_bound_ratio([0.5, 0.0], [0.6, 0.0]) == pytest.approx(DI_RATIO_HALF, rel=1e-12)


def test_di_domain_errors():
    with pytest.raises(ValueError, match="differ"):
        di_integral([0.5, 0.0], [0.5, 0.0])
    with pytest.raises(ValueError, match="local region"):
        di_integral([3.0, 0.0], [4.0, 0.0])


# pairs whose lengths differ, or that are not 1-d, would broadcast in the kernels
@pytest.mark.parametrize(
    "x1, y1", [([0.5], [0.6, 0.0]), ([0.6, 0.0], [0.5]), ([[0.5]], [[0.6]]), (0.5, 0.6)],
    ids=["short_x1", "short_y1", "2d", "scalars"],
)
@pytest.mark.parametrize(
    "fn",
    [
        di_integral,
        di_bound_ratio,
        lambda x1, y1: smallest_log_constant([(x1, y1)]),
        lambda x1, y1: in_local_region(x1, y1, 2.0),
    ],
    ids=["di_integral", "di_bound_ratio", "smallest_log_constant", "in_local_region"],
)
def test_di_rejects_a_pair_that_is_not_two_1d_arrays_of_one_length(fn, x1, y1):
    with pytest.raises(ValueError, match=r"x1, y1: need two 1-d arrays of one length"):
        fn(x1, y1)


def _di_dr_mp(r, x, y):
    """dM_r/dr(x, y) - dW_r/dr(x - y) in mpmath, from the r-derivative of
    the logarithm of each Gaussian, M_r(x, y) = W_r(r x - y)."""
    s = 1 - r * r
    if s <= 0:  # a tanh-sinh node that rounds to r = 1
        return mpmath.mpf(0)
    d = len(x)
    u = [r * a - b for a, b in zip(x, y)]
    Q = sum(v * v for v in u)
    q = sum((a - b) ** 2 for a, b in zip(x, y))
    c = mpmath.pi ** (-mpmath.mpf(d) / 2) * s ** (-mpmath.mpf(d) / 2 - 1)
    dm = c * mpmath.exp(-Q / s) * (d * r - 2 * sum(v * a for v, a in zip(u, x)) - 2 * r * Q / s)
    dw = c * mpmath.exp(-q / s) * (d * r - 2 * r * q / s)
    return dm - dw


def _di_mp(x1, y1):
    """D_I by mpmath.quad of |dM_r/dr - dW_r/dr| at 30 digits, split at the
    integrand's roots (mpmath.findroot on the sign changes of a scan uniform
    on [0, 1/2) and geometric in 1 - r down to 5e-21) and at 1 - 10^-k."""
    with mpmath.workdps(30):
        x, y = [mpmath.mpf(float(v)) for v in x1], [mpmath.mpf(float(v)) for v in y1]

        def f(r):
            return _di_dr_mp(r, x, y)

        scan = [mpmath.mpf(k) / 100 for k in range(50)]
        scan += [1 - mpmath.mpf(10) ** (-mpmath.mpf(k) / 10) / 2 for k in range(201)]
        sign = [mpmath.sign(f(r)) for r in scan]
        roots = [
            mpmath.findroot(f, (a, b), solver="anderson", verify=False) if sa * sb < 0 else (a if sa == 0 else b)
            for a, b, sa, sb in zip(scan, scan[1:], sign, sign[1:])
            if sa != sb
        ]
        cuts = [mpmath.mpf(0), mpmath.mpf(1)] + roots + [1 - mpmath.mpf(10) ** -k for k in range(3, 19, 3)]
        return float(mpmath.quad(lambda r: abs(f(r)), sorted(set(cuts))))


# (x1, y1, rel): sampled pairs, one near the boundary of N_2 (0.99 of the
# cutoff), small |x1| in d = 1 and 3, and near-diagonal pairs, whose features
# sit at 1 - r ~ |x1 - y1|^2, down to 1e-12.  D_I runs in omega = 1 - r there,
# and each near pair meets the oracle to 2.5e-16 or better (measured: 1.5e-16
# at |x1 - y1| = 1e-4 and 1e-5, exact at 1e-6, 2.4e-16 for the d = 2 pair)
_DI_ORACLE_PAIRS = [
    (*sample_local_pairs(65, 321, d=2)[64], 1e-12),
    (*sample_local_pairs(13, 99, d=1)[12], 1e-12),
    ([0.6, -0.2], [1.16, 0.22], 1e-12),
    ([1e-3], [0.3], 1e-12),
    ([1e-3, 0.0, 0.0], [0.2, 0.1, -0.2], 1e-12),
    ([0.5], [0.5001], 1e-11),
    ([0.5], [0.50001], 1e-12),
    ([0.5], [0.500001], 1e-12),
    ([0.5, 0.1], [0.5, 0.1001], 1e-12),
]


def test_di_matches_mpmath_oracle():
    for x1, y1, rel in _DI_ORACLE_PAIRS:
        assert di_integral(x1, y1) == pytest.approx(_di_mp(x1, y1), rel=rel, abs=0.0), (x1, y1)
    # x1 = 0: M_r(0, y1) = W_r(-y1), so D_I = 0
    assert _di_mp([0.0, 0.0], [0.3, 0.1]) == 0.0
    assert di_integral([0.0, 0.0], [0.3, 0.1]) == pytest.approx(0.0, abs=1e-15)


def test_di_ratio_bounded_on_sample_d2():
    pairs = sample_local_pairs(100, 321, d=2)
    sup = max(di_bound_ratio(x1, y1) for x1, y1 in pairs)
    assert sup == pytest.approx(DI_RATIO_SUP_D2, rel=1e-12)
    assert sup < 1.0


def test_di_log_bound_d1():
    pairs = sample_local_pairs(40, 99, d=1)
    assert smallest_log_constant(pairs) == pytest.approx(DI_LOG_C0, rel=1e-12)
    sup = max(di_bound_ratio(x1, y1, c0=4.0) for x1, y1 in pairs)
    assert sup == pytest.approx(DI_RATIO_SUP_D1, rel=1e-12)
    assert sup <= 1.0


def test_di_d1_degenerate_inputs():
    with pytest.raises(ValueError, match="x1 != 0"):
        di_bound_ratio([0.0], [0.1])
    with pytest.raises(ValueError, match="too small"):
        di_bound_ratio([2.0], [2.3], c0=0.5)


# -- empirical CZ audits ----------------------------------------------------------


def test_cz_zero_kappa(euclid1):
    rep = cz_growth_check(sample_product_pairs(20, 7, euclid1), KAPPA_ZERO, euclid1)
    assert rep.sup == 0.0


def test_cz_growth_frozen_and_stable(euclid1, kid):
    rep = cz_growth_check(sample_product_pairs(200, 7, euclid1), kid, euclid1)
    assert rep.n_used == 200 and rep.n_filtered == 0
    assert np.all(np.isfinite(rep.values))
    assert rep.sup == pytest.approx(CZ_GROWTH_SUP, rel=1e-12)
    doubled = cz_growth_check(sample_product_pairs(400, 7, euclid1), kid, euclid1)
    assert doubled.sup <= 1.5 * rep.sup
    assert doubled.sup >= rep.sup  # prefix-stable sampler: the sup is monotone


def test_cz_smooth_frozen_and_stable(euclid1, kid):
    rep = cz_smooth_check(sample_product_triples(200, 8, euclid1), kid, euclid1)
    assert rep.sup == pytest.approx(CZ_SMOOTH_SUP, rel=1e-12)
    half = cz_smooth_check(sample_product_triples(100, 8, euclid1), kid, euclid1)
    assert rep.sup <= 1.5 * half.sup


def _triples_row_by_row(n, seed, model, d):
    """sample_product_triples written out one triple at a time: each from its
    own default_rng of SeedSequence(seed).spawn(n), one draw call per point
    and factor, and each row's eta, scale and y' formed from that row alone."""
    out = np.empty((n, 3, d + model.dim))
    for child, (x, y, yp) in zip(np.random.SeedSequence(seed).spawn(n), out):
        rng = np.random.default_rng(child)
        x1, y1 = rng.normal(0.0, 1.5, d), rng.normal(0.0, 1.5, d)
        if model.torus:
            x2, y2 = rng.uniform(0.0, 1.0, 1), rng.uniform(0.0, 1.0, 1)
        else:
            x2, y2 = rng.normal(0.0, 1.5, model.dim), rng.normal(0.0, 1.5, model.dim)
        x[:], y[:] = np.concatenate([x1, x2]), np.concatenate([y1, y2])
        eta = max(float(np.linalg.norm(x1 - y1, axis=-1)), float(model.zeta(x2, y2)))
        scale = 0.25 * eta * rng.uniform(0.2, 1.0)
        u1 = rng.normal(0.0, 1.0, d)
        u2 = rng.normal(0.0, 1.0, model.dim)
        nrm = math.sqrt(float(u1 @ u1 + u2 @ u2))
        yp[:] = y + scale * np.concatenate([u1, u2]) / nrm
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_triple_sampler_is_the_row_by_row_formula(euclid1, torus, d):
    # the samplers draw each sample's normals in one call from the package's
    # own child streams and form the columns, eta, the scale and y' for all
    # rows at once; every row must keep the bits of NumPy's child stream
    # drawn call by call and of its own formula.  A pair is the first two
    # points of the triple drawn from the same stream.
    for model in (euclid1, euclidean_heat_model(2), torus):
        for seed in (8, 13):
            want = _triples_row_by_row(300, seed, model, d)
            assert np.array_equal(sample_product_triples(300, seed, model, d=d), want)
            assert np.array_equal(sample_product_pairs(300, seed, model, d=d), want[:, :2])


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 3**90])
def test_child_rngs_are_seed_sequence_spawn(seed):
    # the hashed seed words give each child the PCG64 state NumPy's own
    # SeedSequence.spawn gives it, for seeds of one to five 32-bit words (3**90
    # has more than the pool holds); if NumPy ever changes SeedSequence, this
    # fails here instead of letting every seeded report drift
    for n in (1, 2, 1000):
        want = [np.random.PCG64(child).state for child in np.random.SeedSequence(seed).spawn(n)]
        got, rngs = [], set()
        for rng in products._child_rngs(seed, n):
            got.append(rng.bit_generator.state)
            rngs.add(id(rng))
        assert got == want
        assert len(rngs) == 1  # one Generator, re-seeded at every step
    with pytest.raises(ValueError, match="seed"):
        next(products._child_rngs(-1, 1))


def test_sampler_prefix_stability(euclid1, torus):
    # cz-estimates audits the first n samples of a 2n draw as the n draw
    for model in (euclid1, euclidean_heat_model(2), torus):
        for d in (1, 2):
            for sampler, k in ((sample_product_pairs, 2), (sample_product_triples, 3)):
                short = sampler(4, 13, model, d=d)
                assert short.shape == (4, k, d + model.dim)
                assert np.array_equal(sampler(8, 13, model, d=d)[:4], short)
