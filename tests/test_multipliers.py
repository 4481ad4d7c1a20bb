import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from specmult.multipliers import (
    _STEP_REL,
    ATLViolation,
    DecayProfile,
    DyadicRange,
    LogGrid,
    MarcOrder,
    MellinTailError,
    builtin_multiplier,
    decay_check,
    default_t_grid,
    make_mNt,
    mar_norm,
    marcinkiewicz_seminorm,
    mellin,
    mellin_inverse,
    mellin_on_grid,
    phi_star,
    plancherel_residual,
    required_order,
    rotate_multiplier,
    square_constant,
    square_function,
    square_function_params,
    worst_case_order,
)
from specmult.multipliers import _partial_values
from specmult.ouhermite import ou_system
from specmult.products import torus_system
from specmult.spectral import CoefficientVector, MultiplierSpec, gauss_legendre, reconstruct, tensor

MAR_RIESZ1_RHO1 = 0.6931462268866521  # frozen regression value, default dyadic range
MAR_RIESZ2_RHO11 = 0.48045301391729195  # mar_norm(riesz2, (1, 1)), default dyadic range
SEMINORM_RIESZ2_11_SMALL = 0.004119911576609029  # gamma (1, 1), K = 2, no off-dyadic, n_gl = 8


def lam_exp():
    return MultiplierSpec(
        1, lambda lam: (np.atleast_2d(lam)[:, 0] * np.exp(-np.atleast_2d(lam)[:, 0])).astype(complex)
    )


def log_gaussian():
    return MultiplierSpec(
        1, lambda lam: np.exp(-0.5 * np.log(np.atleast_2d(lam)[:, 0]) ** 2).astype(complex)
    )


# -- Marcinkiewicz seminorms -------------------------------------------------


def test_seminorm_constant_order_zero():
    m = MultiplierSpec(1, lambda lam: np.full(np.atleast_2d(lam).shape[0], 3.0, dtype=complex))
    assert marcinkiewicz_seminorm(m, (0,)) == pytest.approx(9.0 * math.log(2.0), rel=1e-13)


def test_seminorm_constant_order_one_vanishes():
    # the central-difference stencil of a constant cancels exactly
    m = MultiplierSpec(1, lambda lam: np.full(np.atleast_2d(lam).shape[0], 3.0, dtype=complex))
    assert marcinkiewicz_seminorm(m, (1,)) == 0.0


def test_seminorm_imaginary_power():
    # |lam^k d^k lam^{iu}|^2 = prod_{j<k} (u^2 + j^2), so every box integrates to that times log 2
    for u in (1.0, 2.0):
        m = builtin_multiplier("imag", u=u)
        for k in range(5):
            exact = math.prod(u * u + j * j for j in range(k)) * math.log(2.0)
            assert marcinkiewicz_seminorm(m, (k,)) == pytest.approx(exact, rel=1e-13), (u, k)


def test_seminorm_riesz1_matches_mpmath_boxes():
    # independent oracle: mpmath quadrature of each box over the same radii;
    # lam^k d^k lam/(1+lam) = (-1)^(k+1) k! lam^k / (1+lam)^(k+1)
    dyadic = DyadicRange()
    m = builtin_multiplier("riesz1")
    for k in range(1, 5):
        with mpmath.workdps(20):
            box = lambda lam: (math.factorial(k) * lam**k / (1 + lam) ** (k + 1)) ** 2 / lam
            exact = float(max(mpmath.quad(box, [mpmath.mpf(r), 2 * mpmath.mpf(r)]) for r in dyadic.radii()))
        assert marcinkiewicz_seminorm(m, (k,), dyadic) == pytest.approx(exact, rel=1e-12), k


def test_seminorm_two_homogeneous_exactly():
    # doubling m scales every intermediate by a power of two, so the
    # quadrature commutes with the scaling bit for bit
    base = log_gaussian()
    doubled = MultiplierSpec(1, lambda lam: 2.0 * base.evaluate(lam))
    for g in ((0,), (1,), (2,)):
        assert marcinkiewicz_seminorm(doubled, g) == 4.0 * marcinkiewicz_seminorm(base, g)


def test_seminorm_dilation_invariance():
    # m(2 lam) shifts each dyadic box by one octave; with off-dyadic
    # sampling disabled the shifted sup stays inside the truncated range
    base = log_gaussian()
    dilated = MultiplierSpec(1, lambda lam: base.evaluate(np.atleast_2d(lam) * 2.0))
    dyadic = DyadicRange(n_offdyadic=0)
    for g in ((0,), (1,)):
        a = marcinkiewicz_seminorm(base, g, dyadic)
        b = marcinkiewicz_seminorm(dilated, g, dyadic)
        assert b == pytest.approx(a, rel=1e-12)


def test_seminorm_gamma_length_mismatch():
    with pytest.raises(ValueError, match="one entry per"):
        marcinkiewicz_seminorm(builtin_multiplier("one"), (1, 1))


def test_mar_norm_constant():
    assert mar_norm(builtin_multiplier("one"), MarcOrder((2,))) == pytest.approx(
        math.log(2.0), rel=1e-13
    )


def test_mar_norm_riesz_frozen():
    got = mar_norm(builtin_multiplier("riesz1"), MarcOrder((1,)))
    assert got == pytest.approx(MAR_RIESZ1_RHO1, rel=1e-12)


def test_mar_norm_riesz2_frozen():
    got = mar_norm(builtin_multiplier("riesz2"), MarcOrder((1, 1)))
    assert got == pytest.approx(MAR_RIESZ2_RHO11, rel=1e-13)
    # the max above is the gamma = 0 box; this pins the 2-d stencil and contraction
    small = DyadicRange(K=2, n_offdyadic=0)
    got = marcinkiewicz_seminorm(builtin_multiplier("riesz2"), (1, 1), small, n_gl=8)
    assert got == pytest.approx(SEMINORM_RIESZ2_11_SMALL, rel=1e-13)


def _full_grid_seminorm(m, gamma, dyadic, n_gl=32):
    """The seminorm on the whole d-fold tensor grid at once, node axes contracted last first."""
    d = m.arity
    R = dyadic.radii()
    xi, wq = gauss_legendre(n_gl)
    lam_axis = np.exp((np.log(R)[:, None] + (xi[None, :] + 1.0) / 2.0 * math.log(2.0)).ravel())
    lam = np.stack(np.meshgrid(*[lam_axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
    weight = math.prod(lam[:, j] ** g for j, g in enumerate(gamma))
    box = (np.abs(weight * _partial_values(m, gamma, [lam_axis] * d)) ** 2).reshape((len(R), n_gl) * d)
    for axis in range(2 * d - 1, 0, -2):
        box = np.moveaxis(box, axis, -1) @ (wq / 2.0)
    return float(box.max() * math.log(2.0) ** d)


def test_blocked_seminorm_equals_full_grid():
    # per-radius blocks end in the full grid's (n_R, n_gl, ...) contraction, bit for bit
    dyadic = DyadicRange(K=3)
    for name, rho in (("imag_decay", (4,)), ("riesz1", (2,)), ("log_bump", (2,)), ("riesz2", (2, 2))):
        m = builtin_multiplier(name)
        for gamma in MarcOrder(rho).gammas():
            assert marcinkiewicz_seminorm(m, gamma, dyadic) == _full_grid_seminorm(m, gamma, dyadic), (name, gamma)


def test_seminorm_memory_below_one_full_grid_array():
    dyadic = DyadicRange(K=8)
    full_grid_complex = (32 * len(dyadic.radii())) ** 2 * 16
    m = builtin_multiplier("riesz2")
    tracemalloc.start()
    try:
        marcinkiewicz_seminorm(m, (1, 1), dyadic)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full_grid_complex


def test_seminorm_memory_below_two_megabytes():
    # tiles of a few first-axis nodes: no temporary the size of a radius block
    m, dyadic = builtin_multiplier("riesz2"), DyadicRange(K=8)
    marcinkiewicz_seminorm(m, (1, 1), dyadic)  # warm-up: Gauss-Legendre cache, lazy imports
    tracemalloc.start()
    try:
        marcinkiewicz_seminorm(m, (1, 1), dyadic)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_marc_order_gammas_last_entry_fastest():
    assert list(MarcOrder((2, 1)).gammas()) == list(np.ndindex(3, 2))
    assert list(MarcOrder((0,)).gammas()) == [(0,)]


def _log_uniform_points(n, d, seed):
    return 10.0 ** np.random.default_rng(seed).uniform(-3.0, 3.0, size=(n, d))


def test_partial_values_written_out_d1():
    m = builtin_multiplier("imag_decay")  # no analytic partials
    lam = _log_uniform_points(2000, 1, 0)
    h = _STEP_REL * lam

    def at(o):
        return m(lam + o * h)

    written = {
        0: m(lam),
        1: (at(0.5) - at(-0.5)) / h[:, 0],
        2: (at(1.0) - 2.0 * at(0.0) + at(-1.0)) / h[:, 0] ** 2,
        3: (at(1.5) - 3.0 * at(0.5) + 3.0 * at(-0.5) - at(-1.5)) / h[:, 0] ** 3,
        4: (at(2.0) - 4.0 * at(1.0) + 6.0 * at(0.0) - 4.0 * at(-1.0) + at(-2.0)) / h[:, 0] ** 4,
    }
    for g, expected in written.items():
        np.testing.assert_array_equal(_partial_values(m, (g,), [lam[:, 0]]), expected)
    riesz1 = builtin_multiplier("riesz1")  # analytic partials win over the stencil
    np.testing.assert_array_equal(_partial_values(riesz1, (1,), [lam[:, 0]]), riesz1.partials[(1,)](lam))


def test_partial_values_written_out_d2():
    m = builtin_multiplier("riesz2")  # no analytic partials
    axes = _log_uniform_points(50, 2, 1).T
    lam = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    h = _STEP_REL * lam
    h1, h2 = h[:, 0], h[:, 1]

    def at(o1, o2):
        return m(np.column_stack([lam[:, 0] + o1 * h1, lam[:, 1] + o2 * h2]))

    written = {
        (1, 0): (at(0.5, 0.0) - at(-0.5, 0.0)) / h1,
        (1, 1): (at(0.5, 0.5) - at(0.5, -0.5) - at(-0.5, 0.5) + at(-0.5, -0.5)) / (h1 * h2),
        (0, 2): (at(0.0, 1.0) - 2.0 * at(0.0, 0.0) + at(0.0, -1.0)) / h2**2,
        (2, 2): (
            at(1.0, 1.0) - 2.0 * at(1.0, 0.0) + at(1.0, -1.0)
            - 2.0 * at(0.0, 1.0) + 4.0 * at(0.0, 0.0) - 2.0 * at(0.0, -1.0)
            + at(-1.0, 1.0) - 2.0 * at(-1.0, 0.0) + at(-1.0, -1.0)
        ) / (h1**2 * h2**2),
    }
    for g, expected in written.items():
        np.testing.assert_array_equal(_partial_values(m, g, list(axes)), expected)


def test_mar_norm_product_bounded_by_factor_norms():
    m1 = builtin_multiplier("riesz1")
    m2 = log_gaussian()

    def prod(lam):
        lam = np.atleast_2d(lam)
        return m1.evaluate(lam[:, :1]) * m2.evaluate(lam[:, 1:])

    bound = mar_norm(m1, MarcOrder((1,))) * mar_norm(m2, MarcOrder((1,)))
    assert mar_norm(MultiplierSpec(2, prod), MarcOrder((1, 1))) <= bound * (1.0 + 1e-6)


def test_mar_norm_order_length_mismatch():
    with pytest.raises(ValueError, match="order length"):
        mar_norm(builtin_multiplier("riesz2"), MarcOrder((1,)))


def test_marc_order_rejects_negative():
    with pytest.raises(ValueError, match=">= 0"):
        MarcOrder((-1,))


def test_dyadic_range_validation():
    with pytest.raises(ValueError, match="K must be >= 1"):
        DyadicRange(K=0)


def test_dyadic_radii_sorted_and_seeded():
    r = DyadicRange().radii()
    assert np.all(np.diff(r) > 0)
    assert np.array_equal(r, DyadicRange().radii())


# -- Mellin transform --------------------------------------------------------


def test_mellin_gamma_identity():
    # lam e^{-lam} transforms to Gamma(1 - iu)
    m = lam_exp()
    for u in (0.0, 1.0, -1.0, 3.0, -3.0):
        assert abs(mellin(m, u) - complex(gamma_fn(1.0 - 1j * u))) < 1e-6


def test_mellin_log_gaussian():
    m = log_gaussian()
    for u in (0.0, 1.0, 2.5):
        expect = math.sqrt(2.0 * math.pi) * math.exp(-u * u / 2.0)
        assert abs(mellin(m, u) - expect) < 1e-8


def test_mellin_product_factorizes():
    m1, m2 = lam_exp(), log_gaussian()

    def prod(lam):
        lam = np.atleast_2d(lam)
        return m1.evaluate(lam[:, :1]) * m2.evaluate(lam[:, 1:])

    grid = LogGrid(n=1 << 12)
    got = mellin(MultiplierSpec(2, prod), (1.0, 0.5), grid)
    assert abs(got - mellin(m1, 1.0, grid) * mellin(m2, 0.5, grid)) < 1e-10


def test_mellin_rejects_fat_tails():
    with pytest.raises(MellinTailError, match="tail mass"):
        mellin(builtin_multiplier("one"), 0.0)


def test_mellin_frequency_length_mismatch():
    with pytest.raises(ValueError, match="one entry per"):
        mellin(lam_exp(), (1.0, 2.0))


def test_log_bump_mellin_closed_form():
    # exp(-(log lam)^2 / 2) is a Gaussian in s = log lam: its Mellin
    # transform is sqrt(2 pi) e^{-u^2/2}
    u = np.linspace(0.0, 10.0, 101)
    got = mellin_on_grid(builtin_multiplier("log_bump"), u)
    assert np.max(np.abs(got - math.sqrt(2.0 * math.pi) * np.exp(-0.5 * u**2))) <= 1e-12


def test_mellin_on_grid_matches_pointwise():
    m = lam_exp()
    u = np.array([0.0, 1.0, 2.0])
    vec = mellin_on_grid(m, u)
    assert np.allclose(vec, [mellin(m, v) for v in u], rtol=1e-12, atol=1e-12)


def test_mellin_inversion_round_trip():
    m = log_gaussian()
    u = np.linspace(-12.0, 12.0, 1201)
    M = mellin_on_grid(m, u)
    lam = np.geomspace(0.2, 5.0, 9)
    rec = mellin_inverse(u, M, lam)
    assert np.max(np.abs(rec - m(lam[:, None]))) < 1e-6
    assert isinstance(mellin_inverse(u, M, 1.0), complex)


def test_mellin_inversion_window_too_small():
    u = np.linspace(-2.0, 2.0, 101)
    M = np.sqrt(2.0 * np.pi) * np.exp(-(u**2) / 2.0)
    with pytest.raises(MellinTailError, match="window too small"):
        mellin_inverse(u, M, 1.0)


def test_plancherel_log_gaussian():
    m = log_gaussian()
    assert plancherel_residual(m) < 1e-8
    # both sides in closed form: the lambda-side energy is sqrt(pi)
    s, w = LogGrid().nodes()
    lhs = float(np.sum(w * np.abs(m(np.exp(s)[:, None])) ** 2))
    assert lhs == pytest.approx(math.sqrt(math.pi), abs=1e-10)


def test_plancherel_zero():
    assert plancherel_residual(builtin_multiplier("zero")) == 0.0


def test_plancherel_rejects_fat_tails():
    with pytest.raises(MellinTailError, match="tail mass"):
        plancherel_residual(builtin_multiplier("one"))


# -- damped envelopes and decay ----------------------------------------------


def test_make_mNt_gamma_values():
    m = make_mNt(builtin_multiplier("one"), 1, 1.0)
    assert abs(mellin(m, 0.0) - 1.0) < 1e-9
    assert abs(mellin(m, 1.0) - complex(gamma_fn(1.0 - 1j))) < 1e-6


def test_make_mNt_scaling_law():
    # change of variables t*lam -> lam gives M(u) = t^{iu} Gamma(1 - iu)
    for t in (0.5, 2.0):
        got = mellin(make_mNt(builtin_multiplier("one"), 1, t), 1.0)
        assert abs(got - t**1j * complex(gamma_fn(1.0 - 1j))) < 1e-6
        assert abs(abs(got) - abs(gamma_fn(1.0 - 1j))) < 1e-9


def test_make_mNt_zero_multiplier():
    m = make_mNt(builtin_multiplier("zero"), 1, 1.0)
    lam = np.array([[0.5], [1.0], [7.0]])
    assert np.all(m(lam) == 0)


def test_make_mNt_validation():
    one = builtin_multiplier("one")
    with pytest.raises(ValueError, match="positive"):
        make_mNt(one, 1, 0.0)
    with pytest.raises(ValueError, match=">= 1"):
        make_mNt(one, 0, 1.0)
    with pytest.raises(ValueError, match="one entry per"):
        make_mNt(one, (1, 1), 1.0)


def test_decay_check_constant_multiplier():
    rep = decay_check(builtin_multiplier("one"), 2, 1)
    assert rep.slope_ok()
    assert rep.slopes[0] <= -1.0 + 0.15
    # sup over t is t-independent here, S(u) = |Gamma(2 - iu)| exactly
    assert abs(rep.sup_abs[0] - abs(gamma_fn(2.0 - 2.0j))) < 1e-8
    assert rep.u_grid[0] == 2.0 and rep.u_grid[-1] == 40.0


def test_decay_check_builtin_family():
    for name in ("one", "riesz1", "imag_decay", "log_bump"):
        rep = decay_check(builtin_multiplier(name), 2, 1)
        assert rep.slope_ok(), name
        assert np.isfinite(rep.constant), name


def test_decay_check_blocks_match_small_calls():
    # 600 frequencies span three phase blocks; each 25-point call fits in one
    m = builtin_multiplier("imag_decay")
    grid = LogGrid(n=1 << 11)
    u = np.geomspace(2.0, 40.0, 600)
    whole = decay_check(m, 2, 1, u_grid=u, grid=grid).sup_abs
    parts = np.concatenate([decay_check(m, 2, 1, u_grid=u[i : i + 25], grid=grid).sup_abs for i in range(0, 600, 25)])
    np.testing.assert_allclose(whole, parts, rtol=1e-14, atol=0.0)


def test_decay_check_memory_below_full_phase_matrix():
    u = np.geomspace(2.0, 40.0, 2000)
    grid = LogGrid(n=1 << 9)
    tracemalloc.start()
    try:
        decay_check(builtin_multiplier("imag_decay"), 2, 1, u_grid=u, grid=grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(u) * grid.n * 16  # one complex (u, s) phase matrix


def test_decay_check_zero_multiplier():
    rep = decay_check(builtin_multiplier("zero"), 2, 1)
    assert np.all(rep.sup_abs == 0.0)
    assert rep.slopes == (-np.inf,)
    assert rep.slope_ok()


def test_decay_check_requires_order_gap():
    with pytest.raises(ValueError, match="N > rho"):
        decay_check(builtin_multiplier("one"), 1, 1)


def test_decay_check_one_dimensional_only():
    with pytest.raises(NotImplementedError):
        decay_check(builtin_multiplier("riesz2"), (2, 2), (1, 1))


# -- boundary rotations and order arithmetic ----------------------------------


def test_rotate_identity_at_zero_angle():
    m = builtin_multiplier("riesz2")
    rot = rotate_multiplier(m, (0.0,), (1.0,))
    pts = np.abs(np.random.default_rng(0).random((40, 2))) + 0.1
    assert np.max(np.abs(rot(pts) - m(pts))) < 1e-14


def test_rotate_riesz_quarter_turn():
    rot = rotate_multiplier(builtin_multiplier("riesz2"), (np.pi / 4,), (1.0,))
    got = rot(np.array([[1.0, 1.0]]))[0]
    z = np.exp(1j * np.pi / 4)
    assert abs(got - z / (z + 1.0)) < 1e-15
    assert got == pytest.approx(0.5 + 0.20710678j, abs=1e-8)


def test_rotated_riesz_stays_bounded():
    # z1/(z1+z2) has modulus <= 1 while the opening angle stays below pi/2
    rot = rotate_multiplier(builtin_multiplier("riesz2"), (np.pi / 6,), (-1.0,))
    pts = np.abs(np.random.default_rng(1).random((200, 2))) + 1e-3
    assert np.max(np.abs(rot(pts))) <= 1.0 + 1e-12


def test_rotate_validation():
    r2 = builtin_multiplier("riesz2")
    with pytest.raises(ValueError, match="sector evaluator"):
        rotate_multiplier(builtin_multiplier("imag_decay"), (0.1,), (1.0,))
    with pytest.raises(ValueError, match="equal length"):
        rotate_multiplier(r2, (0.1, 0.2), (1.0,))
    with pytest.raises(ValueError, match="more angles"):
        rotate_multiplier(r2, (0.1, 0.1, 0.1), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match=r"\+-1"):
        rotate_multiplier(r2, (0.1,), (2.0,))


def test_phi_star():
    assert phi_star(2.0) == 0.0
    assert phi_star(4.0) == pytest.approx(math.pi / 6, rel=1e-15)
    assert phi_star(1.01) == pytest.approx(math.asin(abs(2.0 / 1.01 - 1.0)), rel=1e-15)
    assert phi_star(1.01) == pytest.approx(1.373, abs=2e-3)
    with pytest.raises(ValueError):
        phi_star(1.0)


def test_required_order():
    prof = DecayProfile(theta=(3.0,), sigma=(2.0,))
    assert np.array_equal(required_order(2.0, prof), [1.0, 1.0])
    assert np.array_equal(required_order(4.0, prof), [1.75, 1.5])


def test_worst_case_order():
    prof = DecayProfile(theta=(3.0, 3.0), sigma=(3.0,))
    assert np.array_equal(worst_case_order(prof), [2.5, 2.5, 2.5])


def test_decay_profile_validation():
    with pytest.raises(ValueError, match="sigma"):
        DecayProfile(theta=(1.0,), sigma=(0.0,))
    with pytest.raises(ValueError, match="theta"):
        DecayProfile(theta=(-1.0,), sigma=(1.0,))
    with pytest.raises(ValueError, match="angles"):
        DecayProfile(theta=(1.0,), sigma=(1.0,), phi_p=(np.pi / 2,))
    with pytest.raises(ValueError, match="p must lie"):
        DecayProfile(theta=(1.0,), sigma=(1.0,), p=1.0)


# -- square function ----------------------------------------------------------


@pytest.fixture(scope="module")
def ou1():
    return ou_system(1, 12)


def test_square_constant_values():
    assert square_constant((1,)) == 0.25
    assert square_constant((1, 2)) == pytest.approx(0.25 * 6.0 / 16.0, rel=1e-15)


def test_square_constant_exact_on_schema_orders():
    # every order the square-function schema accepts: one or two entries in 1..4
    orders = [(n,) for n in range(1, 5)] + list(itertools.product(range(1, 5), repeat=2))
    assert len(orders) == 20
    for N in orders:
        exact = math.prod(Fraction(math.factorial(2 * n - 1), 4**n) for n in N)
        assert square_constant(N) == float(exact)


def test_square_function_zero_coefficients(ou1):
    params = square_function_params(ou1, 1)
    g = square_function(ou1, CoefficientVector({(2,): 0.0}), params)
    assert np.all(g.values == 0.0)


def test_square_function_single_eigenvector(ou1):
    params = square_function_params(ou1, 1)
    c = CoefficientVector({(5,): 1.3})
    f = reconstruct(c, ou1)
    g = square_function(ou1, c, params)
    scale = np.max(np.abs(f.values))
    assert np.max(np.abs(g.values - 0.5 * np.abs(f.values))) < 1e-6 * scale


def test_square_function_l2_identity(ou1):
    params = square_function_params(ou1, 1)
    c = ou1.random_coefficients(np.random.default_rng(3), atl_safe=True)
    g = square_function(ou1, c, params)
    assert g.norm_lp(2) ** 2 == pytest.approx(0.25 * c.norm() ** 2, rel=1e-6)


def test_square_function_l2_identity_two_axes():
    s6 = ou_system(1, 6)
    sys2 = tensor(s6, s6)
    params = square_function_params(sys2, (1, 2))
    c = sys2.random_coefficients(np.random.default_rng(4), atl_safe=True)
    g = square_function(sys2, c, params)
    expect = square_constant((1, 2)) * c.norm() ** 2
    assert g.norm_lp(2) ** 2 == pytest.approx(expect, rel=1e-6)


def _square_function_einsum(sys, c, params):
    """g_N from the per-axis t-kernels and the 3-operand contraction sum_ab C_ab B_bp B_ap."""
    support = np.flatnonzero(c.values)
    rows = sys.positions(c.indices)[support]
    lam = sys.eigenvalue_matrix()[rows]
    cvec = c.values[support]
    M = np.ones((len(support), len(support)))
    for j, (t, w, Nj) in enumerate(zip(params.t_nodes, params.t_weights, params.N)):
        P = np.outer(lam[:, j], t) ** Nj * np.exp(-np.outer(lam[:, j], t))
        M *= (P * w) @ P.T
    B = sys.basis_matrix()[rows]
    C = (cvec[:, None] * np.conj(cvec)[None, :]) * M
    return np.sqrt(np.clip(np.einsum("ab,bp,ap->p", C, B, B).real, 0.0, None))


def _complex_coefficients(sys, seed):
    # zero where an eigenvalue vanishes, as the square function requires
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(len(sys)) + 1j * rng.standard_normal(len(sys))
    values[np.any(sys.eigenvalue_matrix() == 0.0, axis=1)] = 0.0
    return CoefficientVector(indices=sys.basis_index_set, values=values)


def test_square_function_matches_three_operand_einsum(ou1):
    # complex coefficients: Im C must drop out of the real-basis contraction
    ou_torus = tensor(ou_system(1, 12), torus_system(3, 32))
    for sys, N in ((ou1, (1,)), (ou_torus, (2, 2)), (ou_torus, (1, 2))):
        params = square_function_params(sys, N)
        for seed in range(3):
            c = _complex_coefficients(sys, seed)
            assert np.any(c.values.imag != 0.0)
            got = square_function(sys, c, params).values
            np.testing.assert_allclose(got, _square_function_einsum(sys, c, params), rtol=1e-13, atol=0.0)


def test_square_function_zero_eigenvalue_rejected(ou1):
    params = square_function_params(ou1, 1)
    with pytest.raises(ATLViolation, match=r"index \(0,\).*axis 0"):
        square_function(ou1, CoefficientVector({(0,): 1.0, (3,): 1.0}), params)


def test_square_function_params_length(ou1):
    with pytest.raises(ValueError, match="one entry per"):
        square_function_params(ou1, (1, 1))


def test_default_t_grid():
    t, w = default_t_grid(1.0, 12.0)
    assert t[0] == pytest.approx(1e-4 / 12.0) and t[-1] == pytest.approx(1e4)
    assert np.all(w > 0)
    with pytest.raises(ValueError, match="0 < lam_min"):
        default_t_grid(0.0, 1.0)


# -- builtin family ------------------------------------------------------------


def test_builtin_names():
    for name in ("one", "zero", "riesz1", "imag", "imag_decay", "log_bump", "riesz2"):
        assert builtin_multiplier(name).arity in (1, 2)
    with pytest.raises(KeyError, match="unknown multiplier"):
        builtin_multiplier("nope")


def test_riesz2_vanishes_at_origin():
    assert builtin_multiplier("riesz2")(np.array([[0.0, 0.0]]))[0] == 0.0


def test_riesz2_evaluator_is_plain_division():
    lam = 10.0 ** np.random.default_rng(5).uniform(-6.0, 6.0, size=(4000, 2))
    lam[:5] = 0.0
    lam[5:8, 0] = 0.0  # zero numerator, positive total
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = builtin_multiplier("riesz2")(lam)
    assert got.dtype == complex and np.all(got.imag == 0.0)
    assert np.all(got[:5] == 0.0)
    np.testing.assert_array_equal(got[5:].real, lam[5:, 0] / (lam[5:, 0] + lam[5:, 1]))
