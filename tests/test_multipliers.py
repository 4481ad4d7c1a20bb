import functools
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
    BUILTIN_MULTIPLIERS,
    _CAUCHY_NODES,
    _CAUCHY_RADIUS,
    _STEP_REL,
    ATLViolation,
    DecayProfile,
    DyadicRange,
    MellinTailError,
    builtin_multiplier,
    decay_check,
    marcinkiewicz_seminorm,
    mellin_on_grid,
    phi_star,
    required_order,
    rotate_multiplier,
    square_constant,
    square_function,
    worst_case_order,
)
from specmult import multipliers
from specmult.cli import build_config, run
from specmult.multipliers import _EXP_ZERO, _U_BLOCK, _axis_rows, _partial_values, _phase_blocks, _t_grid, _t_kernel
from specmult.ouhermite import ou_system
from specmult.products import torus_system
from specmult.spectral import (
    EvaluationError,
    MultiplierSpec,
    SpectralSystem,
    _pair_rows,
    gauss_legendre,
    reconstruct,
    tensor,
)

MAR_RIESZ1_RHO1 = 0.6931462268866521  # frozen regression value, default dyadic range
MAR_RIESZ2_RHO11 = 0.48045301391729195  # riesz2, max over gamma <= (1, 1), default dyadic range
SEMINORM_RIESZ2_11_SMALL = 0.004119911576609029  # gamma (1, 1), K = 2, no off-dyadic, n_gl = 8


def lam_exp():
    return MultiplierSpec(
        1, lambda lam: (np.atleast_2d(lam)[:, 0] * np.exp(-np.atleast_2d(lam)[:, 0])).astype(complex)
    )


def max_seminorm(m, rho):
    """The marcinkiewicz report's mar_norm: the largest seminorm over gamma <= rho."""
    return max([0.0] + [marcinkiewicz_seminorm(m, gamma) for gamma in np.ndindex(*(r + 1 for r in rho))])


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


def _imag_decay_sector():
    """imag_decay (u = 1) with the holomorphic extension z^i e^{-z} it lacks."""
    f = lambda z: z[:, 0] ** 1j * np.exp(-z[:, 0])
    return MultiplierSpec(1, f, sector_evaluate=f, name="imag_decay[sector]")


_CAUCHY_ORACLES = {
    "riesz1": (lambda: builtin_multiplier("riesz1"), lambda z: z / (1 + z)),
    "imag": (lambda: builtin_multiplier("imag"), lambda z: z**1j),
    "log_bump": (lambda: builtin_multiplier("log_bump"), lambda z: mpmath.exp(-mpmath.log(z) ** 2 / 2)),
    "imag_decay": (_imag_decay_sector, lambda z: z**1j * mpmath.exp(-z)),
}


@pytest.mark.parametrize("name", sorted(_CAUCHY_ORACLES))
def test_cauchy_partials_match_mpmath(name):
    # each error within 1e-14 times the Cauchy ceiling k! rho^-k max_disc|m|,
    # which also bounds the rule's value itself
    make, exact_fn = _CAUCHY_ORACLES[name]
    m = make()
    lam = np.array([1e-3, 0.1, 1.0, 3.0, 10.0])
    # max modulus: the disc's max sits on its circle, sampled through the rule's nodes
    n = 64 * _CAUCHY_NODES
    circle = np.multiply.outer(lam, 1.0 + _CAUCHY_RADIUS * np.exp(2j * math.pi * np.arange(n) / n))
    disc_max = np.abs(m.sector_evaluate(circle.reshape(-1, 1))).reshape(circle.shape).max(axis=1)
    for k in range(1, 5):
        vals, scale = _partial_values(m, (k,), [lam])
        got = scale * vals
        ceiling = math.factorial(k) * _CAUCHY_RADIUS**-k * disc_max
        with mpmath.workdps(30):
            exact = np.array(
                [complex(x**k * mpmath.diff(exact_fn, x, k)) for x in map(mpmath.mpf, lam)]
            )
        assert np.all(np.abs(got - exact) <= 1e-14 * ceiling), (name, k)
        assert np.all(np.abs(got) <= ceiling), (name, k)


def _seminorm_axis(dyadic=DyadicRange(), n_gl=32):
    """The per-axis Gauss-Legendre nodes of a seminorm: n_gl per dyadic box."""
    xi, _ = gauss_legendre(n_gl)
    return np.exp((np.log(dyadic.radii())[:, None] + (xi[None, :] + 1.0) / 2.0 * math.log(2.0)).ravel())


@pytest.mark.parametrize(
    "name", [n for n in BUILTIN_MULTIPLIERS if builtin_multiplier(n).sector_evaluate is not None]
)
def test_sector_evaluate_equals_evaluate_on_seminorm_axis(name):
    # the Cauchy rule differentiates sector_evaluate, so it must be the
    # function the reports evaluate on the positive reals
    m = builtin_multiplier(name)
    axis = _seminorm_axis()
    if m.arity == 1:
        lam = axis[:, None]
    else:  # every 8th node keeps the 2-d tensor grid at 110k points
        lam = np.stack(np.meshgrid(axis[::8], axis[::8], indexing="ij"), axis=-1).reshape(-1, 2)
    np.testing.assert_allclose(
        m.sector_evaluate(lam.astype(complex)), m(lam), rtol=2 * np.finfo(float).eps, atol=0.0
    )


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
    assert max_seminorm(builtin_multiplier("one"), (2,)) == pytest.approx(
        math.log(2.0), rel=1e-13
    )


def test_mar_norm_riesz_frozen():
    got = max_seminorm(builtin_multiplier("riesz1"), (1,))
    assert got == pytest.approx(MAR_RIESZ1_RHO1, rel=1e-12)


def test_mar_norm_riesz2_frozen():
    got = max_seminorm(builtin_multiplier("riesz2"), (1, 1))
    assert got == pytest.approx(MAR_RIESZ2_RHO11, rel=1e-13)
    # the max above is the gamma = 0 box; this pins the 2-d stencil and contraction
    small = DyadicRange(K=2, n_offdyadic=0)
    got = marcinkiewicz_seminorm(builtin_multiplier("riesz2"), (1, 1), small, n_gl=8)
    assert got == pytest.approx(SEMINORM_RIESZ2_11_SMALL, rel=1e-13)


def _full_grid_seminorm(m, gamma, dyadic, n_gl=32):
    """The seminorm on the whole d-fold tensor grid at once, node axes contracted last first."""
    d = m.arity
    R = dyadic.radii()
    _, wq = gauss_legendre(n_gl)
    lam_axis = _seminorm_axis(dyadic, n_gl)
    vals, scale = _partial_values(m, gamma, [lam_axis] * d)
    box = (np.abs(vals) ** 2).reshape((len(R), n_gl) * d)
    for axis in range(2 * d - 1, 0, -2):
        box = np.moveaxis(box, axis, -1) @ (wq / 2.0)
    return float(box.max() * scale**2 * math.log(2.0) ** d)


def test_blocked_seminorm_equals_full_grid():
    # per-radius blocks end in the full grid's (n_R, n_gl, ...) contraction, bit for bit
    dyadic = DyadicRange(K=3)
    cases = (("imag_decay", (4,)), ("riesz1", (2,)), ("imag", (4,)), ("log_bump", (2,)), ("riesz2", (2, 2)))
    for name, rho in cases:
        m = builtin_multiplier(name)
        for gamma in np.ndindex(*(r + 1 for r in rho)):
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


def test_axis_rows_equal_pair_rows_with_contiguous_columns():
    rng = np.random.default_rng(11)
    for lengths in ((37,), (5, 9)):
        axes = [rng.uniform(0.1, 10.0, n) for n in lengths]
        rows = _axis_rows(axes)
        np.testing.assert_array_equal(rows, functools.reduce(_pair_rows, [a[:, None] for a in axes]))
        assert all(rows[:, j].flags.c_contiguous for j in range(len(axes)))


def _log_uniform_points(n, d, seed):
    return 10.0 ** np.random.default_rng(seed).uniform(-3.0, 3.0, size=(n, d))


def test_partial_values_written_out_d1():
    # the stencil's sum, and its one scale lam^g / h^g = _STEP_REL^-g
    m = builtin_multiplier("imag_decay")  # no sector_evaluate: the stencil
    lam = _log_uniform_points(2000, 1, 0)
    h = _STEP_REL * lam

    def at(o):
        return m(lam + o * h)

    written = {
        0: m(lam),
        1: at(0.5) - at(-0.5),
        2: at(1.0) - 2.0 * at(0.0) + at(-1.0),
        3: at(1.5) - 3.0 * at(0.5) + 3.0 * at(-0.5) - at(-1.5),
        4: at(2.0) - 4.0 * at(1.0) + 6.0 * at(0.0) - 4.0 * at(-1.0) + at(-2.0),
    }
    for g, expected in written.items():
        vals, scale = _partial_values(m, (g,), [lam[:, 0]])
        np.testing.assert_array_equal(vals, expected)
        assert scale == _STEP_REL**-g
    riesz1 = builtin_multiplier("riesz1")  # a sector_evaluate: the Cauchy rule wins over the stencil
    theta = 2.0 * math.pi * np.arange(64) / 64
    x = lam[:, 0]
    z = x[:, None] * (1.0 + 0.5 * np.exp(1j * theta))[None, :]
    on_circle = (z / (1.0 + z)) * np.exp(-1j * theta)  # riesz1 on the circle, times e^{-i theta}
    vals, scale = _partial_values(riesz1, (1,), [x])
    np.testing.assert_array_equal(vals, on_circle.mean(axis=1))
    assert scale == 1.0 / 0.5  # k! / rho^k


def test_partial_values_written_out_d2():
    m = builtin_multiplier("riesz2")  # d = 2: the stencil
    axes = _log_uniform_points(50, 2, 1).T
    lam = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    h = _STEP_REL * lam
    h1, h2 = h[:, 0], h[:, 1]

    def at(o1, o2):
        return m(np.column_stack([lam[:, 0] + o1 * h1, lam[:, 1] + o2 * h2]))

    written = {
        (1, 0): at(0.5, 0.0) - at(-0.5, 0.0),
        (1, 1): at(0.5, 0.5) - at(0.5, -0.5) - at(-0.5, 0.5) + at(-0.5, -0.5),
        (0, 2): at(0.0, 1.0) - 2.0 * at(0.0, 0.0) + at(0.0, -1.0),
        (2, 2): (
            at(1.0, 1.0) - 2.0 * at(1.0, 0.0) + at(1.0, -1.0)
            - 2.0 * at(0.0, 1.0) + 4.0 * at(0.0, 0.0) - 2.0 * at(0.0, -1.0)
            + at(-1.0, 1.0) - 2.0 * at(-1.0, 0.0) + at(-1.0, -1.0)
        ),
    }
    for g, expected in written.items():
        vals, scale = _partial_values(m, g, list(axes))
        np.testing.assert_array_equal(vals, expected)
        assert scale == _STEP_REL**-sum(g)


def test_mar_norm_product_bounded_by_factor_norms():
    m1 = builtin_multiplier("riesz1")
    m2 = log_gaussian()

    def prod(lam):
        lam = np.atleast_2d(lam)
        return m1.evaluate(lam[:, :1]) * m2.evaluate(lam[:, 1:])

    bound = max_seminorm(m1, (1,)) * max_seminorm(m2, (1,))
    assert max_seminorm(MultiplierSpec(2, prod), (1, 1)) <= bound * (1.0 + 1e-6)


def test_dyadic_range_validation():
    with pytest.raises(ValueError, match="K: expected an integer >= 1"):
        DyadicRange(K=0)


def _seminorm_of(name, gamma):
    return lambda: marcinkiewicz_seminorm(builtin_multiplier(name), gamma)


_BAD_SEMINORM_INPUTS = [
    pytest.param(_seminorm_of("imag_decay", (-1,)), "gamma", id="stencil-negative"),
    pytest.param(_seminorm_of("riesz1", (-1,)), "gamma", id="cauchy-negative"),
    pytest.param(_seminorm_of("riesz1", (1.5,)), "gamma", id="fractional"),
    pytest.param(_seminorm_of("riesz2", (1, True)), "gamma", id="bool-order"),
    pytest.param(lambda: DyadicRange(K=2.5), "K", id="fractional-K"),
    pytest.param(lambda: DyadicRange(K=True), "K", id="bool-K"),
    pytest.param(lambda: DyadicRange(n_offdyadic=-2), "n_offdyadic", id="negative-offdyadic"),
    pytest.param(lambda: DyadicRange(n_offdyadic=1.0), "n_offdyadic", id="float-offdyadic"),
    pytest.param(lambda: DyadicRange(seed=-1), "seed", id="negative-seed"),
]


@pytest.mark.parametrize("call, name", _BAD_SEMINORM_INPUTS)
def test_seminorm_inputs_rejected_by_name(call, name):
    # these once raised a bare TypeError, a factorial error or NumPy's seed
    # error, or ran quietly (order 1.5 ran as order 1, K = 2.5 built non-dyadic radii)
    with pytest.raises(ValueError, match=f"^{name}: expected an integer"):
        call()


def test_dyadic_radii_sorted_and_seeded():
    r = DyadicRange().radii()
    assert np.all(np.diff(r) > 0)
    assert np.array_equal(r, DyadicRange().radii())


# -- Mellin transform --------------------------------------------------------


def test_mellin_gamma_identity():
    # lam e^{-lam} transforms to Gamma(1 - iu)
    u = np.array([0.0, 1.0, -1.0, 3.0, -3.0])
    got = mellin_on_grid(lam_exp(), u)
    for v, g in zip(u, got):
        assert abs(g - complex(gamma_fn(1.0 - 1j * v))) < 1e-6


def test_mellin_log_gaussian():
    u = np.array([0.0, 1.0, 2.5])
    got = mellin_on_grid(log_gaussian(), u)
    for v, g in zip(u, got):
        expect = math.sqrt(2.0 * math.pi) * math.exp(-v * v / 2.0)
        assert abs(g - expect) < 1e-8


def test_mellin_rejects_bad_u_values():
    # a 2-d array once raised NumPy's broadcast error, and a NaN frequency gave a NaN row
    m = builtin_multiplier("log_bump")
    for u in (np.zeros((2, 3)), np.array([1.0, np.nan]), np.array([np.inf]), np.float64(1.0)):
        with pytest.raises(ValueError, match="u_values: expected a 1-d array of finite frequencies"):
            mellin_on_grid(m, u)
    assert mellin_on_grid(m, np.array([])).shape == (0,)


def test_mellin_rejects_fat_tails():
    with pytest.raises(MellinTailError, match="tail mass"):
        mellin_on_grid(builtin_multiplier("one"), np.array([0.0]))


def test_log_bump_mellin_closed_form():
    # exp(-(log lam)^2 / 2) is a Gaussian in s = log lam: its Mellin
    # transform is sqrt(2 pi) e^{-u^2/2}
    u = np.linspace(0.0, 10.0, 101)
    got = mellin_on_grid(builtin_multiplier("log_bump"), u)
    assert np.max(np.abs(got - math.sqrt(2.0 * math.pi) * np.exp(-0.5 * u**2))) <= 1e-12


# -- damped envelopes and decay ----------------------------------------------


def test_decay_check_constant_multiplier():
    rep = decay_check(builtin_multiplier("one"), 2, 1)
    assert rep.slope_ok()
    assert rep.slope <= -1.0 + 0.15
    # sup over t is t-independent here, S(u) = |Gamma(2 - iu)| exactly
    assert abs(rep.sup_abs[0] - abs(gamma_fn(2.0 - 2.0j))) < 1e-8
    assert rep.u_grid[0] == 2.0 and rep.u_grid[-1] == 40.0
    # t lam -> lam turns Mellin(m_{N,t})(u) into t^{iu} Gamma(N - iu), so
    # S(u) = |Gamma(N - iu)| for every N, checked against mpmath on the
    # 200-point grid of mellin-decay; rows below 1e-6 of the largest value
    # sit under the trapezoid sum's rounding floor and are not compared
    u = np.geomspace(2.0, 40.0, 200)
    for N in (2, 3, 4):
        exact = np.array([float(abs(mpmath.gamma(mpmath.mpc(N, -v)))) for v in u])
        rows = exact >= 1e-6 * exact.max()
        got = decay_check(builtin_multiplier("one"), N, 1, u_grid=u).sup_abs
        assert rows.sum() >= 120
        np.testing.assert_allclose(got[rows], exact[rows], rtol=1e-8, atol=0.0)


def test_decay_check_sup_is_max_of_direct_mellin_sums(monkeypatch):
    # S(u) is the max over the t samples of |Mellin(m_{N,t})(u)|, each a direct
    # trapezoid sum by mellin_on_grid: the oracle for any faster decay_check
    monkeypatch.setattr(multipliers, "_LOG_NODES", 1 << 11)
    u = np.geomspace(2.0, 40.0, 25)
    for name, N in (("one", 2), ("imag_decay", 3)):
        m = builtin_multiplier(name)
        rep = decay_check(m, N, N - 1, u_grid=u)
        direct = np.zeros(len(u))
        for t in rep.t_samples:
            m_nt = MultiplierSpec(1, lambda lam, t=t: (t * lam[:, 0]) ** N * np.exp(-t * lam[:, 0]) * m(lam))
            direct = np.maximum(direct, np.abs(mellin_on_grid(m_nt, u)))
        rows = rep.sup_abs >= 1e-6 * rep.sup_abs.max()
        assert rows.sum() >= 10, name
        np.testing.assert_allclose(rep.sup_abs[rows], direct[rows], rtol=1e-12, atol=0.0, err_msg=name)


def test_decay_check_builtin_family():
    for name in ("one", "riesz1", "imag_decay", "log_bump"):
        rep = decay_check(builtin_multiplier(name), 2, 1)
        assert rep.slope_ok(), name
        assert np.isfinite(rep.constant), name


def test_decay_check_blocks_match_small_calls(monkeypatch):
    # 600 frequencies span several phase blocks; each 25-point call fits in one
    m = builtin_multiplier("imag_decay")
    monkeypatch.setattr(multipliers, "_LOG_NODES", 1 << 11)
    u = np.geomspace(2.0, 40.0, 600)
    whole = decay_check(m, 2, 1, u_grid=u).sup_abs
    parts = np.concatenate([decay_check(m, 2, 1, u_grid=u[i : i + 25]).sup_abs for i in range(0, 600, 25)])
    np.testing.assert_allclose(whole, parts, rtol=1e-14, atol=0.0)


def test_decay_check_memory_below_full_phase_matrix(monkeypatch):
    u = np.geomspace(2.0, 40.0, 2000)
    monkeypatch.setattr(multipliers, "_LOG_NODES", 1 << 9)
    tracemalloc.start()
    try:
        decay_check(builtin_multiplier("imag_decay"), 2, 1, u_grid=u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(u) * multipliers._LOG_NODES * 16  # one complex (u, s) phase matrix


def test_phase_blocks_equal_one_shot_exponential(monkeypatch):
    # every block is a view of one buffer refilled in place, so each is checked as it is yielded
    monkeypatch.setattr(multipliers, "_LOG_NODES", 1 << 9)
    s = multipliers._log_grid()[0]
    for count in (1, 7, 25, 200, 600):  # 200 and 600 cross _U_BLOCK
        u = np.geomspace(2.0, 40.0, count)
        for blocks, (rows, E) in enumerate(_phase_blocks(u, s), 1):
            np.testing.assert_array_equal(E, np.exp(-1j * np.outer(u[rows], s)))
            first = E if blocks == 1 else first
            assert np.shares_memory(E, first), count
        assert blocks == -(-count // _U_BLOCK)


def test_phase_blocks_have_no_single_row_block():
    # a 1-row product rounds differently from a multi-row one, so the blocks are near-equal
    s = np.zeros(1)
    for count in range(2, 601):
        sizes = [len(E) for _, E in _phase_blocks(np.arange(count, dtype=float), s)]
        assert sum(sizes) == count and min(sizes) > 1, (count, sizes)


def test_phase_matrix_memory_one_block(monkeypatch):
    # three blocks refilled in one buffer, each filled in place: the peak stays
    # near one full-width block (decay_check's blocks are narrower, cut at t lam = _EXP_ZERO)
    u = np.geomspace(2.0, 40.0, 3 * _U_BLOCK)
    monkeypatch.setattr(multipliers, "_LOG_NODES", 1 << 12)
    calls = (
        lambda: decay_check(builtin_multiplier("one"), 4, 3, u_grid=u),
        lambda: mellin_on_grid(builtin_multiplier("log_bump"), u),
    )
    for call in calls:
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * _U_BLOCK * multipliers._LOG_NODES * 16


def _uncut_decay_sup(m, N, u):
    """decay_check's sup_abs summed over every node: one uncut phase block, E @ (w g) per t."""
    s, w = multipliers._log_grid()
    lam = np.exp(s)
    base = m(lam[:, None])
    E = np.exp(-1j * np.outer(u, s))
    S = np.zeros(len(u))
    for t in np.geomspace(1e-4, 1e4, 256):
        tl = t * lam
        g = tl**N * np.exp(-tl) * base
        S = np.maximum(S, np.abs(E @ (w * g)))
    return S


def test_decay_check_cut_is_exact(monkeypatch):
    # the nodes past each t's cut add exact zeros: the sums equal the uncut ones bit for bit
    u = np.geomspace(2.0, 40.0, 200)
    one = builtin_multiplier("one")
    np.testing.assert_array_equal(decay_check(one, 4, 3, u_grid=u).sup_abs, _uncut_decay_sup(one, 4, u))
    # at N = 20 the cut sums are still exact: |Gamma(20 - iu)|, checked against
    # mpmath on the rows above the trapezoid sum's rounding floor
    rep = decay_check(one, 20, 3, u_grid=u)
    exact = np.array([float(abs(mpmath.gamma(mpmath.mpc(20, -v)))) for v in u])
    rows = exact >= 1e-6 * exact.max()
    assert rows.sum() >= 50 and np.isfinite(rep.sup_abs).all() and np.isfinite(rep.constant)
    np.testing.assert_allclose(rep.sup_abs[rows], exact[rows], rtol=1e-9, atol=0.0)
    monkeypatch.setattr(multipliers, "_LOG_NODES", 1 << 12)
    for count in (25, 101, 200):
        u = np.geomspace(2.0, 40.0, count)
        for name in ("one", "imag_decay", "riesz1", "log_bump", "imag"):
            m = builtin_multiplier(name)
            got = decay_check(m, 4, 3, u_grid=u).sup_abs
            np.testing.assert_array_equal(got, _uncut_decay_sup(m, 4, u), err_msg=f"{name} {count}")
    # the uncut sums at N = 20 are NaN: (t lam)**20 overflows past the cuts and meets e^{-t lam} = 0
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(_uncut_decay_sup(one, 20, u)).all()
    # past N = 107 (t lam)**N overflows below the cut, at N <= 0 the integral
    # diverges at lam -> 0 (N = -30 gave NaN, N = -0.5 a finite number, both
    # with slope_ok()), and an m that is not finite on the log grid has no
    # exact-zero tail: each is named, not reported
    for N in (107.5, 0.0, -0.5, -30.0):
        with pytest.raises(ValueError, match=rf"^N: expected an order in \(0, 107\.\d+\).*got {N!r}"):
            decay_check(one, N, N - 1.0, u_grid=u)
    inf_tail = MultiplierSpec(1, lambda lam: np.where(lam[:, 0] > 1e8, np.inf, 1.0).astype(complex), name="inf_tail")
    with pytest.raises(EvaluationError, match="multiplier inf_tail is not finite"):
        decay_check(inf_tail, 4, 3, u_grid=u)


def test_decay_check_memory_below_ten_megabytes():
    # mellin-decay u_count=200 at the default log grid: five 40-row phase blocks,
    # each cut at the largest t lam = _EXP_ZERO (8 MB), one held at a time;
    # 100-row blocks peaked at 20.4 MB
    one, u = builtin_multiplier("one"), np.geomspace(2.0, 40.0, 200)
    tracemalloc.start()
    try:
        decay_check(one, 4, 3, u_grid=u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


def test_exp_is_exactly_zero_past_every_cut(monkeypatch):
    # decay_check drops the nodes past t lam = _EXP_ZERO as exact zeros; an exp
    # returning subnormals there would change the sums, so this fails loudly
    lam = np.exp(multipliers._log_grid()[0])
    monkeypatch.setattr(multipliers, "_LOG_NODES", 64)
    t_samples = decay_check(builtin_multiplier("zero"), 2, 1).t_samples
    assert len(t_samples) == 256
    for t in t_samples:
        k = np.searchsorted(lam, _EXP_ZERO / t)
        assert k < len(lam)
        assert np.all(np.exp(-(t * lam[k:])) == 0.0), t


def test_decay_check_zero_multiplier():
    rep = decay_check(builtin_multiplier("zero"), 2, 1)
    assert np.all(rep.sup_abs == 0.0)
    assert rep.slope == -np.inf
    assert rep.slope_ok()


def test_decay_check_requires_order_gap():
    with pytest.raises(ValueError, match="N > rho"):
        decay_check(builtin_multiplier("one"), 1, 1)


def test_decay_check_one_dimensional_only():
    with pytest.raises(NotImplementedError):
        decay_check(builtin_multiplier("riesz2"), (2, 2), (1, 1))


def test_decay_check_takes_two_numbers():
    # d = 1 has one order pair: a list is rejected, not read at its first entry
    one = builtin_multiplier("one")
    for N, rho in (([3, 9], [1, 2]), ([3], [1]), (3, [1]), (np.array([3.0]), 1)):
        with pytest.raises(ValueError, match="N, rho: expected two numbers"):
            decay_check(one, N, rho)
    rep = decay_check(one, 3, 1)
    assert rep.rho == 1.0 and isinstance(rep.slope, float)


def test_decay_check_rejects_bad_u_grid(monkeypatch):
    # a NaN frequency once gave slope -inf, so slope_ok() passed; the others raised NumPy errors
    one = builtin_multiplier("one")
    monkeypatch.setattr(multipliers, "_LOG_NODES", 64)
    bad = (
        np.array([np.nan, 3.0]),
        np.array([2.0, np.inf]),
        np.array([]),
        np.geomspace(2.0, 40.0, 6).reshape(2, 3),
        np.array([5.0]),
        np.array([1.0, 20.0]),  # one point in the top decade [2, 20]
        np.array([5.0, 5.0]),
    )
    for u in bad:
        with pytest.raises(ValueError, match="u_grid"):
            decay_check(one, 2, 1, u_grid=u)


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


def test_rotated_sector_takes_rows_only():
    # a 1-D array is not guessed to be one point: [1, 2] would give one value and drop the 2
    e = np.exp(0.3j)
    rot = rotate_multiplier(builtin_multiplier("riesz1"), (0.3,), (1.0,))
    for z in (np.array([1.0, 2.0]), np.ones((2, 2)), np.ones((1, 1, 1))):
        with pytest.raises(ValueError, match=r"z: expected an \(n, 1\) array, got shape"):
            rot.sector_evaluate(z)
    z = np.array([[1.0], [2.0]])
    np.testing.assert_allclose(rot.sector_evaluate(z), e * z[:, 0] / (1.0 + e * z[:, 0]), rtol=1e-15)
    with pytest.raises(ValueError, match=r"z: expected an \(n, 2\) array, got shape \(2,\)"):
        rotate_multiplier(builtin_multiplier("riesz2"), (0.3,), (1.0,)).sector_evaluate(np.array([1.0, 2.0]))


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
    g = square_function(ou1, np.zeros(len(ou1)), 1)
    assert np.all(g.values == 0.0)


def test_square_function_single_eigenvector(ou1):
    c = 1.3 * np.eye(len(ou1))[ou1.position((5,))]
    f = reconstruct(c, ou1)
    g = square_function(ou1, c, 1)
    scale = np.max(np.abs(f.values))
    assert np.max(np.abs(g.values - 0.5 * np.abs(f.values))) < 1e-6 * scale


def test_square_function_l2_identity(ou1):
    c = ou1.random_coefficients(np.random.default_rng(3), atl_safe=True)
    g = square_function(ou1, c, 1)
    assert g.norm_lp(2) ** 2 == pytest.approx(0.25 * np.linalg.norm(c) ** 2, rel=1e-6)


def test_square_function_l2_identity_two_axes():
    s6 = ou_system(1, 6)
    sys2 = tensor(s6, s6)
    c = sys2.random_coefficients(np.random.default_rng(4), atl_safe=True)
    g = square_function(sys2, c, (1, 2))
    expect = square_constant((1, 2)) * np.linalg.norm(c) ** 2
    assert g.norm_lp(2) ** 2 == pytest.approx(expect, rel=1e-6)


def _square_function_einsum(sys, c, N):
    """g_N from the per-axis t-kernels and the 3-operand contraction sum_ab C_ab B_bp B_ap."""
    spectrum = sys.eigenvalue_matrix()
    rows = np.flatnonzero(c)
    lam = spectrum[rows]
    cvec = c[rows]
    M = np.ones((len(rows), len(rows)))
    for j, Nj in enumerate(N):
        pos = spectrum[:, j][spectrum[:, j] > 0]
        t, w = _t_grid(float(pos.min()), float(pos.max()))
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
    return values


def test_square_function_matches_three_operand_einsum(ou1):
    # complex coefficients: Im C must drop out of the real-basis contraction
    ou_torus = tensor(ou_system(1, 12), torus_system(3, 32))
    for sys, N in ((ou1, (1,)), (ou_torus, (2, 2)), (ou_torus, (1, 2))):
        for seed in range(3):
            c = _complex_coefficients(sys, seed)
            assert np.any(c.imag != 0.0)
            got = square_function(sys, c, N).values
            np.testing.assert_allclose(got, _square_function_einsum(sys, c, N), rtol=1e-13, atol=0.0)


def test_square_function_zero_eigenvalue_rejected(ou1):
    c = np.zeros(len(ou1))
    c[[ou1.position((0,)), ou1.position((3,))]] = 1.0
    with pytest.raises(ATLViolation, match=r"index \(0,\).*axis 0"):
        square_function(ou1, c, 1)


def test_square_function_order_validation(ou1):
    c = ou1.random_coefficients(np.random.default_rng(3), atl_safe=True)
    # a fractional order is not truncated: 1.5 used to run as N = 1
    for N in ((1, 1), (), 0, (0,), 1.5, (2.5,)):
        with pytest.raises(ValueError, match=r"N: expected one integer order >= 1 per eigenvalue map \(1\)"):
            square_function(ou1, c, N)
    # a map with no positive eigenvalue has no t-range, even for f = 0
    flat = SpectralSystem(ou1.basis_index_set, 0.0 * ou1.eigenvalue_matrix(), ou1.basis_matrix(), ou1.points, ou1.weights)
    with pytest.raises(ATLViolation, match="eigenvalue map 0 is identically zero"):
        square_function(flat, np.zeros(len(flat)), 1)


def _square_function_loop(sys, c, N):
    """(M, g_N) as square_function built them with the t-kernel rebuilt on every call."""
    spectrum = sys.eigenvalue_matrix()
    grids = []
    for j in range(sys.dimension):
        pos = spectrum[:, j][spectrum[:, j] > 0]
        grids.append(_t_grid(float(pos.min()), float(pos.max())))
    rows = np.flatnonzero(c)
    lam = spectrum[rows]
    cvec = np.asarray(c, dtype=complex)[rows]
    M = np.ones((len(rows), len(rows)))
    for j, ((t, w), Nj) in enumerate(zip(grids, N)):
        a, inv = np.unique(lam[:, j], return_inverse=True)
        P = (np.outer(a, t)) ** Nj * np.exp(-np.outer(a, t))
        Kj = (P * w) @ P.T
        M *= Kj[np.ix_(inv, inv)]
    B = sys.basis_matrix()[rows]
    C = (cvec[:, None] * np.conj(cvec)[None, :]) * M
    g2 = np.einsum("ap,ap->p", C.real @ B, B)
    return M, np.sqrt(np.clip(g2, 0.0, None))


def test_cached_t_kernel_equals_per_call_loop(ou1, monkeypatch):
    kernels = []

    def recording(*key):
        kernels.append(_t_kernel(*key))
        return kernels[-1]

    monkeypatch.setattr(multipliers, "_t_kernel", recording)
    ou_torus = tensor(ou_system(1, 12), torus_system(3, 32))
    for sys, N in ((ou1, (1,)), (ou1, (3,)), (ou_torus, (2, 2)), (ou_torus, (1, 2))):
        for seed in range(2):
            c = _complex_coefficients(sys, seed)
            c[seed::3] = 0.0  # a support that is not every ATL-safe row
            M, g = _square_function_loop(sys, c, N)
            np.testing.assert_array_equal(square_function(sys, c, N).values, g)
            np.testing.assert_array_equal(kernels[-1], M)
            # shared by every caller of that support, so read-only
            assert not kernels[-1].flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                kernels[-1][0, 0] = 0.0
    # one supported spectrum inside two systems: the t-grids, and so M, differ
    kernel_of = {}
    for sys in (ou1, ou_system(1, 16)):
        c = np.zeros(len(sys), dtype=complex)
        c[[sys.position((k,)) for k in range(1, 13)]] = 1.0
        M, g = _square_function_loop(sys, c, (1,))
        np.testing.assert_array_equal(square_function(sys, c, (1,)).values, g)
        np.testing.assert_array_equal(kernels[-1], M)
        kernel_of[len(sys)] = kernels[-1]
    assert not np.array_equal(kernel_of[13], kernel_of[17])


def test_t_kernel_built_once_per_support_and_order(tmp_path, monkeypatch):
    # every build sums axis j over _t_grid, once per axis; a trial loop
    # over one support and one N builds the kernel once
    grids = []

    def counting(lam_min, lam_max):
        grids.append((lam_min, lam_max))
        return _t_grid(lam_min, lam_max)

    monkeypatch.setattr(multipliers, "_t_grid", counting)
    _t_kernel.cache_clear()
    config = {"k_max": "40", "trials": "200"}
    run(build_config("square-function", overrides=config, seed=0, out=str(tmp_path / "a")))
    assert len(grids) == 1 and _t_kernel.cache_info().misses == 1
    assert _t_kernel.cache_info().hits == 199
    run(build_config("square-function", overrides=config, seed=1, out=str(tmp_path / "b")))
    assert len(grids) == 1
    run(build_config("square-function", overrides={**config, "n_order": "2"}, seed=0, out=str(tmp_path / "c")))
    assert len(grids) == 2
    run(build_config("square-function", overrides={"n_order": "2,2", "trials": "50"}, seed=0, out=str(tmp_path / "d")))
    assert len(grids) == 4 and _t_kernel.cache_info().misses == 3
    _t_kernel.cache_clear()  # drop the kernels built through the patched name


def test_default_t_grid():
    t, w = _t_grid(1.0, 12.0)
    assert len(t) == len(w) == 256
    assert t[0] == pytest.approx(1e-4 / 12.0) and t[-1] == pytest.approx(1e4)
    np.testing.assert_allclose(np.diff(np.log(t)), math.log(t[-1] / t[0]) / 255, rtol=1e-10)
    assert np.all(w > 0) and w[0] == w[-1] == 0.5 * w[1]
    # built once per (lam_min, lam_max) and shared, so read-only
    assert _t_grid(1.0, 12.0)[0] is t
    assert not t.flags.writeable and not w.flags.writeable


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
    lam[-4:-2, 0] = np.nan  # NaN rows evaluate to 0, like the origin
    lam[-2:, 1] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = builtin_multiplier("riesz2")(lam)
    assert got.dtype == np.float64  # a real multiplier stays real
    assert np.all(got[:5] == 0.0) and np.all(got[-4:] == 0.0)
    np.testing.assert_array_equal(got[5:-4], lam[5:-4, 0] / (lam[5:-4, 0] + lam[5:-4, 1]))
    tot = lam[:, 0] + lam[:, 1]
    np.testing.assert_array_equal(got, np.divide(lam[:, 0], tot, out=np.zeros(len(tot)), where=tot > 0))
