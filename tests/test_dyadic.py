import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmult.dyadic import (
    Atom,
    AtomValidationError,
    DyadicSystem,
    cz_decompose,
    dq_maximal,
    dyadic_average,
    dyadic_maximal,
    dyadic_system,
    l1_h1_norm,
    validate_atom,
    weak_quasinorm,
)
from specmult.spectral import GridFunction


@pytest.fixture(scope="module")
def sys256():
    return dyadic_system(256)


def step_quarter(n):
    f = np.zeros(n)
    f[: n // 4] = 4.0
    return f


# -- system geometry -----------------------------------------------------------


def test_system_validation():
    with pytest.raises(ValueError, match="positive length"):
        DyadicSystem(1.0, 1.0, 256)
    with pytest.raises(ValueError, match="power of two"):
        dyadic_system(100)
    with pytest.raises(ValueError, match="power of two"):
        dyadic_system(4)


def test_levels_keep_four_points_per_cube(sys256):
    assert sys256.l_max == 6
    assert sys256.n >> sys256.l_max == 4
    assert list(sys256.levels) == list(range(7))
    assert sys256.doubling_constant == 2.0


def test_cubes_partition_each_level(sys256):
    for l in sys256.levels:
        cubes = sys256.cubes(l)
        assert len(cubes) == 1 << l
        starts = [c.start for c in cubes]
        stops = [c.stop for c in cubes]
        assert starts[0] == 0 and stops[-1] == sys256.n
        assert all(a == b for a, b in zip(stops[:-1], starts[1:]))
        assert sum(c.measure for c in cubes) == pytest.approx(1.0, rel=1e-14)


def test_nesting(sys256):
    child = sys256.cube(3, 5)
    parent = sys256.cube(2, 5 // 2)
    assert parent.start <= child.start and child.stop <= parent.stop
    assert child.measure >= parent.measure / sys256.doubling_constant


def test_cube_validation(sys256):
    with pytest.raises(ValueError, match="outside available range"):
        sys256.cube(7, 0)
    with pytest.raises(ValueError, match="outside level"):
        sys256.cube(2, 4)


# -- averages and maximal function -----------------------------------------------


def test_average_of_constant(sys256):
    f = np.full(sys256.n, 2.5)
    for l in sys256.levels:
        assert np.array_equal(dyadic_average(f, l, sys256), f)


def test_average_of_half_indicator(sys256):
    f = np.zeros(sys256.n)
    f[: sys256.n // 2] = 1.0
    assert np.array_equal(dyadic_average(f, 0, sys256), np.full(sys256.n, 0.5))


def test_average_martingale_property(sys256):
    rng = np.random.default_rng(0)
    f = rng.random(sys256.n)
    for l, lp in ((1, 4), (4, 1), (3, 3), (0, 6)):
        two = dyadic_average(dyadic_average(f, lp, sys256), l, sys256)
        one = dyadic_average(f, min(l, lp), sys256)
        assert np.allclose(two, one, rtol=0, atol=1e-13)


def test_average_validation(sys256):
    with pytest.raises(ValueError, match="outside available range"):
        dyadic_average(np.zeros(sys256.n), 9, sys256)
    with pytest.raises(ValueError, match="match the system grid"):
        dyadic_average(np.zeros(100), 0, sys256)


def test_average_grid_function_round_trip(sys256):
    f = sys256.grid_function(np.arange(sys256.n, dtype=float))
    out = dyadic_average(f, 2, sys256)
    assert isinstance(out, GridFunction)
    assert np.array_equal(out.points, f.points)
    assert np.array_equal(out.values, dyadic_average(f.values, 2, sys256))


def test_maximal_constant(sys256):
    f = np.full(sys256.n, 3.0)
    assert np.array_equal(dyadic_maximal(f, sys256), f)


def test_maximal_step_pattern(sys256):
    # E_0 = 1, E_1 = 2 chi_[0,1/2), E_2 = 4 chi_[0,1/4): sup is 4, 2, 1
    n = sys256.n
    out = dyadic_maximal(step_quarter(n), sys256)
    assert np.all(out[: n // 4] == 4.0)
    assert np.all(out[n // 4 : n // 2] == 2.0)
    assert np.all(out[n // 2 :] == 1.0)


def test_maximal_dominates_finest_average(sys256):
    rng = np.random.default_rng(1)
    f = rng.standard_normal(sys256.n)
    fine = dyadic_average(np.abs(f), sys256.l_max, sys256)
    assert np.all(dyadic_maximal(f, sys256) >= fine - 1e-15)


def test_dq_is_maximal_at_q_one(sys256):
    rng = np.random.default_rng(2)
    f = rng.standard_normal(sys256.n)
    assert np.allclose(dq_maximal(f, 1.0, sys256), dyadic_maximal(f, sys256), rtol=1e-14)


def test_dq_step_pattern(sys256):
    n = sys256.n
    out = dq_maximal(step_quarter(n), 2.0, sys256)
    assert np.allclose(out[: n // 4], 4.0, rtol=1e-14)
    assert np.allclose(out[n // 4 : n // 2], 2.0 * np.sqrt(2.0), rtol=1e-14)
    assert np.allclose(out[n // 2 :], 2.0, rtol=1e-14)


def test_dq_jensen_monotone(sys256):
    rng = np.random.default_rng(3)
    f = rng.random(sys256.n)
    assert np.all(dq_maximal(f, 2.0, sys256) >= dyadic_maximal(f, sys256) - 1e-14)
    with pytest.raises(ValueError, match="at least 1"):
        dq_maximal(f, 0.5, sys256)


# -- Calderon-Zygmund decomposition -----------------------------------------------


def test_cz_constant_below_threshold(sys256):
    f = np.full(sys256.n, 0.5)
    res = cz_decompose(f, 1.0, sys256)
    assert res.bads == ()
    assert np.array_equal(res.good, f)


def test_cz_step_fixture(sys256):
    # level-0 average is 1 <= s, level-1 cube [0, 1/2) has average 2 > s
    n = sys256.n
    res = cz_decompose(step_quarter(n), 1.0, sys256)
    assert len(res.bads) == 1
    bad = res.bads[0]
    assert bad.cube.level == 1 and bad.cube.lo == 0.0 and bad.cube.hi == 0.5
    assert np.array_equal(bad.averages, [2.0])
    good = np.asarray(res.good)
    assert np.all(good[: n // 2] == 2.0) and np.all(good[n // 2 :] == 0.0)
    expect_b = np.where(np.arange(n // 2) < n // 4, 2.0, -2.0)
    assert np.array_equal(bad.values[0], expect_b)
    assert np.array_equal(good + res.bad_sum()[0], step_quarter(n))


def test_cz_validation(sys256):
    f = np.ones(sys256.n)
    with pytest.raises(ValueError, match="must be positive"):
        cz_decompose(f, 0.0, sys256)
    with pytest.raises(ValueError, match="non-negative"):
        cz_decompose(-f, 1.0, sys256)
    with pytest.raises(ValueError, match="finite"):
        cz_decompose(np.full(sys256.n, np.nan), 1.0, sys256)
    with pytest.raises(ValueError, match="match the system grid"):
        cz_decompose(np.ones(10), 1.0, sys256)


def random_fibered(system, n_fibers, rng):
    # constant on finest cubes, so the finest average resolves f exactly
    pts = system.n >> system.l_max
    vals = rng.random((n_fibers, 1 << system.l_max)) ** 2 * 4.0
    return np.repeat(vals, pts, axis=-1)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_cz_lemma_properties_fibered(seed):
    system = dyadic_system(128)
    rng = np.random.default_rng(seed)
    nf = 3
    f = random_fibered(system, nf, rng)
    fbar = f.mean(axis=-1).max()
    s = fbar * (1.0 + rng.random())
    res = cz_decompose(f, s, system)
    w = system.weights
    good = np.asarray(res.good)
    c_mu = system.doubling_constant

    # exact decomposition
    assert np.allclose(good + res.bad_sum(), f, rtol=0, atol=1e-12 * f.max())

    # (i) total L1 mass at most 4 x the input
    l1 = lambda a: float(np.abs(a) @ w) if a.ndim == 1 else float((np.abs(a) @ w).sum())
    bad_l1 = sum(float((np.abs(b.values) @ w[b.cube.slice]).sum()) for b in res.bads)
    assert l1(good) + bad_l1 <= 4.0 * l1(f) + 1e-12

    # (ii) the good part is bounded by C_mu s
    assert np.max(np.abs(good)) <= c_mu * s + 1e-12

    # (iii) fiberwise measure bound and zero means
    per_fiber = np.zeros(nf)
    for bad in res.bads:
        per_fiber[bad.fibers] += bad.cube.measure
        means = bad.values @ w[bad.cube.slice] / bad.cube.measure
        assert np.max(np.abs(means)) < 1e-12 * f.max()
    assert np.all(per_fiber <= (f @ w) / s + 1e-12)

    # (iv) selected averages sit in the doubling band around s
    for bad in res.bads:
        assert np.all(bad.averages > s)
        assert np.all(bad.averages <= c_mu * s + 1e-12)
        assert np.all(bad.averages >= s / c_mu)

    # (v) the union of supports is exactly the superlevel set of D f
    maximal = dyadic_maximal(f, system)
    assert np.array_equal(res.selection_mask(), maximal > s)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([64, 128, 256]), st.integers(1, 4), st.floats(1.0, 4.0))
def test_cz_lemma_properties_random(seed, n, nf, ratio):
    system = dyadic_system(n)
    f = random_fibered(system, nf, np.random.default_rng(seed))
    s = f.mean(axis=-1).max() * ratio
    res = cz_decompose(f, s, system)
    w = system.weights
    good = np.asarray(res.good)

    assert np.allclose(good + res.bad_sum(), f, rtol=0, atol=1e-12 * f.max())
    assert np.max(np.abs(good)) <= system.doubling_constant * s + 1e-12
    per_fiber = np.zeros(nf)
    for bad in res.bads:
        per_fiber[bad.fibers] += bad.cube.measure
        means = bad.values @ w[bad.cube.slice] / bad.cube.measure
        assert np.max(np.abs(means)) < 1e-12 * f.max()
    assert np.all(per_fiber <= (f @ w) / s + 1e-12)
    assert np.array_equal(res.selection_mask(), dyadic_maximal(f, system) > s)


def test_cz_supports_disjoint():
    system = dyadic_system(128)
    rng = np.random.default_rng(7)
    f = random_fibered(system, 2, rng)
    s = f.mean(axis=-1).max() * 1.1
    res = cz_decompose(f, s, system)
    count = np.zeros((2, system.n), dtype=int)
    for bad in res.bads:
        count[bad.fibers[:, None], np.arange(bad.cube.start, bad.cube.stop)] += 1
    assert count.max() <= 1
    assert np.array_equal(count > 0, res.selection_mask())


def test_cz_grid_function_fiber_free(sys256):
    f = sys256.grid_function(step_quarter(sys256.n))
    res = cz_decompose(f, 1.0, sys256)
    assert isinstance(res.good, GridFunction)
    assert res.n_fibers == 1


# -- weak quasinorm ----------------------------------------------------------------


def test_weak_quasinorm_indicator(sys256):
    f = np.zeros(sys256.n)
    f[:32] = 1.0
    assert weak_quasinorm(f, sys256.weights) == 32.0 / sys256.n


def test_weak_quasinorm_one_over_x():
    # right-endpoint grid on (0, 1]: sup_s s * |{1/x > s}| = 1
    n = 1000
    x = np.arange(1, n + 1) / n
    assert weak_quasinorm(1.0 / x, np.full(n, 1.0 / n)) == pytest.approx(1.0, abs=1e-3)


def test_weak_quasinorm_homogeneity(sys256):
    rng = np.random.default_rng(4)
    f = rng.standard_normal(sys256.n)
    assert weak_quasinorm(2.0 * f, sys256.weights) == 2.0 * weak_quasinorm(f, sys256.weights)


def test_weak_quasinorm_chebyshev(sys256):
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = rng.standard_normal(sys256.n)
        assert weak_quasinorm(f, sys256.weights) <= float(np.abs(f) @ sys256.weights) + 1e-15


def test_weak_quasinorm_edge_cases(sys256):
    assert weak_quasinorm(np.zeros(sys256.n), sys256.weights) == 0.0
    assert weak_quasinorm(sys256.grid_function(np.ones(sys256.n))) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="weights are required"):
        weak_quasinorm(np.ones(4))
    with pytest.raises(ValueError, match="one per value"):
        weak_quasinorm(np.ones(4), np.ones(3))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 40),
    st.sampled_from(["ties", "distinct"]),
)
def test_weak_quasinorm_matches_brute_force(seed, n, values):
    rng = np.random.default_rng(seed)
    # integer levels give ties and zeros; normal draws give distinct values
    f = rng.integers(-3, 4, n).astype(float) if values == "ties" else rng.standard_normal(n)
    w = rng.uniform(0.1, 2.0, n)
    a = np.abs(f)
    brute = max([0.0] + [v * w[a >= v].sum() for v in np.unique(a[a > 0])])
    assert weak_quasinorm(f, w) == pytest.approx(brute, rel=1e-12, abs=0.0)


# -- atoms --------------------------------------------------------------------------


def make_atom(sys_, center=0.5, radius=0.25, scale=1.0, balanced=True):
    pts = sys_.points
    mask = np.abs(pts - center) <= radius
    mu_b = float(sys_.weights[mask].sum())
    v = np.zeros(sys_.n)
    idx = np.nonzero(mask)[0]
    half = len(idx) // 2
    v[idx[:half]] = scale / mu_b
    v[idx[half:]] = (-scale / mu_b) if balanced else (scale / mu_b)
    return Atom(center=center, radius=radius, values=sys_.grid_function(v))


def test_valid_atom_passes(sys256):
    validate_atom(make_atom(sys256))


def test_atom_support_violation(sys256):
    atom = make_atom(sys256)
    bad = atom.values.with_values(np.where(atom.ball_mask(), atom.values.values, 5.0))
    with pytest.raises(AtomValidationError, match="support"):
        validate_atom(Atom(atom.center, atom.radius, bad))


def test_atom_size_violation(sys256):
    with pytest.raises(AtomValidationError, match=r"violates: size$"):
        validate_atom(make_atom(sys256, scale=1.01))


def test_atom_cancellation_violation(sys256):
    # at half the sup bound only the mean-zero clause can fail
    with pytest.raises(AtomValidationError, match=r"violates: cancellation$"):
        validate_atom(make_atom(sys256, scale=0.5, balanced=False))


def test_atom_empty_ball(sys256):
    a = make_atom(sys256)
    with pytest.raises(AtomValidationError, match="no grid mass"):
        validate_atom(Atom(center=-50.0, radius=1e-6, values=a.values))


def test_l1_h1_single_atom(sys256):
    assert l1_h1_norm([(1.0, make_atom(sys256))]) == 1.0


def test_l1_h1_two_disjoint_atoms(sys256):
    a = make_atom(sys256, center=0.25, radius=0.125)
    b = make_atom(sys256, center=0.75, radius=0.125)
    assert l1_h1_norm([(2.0, a), (3.0, b)]) == 5.0


def test_l1_h1_fibered_coefficients(sys256):
    atom = make_atom(sys256)
    wx = np.array([0.25, 0.25, 0.5])
    coef = np.array([1.0, 2.0, -4.0])
    assert l1_h1_norm([(coef, atom)], x_weights=wx) == pytest.approx(0.25 + 0.5 + 2.0)
    with pytest.raises(ValueError, match="need x_weights"):
        l1_h1_norm([(coef, atom)])
    with pytest.raises(ValueError, match="non-negative"):
        l1_h1_norm([(coef, atom)], x_weights=-wx)


def test_l1_h1_validates_atoms(sys256):
    bad = make_atom(sys256, scale=0.5, balanced=False)
    with pytest.raises(AtomValidationError):
        l1_h1_norm([(1.0, bad)])
    assert l1_h1_norm([(1.0, bad)], validate=False) == 1.0
