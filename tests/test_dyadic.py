import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmult.dyadic import (
    cz_decompose,
    dyadic_average,
    dyadic_maximal,
    dyadic_system,
    weak_quasinorm,
)


@pytest.fixture(scope="module")
def sys256():
    return dyadic_system(256)


def step_quarter(n):
    f = np.zeros(n)
    f[: n // 4] = 4.0
    return f


# -- system geometry -----------------------------------------------------------


def test_system_validation():
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


def test_cz_constant_below_threshold(sys256):
    f = np.full(sys256.n, 0.5)
    res = cz_decompose(f, 1.0, sys256)
    assert res.bads == ()
    assert np.array_equal(res.good, f)


@pytest.mark.parametrize("s", [np.nan, 0.0, -1.0])
def test_cz_rejects_a_threshold_that_is_not_positive(sys256, s):
    # `s <= 0` let NaN through: no cube exceeds it, so good = f with no error
    with pytest.raises(ValueError, match="threshold s must be positive"):
        cz_decompose(step_quarter(sys256.n), s, sys256)


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


def _cz_random_64x2048():
    # cz-decompose's random fixture at grid=2048, fibers=64, seed 0
    system = dyadic_system(2048)
    raw = np.random.default_rng(0).random((64, 1 << system.l_max)) ** 2 * 6.0
    f = np.repeat(raw, system.n >> system.l_max, axis=1)
    return cz_decompose(f, 1.5 * float((f @ system.weights).max()), system)


def _cz_step(system):
    return cz_decompose(step_quarter(system.n)[None, :], 1.0, system)


def test_bad_sum_equals_sum_of_expanded_parts(sys256):
    for res in (_cz_random_64x2048(), _cz_step(sys256)):
        assert len(res.bads) > 0
        want = np.zeros((res.n_fibers, res.system.n))
        for bad in res.bads:
            want += bad.expand(res.n_fibers, res.system.n)
        assert res.bad_sum().tobytes() == want.tobytes()


def test_bad_sum_builds_no_full_array_per_part():
    res = _cz_random_64x2048()
    full_bytes = res.n_fibers * res.system.n * 8
    tracemalloc.start()
    try:
        res.bad_sum()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * full_bytes


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
    # the values of a function on the system grid form one fiber
    f = step_quarter(sys256.n)
    res = cz_decompose(f, 1.0, sys256)
    assert res.good.shape == f.shape
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
    assert weak_quasinorm(np.ones(sys256.n), sys256.weights) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="one per value"):
        weak_quasinorm(np.ones(4), np.ones(3))


def test_weak_quasinorm_names_mismatched_weights(sys256):
    with pytest.raises(ValueError, match=r"weights: expected one per value \(256\), got 4"):
        weak_quasinorm(np.ones(sys256.n), sys256.weights[:4])


@pytest.mark.parametrize(
    ("values", "weights", "named"),
    [
        ([np.nan, 1.0], [0.5, 0.5], "values"),
        ([np.inf, 1.0], [0.5, 0.5], "values"),
        ([1.0, 1.0], [0.5, -0.5], "weights"),
        ([1.0, 1.0], [0.5, np.nan], "weights"),
        ([1.0, 1.0], [0.5, np.inf], "weights"),
    ],
)
def test_weak_quasinorm_rejects_invalid_input(values, weights, named):
    # a NaN value used to drop out of the sort, and a negative weight gave 0.0
    with pytest.raises(ValueError, match=f"^{named}: expected finite"):
        weak_quasinorm(values, weights)
    assert weak_quasinorm([2.0, 1.0], [0.0, 0.5]) == 0.5


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
