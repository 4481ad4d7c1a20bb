import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_legendre

from specmult import spectral
from specmult.cli import _ou16, _ou_torus, _square_system
from specmult.multipliers import builtin_multiplier, square_function
from specmult.dyadic import dyadic_system
from specmult.ouhermite import hermite_basis, hermite_eval, ou_system
from specmult.products import torus_system
from specmult.spectral import (
    CapacityError,
    EvaluationError,
    GridFunction,
    MultiplierSpec,
    SpectralSystem,
    apply_multiplier,
    decompose,
    gauss_legendre,
    reconstruct,
    tensor,
)

TAU_ORTH = 1e-10


@pytest.fixture(scope="module")
def ou1():
    return ou_system(1, 12)


def coefficients(sys_, entries):
    """The coefficient array with ``entries[k]`` in the row of multi-index k, 0 elsewhere."""
    c = np.zeros(len(sys_), dtype=complex)
    for k, v in entries.items():
        c[sys_.position(k)] = v
    return c


def unit(sys_, k):
    return coefficients(sys_, {k: 1.0})


def test_grid_function_validation():
    with pytest.raises(ValueError, match=r"points: expected one row per weight \(1\), got 2"):
        GridFunction([[0.0], [1.0]], [1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="positive"):
        GridFunction([[0.0]], [0.0], [1.0])


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e200, 1e-200])
@pytest.mark.parametrize("p", [1e3, 1e6])
def test_norm_lp_large_p_tends_to_sup(scale, p):
    w = np.full(4, 0.25)
    f = GridFunction(np.arange(4.0)[:, None], w, scale * np.array([3.0, 1.0, 0.5, 0.0]))
    sup = 3.0 * scale
    # w_max^{1/p} sup <= ||f||_p <= sup for a probability measure
    assert 0.25 ** (1.0 / p) * sup * (1 - 1e-12) <= f.norm_lp(p) <= sup * (1 + 1e-12)
    assert f.norm_lp(p) == pytest.approx(sup, rel=2.0 * np.log(4.0) / p)


def test_norm_lp_rejects_p_outside_zero_to_inf():
    # NaN used to give NaN, and -inf the sup norm, since np.isinf(-inf) holds
    f = GridFunction([[0.0], [1.0]], [0.5, 0.5], [3.0, -1.0])
    for p in (math.nan, -math.inf, 0.0, -2.0):
        with pytest.raises(ValueError, match=r"p: expected a real in \(0, inf\]"):
            f.norm_lp(p)
    assert f.norm_lp(math.inf) == 3.0


def test_system_rule_is_frozen(ou1):
    # checked once at construction, so the rule may not change afterwards
    for a in (ou1.points, ou1.weights):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    # the system keeps its own copy: the caller's arrays stay writable
    points, weights = ou1.points.copy(), ou1.weights.copy()
    sys_ = SpectralSystem(ou1.basis_index_set, ou1.eigenvalue_matrix(), ou1.basis_matrix(), points, weights)
    weights[0] = -1.0
    assert sys_.weights[0] == ou1.weights[0] > 0
    # grid_function checks only the values against the frozen rule
    for bad in (np.zeros(len(weights) + 1), np.zeros((1, len(weights))), 1.0):
        with pytest.raises(ValueError, match="values must be one per grid point"):
            sys_.grid_function(bad)
    values = np.arange(len(weights), dtype=float)
    f = sys_.grid_function(values)
    assert f.points is sys_.points and f.weights is sys_.weights and f.values is values
    g = GridFunction(sys_.points, sys_.weights, values)
    for name in ("points", "weights", "values"):
        np.testing.assert_array_equal(getattr(f, name), getattr(g, name))
    assert f.norm_lp(3.0) == g.norm_lp(3.0)


def test_norm_lp_zero_and_infinite_functions():
    f = GridFunction(np.zeros((3, 1)), np.ones(3), np.zeros(3))
    assert f.norm_lp(1e6) == 0.0 and f.norm_lp(2.0) == 0.0
    assert f.with_values(np.array([1.0, np.inf, 0.0])).norm_lp(2.0) == np.inf


def test_orthonormality_defect_below_tolerance(ou1):
    assert ou1.orthonormality_defect() < TAU_ORTH


def test_decompose_basis_element_gives_unit_vector(ou1):
    f = reconstruct(unit(ou1, (5,)), ou1)
    c = decompose(f, ou1)
    i = ou1.position((5,))
    assert abs(c[i] - 1.0) < TAU_ORTH
    assert np.max(np.abs(np.delete(c, i))) < TAU_ORTH


def test_decompose_zero(ou1):
    c = decompose(ou1.grid_function(np.zeros(len(ou1.weights))), ou1)
    assert c.shape == (len(ou1),) and np.all(c == 0)


def test_decompose_coordinate_function(ou1):
    # x = H_1(x)/sqrt(2) in the normalized basis
    f = ou1.grid_function(ou1.points[:, 0])
    c = decompose(f, ou1)
    i = ou1.position((1,))
    assert abs(c[i] - 1.0 / np.sqrt(2.0)) < TAU_ORTH
    assert np.max(np.abs(np.delete(c, i))) < TAU_ORTH


def test_decompose_grid_mismatch(ou1):
    f = GridFunction(np.zeros((4, 1)), np.ones(4), np.ones(4))
    with pytest.raises(ValueError, match="grid mismatch"):
        decompose(f, ou1)


def test_reconstruct_round_trip(ou1):
    c = coefficients(ou1, {(2,): 1.0, (5,): 3.0})
    back = decompose(reconstruct(c, ou1), ou1)
    assert abs(back[ou1.position((2,))] - 1.0) < 1e-10
    assert abs(back[ou1.position((5,))] - 3.0) < 1e-10


@pytest.mark.parametrize("op", ["reconstruct", "apply_multiplier", "square_function"])
def test_wrong_length_coefficients_rejected(ou1, op):
    # a short array would otherwise act on the first rows only
    calls = {
        "reconstruct": lambda c: reconstruct(c, ou1),
        "apply_multiplier": lambda c: apply_multiplier(builtin_multiplier("one"), ou1, c),
        "square_function": lambda c: square_function(ou1, c, 1),
    }
    for n in (len(ou1) - 1, len(ou1) + 1):
        with pytest.raises(ValueError, match="coefficients in basis order"):
            calls[op](np.ones(n))


def test_position_is_the_basis_row():
    t = tensor(ou_system(1, 3), torus_system(1, 8))
    for i, k in enumerate(t.basis_index_set):
        assert t.position(k) == t.position(tuple(k.tolist())) == i
    with pytest.raises(KeyError, match="not in basis"):
        t.position((99, 0, 0))
    with pytest.raises(KeyError, match="not in basis"):
        t.position((0, 1))


def test_basis_index_set_is_a_read_only_int_array():
    index = np.array([[0], [1]])
    sys_ = SpectralSystem(index, [[0.0], [1.0]], np.eye(2), [[0.0], [1.0]], [1.0, 1.0])
    assert sys_.basis_index_set.dtype.kind == "i" and sys_.basis_index_set.shape == (2, 1)
    with pytest.raises(ValueError, match="read-only"):
        sys_.basis_index_set[0, 0] = 5
    index[0, 0] = 5  # the caller's array is copied, not frozen
    assert sys_.basis_index_set[0, 0] == 0


_RECONSTRUCT_SYSTEMS = {
    "ou16": _ou16,
    "ou_torus": _ou_torus,
    "ou40": lambda: _square_system(1, 40),
    # riesz-cross-check's default tensor
    "riesz_cross_check": lambda: tensor(ou_system(1, 12, 128), torus_system(3, 32)),
}


@pytest.mark.parametrize("complex_coeffs", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("name", list(_RECONSTRUCT_SYSTEMS))
def test_reconstruct_is_the_complex_product_bit_for_bit(name, complex_coeffs):
    # the reference is the product NumPy runs for complex @ real, written out;
    # two real products or a stacked one round differently
    sys_ = _RECONSTRUCT_SYSTEMS[name]()
    rng = np.random.default_rng(7)
    for _ in range(3):
        values = rng.standard_normal(len(sys_))
        if complex_coeffs:
            values = values + 1j * rng.standard_normal(len(sys_))
        want = values.astype(complex) @ sys_.basis_matrix().astype(complex)
        if not complex_coeffs:
            assert np.all(want.imag == 0.0)
            want = want.real
        got = reconstruct(values, sys_).values
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_reconstruct_does_not_cast_the_basis_per_call():
    sys_ = _ou_torus()
    c = sys_.random_coefficients(np.random.default_rng(0))
    reconstruct(c, sys_)
    complex_basis_bytes = sys_.basis_matrix().size * 16
    tracemalloc.start()
    try:
        reconstruct(c, sys_)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < complex_basis_bytes


def test_apply_identity_multiplier(ou1):
    m = MultiplierSpec(1, lambda lam: np.ones(len(np.atleast_2d(lam)), dtype=complex))
    c = coefficients(ou1, {(0,): 1.0, (3,): 2.0 - 1.0j})
    out = apply_multiplier(m, ou1, c)
    assert np.array_equal(out, c)


def test_apply_projection_multiplier(ou1):
    proj = MultiplierSpec(
        1, lambda lam: (np.atleast_2d(lam)[:, 0] == 3.0).astype(complex), name="P_3"
    )
    c = coefficients(ou1, {(3,): 1.0, (2,): 1.0})
    out = apply_multiplier(proj, ou1, c)
    assert np.array_equal(out, unit(ou1, (3,)))
    # idempotence is exact: the indicator squares to itself
    twice = apply_multiplier(proj, ou1, out)
    assert np.array_equal(twice, out)


def test_apply_eigenvalue_multiplier(ou1):
    m = MultiplierSpec(1, lambda lam: np.atleast_2d(lam)[:, 0].astype(complex))
    out = apply_multiplier(m, ou1, unit(ou1, (4,)))
    assert out[ou1.position((4,))] == 4.0


def test_apply_nonfinite_names_offending_point(ou1):
    def inv(lam):
        with np.errstate(divide="ignore"):
            return 1.0 / np.atleast_2d(lam)[:, 0]

    m = MultiplierSpec(1, inv, name="inv")
    with pytest.raises(EvaluationError, match=r"inv.*\(0\.0,\).*zero eigenvalue"):
        apply_multiplier(m, ou1, unit(ou1, (0,)))


def test_apply_multiplier_skips_zero_coefficients():
    # imag = lam^{iu} is not finite at the zero eigenvalue of row 0; a 0 there is never evaluated
    ou = ou_system(1, 4)
    imag = builtin_multiplier("imag")
    c = ou.random_coefficients(np.random.default_rng(0), atl_safe=True)
    assert c[0] == 0 and ou.eigenvalue_matrix()[0, 0] == 0.0
    out = apply_multiplier(imag, ou, c)
    assert out[0] == 0 and np.all(out[1:] != 0)
    with np.errstate(invalid="ignore"), pytest.raises(EvaluationError, match=r"\(0\.0,\)"):
        apply_multiplier(imag, ou, np.ones(len(ou)))


def test_apply_arity_mismatch(ou1):
    m = MultiplierSpec(2, lambda lam: np.ones(len(np.atleast_2d(lam)), dtype=complex))
    with pytest.raises(ValueError, match="arity"):
        apply_multiplier(m, ou1, unit(ou1, (1,)))


def test_basis_arrays_match_pointwise_formulas():
    # the vectorized builders reproduce the per-index formulas bit for bit
    ou2 = ou_system(2, 5)
    for i, k in enumerate(ou2.basis_index_set):
        assert np.array_equal(ou2.basis_matrix()[i], hermite_eval(k, ou2.points))
        assert ou2.eigenvalue_matrix()[i, 0] == float(sum(k))
    tor = torus_system(3, 32)
    x = tor.points[:, 0]
    for i, (n, s) in enumerate(tor.basis_index_set):
        trig = np.cos if s == 0 else np.sin
        assert np.array_equal(tor.basis_matrix()[i], math.sqrt(2.0) * trig(2.0 * math.pi * n * x))
        assert tor.eigenvalue_matrix()[i, 0] == (2.0 * math.pi * n) ** 2


def test_tensor_of_singletons():
    def single(lam_value):
        return SpectralSystem([(0,)], [[lam_value]], [[1.0]], [[0.0]], [1.0])

    prod = tensor(single(1.0), single(2.0))
    assert len(prod) == 1 and prod.dimension == 2
    assert tuple(prod.eigenvalue_matrix()[prod.position((0, 0))]) == (1.0, 2.0)


def test_tensor_ou_ou_counting():
    t = tensor(ou_system(1, 5), ou_system(1, 5))
    assert len(t) == 36
    assert tuple(t.eigenvalue_matrix()[t.position((3, 4))]) == (3.0, 4.0)
    assert t.orthonormality_defect() < TAU_ORTH


def test_tensor_capacity_error(monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_BASIS", 10)
    with pytest.raises(CapacityError, match="36 > 10"):
        tensor(ou_system(1, 5), ou_system(1, 5))


def test_tensor_parseval_product_function():
    t = tensor(ou_system(1, 6), ou_system(1, 6))
    c = coefficients(t, {(2, 3): 1.5, (0, 1): -0.5j})
    f = reconstruct(c, t)
    assert abs(f.norm_lp(2) ** 2 - np.linalg.norm(c) ** 2) < 1e-10


def test_parseval_band_limited(ou1):
    rng = np.random.default_rng(42)
    c = ou1.random_coefficients(rng)
    f = reconstruct(c, ou1)
    assert abs(np.linalg.norm(decompose(f, ou1)) - f.norm_lp(2)) < TAU_ORTH


def test_contraction_by_sup_norm(ou1):
    rng = np.random.default_rng(1)
    c = ou1.random_coefficients(rng)
    m = MultiplierSpec(1, lambda lam: np.exp(-np.atleast_2d(lam)[:, 0]).astype(complex))
    sup = np.max(np.abs(m(ou1.eigenvalue_matrix())))
    out = apply_multiplier(m, ou1, c)
    assert np.linalg.norm(out) <= sup * np.linalg.norm(c) + 1e-15


def test_riesz_identity_on_tensor_system():
    t = tensor(ou_system(1, 8), torus_system(2, 32))
    lam_sum = lambda lam: np.atleast_2d(lam).sum(axis=1)
    first = MultiplierSpec(2, lambda lam: (np.atleast_2d(lam)[:, 0] / lam_sum(lam)).astype(complex))
    second = MultiplierSpec(2, lambda lam: (np.atleast_2d(lam)[:, 1] / lam_sum(lam)).astype(complex))
    rng = np.random.default_rng(3)
    c = t.random_coefficients(rng)
    a = apply_multiplier(first, t, c)
    b = apply_multiplier(second, t, c)
    resid = np.max(np.abs(a + b - c))
    assert resid < 1e-12


def test_diagonal_multipliers_commute(ou1):
    # power-of-two multiplier values keep the float products associative,
    # so operator commutation can be asserted bit-exactly
    m1 = MultiplierSpec(1, lambda lam: 2.0 ** -np.atleast_2d(lam)[:, 0] + 0j)
    m2 = MultiplierSpec(
        1, lambda lam: np.where(np.atleast_2d(lam)[:, 0] % 2 == 0, 1.0, 0.5).astype(complex)
    )
    c = ou1.random_coefficients(np.random.default_rng(7))
    ab = apply_multiplier(m1, ou1, apply_multiplier(m2, ou1, c))
    ba = apply_multiplier(m2, ou1, apply_multiplier(m1, ou1, c))
    assert np.array_equal(ab, ba)


def test_random_coefficients_atl_safe(ou1):
    c = ou1.random_coefficients(np.random.default_rng(0), atl_safe=True)
    plain = ou1.random_coefficients(np.random.default_rng(0))
    assert c.dtype == plain.dtype == complex and c.shape == (len(ou1),)
    keep = np.all(ou1.eigenvalue_matrix() > 0, axis=1)
    assert c[ou1.position((0,))] == 0 and np.all(c[~keep] == 0)
    assert np.array_equal(c[keep], plain[keep])


def test_multi_index_entries_validated():
    with pytest.raises(ValueError, match=">= 0"):
        SpectralSystem([(-1,)], [[1.0]], [[1.0]], [[0.0]], [1.0])


def test_points_need_one_row_per_weight():
    # five points for four weights used to build, and fail only at reconstruct
    with pytest.raises(ValueError, match=r"points: expected one row per weight \(4\), got 5"):
        SpectralSystem([[0], [1]], [[0.0], [1.0]], np.ones((2, 4)), np.arange(5.0)[:, None], np.full(4, 0.25))


def test_weights_must_be_one_dimensional():
    # a (4, 1) column of weights used to build, and broadcast against the basis at first use
    with pytest.raises(ValueError, match=r"weights must be a 1-D array, got shape \(4, 1\)"):
        SpectralSystem([[0], [1]], [[0.0], [1.0]], np.ones((2, 4)), np.arange(4.0)[:, None],
                       np.array([[0.25], [0.5], [0.25], [0.25]]))


def test_points_must_be_rows():
    # a 1-D array is not read as n scalar points: the (n, dim) shape is the only form
    with pytest.raises(ValueError, match=r"points: expected an \(n, dim\) array, got shape \(4,\)"):
        GridFunction(np.arange(4.0), np.full(4, 0.25), np.ones(4))
    with pytest.raises(ValueError, match=r"points: expected an \(n, dim\) array, got shape \(4,\)"):
        SpectralSystem([[0], [1]], [[0.0], [1.0]], np.ones((2, 4)), np.arange(4.0), np.full(4, 0.25))


def test_multiplier_takes_rows_of_its_arity():
    # no guess at a 1-D lam (n scalars for arity 1, one point otherwise) or a stack of rows
    riesz1, riesz2 = builtin_multiplier("riesz1"), builtin_multiplier("riesz2")
    with pytest.raises(ValueError, match=r"lam: expected an \(n, 1\) array, got shape \(3,\)"):
        riesz1(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match=r"lam: expected an \(n, 2\) array, got shape \(2,\)"):
        riesz2(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match=r"lam: expected an \(n, 1\) array, got shape \(2, 2, 1\)"):
        riesz1(np.ones((2, 2, 1)))
    assert riesz2(np.array([[1.0, 3.0]])).shape == (1,)


# -- properties ------------------------------------------------------------

PROPERTY = settings(max_examples=12, derandomize=True, deadline=None)
_SYSTEMS: dict = {}


def _system(name: str):
    """ou(1, 12), or ou(1, 8) (x) torus(2): cached, hypothesis reruns often."""
    if name not in _SYSTEMS:
        _SYSTEMS[name] = (
            ou_system(1, 12) if name == "ou" else tensor(ou_system(1, 8), torus_system(2, 32))
        )
    return _SYSTEMS[name]


def _coefficients(sys_, rng, density: float) -> np.ndarray:
    """Complex normal coefficients on a random part of the basis, 0 elsewhere."""
    keep = rng.random(len(sys_)) < density
    values = rng.standard_normal(len(sys_)) + 1j * rng.standard_normal(len(sys_))
    return np.where(keep, values, 0.0)


def _bounded_multiplier(arity: int, s: float, u: float) -> MultiplierSpec:
    """m(lam) = (1 + |lam|_1)^{-s + iu}, so |m| <= 1 on the spectrum."""

    def evaluate(lam):
        r = 1.0 + np.atleast_2d(lam).sum(axis=1)
        return r ** (-s) * np.exp(1j * u * np.log(r))

    return MultiplierSpec(arity, evaluate)


systems = st.sampled_from(["ou", "tensor"])
seeds = st.integers(0, 2**32 - 1)
densities = st.floats(0.0, 1.0)
exponents = st.floats(0.0, 3.0)
frequencies = st.floats(-5.0, 5.0)
# no subnormal products: the bounds below are relative to the inputs
scalars = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))


@PROPERTY
@given(systems, seeds, densities, exponents, frequencies, scalars, scalars)
def test_apply_multiplier_is_linear(name, seed, density, s, u, a, b):
    sys_ = _system(name)
    m = _bounded_multiplier(sys_.dimension, s, u)
    rng = np.random.default_rng(seed)
    c1 = _coefficients(sys_, rng, 1.0)
    c2 = _coefficients(sys_, rng, density)
    lhs = apply_multiplier(m, sys_, a * c1 + b * c2)
    rhs = a * apply_multiplier(m, sys_, c1) + b * apply_multiplier(m, sys_, c2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * (abs(a) * np.linalg.norm(c1) + abs(b) * np.linalg.norm(c2))


@PROPERTY
@given(systems, seeds, densities, exponents, frequencies, exponents, frequencies)
def test_apply_multiplier_is_multiplicative(name, seed, density, s1, u1, s2, u2):
    sys_ = _system(name)
    m1 = _bounded_multiplier(sys_.dimension, s1, u1)
    m2 = _bounded_multiplier(sys_.dimension, s2, u2)
    product = MultiplierSpec(sys_.dimension, lambda lam: m1(lam) * m2(lam))
    c = _coefficients(sys_, np.random.default_rng(seed), density)
    once = apply_multiplier(product, sys_, c)
    twice = apply_multiplier(m1, sys_, apply_multiplier(m2, sys_, c))
    assert np.array_equal(once == 0, c == 0) and np.array_equal(twice == 0, c == 0)
    assert np.max(np.abs(once - twice)) <= 1e-13 * np.linalg.norm(c)


@PROPERTY
@given(seeds, densities)
def test_tensor_parseval(seed, density):
    t = _system("tensor")
    c = _coefficients(t, np.random.default_rng(seed), density)
    f = reconstruct(c, t)
    norm2 = np.linalg.norm(c) ** 2
    assert abs(f.norm_lp(2) ** 2 - norm2) <= 1e-12 * max(norm2, 1.0)


@PROPERTY
@given(seeds, st.integers(1, 30), st.lists(st.floats(0.25, 40.0), min_size=2, max_size=5))
def test_norm_lp_nondecreasing_in_p_for_probability_weights(seed, n, ps):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, n)
    f = GridFunction(np.arange(float(n))[:, None], w / w.sum(), rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3))
    norms = [f.norm_lp(p) for p in sorted(ps) + [math.inf]]
    assert all(lo <= hi * (1.0 + 1e-12) for lo, hi in zip(norms, norms[1:]))


# -- the Gauss-Legendre rule ----------------------------------------------------


def test_gauss_legendre_is_scipys_rule_bit_for_bit_at_even_n():
    for n in [*range(2, 131, 2), 256, 512, 1024]:
        nodes, weights = gauss_legendre(n)
        want_nodes, want_weights = roots_legendre(n)
        assert np.array_equal(nodes, want_nodes), n
        assert np.array_equal(weights, want_weights), n


def test_gauss_legendre_at_odd_n_moves_only_weights():
    # the one cause is the middle node x ~ 0 of an odd n: there SciPy takes
    # P_n and P_{n-1} from a power series whose leading term is rounded
    # through beta(), and the port runs the recurrence, so the middle
    # weight differs in its last bits and, through the normalization, every
    # weight moves by up to ~2e-12 relative; the nodes are symmetrized to
    # the same values
    for n in range(1, 130, 2):
        nodes, weights = gauss_legendre(n)
        want_nodes, want_weights = roots_legendre(n)
        assert np.array_equal(nodes, want_nodes), n
        np.testing.assert_allclose(weights, want_weights, rtol=5e-12, atol=0.0, err_msg=str(n))


def test_gauss_legendre_rejects_a_non_positive_n():
    with pytest.raises(ValueError, match="n must be a positive integer"):
        gauss_legendre(0)


@pytest.mark.parametrize(
    ("build", "named"),
    [
        (lambda: ou_system(1, -1), "k_max"),
        (lambda: ou_system(1, 1.5), "k_max"),
        (lambda: ou_system(2, True), "k_max"),
        (lambda: hermite_basis(-1), "k_max"),
        (lambda: torus_system(1.5), "n_max"),
        (lambda: torus_system(0), "n_max"),
        (lambda: dyadic_system(16.5), "n"),
        (lambda: dyadic_system(np.float64(16.0)), "n"),
    ],
)
def test_system_sizes_must_be_integers(build, named):
    # these gave a bare IndexError or TypeError, a 48-node rule for k_max = -1,
    # or a dyadic system of int(n) points
    with pytest.raises(ValueError, match=f"^{named}: expected an integer >= "):
        build()


def test_system_sizes_take_numpy_integers():
    assert len(ou_system(1, np.int64(3))) == 4
    assert len(torus_system(np.int32(2))) == 4
    assert dyadic_system(np.int64(16)).n == 16
