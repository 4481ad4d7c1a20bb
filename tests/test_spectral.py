import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmult.cli import _ou16, _ou_torus, _square_system
from specmult.ouhermite import hermite_eval, ou_system
from specmult.products import torus_system
from specmult.spectral import (
    CapacityError,
    CoefficientVector,
    EvaluationError,
    GridFunction,
    MultiplierSpec,
    SpectralSystem,
    apply_multiplier,
    decompose,
    reconstruct,
    tensor,
)

TAU_ORTH = 1e-10


@pytest.fixture(scope="module")
def ou1():
    return ou_system(1, 12)


def unit(k):
    return CoefficientVector({k: 1.0})


def test_grid_function_validation():
    with pytest.raises(ValueError, match="one per grid point"):
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


def test_norm_lp_zero_and_infinite_functions():
    f = GridFunction(np.zeros((3, 1)), np.ones(3), np.zeros(3))
    assert f.norm_lp(1e6) == 0.0 and f.norm_lp(2.0) == 0.0
    assert f.with_values(np.array([1.0, np.inf, 0.0])).norm_lp(2.0) == np.inf


def test_orthonormality_defect_below_tolerance(ou1):
    assert ou1.orthonormality_defect() < TAU_ORTH


def test_decompose_basis_element_gives_unit_vector(ou1):
    f = reconstruct(unit((5,)), ou1)
    c = decompose(f, ou1)
    assert abs(c.get((5,)) - 1.0) < TAU_ORTH
    others = [abs(v) for k, v in c.items() if k != (5,)]
    assert max(others) < TAU_ORTH


def test_decompose_zero(ou1):
    c = decompose(ou1.grid_function(np.zeros(len(ou1.weights))), ou1)
    assert all(v == 0 for _, v in c.items())


def test_decompose_coordinate_function(ou1):
    # x = H_1(x)/sqrt(2) in the normalized basis
    f = ou1.grid_function(ou1.points[:, 0])
    c = decompose(f, ou1)
    assert abs(c.get((1,)) - 1.0 / np.sqrt(2.0)) < TAU_ORTH
    assert max(abs(v) for k, v in c.items() if k != (1,)) < TAU_ORTH


def test_decompose_grid_mismatch(ou1):
    f = GridFunction(np.zeros((4, 1)), np.ones(4), np.ones(4))
    with pytest.raises(ValueError, match="grid mismatch"):
        decompose(f, ou1)


def test_reconstruct_round_trip(ou1):
    c = CoefficientVector({(2,): 1.0, (5,): 3.0})
    back = decompose(reconstruct(c, ou1), ou1)
    assert abs(back.get((2,)) - 1.0) < 1e-10
    assert abs(back.get((5,)) - 3.0) < 1e-10


def test_reconstruct_unknown_index(ou1):
    with pytest.raises(KeyError):
        reconstruct(unit((99,)), ou1)


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
        c = CoefficientVector(indices=sys_.basis_index_set, values=values)
        want = c.values @ sys_.basis_matrix().astype(complex)
        if not complex_coeffs:
            assert np.all(want.imag == 0.0)
            want = want.real
        got = reconstruct(c, sys_).values
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
    c = CoefficientVector({(0,): 1.0, (3,): 2.0 - 1.0j})
    out = apply_multiplier(m, ou1, c)
    assert out.get((0,)) == 1.0 and out.get((3,)) == 2.0 - 1.0j


def test_apply_projection_multiplier(ou1):
    proj = MultiplierSpec(
        1, lambda lam: (np.atleast_2d(lam)[:, 0] == 3.0).astype(complex), name="P_3"
    )
    c = CoefficientVector({(3,): 1.0, (2,): 1.0})
    out = apply_multiplier(proj, ou1, c)
    assert out.get((3,)) == 1.0 and out.get((2,)) == 0.0
    # idempotence is exact: the indicator squares to itself
    twice = apply_multiplier(proj, ou1, out)
    assert all(twice.get(k) == out.get(k) for k in ou1.basis_index_set)


def test_apply_eigenvalue_multiplier(ou1):
    m = MultiplierSpec(1, lambda lam: np.atleast_2d(lam)[:, 0].astype(complex))
    out = apply_multiplier(m, ou1, unit((4,)))
    assert out.get((4,)) == 4.0


def test_apply_nonfinite_names_offending_point(ou1):
    def inv(lam):
        with np.errstate(divide="ignore"):
            return 1.0 / np.atleast_2d(lam)[:, 0]

    m = MultiplierSpec(1, inv, name="inv")
    with pytest.raises(EvaluationError, match=r"inv.*\(0\.0,\).*zero eigenvalue"):
        apply_multiplier(m, ou1, unit((0,)))


def test_apply_arity_mismatch(ou1):
    m = MultiplierSpec(2, lambda lam: np.ones(len(np.atleast_2d(lam)), dtype=complex))
    with pytest.raises(ValueError, match="arity"):
        apply_multiplier(m, ou1, unit((1,)))


def test_basis_arrays_match_pointwise_formulas():
    # the vectorized builders reproduce the per-index formulas bit for bit
    ou2 = ou_system(2, 5)
    for i, k in enumerate(ou2.basis_index_set):
        assert np.array_equal(ou2.basis_matrix()[i], hermite_eval(k, ou2.points))
        assert ou2.eigenvalues(k)[0] == float(sum(k))
    tor = torus_system(3, 32)
    x = tor.points[:, 0]
    for i, (n, s) in enumerate(tor.basis_index_set):
        trig = np.cos if s == 0 else np.sin
        assert np.array_equal(tor.basis_matrix()[i], math.sqrt(2.0) * trig(2.0 * math.pi * n * x))
        assert tor.eigenvalues((n, s))[0] == (2.0 * math.pi * n) ** 2


def test_tensor_of_singletons():
    def single(lam_value):
        return SpectralSystem([(0,)], [[lam_value]], [[1.0]], [[0.0]], [1.0])

    prod = tensor(single(1.0), single(2.0))
    assert len(prod) == 1 and prod.dimension == 2
    assert tuple(prod.eigenvalues((0, 0))) == (1.0, 2.0)


def test_tensor_ou_ou_counting():
    t = tensor(ou_system(1, 5), ou_system(1, 5))
    assert len(t) == 36
    assert tuple(t.eigenvalues((3, 4))) == (3.0, 4.0)
    assert t.orthonormality_defect() < TAU_ORTH


def test_tensor_capacity_error():
    with pytest.raises(CapacityError, match="36 > 10"):
        tensor(ou_system(1, 5), ou_system(1, 5), max_basis=10)


def test_tensor_parseval_product_function():
    t = tensor(ou_system(1, 6), ou_system(1, 6))
    c = CoefficientVector({(2, 3): 1.5, (0, 1): -0.5j})
    f = reconstruct(c, t)
    assert abs(f.norm_lp(2) ** 2 - c.norm() ** 2) < 1e-10


def test_parseval_band_limited(ou1):
    rng = np.random.default_rng(42)
    c = ou1.random_coefficients(rng)
    f = reconstruct(c, ou1)
    assert abs(decompose(f, ou1).norm() - f.norm_lp(2)) < TAU_ORTH


def test_contraction_by_sup_norm(ou1):
    rng = np.random.default_rng(1)
    c = ou1.random_coefficients(rng)
    m = MultiplierSpec(1, lambda lam: np.exp(-np.atleast_2d(lam)[:, 0]).astype(complex))
    sup = max(abs(m(ou1.eigenvalues(k)[None, :])[0]) for k in ou1.basis_index_set)
    out = apply_multiplier(m, ou1, c)
    assert out.norm() <= sup * c.norm() + 1e-15


def test_riesz_identity_on_tensor_system():
    t = tensor(ou_system(1, 8), torus_system(2, 32))
    lam_sum = lambda lam: np.atleast_2d(lam).sum(axis=1)
    first = MultiplierSpec(2, lambda lam: (np.atleast_2d(lam)[:, 0] / lam_sum(lam)).astype(complex))
    second = MultiplierSpec(2, lambda lam: (np.atleast_2d(lam)[:, 1] / lam_sum(lam)).astype(complex))
    rng = np.random.default_rng(3)
    c = t.random_coefficients(rng)
    a = apply_multiplier(first, t, c)
    b = apply_multiplier(second, t, c)
    resid = max(abs(a.get(k) + b.get(k) - c.get(k)) for k in t.basis_index_set)
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
    assert all(ab.get(k) == ba.get(k) for k in ou1.basis_index_set)


def test_random_coefficients_atl_safe(ou1):
    c = ou1.random_coefficients(np.random.default_rng(0), atl_safe=True)
    assert (0,) not in dict(c.items())
    assert all(ou1.eigenvalues(k).min() > 0 for k, _ in c.items())


def test_multi_index_entries_validated():
    with pytest.raises(ValueError, match=">= 0"):
        SpectralSystem([(-1,)], [[1.0]], [[1.0]], [[0.0]], [1.0])


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


def _coefficients(sys_, rng, density: float) -> CoefficientVector:
    """Complex normal coefficients on a random part of the basis."""
    keep = rng.random(len(sys_)) < density
    values = rng.standard_normal(len(sys_)) + 1j * rng.standard_normal(len(sys_))
    indices = [k for k, kept in zip(sys_.basis_index_set, keep) if kept]
    return CoefficientVector(indices=indices, values=values[keep])


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

    def dense(c):
        out = np.zeros(len(sys_), dtype=complex)
        out[sys_.positions(c.indices)] = c.values
        return out

    combined = CoefficientVector(indices=sys_.basis_index_set, values=a * dense(c1) + b * dense(c2))
    lhs = apply_multiplier(m, sys_, combined).values
    rhs = a * dense(apply_multiplier(m, sys_, c1)) + b * dense(apply_multiplier(m, sys_, c2))
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * (abs(a) * c1.norm() + abs(b) * c2.norm())


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
    assert once.indices == twice.indices == c.indices
    assert np.max(np.abs(once.values - twice.values), initial=0.0) <= 1e-13 * c.norm()


@PROPERTY
@given(seeds, densities)
def test_tensor_parseval(seed, density):
    t = _system("tensor")
    c = _coefficients(t, np.random.default_rng(seed), density)
    f = reconstruct(c, t)
    assert abs(f.norm_lp(2) ** 2 - c.norm() ** 2) <= 1e-12 * max(c.norm() ** 2, 1.0)


@PROPERTY
@given(seeds, st.integers(1, 30), st.lists(st.floats(0.25, 40.0), min_size=2, max_size=5))
def test_norm_lp_nondecreasing_in_p_for_probability_weights(seed, n, ps):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, n)
    f = GridFunction(np.arange(float(n))[:, None], w / w.sum(), rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3))
    norms = [f.norm_lp(p) for p in sorted(ps) + [math.inf]]
    assert all(lo <= hi * (1.0 + 1e-12) for lo, hi in zip(norms, norms[1:]))
