"""Top-level guarantees, one test per advertised property.

Each test prints a single PASS/FAIL line (visible with -s or on failure)
and asserts the same condition, so the suite doubles as a checklist.
"""

import math
import time

import numpy as np
from scipy.special import gamma as gamma_fn

from specmult.cli import estimate_pnorm, operator_registry, spectral_sup_norm
from specmult.dyadic import cz_decompose, dyadic_maximal, dyadic_system, weak_quasinorm
from specmult.multipliers import (
    DecayProfile,
    builtin_multiplier,
    decay_check,
    marcinkiewicz_seminorm,
    mellin_on_grid,
    square_constant,
    square_function,
    worst_case_order,
)
from specmult.ouhermite import (
    _mehler_dr_raw,
    _w_dr_raw,
    _w_raw,
    apply_semigroup_kernel,
    lebesgue_weights,
    mehler_kernel,
    ou_system,
)
from specmult.products import (
    apply_T_split,
    cz_growth_check,
    cz_smooth_check,
    di_bound_ratio,
    euclidean_heat_model,
    kappa_indicator,
    multiplier_from_kappa,
    product_grid,
    sample_local_pairs,
    sample_product_pairs,
    sample_product_triples,
    torus_heat_model,
    torus_system,
)
from specmult.spectral import (
    MultiplierSpec,
    apply_multiplier,
    reconstruct,
    tensor,
)


def _report(num: int, label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} [{num:02d}] {label}")
    assert ok, f"[{num:02d}] {label}"


def _l2_gamma(sys_, values) -> float:
    return float(np.sqrt(sys_.weights @ np.abs(values) ** 2))


def _log_gaussian() -> MultiplierSpec:
    return MultiplierSpec(
        1, lambda lam: np.exp(-0.5 * np.log(np.atleast_2d(lam)[:, 0]) ** 2).astype(complex)
    )


def test_01_square_function_l2_constant():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    cases = [
        (ou_system(1, 12), (1,)),
        (ou_system(1, 12), (2,)),
        (tensor(ou_system(1, 6), ou_system(1, 6)), (1, 2)),
    ]
    for sys_, N in cases:
        const = square_constant(N)
        for _ in range(20):
            c = sys_.random_coefficients(rng, atl_safe=True)
            f = reconstruct(c, sys_)
            g = square_function(sys_, c, N)
            ref = const * f.norm_lp(2) ** 2
            worst = max(worst, abs(g.norm_lp(2) ** 2 - ref) / ref)
    elapsed = time.perf_counter() - start
    _report(
        1,
        f"square-function L2 constant, max rel err {worst:.2e} in {elapsed:.1f}s",
        worst < 1e-6 and elapsed < 10.0,
    )


def test_02_mellin_suite():
    # the Mellin transform of exp(-(log lam)^2 / 2) is sqrt(2 pi) exp(-u^2 / 2)
    u = np.linspace(-12.0, 12.0, 1201)
    M = mellin_on_grid(_log_gaussian(), u)
    log_gauss_err = float(np.max(np.abs(M - math.sqrt(2.0 * math.pi) * np.exp(-0.5 * u**2))))

    lam_exp = MultiplierSpec(
        1,
        lambda lam: (
            np.atleast_2d(lam)[:, 0] * np.exp(-np.atleast_2d(lam)[:, 0])
        ).astype(complex),
    )
    v = np.array([0.0, 1.0, -1.0, 3.0, -3.0])
    gamma_err = float(np.max(np.abs(mellin_on_grid(lam_exp, v) - gamma_fn(1.0 - 1j * v))))
    _report(
        2,
        f"Mellin: log-Gaussian {log_gauss_err:.1e}, gamma {gamma_err:.1e}",
        log_gauss_err < 1e-12 and gamma_err < 1e-6,
    )


def test_03_envelope_decay():
    start = time.perf_counter()
    ok = True
    worst_slack = math.inf
    for name in ("one", "riesz1"):
        for rho in (1, 2):
            rep = decay_check(builtin_multiplier(name), rho + 1, rho)
            ok &= rep.slope <= -rho + 0.15 and math.isfinite(rep.constant)
            worst_slack = min(worst_slack, (-rho + 0.15) - rep.slope)
    elapsed = time.perf_counter() - start
    _report(
        3,
        f"Mellin decay slopes, slack >= {worst_slack:.1f} in {elapsed:.1f}s",
        ok and elapsed < 60.0,
    )


def test_04_marcinkiewicz_norms():
    const_err = abs(marcinkiewicz_seminorm(builtin_multiplier("one"), (0,)) - math.log(2.0))
    imag_err = max(
        abs(marcinkiewicz_seminorm(builtin_multiplier("imag", u=u), (1,)) - u * u * math.log(2.0))
        for u in (1.0, 2.0)
    )
    base = _log_gaussian()
    doubled = MultiplierSpec(1, lambda lam: 2.0 * base.evaluate(lam))
    homogeneous = all(
        marcinkiewicz_seminorm(doubled, g) == 4.0 * marcinkiewicz_seminorm(base, g)
        for g in ((0,), (1,))
    )
    order = worst_case_order(DecayProfile((3.0,), (3.0,)))
    _report(
        4,
        f"Marcinkiewicz closed forms {max(const_err, imag_err):.1e}, "
        f"exact 2-homogeneity, worst-case order {order.tolist()}",
        const_err < 1e-8
        and imag_err < 1e-8
        and homogeneous
        and np.array_equal(order, [2.5, 2.5]),
    )


def test_05_ou_semigroup_suite():
    ou = ou_system(1, 16)
    dense = ou_system(1, 16, 64)

    orth = ou.orthonormality_defect()

    leb = lebesgue_weights(dense.points, dense.weights)
    mass_err = max(
        abs(mehler_kernel(r, np.full((len(leb), 1), x1), dense.points) @ leb - 1.0)
        for r in (0.1, 0.5, 0.9)
        for x1 in (0.0, 0.7, -1.3)
    )

    eig_err = 0.0
    for r in (0.3, 0.5, 0.8):
        for k in (0, 1, 5, 12):
            f = reconstruct(np.eye(len(ou))[ou.position((k,))], ou)
            g = apply_semigroup_kernel(r, f)
            eig_err = max(eig_err, _l2_gamma(ou, g.values - r**k * f.values))

    f = reconstruct(dense.random_coefficients(np.random.default_rng(5)), dense)
    law_err = float(
        np.max(
            np.abs(
                apply_semigroup_kernel(0.7, apply_semigroup_kernel(0.4, f)).values
                - apply_semigroup_kernel(0.28, f).values
            )
        )
    )

    h = 1e-5
    fd_err = 0.0
    for r, x1, y1 in [(0.5, 0.3, -0.7), (0.2, 1.1, 0.9), (0.8, -0.4, 0.1)]:
        fd = (
            mehler_kernel(r + h, x1, y1)
            - mehler_kernel(r - h, x1, y1)
        ) / (2 * h)
        exact = float(_mehler_dr_raw(r, 1 - r, np.array([[[x1]]]), np.array([[[y1]]]))[0, 0])
        fd_err = max(fd_err, abs(exact - fd) / abs(fd))
    for r, z in [(0.5, 0.4), (0.25, -1.0), (0.75, 0.05)]:
        z = np.array([z])
        fd = (float(_w_raw(1 - (r + h), z)) - float(_w_raw(1 - (r - h), z))) / (2 * h)
        fd_err = max(fd_err, abs(float(_w_dr_raw(r, 1 - r, z)) - fd) / abs(fd))

    rng = np.random.default_rng(11)
    contractive = True
    for _ in range(20):
        f = reconstruct(ou.random_coefficients(rng), ou)
        g = apply_semigroup_kernel(0.45, f)
        contractive &= all(g.norm_lp(p) <= f.norm_lp(p) * (1.0 + 1e-10) for p in (1.0, 2.0, 4.0))

    _report(
        5,
        f"Mehler/OU: orth {orth:.0e}, mass {mass_err:.0e}, eigen {eig_err:.0e}, "
        f"law {law_err:.0e}, d/dr {fd_err:.0e}, Lp contractive",
        orth < 1e-10
        and mass_err < 1e-8
        and eig_err < 1e-8
        and law_err < 1e-8
        and fd_err < 1e-6
        and contractive,
    )


def test_06_riesz_identity_and_kernel_path():
    start = time.perf_counter()
    sys_ = tensor(ou_system(1, 8, 64), torus_system(3, 32))

    # resolvent partition of unity on the joint spectrum
    riesz = builtin_multiplier("riesz2")
    flip = MultiplierSpec(
        2,
        lambda lam: np.where(
            np.atleast_2d(lam).sum(axis=1) == 0.0,
            0.0,
            np.atleast_2d(lam)[:, 1] / np.atleast_2d(lam).sum(axis=1),
        ).astype(complex),
    )
    c = sys_.random_coefficients(np.random.default_rng(1))
    ca = apply_multiplier(riesz, sys_, c)
    cb = apply_multiplier(flip, sys_, c)
    resid = np.max(np.abs(ca + cb - c))

    # kernel representation of m_kappa against the spectral path
    kappa = kappa_indicator(0.1, 0.9)
    model = torus_heat_model()
    grid = product_grid(model, d=1, k_max=8, n_y=32, n_x=64)
    m_ker = multiplier_from_kappa(kappa)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(5):
        c = sys_.random_coefficients(rng)
        f = reconstruct(c, sys_)
        g_spec = reconstruct(apply_multiplier(m_ker, sys_, c), sys_)
        ((loc, glob),) = apply_T_split([f], kappa, model, grid)
        rel = grid.function(loc.values + glob.values - g_spec.values).norm_lp(2) / f.norm_lp(2)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _report(
        6,
        f"Riesz identity {resid:.0e}, kernel-vs-spectral {worst:.0e} in {elapsed:.0f}s",
        resid <= 1e-12 and worst < 1e-5 and elapsed < 120.0,
    )


def test_07_local_global_kernel_estimates():
    pairs = sample_local_pairs(100, 321, d=2)
    ratios = [di_bound_ratio(x1, y1) for x1, y1 in pairs]
    di_ok = all(map(math.isfinite, ratios)) and max(ratios) < 1.0

    kappa = kappa_indicator(0.1, 0.9)
    model = euclidean_heat_model(1)
    g200 = cz_growth_check(sample_product_pairs(200, 7, model), kappa, model)
    g400 = cz_growth_check(sample_product_pairs(400, 7, model), kappa, model)
    s200 = cz_smooth_check(sample_product_triples(200, 8, model), kappa, model)
    s400 = cz_smooth_check(sample_product_triples(400, 8, model), kappa, model)
    stable = (
        math.isfinite(g200.sup)
        and math.isfinite(s200.sup)
        and g400.sup <= 1.5 * g200.sup
        and s400.sup <= 1.5 * s200.sup
    )
    _report(
        7,
        f"difference-integral ratio sup {max(ratios):.3f}; growth/smoothness sups "
        f"{g200.sup:.3f}/{s200.sup:.3f} stable under doubling",
        di_ok and stable,
    )


def test_08_cz_decomposition_properties():
    system = dyadic_system(128)
    w = system.weights
    n_fibers = 3
    pts = system.n >> system.l_max
    ok = True
    for seed in range(50):
        rng = np.random.default_rng(seed)
        f = np.repeat(rng.random((n_fibers, 1 << system.l_max)) ** 2 * 4.0, pts, axis=-1)
        s = f.mean(axis=-1).max() * (1.0 + rng.random())
        res = cz_decompose(f, s, system)
        good = np.asarray(res.good)

        ok &= bool(np.allclose(good + res.bad_sum(), f, rtol=0, atol=1e-12 * f.max()))
        bad_l1 = sum(float((np.abs(b.values) @ w[b.cube.slice]).sum()) for b in res.bads)
        ok &= float((np.abs(good) @ w).sum()) + bad_l1 <= 4.0 * float((f @ w).sum()) + 1e-12
        ok &= float(np.max(np.abs(good))) <= 2.0 * s + 1e-12
        per_fiber = np.zeros(n_fibers)
        for bad in res.bads:
            per_fiber[list(bad.fibers)] += bad.cube.measure
            means = bad.values @ w[bad.cube.slice] / bad.cube.measure
            ok &= float(np.max(np.abs(means))) < 1e-12 * f.max()
            ok &= bool(
                np.all(bad.averages > s)
                and np.all(bad.averages <= 2.0 * s + 1e-12)
                and np.all(bad.averages >= s / 2.0)
            )
        ok &= bool(np.all(per_fiber <= (f @ w) / s + 1e-12))
        ok &= bool(np.array_equal(res.selection_mask(), dyadic_maximal(f, system) > s))

    sys256 = dyadic_system(256)
    f = np.where(sys256.points < 0.25, 4.0, 0.0)[None, :]
    res = cz_decompose(f, 1.0, sys256)
    fixture_ok = (
        len(res.bads) == 1
        and res.bads[0].cube.lo == 0.0
        and res.bads[0].cube.hi == 0.5
        and float(np.max(np.abs(res.good))) == 2.0
    )
    _report(
        8,
        "CZ decomposition properties (i)-(v) on 50 seeded draws and the step fixture",
        ok and fixture_ok,
    )


def test_09_weak_quasinorm():
    system = dyadic_system(256)
    indicator = np.zeros(system.n)
    indicator[: system.n // 8] = 1.0
    exact = weak_quasinorm(indicator, system.weights) == 1.0 / 8.0

    n = 1000
    x = (np.arange(n) + 1.0) / n
    f = 1.0 / x
    wgt = np.full(n, 1.0 / n)
    inv_err = abs(weak_quasinorm(f, wgt) - 1.0)

    homogeneous = weak_quasinorm(2.0 * f, wgt) == 2.0 * weak_quasinorm(f, wgt)
    chebyshev = (
        weak_quasinorm(indicator, system.weights) <= indicator @ system.weights
        and weak_quasinorm(f, wgt) <= f @ wgt
    )
    _report(
        9,
        f"weak quasinorm: indicator exact, 1/x err {inv_err:.0e}, homogeneous, Chebyshev",
        exact and inv_err < 1e-3 and homogeneous and chebyshev,
    )


def test_10_p2_spectral_ceiling():
    worst_excess = -math.inf
    for op, (build, mult_name, atl_safe) in operator_registry().items():
        est = estimate_pnorm(op, 2.0, trials=5, seed=2)
        ceiling = spectral_sup_norm(builtin_multiplier(mult_name), build(), atl_safe)
        worst_excess = max(worst_excess, est.estimate - ceiling)
    _report(
        10,
        f"p=2 estimates below spectral sup across {len(operator_registry())} operators "
        f"(max excess {worst_excess:.1e})",
        worst_excess <= 1e-9,
    )
