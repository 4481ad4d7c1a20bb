"""Batch experiment runner.

Seven experiment kinds wrap the library: Marcinkiewicz norms, Mellin
decay fits, square-function constants, the kernel-vs-spectral Riesz
cross-check, kernel-estimate audits, Calderon-Zygmund decomposition
demos, and empirical operator-norm estimation.

Every run writes CSV tables plus a ``summary.json`` with the echoed
config, results, and a pass/fail flag per invariant.  Outputs are
deterministic for a fixed config and seed, except the recorded
``runtime_seconds``.  Exit codes: 0 ok, 2 usage error, 3 numerical
failure, 4 invariant violation.

Config files are flat ``key=value`` text; ``--override key=value``
(repeatable) wins over the file, and ``--seed``/``--out`` flags win
over both.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from .dyadic import cz_decompose, dyadic_maximal, dyadic_system
from .multipliers import (
    ATLViolation,
    BUILTIN_MULTIPLIERS,
    MellinTailError,
    builtin_multiplier,
    decay_check,
    marcinkiewicz_seminorm,
    square_constant,
    square_function,
)
from .ouhermite import ou_system
from .products import (
    _child_rngs,
    apply_T_split,
    cz_growth_check,
    cz_smooth_check,
    euclidean_heat_model,
    kappa_indicator,
    multiplier_from_kappa,
    product_grid,
    sample_product_pairs,
    sample_product_triples,
    torus_heat_model,
    torus_system,
)
from .spectral import (
    EvaluationError,
    MultiplierSpec,
    SpectralSystem,
    apply_multiplier,
    reconstruct,
    tensor,
)

__all__ = [
    "ExperimentConfig",
    "NormEstimate",
    "NumericalFailure",
    "UsageError",
    "build_config",
    "estimate_pnorm",
    "main",
    "operator_registry",
    "parse_config_file",
    "run",
    "spectral_sup_norm",
]


class UsageError(ValueError):
    """Invalid configuration; the message names the offending field."""


class NumericalFailure(RuntimeError):
    """An experiment produced non-finite output or an evaluation error."""


# -- configuration -----------------------------------------------------------

# A config field states its range once: ``read`` checks a raw value against it
# and ``doc`` words it for the usage error.


@dataclass(frozen=True)
class _Int:
    """An integer in lo..hi; with ``pow2``, a power of two there."""

    default: str
    lo: int
    hi: int
    pow2: bool = False

    def read(self, raw: str) -> int:
        value = int(raw)
        if not self.lo <= value <= self.hi or self.pow2 and value & (value - 1):
            raise ValueError(raw)
        return value

    @property
    def doc(self) -> str:
        return f"{'a power of two' if self.pow2 else 'an integer'} in {self.lo}..{self.hi}"


@dataclass(frozen=True)
class _Orders(_Int):
    """Comma-separated orders, each in lo..hi, and at most ``most`` of them if it is set."""

    most: int | None = None

    def read(self, raw: str) -> tuple[int, ...]:
        value = tuple(_Int.read(self, part) for part in raw.split(","))
        if self.most and len(value) > self.most:
            raise ValueError(raw)
        return value

    @property
    def doc(self) -> str:
        most = f"at most {self.most} " if self.most else ""
        return f"{most}comma-separated orders, each in {self.lo}..{self.hi}"


@dataclass(frozen=True)
class _Real:
    """A real in the open interval (lo, hi)."""

    default: str
    lo: float
    hi: float

    def read(self, raw: str) -> float:
        value = float(raw)
        if not self.lo < value < self.hi:  # NaN included
            raise ValueError(raw)
        return value

    @property
    def doc(self) -> str:
        return f"a real in ({self.lo:g}, {self.hi:g})"


@dataclass(frozen=True)
class _Name:
    """A ``what``: one of the names ``names()`` gives, asked for only when a value is read."""

    default: str
    what: str
    names: Callable[[], Iterable[str]]

    def read(self, raw: str) -> str:
        if raw not in self.names():
            raise ValueError(raw)
        return raw

    @property
    def doc(self) -> str:
        return f"{self.what}, one of " + ", ".join(self.names())


@dataclass(frozen=True)
class _Bool:
    """true, yes, 1 or on; false, no, 0 or off; in any case."""

    default: str
    doc = "true/false"

    def read(self, raw: str) -> bool:
        word = raw.strip().lower()
        if word not in ("true", "yes", "1", "on", "false", "no", "0", "off"):
            raise ValueError(raw)
        return word in ("true", "yes", "1", "on")


_ONE_ARG_BUILTINS = ("one", "riesz1", "imag", "imag_decay", "log_bump")


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment: kind, seed, output directory, parameters."""

    kind: str
    seed: int | None
    out: str
    params: Mapping[str, object]

    def param(self, name: str):
        return self.params[name]


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments ignored."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"config: cannot read {path}: {exc}") from None
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"config line {lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        values[key.strip()] = raw.strip()
    return values


def build_config(
    kind: str,
    file_values: Mapping[str, str] | None = None,
    overrides: Mapping[str, str] | None = None,
    seed: int | None = None,
    out: str | None = None,
) -> ExperimentConfig:
    if kind not in _EXPERIMENTS:
        raise UsageError(f"kind: unknown experiment {kind!r}")
    experiment = _EXPERIMENTS[kind]
    raw = {name: field.default for name, field in experiment.fields.items()}
    reserved: dict[str, str] = {}
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            if key in ("seed", "out"):
                reserved[key] = value
            elif key in experiment.fields:
                raw[key] = value
            else:
                raise UsageError(f"{key}: not a parameter of {kind}")

    params: dict[str, object] = {}
    for name, field in experiment.fields.items():
        try:
            params[name] = field.read(raw[name])
        except ValueError:
            raise UsageError(f"{name}: expected {field.doc} (got {raw[name]!r})") from None

    if seed is None and "seed" in reserved:
        try:
            seed = int(reserved["seed"])
        except ValueError:
            raise UsageError(f"seed: expected an integer (got {reserved['seed']!r})") from None
    if seed is not None and seed < 0:
        raise UsageError("seed: must be non-negative")
    if seed is None and experiment.seeded(params):
        raise UsageError("seed: required for sampled experiments")
    if out is None:
        out = reserved.get("out", f"reports/{kind}")
    # fail before the experiment runs: out, or its nearest existing ancestor, must be a directory
    path = Path(out)
    existing = next(p for p in (path, *path.absolute().parents) if os.path.exists(p))
    if not os.path.isdir(existing):
        raise UsageError(f"out: {existing} is not a directory (got {str(out)!r})")
    return ExperimentConfig(kind=kind, seed=seed, out=str(out), params=params)


# -- operator registry and norm estimation -----------------------------------

@lru_cache(maxsize=None)
def _square_system(d: int, k_max: int) -> SpectralSystem:
    """OU(1, k_max), or its tensor with the 3-mode torus when d = 2; built once."""
    if d == 1:
        return ou_system(1, k_max)
    return tensor(ou_system(1, k_max), torus_system(3, 32))


def _ou16() -> SpectralSystem:
    return _square_system(1, 16)


def _ou_torus() -> SpectralSystem:
    return _square_system(2, 12)


def operator_registry() -> dict[str, tuple[Callable[[], SpectralSystem], str, bool]]:
    """id -> (system builder, built-in multiplier name, needs ATL-safe draws)."""
    reg: dict[str, tuple[Callable[[], SpectralSystem], str, bool]] = {
        "identity": (_ou16, "one", False),
        "riesz": (_ou_torus, "riesz2", False),
    }
    for name in BUILTIN_MULTIPLIERS:
        if name == "riesz2":
            reg[name] = (_ou_torus, name, False)
        else:
            # imaginary-power multipliers are singular at the zero eigenvalue
            reg[name] = (_ou16, name, name in ("imag", "imag_decay", "log_bump"))
    return reg


def spectral_sup_norm(m: MultiplierSpec, sys_: SpectralSystem, atl_safe: bool) -> float:
    """sup |m| over the truncated spectrum reachable by the sampler."""
    lam = sys_.eigenvalue_matrix()
    if atl_safe:
        lam = lam[np.all(lam > 0, axis=1)]
    if len(lam) == 0:
        return 0.0
    return float(np.max(np.abs(m(lam))))


@dataclass(frozen=True)
class NormEstimate:
    """Empirical lower bound for an operator p-norm from random inputs."""

    p: float
    ratios: tuple[float, ...]  # ||Tf||_p / ||f||_p, one per trial

    @property
    def trials(self) -> int:
        return len(self.ratios)

    @property
    def argmax_trial(self) -> int:
        """The first trial whose ratio is the largest."""
        return max(range(len(self.ratios)), key=self.ratios.__getitem__)

    @property
    def estimate(self) -> float:
        return max(self.ratios[self.argmax_trial], 0.0)


def _pnorm_ratios(operator: str, p: float, trials: int, seed: int) -> list[float]:
    registry = operator_registry()
    if operator not in registry:
        raise UsageError(f"operator: unknown id {operator!r}")
    build, mult_name, atl_safe = registry[operator]
    sys_ = build()
    m = builtin_multiplier(mult_name)
    ratios = []
    for rng in _child_rngs(seed, trials):
        for _ in range(8):
            c = sys_.random_coefficients(rng, atl_safe=atl_safe)
            f = reconstruct(c, sys_)
            norm_f = f.norm_lp(p)
            if norm_f > 1e-12:
                break
        else:
            raise NumericalFailure("could not draw an input with non-degenerate norm")
        g = reconstruct(apply_multiplier(m, sys_, c), sys_)
        ratios.append(g.norm_lp(p) / norm_f)
    return ratios


def estimate_pnorm(operator: str, p: float, trials: int, seed: int) -> NormEstimate:
    """Max of ||Tf||_p / ||f||_p over random band-limited inputs.

    Trials use independent child streams spawned from the seed, so the
    estimate is non-decreasing in ``trials`` for a fixed seed.
    """
    if not 1.0 < p < math.inf:
        raise UsageError("p: must lie in (1, inf)")
    if trials < 1:
        raise UsageError("trials: must be at least 1")
    return NormEstimate(p=float(p), ratios=tuple(_pnorm_ratios(operator, p, trials, seed)))


# -- experiments --------------------------------------------------------------

# name -> a CSV table (header, rows) written to name.csv, or text written to the file name
Tables = dict[str, tuple[list[str], list[list]] | str]


def _run_marcinkiewicz(cfg: ExperimentConfig) -> tuple[dict, dict, Tables]:
    m = builtin_multiplier(cfg.param("multiplier"))
    rho = cfg.param("rho")
    if len(rho) != m.arity:
        raise UsageError(f"rho: length {len(rho)} != multiplier arity {m.arity}")
    rows = []
    norm = 0.0
    for gamma in np.ndindex(*(r + 1 for r in rho)):
        value = marcinkiewicz_seminorm(m, gamma)
        norm = max(norm, value)
        rows.append([",".join(map(str, gamma)), value])
    results = {"multiplier": m.name or cfg.param("multiplier"), "mar_norm": norm}
    invariants = {"seminorms_finite": all(math.isfinite(r[1]) for r in rows)}
    return results, invariants, {"seminorms": (["gamma", "seminorm"], rows)}


def _run_mellin_decay(cfg: ExperimentConfig) -> tuple[dict, dict, Tables]:
    m = builtin_multiplier(cfg.param("multiplier"))
    rho = cfg.param("rho")
    u_grid = np.geomspace(2.0, 40.0, cfg.param("u_count"))
    report = decay_check(m, rho + 1, rho, u_grid=u_grid)
    rows = [[float(u), float(s)] for u, s in zip(report.u_grid, report.sup_abs)]
    results = {
        "multiplier": m.name or cfg.param("multiplier"),
        "n_order": rho + 1,
        "rho": rho,
        "slope": report.slope,
        "constant": report.constant,
    }
    invariants = {
        "slope_within_margin": report.slope_ok(),
        "constant_finite": math.isfinite(report.constant),
    }
    tables: Tables = {"decay": (["u", "sup_abs"], rows)}
    if cfg.param("svg"):
        fit = report.constant * (1.0 + report.u_grid) ** (-report.rho)
        curves = {"measured": report.sup_abs, "envelope": fit}
        tables["decay_fit.svg"] = _svg_line_chart(report.u_grid, curves, "Mellin decay of sup_t |M(m_{N,t})|")
    return results, invariants, tables


def _svg_line_chart(x: np.ndarray, curves: dict[str, np.ndarray], title: str) -> str:
    """A minimal static log-log polyline chart, as SVG text; no plotting dependency."""
    width, height, pad = 640, 400, 50
    lx = np.log10(np.asarray(x, dtype=float))
    all_y = np.concatenate([np.maximum(np.asarray(y, dtype=float), 1e-300) for y in curves.values()])
    ly_min, ly_max = math.floor(np.log10(all_y.min())), math.ceil(np.log10(all_y.max()))
    if ly_max == ly_min:
        ly_max += 1
    def sx(v):
        return pad + (v - lx[0]) / (lx[-1] - lx[0]) * (width - 2 * pad)
    def sy(v):
        return height - pad - (v - ly_min) / (ly_max - ly_min) * (height - 2 * pad)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
        'fill="none" stroke="black"/>',
    ]
    colors = ("steelblue", "firebrick", "seagreen")
    for (label, y), color in zip(curves.items(), colors):
        ly = np.log10(np.maximum(np.asarray(y, dtype=float), 1e-300))
        points = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(lx, ly))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}"/>')
        parts.append(
            f'<text x="{width - pad + 4}" y="{sy(ly[-1]):.2f}" font-size="11" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>\n")
    return "\n".join(parts)


def _run_square_function(cfg: ExperimentConfig) -> tuple[dict, dict, Tables]:
    N = cfg.param("n_order")
    sys_ = _square_system(len(N), cfg.param("k_max"))
    const = square_constant(N)
    rows = []
    worst = 0.0
    for i, rng in enumerate(_child_rngs(cfg.seed, cfg.param("trials"))):
        c = sys_.random_coefficients(rng, atl_safe=True)
        f = reconstruct(c, sys_)
        g = square_function(sys_, c, N)
        ratio = g.norm_lp(2) ** 2 / f.norm_lp(2) ** 2
        err = abs(ratio - const)
        worst = max(worst, err)
        rows.append([i, float(ratio), float(err)])
    results = {"n_order": list(N), "constant": const, "max_abs_error": worst}
    invariants = {"constant_within_1e-6": worst <= 1e-6}
    return results, invariants, {"trials": (["trial", "ratio", "abs_error"], rows)}


def _riesz_spectral_side(cfg: ExperimentConfig, kappa) -> tuple[list, list, float]:
    """Trial inputs f, the spectral m(L, A) f and the resolvent residual.

    Built apart from the kernel split, so the tensor system and its complex
    basis are freed before the split allocates its quadrature arrays.
    """
    sys_ = tensor(
        ou_system(1, cfg.param("k_max"), cfg.param("n_x")),
        torus_system(cfg.param("n_max"), cfg.param("n_y")),
    )
    m_ker = multiplier_from_kappa(kappa)
    rng = np.random.default_rng(cfg.seed)
    coeffs = [sys_.random_coefficients(rng) for _ in range(cfg.param("trials"))]
    g_spec = [reconstruct(apply_multiplier(m_ker, sys_, c), sys_).values for c in coeffs]
    fs = [reconstruct(c, sys_) for c in coeffs]

    # resolvent partition: L(L+A)^{-1} + A(L+A)^{-1} = I on the joint spectrum,
    # checked on the first trial's coefficients
    riesz = builtin_multiplier("riesz2")
    flip = MultiplierSpec(2, lambda lam: riesz(lam[:, ::-1]), name="riesz2-flip")
    c = coeffs[0]
    ca = apply_multiplier(riesz, sys_, c)
    cb = apply_multiplier(flip, sys_, c)
    resid = np.max(np.abs(ca + cb - c))
    return fs, g_spec, float(resid)


def _run_riesz_cross_check(cfg: ExperimentConfig) -> tuple[dict, dict, Tables]:
    n_x, k_max, n_max, n_y = (cfg.param(name) for name in ("n_x", "k_max", "n_max", "n_y"))
    # the torus band needs at least 2*n_max + 2 grid points
    if n_y < 2 * n_max + 2:
        raise UsageError(f"n_y: expected at least 2*n_max + 2 = {2 * n_max + 2} (got {n_y})")
    # below 2*k_max + 8 Gauss-Hermite nodes the kernel path misses the 1e-5 agreement
    if n_x < 2 * k_max + 8:
        raise UsageError(f"n_x: expected at least 2*k_max + 8 = {2 * k_max + 8} (got {n_x})")
    kappa = kappa_indicator(0.1, 0.9)
    model = torus_heat_model()
    grid = product_grid(model, d=1, k_max=k_max, n_y=n_y, n_x=n_x)
    fs, g_spec, resid = _riesz_spectral_side(cfg, kappa)
    splits = apply_T_split(fs, kappa, model, grid)  # one r-quadrature for all trials
    rows = []
    worst = 0.0
    for trial, (f, g, (loc, glob)) in enumerate(zip(fs, g_spec, splits)):
        diff = grid.function(loc.values + glob.values - g)
        rel = diff.norm_lp(2) / f.norm_lp(2)
        worst = max(worst, rel)
        rows.append([trial, float(rel)])
    results = {"max_relative_error": worst, "identity_residual": resid}
    invariants = {
        "kernel_spectral_agreement_1e-5": worst <= 1e-5,
        "riesz_identity_1e-12": resid <= 1e-12,
    }
    return results, invariants, {"trials": (["trial", "relative_error"], rows)}


def _run_cz_estimates(cfg: ExperimentConfig) -> tuple[dict, dict, Tables]:
    model = euclidean_heat_model(cfg.param("model_dim"))
    kappa = kappa_indicator(0.1, 0.9)
    n = cfg.param("pairs")
    pairs = sample_product_pairs(2 * n, cfg.seed, model, d=1)
    growth_half = cz_growth_check(pairs[:n], kappa, model)
    growth_full = cz_growth_check(pairs, kappa, model)
    triples = sample_product_triples(2 * n, cfg.seed + 1, model, d=1)
    smooth_half = cz_smooth_check(triples[:n], kappa, model)
    smooth_full = cz_smooth_check(triples, kappa, model)

    def stable(half: float, full: float) -> bool:
        return full <= 1.5 * half if half > 0 else full == 0.0

    rows = [
        ["growth", n, float(growth_half.sup), growth_half.n_filtered],
        ["growth", 2 * n, float(growth_full.sup), growth_full.n_filtered],
        ["smooth", n, float(smooth_half.sup), smooth_half.n_filtered],
        ["smooth", 2 * n, float(smooth_full.sup), smooth_full.n_filtered],
    ]
    results = {
        "growth_sup": float(growth_full.sup),
        "smooth_sup": float(smooth_full.sup),
    }
    invariants = {
        "growth_finite": math.isfinite(growth_full.sup),
        "smooth_finite": math.isfinite(smooth_full.sup),
        "growth_doubling_stable": stable(growth_half.sup, growth_full.sup),
        "smooth_doubling_stable": stable(smooth_half.sup, smooth_full.sup),
    }
    return results, invariants, {"sups": (["kind", "samples", "sup", "filtered"], rows)}


def _run_cz_decompose(cfg: ExperimentConfig) -> tuple[dict, dict, Tables]:
    system = dyadic_system(cfg.param("grid"))
    s = cfg.param("threshold")
    if cfg.param("fixture") == "step":
        f = np.where(system.points < 0.25, 4.0, 0.0)[None, :]
    else:
        # constant on finest cubes, threshold scaled above the fiber averages
        rng = np.random.default_rng(cfg.seed)
        pts = system.n >> system.l_max
        raw = rng.random((cfg.param("fibers"), 1 << system.l_max)) ** 2 * 6.0
        f = np.repeat(raw, pts, axis=1)
        top_fiber = float((f @ system.weights).max())
        s = s * top_fiber * 1.5
        if not math.isfinite(s):
            raise UsageError(
                f"threshold: expected at most {sys.float_info.max / (1.5 * top_fiber):.6g}, "
                f"since the random fixture scales it by 1.5 times the largest fiber average "
                f"{top_fiber:.6g} (got {cfg.param('threshold')!r})"
            )
    # a window average above s selects the whole window, and no parent cube
    # caps that average: above doubling_constant * s it breaks the good bound
    top = float(f.mean(axis=1).max())
    if top > system.doubling_constant * s + 1e-12:
        least = cfg.param("threshold") * top / (system.doubling_constant * s)
        raise UsageError(
            f"threshold: expected at least {least!r} so that the whole window is not "
            f"selected (got {cfg.param('threshold')!r})"
        )
    res = cz_decompose(f, s, system)
    w = system.weights
    l1_f = float((np.abs(f) @ w).sum())
    l1_split = float((np.abs(res.good) @ w).sum()) + sum(
        float((np.abs(bad.values) @ w[bad.cube.slice]).sum()) for bad in res.bads
    )
    exact = float(np.max(np.abs(f - res.good - res.bad_sum()), initial=0.0))
    mask_ok = bool(np.array_equal(res.selection_mask(), dyadic_maximal(f, system) > s))
    machine = 1e-12 * max(float(f.max()), 1.0)
    # bad parts on cubes of one length stack into one array; a row's mean
    # does not depend on the rows stacked with it
    by_length: dict[int, list[np.ndarray]] = {}
    for bad in res.bads:
        by_length.setdefault(bad.values.shape[1], []).append(bad.values)
    mean_ok = all(
        bool(np.all(np.abs(np.concatenate(parts).mean(axis=1)) < machine))
        for parts in by_length.values()
    )
    averages = np.concatenate([np.empty(0)] + [bad.averages for bad in res.bads])
    band_ok = bool(
        np.all(averages > s / system.doubling_constant - 1e-12)
        and np.all(averages <= system.doubling_constant * s + 1e-12)
    )
    rows = [
        [bad.cube.level, bad.cube.lo, bad.cube.hi, len(bad.fibers)] for bad in res.bads
    ]
    results = {
        "threshold": float(s),
        "bad_cubes": [
            {"level": bad.cube.level, "lo": bad.cube.lo, "hi": bad.cube.hi} for bad in res.bads
        ],
        "good_sup": float(np.max(np.abs(res.good), initial=0.0)),
    }
    invariants = {
        "exact_to_machine": exact <= machine,
        "l1_constant_4": l1_split <= 4.0 * l1_f + 1e-12,
        "good_bounded": results["good_sup"] <= system.doubling_constant * s + 1e-12,
        "bad_means_zero": mean_ok,
        "selected_averages_in_band": band_ok,
        "union_matches_maximal_set": mask_ok,
    }
    return results, invariants, {"bad_cubes": (["level", "lo", "hi", "fibers"], rows)}


def _run_norm_estimate(cfg: ExperimentConfig) -> tuple[dict, dict, Tables]:
    operator, p = cfg.param("operator"), cfg.param("p")
    est = estimate_pnorm(operator, p, cfg.param("trials"), cfg.seed)
    build, mult_name, atl_safe = operator_registry()[operator]
    ceiling = spectral_sup_norm(builtin_multiplier(mult_name), build(), atl_safe)
    rows = [[i, float(r)] for i, r in enumerate(est.ratios)]
    results = {
        "operator": operator,
        "p": est.p,
        "estimate": est.estimate,
        "trials": est.trials,
        "argmax_trial": est.argmax_trial,
        "spectral_sup": ceiling,
    }
    invariants = {"estimate_nonnegative": est.estimate >= 0.0}
    if p == 2.0:
        invariants["p2_spectral_ceiling"] = est.estimate <= ceiling + 1e-9
    return results, invariants, {"trials": (["trial", "ratio"], rows)}


class _Experiment:
    """One experiment kind: its runner, whether given params need a seed, and its fields in order."""

    def __init__(
        self,
        runner: Callable[[ExperimentConfig], tuple[dict, dict, Tables]],
        seeded: Callable[[Mapping[str, object]], bool],
        **fields: _Int | _Real | _Name | _Bool,
    ):
        self.runner = runner
        self.seeded = seeded
        self.fields = fields


_EXPERIMENTS: dict[str, _Experiment] = {
    "marcinkiewicz": _Experiment(
        _run_marcinkiewicz,
        lambda params: False,
        multiplier=_Name("riesz2", "a built-in multiplier name", lambda: BUILTIN_MULTIPLIERS),
        rho=_Orders("1,1", 0, 4),
    ),
    "mellin-decay": _Experiment(
        _run_mellin_decay,
        lambda params: False,
        multiplier=_Name("one", "a one-variable built-in multiplier", lambda: _ONE_ARG_BUILTINS),
        rho=_Int("1", 1, 3),
        u_count=_Int("25", 5, 200),
        svg=_Bool("false"),
    ),
    "square-function": _Experiment(
        _run_square_function,
        lambda params: True,
        n_order=_Orders("1", 1, 4, most=2),
        k_max=_Int("12", 4, 40),
        trials=_Int("20", 1, 200),
    ),
    "riesz-cross-check": _Experiment(
        _run_riesz_cross_check,
        lambda params: True,
        trials=_Int("5", 1, 50),
        k_max=_Int("12", 4, 24),
        n_x=_Int("128", 32, 256),
        n_max=_Int("3", 1, 8),
        n_y=_Int("32", 8, 128),
    ),
    "cz-estimates": _Experiment(
        _run_cz_estimates,
        lambda params: True,
        model_dim=_Int("1", 1, 2),
        pairs=_Int("200", 10, 2000),
    ),
    "cz-decompose": _Experiment(
        _run_cz_decompose,
        lambda params: params["fixture"] == "random",
        fixture=_Name("step", "a fixture", lambda: ("step", "random")),
        threshold=_Real("1.0", 0.0, math.inf),
        # 64 random fibers take about 0.4 s at 8192 on 2 vCPUs, about 2x more per doubling
        grid=_Int("256", 8, 8192, pow2=True),
        fibers=_Int("1", 1, 64),
    ),
    "norm-estimate": _Experiment(
        _run_norm_estimate,
        lambda params: True,
        operator=_Name("riesz", "a registered operator id", operator_registry),
        p=_Real("2.0", 1.0, math.inf),
        trials=_Int("20", 1, 500),
    ),
}


# -- report writing -----------------------------------------------------------


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def run(config: ExperimentConfig) -> dict:
    """Execute one experiment and write its report files.

    Returns the summary dict; writes ``summary.json`` plus one CSV per
    result table under ``config.out``; an ``out`` that cannot be written is
    a UsageError.
    """
    start = time.perf_counter()
    try:
        results, invariants, tables = _EXPERIMENTS[config.kind].runner(config)
    except (EvaluationError, MellinTailError, ATLViolation, FloatingPointError) as exc:
        raise NumericalFailure(str(exc)) from exc
    for key, value in results.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise NumericalFailure(f"result {key} is not finite")

    try:
        out = Path(config.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, table in tables.items():
            if isinstance(table, str):
                (out / name).write_text(table)
                continue
            header, rows = table
            with open(out / f"{name}.csv", "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                for row in rows:
                    writer.writerow([_csv_cell(cell) for cell in row])

        summary = {
            "schema": 1,
            "config": _jsonable(
                {"kind": config.kind, "seed": config.seed, "out": config.out, **config.params}
            ),
            "results": _jsonable(results),
            "invariants": _jsonable(invariants),
            "runtime_seconds": time.perf_counter() - start,
        }
        (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise UsageError(f"out: cannot write the report to {config.out}: {exc}") from None
    return summary


# -- entry point --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specmult",
        description="Run spectral-multiplier experiments and write CSV/JSON reports.",
    )
    sub = parser.add_subparsers(dest="kind", required=True, metavar="EXPERIMENT")
    for kind, experiment in _EXPERIMENTS.items():
        fields = ", ".join(f"{n} (default {f.default})" for n, f in experiment.fields.items())
        p = sub.add_parser(kind, help=f"parameters: {fields}")
        p.add_argument("--config", metavar="PATH", help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="RNG seed for sampled experiments")
        p.add_argument("--out", metavar="DIR", default=None, help="report output directory")
        p.add_argument(
            "--override",
            metavar="KEY=VALUE",
            action="append",
            default=[],
            help="override one config value (repeatable)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        overrides: dict[str, str] = {}
        for item in args.override:
            if "=" not in item:
                raise UsageError(f"override: expected KEY=VALUE, got {item!r}")
            key, _, value = item.partition("=")
            overrides[key.strip()] = value.strip()
        config = build_config(
            args.kind, file_values, overrides, seed=args.seed, out=args.out
        )
        summary = run(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    for name, passed in summary["invariants"].items():
        print(f"{'PASS' if passed else 'FAIL'} {name}")
    print(f"report written to {config.out}")
    return 0 if all(summary["invariants"].values()) else 4


if __name__ == "__main__":
    sys.exit(main())
