"""The benchmark still measures what it claims to.

``perfbench/tracer.py`` wraps the public functions of each layer and a few
named methods from outside.  A rename, a method turned into an attribute or
a name dropped from ``__all__`` would leave a per-layer metric of
``BENCHMARK.json`` reading 0; the tracer tests fail instead.

The benchmark also gates every pass against the gzipped reference reports in
``perfbench/references/``.  The replay test runs the cheap experiments of
those references at seed 0, so a change that moves a gated report fails here
as well as in a benchmark run.
"""
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str):
    """perfbench/<name>.py, loaded by path: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer_module():
    return _load("tracer")


def _traced_names(layers) -> list[str]:
    """Span names behind the per-layer metrics: ``layer.attr[.method]``."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = {m["name"].rsplit(".", 1)[0] for m in metrics}
    return sorted(n for n in names if "." in n and n.split(".", 1)[0] in layers)


def _resolve(name: str):
    layer, *path = name.split(".")
    obj = importlib.import_module(f"specmult.{layer}")
    for attr in path:
        obj = getattr(obj, attr)
    return obj


def test_tracer_installs_and_restores(tracer_module):
    names = _traced_names(tracer_module.LAYERS)
    assert "spectral.SpectralSystem.random_coefficients" in names
    originals = {name: _resolve(name) for name in names}
    assert [name for name, fn in originals.items() if not inspect.isfunction(fn)] == []
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        patched = [name for name in names if _resolve(name) is not originals[name]]
        from specmult.ouhermite import ou_system

        ou_system(1, 4).random_coefficients(np.random.default_rng(0))
    finally:
        tracer.uninstall()
    assert patched == names
    assert {"ouhermite.ou_system", "spectral.SpectralSystem.random_coefficients"} <= {
        span[0] for span in tracer.spans
    }
    assert all(_resolve(name) is originals[name] for name in names)


def test_tracer_counters_bind_and_count(tracer_module):
    # each span counter binds the traced call's own argument names; a
    # renamed argument would crash every traced benchmark run
    assert set(tracer_module.COUNTERS) == {
        "multipliers.marcinkiewicz_seminorm",
        "products.cz_growth_check",
        "products.cz_smooth_check",
    }
    multipliers = importlib.import_module("specmult.multipliers")
    products = importlib.import_module("specmult.products")
    model = products.euclidean_heat_model(1)
    kappa = products.kappa_indicator(0.1, 0.9)
    pairs = products.sample_product_pairs(2, 0, model)
    triples = products.sample_product_triples(2, 0, model)
    x, y, _ = triples[0]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        # positional arguments, so only the counter depends on the parameter names
        seminorm = multipliers.marcinkiewicz_seminorm(
            multipliers.builtin_multiplier("riesz2"), (1, 1), multipliers.DyadicRange(1, 0), 4
        )
        growth = products.cz_growth_check(pairs + [(x, x)], kappa, model, 16)
        smooth = products.cz_smooth_check(triples + [(x, y, y)], kappa, model, 16)
        values = multipliers.builtin_multiplier("riesz1")(np.ones((5, 1)))
    finally:
        tracer.uninstall()
    assert np.isfinite(seminorm) and values.shape == (5,)
    assert (growth.n_filtered, smooth.n_filtered) == (1, 1)
    summary = tracer_module.summarize(tracer.spans, 0, len(tracer.spans))
    names = summary["names"]
    # 3 radii x 4 Gauss-Legendre nodes per axis, squared; 4 stencil nodes for gamma = (1, 1)
    assert names["multipliers.marcinkiewicz_seminorm"]["amount"] == (144,)
    assert summary["seminorm_points"] == 4 * 144
    assert names["products.cz_growth_check"]["amount"] == (1, 3)
    assert names["products.cz_smooth_check"]["amount"] == (1, 3)
    # the seminorm evaluates the 4 stencil nodes once per radius, then the riesz1 call
    assert names["spectral.MultiplierSpec.__call__"]["calls"] == 4 * 3 + 1
    assert names["spectral.MultiplierSpec.__call__"]["amount"] == (4 * 144 + 5,)


# every small-runs experiment, and multiplier-grids' seminorms: riesz2
# rho=1,1, imag_decay rho=4 and riesz1 rho=2 (its other experiments take seconds)
_REPLAYED = [("small-runs", i) for i in range(8)] + [("multiplier-grids", i) for i in range(3)]


@pytest.mark.parametrize("workload, position", _REPLAYED, ids=[f"{w}-{i}" for w, i in _REPLAYED])
def test_reports_match_benchmark_references(workload, position, tmp_path):
    check, workloads = _load("check"), _load("workloads")
    from specmult import cli

    kind, overrides = workloads.WORKLOADS[workload][position]
    eid = workloads.experiment_id(position, kind)
    summary = cli.run(cli.build_config(kind, overrides=overrides, seed=0, out=str(tmp_path / eid)))
    assert all(summary["invariants"].values())
    want = check.load_references(workload)["seeds"]["0"][eid]
    assert check.compare(kind, check.collect(tmp_path / eid), want) == []
