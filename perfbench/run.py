"""specmult benchmark: run one workload of experiments and print its metrics.

    python3 perfbench/run.py --workload kernel-audit --seed 0 --seconds 10 --trace 0

Run from a specmult checkout; the package is imported from ``src/`` of the
checkout this file lives in.  One process, one caller, closed loop: each
experiment starts when the previous one has finished.  A *pass* runs the
workload's experiment list once, in process, through
``specmult.cli.build_config`` + ``specmult.cli.run``.  The first pass runs
with every cache empty; warm passes follow until ``--seconds`` of them
have been measured (at least one).

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` traces every public call of the six layers (see tracer.py)
and prints the per-layer metrics instead.  Every pass is checked (see
check.py); the last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Reports go to a scratch
directory of the run under ``.perfbench-work/``, removed at the end; the
run record and the spans are written to ``.perfbench-out/``.

``--record-reference`` stores the seed's reports as the reference in
``perfbench/references/`` instead of checking against them.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
MAX_SHOWN_FAILURES = 10

sys.path.insert(0, str(BENCH_DIR))
import check  # noqa: E402
from tracer import LAYERS, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, experiment_id  # noqa: E402


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _cap_blas_threads() -> int:
    """Cap BLAS at the CPUs this one process may use; before NumPy loads."""
    cap = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cap)
    return cap


def _commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _environment(args, cap: int) -> dict:
    import numpy
    import scipy

    source = hashlib.sha256()
    for path in sorted((SRC / "specmult").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "source_sha256": source.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": cap,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _measure_setup() -> list[float]:
    """Wall seconds from starting a fresh interpreter to specmult.cli imported.

    CLOCK_MONOTONIC is system-wide, so the child's reading after the import
    and the parent's reading before the start share one time line.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = "import specmult.cli, time; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, "-c", probe], cwd=ROOT, env=env, check=True,
            capture_output=True, text=True,
        )
        times.append(float(done.stdout) - start)
    return times


class Bench:
    """One workload run: its passes, their checks and the failure counts."""

    def __init__(self, args, cli, work: Path):
        self.args = args
        self.cli = cli
        self.experiments = WORKLOADS[args.workload]
        self.references = check.load_references(args.workload)
        self.work = work
        self.first_reports: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.report_bytes: list[int] = []
        self.passes = 0

    def run_pass(self) -> float:
        """Run the experiment list once and check it; return its wall seconds."""
        pass_dir = self.work / f"pass-{self.passes}"
        outcomes = []
        cli = self.cli
        start = time.perf_counter()
        for i, (kind, overrides) in enumerate(self.experiments):
            eid = experiment_id(i, kind)
            try:
                config = cli.build_config(
                    kind, overrides=overrides, seed=self.args.seed, out=str(pass_dir / eid)
                )
                summary = cli.run(config)
                error = None if all(summary["invariants"].values()) else "invariant failed (exit 4)"
            except cli.UsageError as exc:
                error = f"usage error (exit 2): {exc}"
            except cli.NumericalFailure as exc:
                error = f"numerical failure (exit 3): {exc}"
            except Exception as exc:  # a crash of one experiment must not stop the run
                error = f"exception (exit 1): {type(exc).__name__}: {exc}"
            outcomes.append((eid, kind, error))
        elapsed = time.perf_counter() - start
        self._check(pass_dir, outcomes)
        self.passes += 1
        return elapsed

    def _check(self, pass_dir: Path, outcomes) -> None:
        reports = {}
        size = 0
        for eid, kind, error in outcomes:
            self.attempted += 1
            problems = [error] if error else []
            if not error:
                reports[eid] = report = check.collect(pass_dir / eid)
                size += sum(p.stat().st_size for p in (pass_dir / eid).iterdir())
                problems += self._against_references(eid, kind, report)
                if self.first_reports is not None and self.first_reports.get(eid) != report:
                    problems.append("report differs from the first pass (same seed)")
            if problems:
                self.failed += 1
                self.failures += [f"pass {self.passes} {eid}: {p}" for p in problems]
        if self.first_reports is None:
            self.first_reports = reports
        self.report_bytes.append(size)
        shutil.rmtree(pass_dir, ignore_errors=True)

    def _against_references(self, eid: str, kind: str, report: dict) -> list[str]:
        if self.args.record_reference:
            return []
        seeds = self.references["seeds"]
        want = seeds.get(str(self.args.seed), {}).get(eid)
        if want is None and eid in self.references["seedless"] and seeds:
            want = next(iter(seeds.values())).get(eid)
        if want is None:
            return []
        return [f"reference miss: {m}" for m in check.compare(kind, report, want)[:3]]

    def passes_for(self, budget: float) -> list[float]:
        """Passes until ``budget`` seconds of them have been measured, at least one."""
        times = [self.run_pass()]
        while sum(times) < budget:
            times.append(self.run_pass())
        return times

    def record_reference(self) -> Path:
        refs = check.load_references(self.args.workload)
        refs["seeds"][str(self.args.seed)] = self.first_reports
        refs["seedless"] = []
        for i, (kind, overrides) in enumerate(self.experiments):
            try:
                self.cli.build_config(kind, overrides=overrides, seed=None, out=".")
            except self.cli.UsageError:
                continue  # the experiment needs a seed
            refs["seedless"].append(experiment_id(i, kind))
        return check.save_references(self.args.workload, refs)


# -- per-layer metrics --------------------------------------------------------

# span name -> the fields reported for it, per warm pass
_PER_NAME = (
    ("products.kernel_Ktilde", ("calls", "self_s")),
    ("products.cz_growth_check", ("total_s",)),
    ("products.cz_smooth_check", ("total_s",)),
    ("products.apply_T_split", ("calls", "self_s")),
    ("products.m_kappa", ("calls", "self_s")),
    ("multipliers.marcinkiewicz_seminorm", ("calls", "self_s")),
    ("spectral.MultiplierSpec.__call__", ("calls", "points", "self_s")),
    ("multipliers.decay_check", ("self_s",)),
    ("multipliers.square_function", ("calls", "self_s")),
    ("spectral.reconstruct", ("calls", "self_s")),
    ("spectral.apply_multiplier", ("calls", "self_s")),
    ("spectral.SpectralSystem.random_coefficients", ("self_s",)),
    ("spectral.GridFunction.norm_lp", ("self_s",)),
    ("dyadic.cz_decompose", ("self_s",)),
    ("dyadic.dyadic_maximal", ("self_s",)),
    ("dyadic.CZBad.expand", ("calls", "self_s")),
    ("dyadic.CZResult.bad_sum", ("self_s",)),
    ("cli.run", ("calls",)),
)
# set-up work done once per process, so taken from the cold pass
_COLD_NAMES = (
    "spectral.tensor",
    "spectral.SpectralSystem.basis_matrix",
    "ouhermite.ou_system",
    "ouhermite.hermite_basis",
)
_UNITS = {"calls": "count", "points": "count", "self_s": "s", "total_s": "s"}


def per_layer_metrics(spans: list, cold: tuple, warm: list, traced: list,
                      untraced: list, report_bytes: float) -> dict:
    """Means per traced warm pass; set-up self times from the cold pass."""
    summaries = [summarize(spans, lo, hi) for lo, hi in warm]
    sums = [s["names"] for s in summaries]
    layers = [s["layers"] for s in summaries]
    n = len(summaries)
    metrics: dict = {}

    def amount(name: str, i: int):
        """Counter ``i`` of a span name, summed over the warm passes."""
        return sum(s[name]["amount"][i] for s in sums if name in s and s[name]["amount"])

    for name, keys in _PER_NAME:
        for key in keys:
            if key == "points":
                total = amount(name, 0)
            else:
                total = sum(s[name][key] for s in sums if name in s)
            metrics[f"{name}.{key}"] = (total / n, _UNITS[key])

    audits = ("products.cz_growth_check", "products.cz_smooth_check")
    filtered = sum(amount(name, 0) for name in audits)
    drawn = sum(amount(name, 1) for name in audits)
    metrics["products.cz_filtered_ratio"] = (filtered / drawn if drawn else 0.0, "ratio")
    grid = amount("multipliers.marcinkiewicz_seminorm", 0)
    evals = sum(s["seminorm_points"] for s in summaries)
    metrics["multipliers.evals_per_grid_point"] = (evals / grid if grid else 0.0, "ratio")

    first = summarize(spans, *cold)["names"]
    for name in _COLD_NAMES:
        metrics[f"{name}.self_s"] = (first[name]["self_s"] if name in first else 0.0, "s")

    layer_total = 0.0
    for layer in LAYERS:
        self_s = sum(s[layer]["self_s"] for s in layers) / n
        layer_total += self_s
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.errors"] = (sum(s[layer]["errors"] for s in layers) / n, "count")
    metrics["cli.report_bytes"] = (report_bytes, "bytes")

    traced_mean = statistics.fmean(traced)
    metrics["trace.pass_s"] = (traced_mean, "s")
    metrics["trace.unattributed_s"] = (traced_mean - layer_total, "s")
    metrics["trace_overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced), "ratio"
    )
    return metrics


# -- main ---------------------------------------------------------------------


def _declared_metrics(trace: int) -> list[str] | None:
    """Metric names BENCHMARK.json declares for this mode, if it is present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "specmult" / "__init__.py").is_file():
        print(f"error: no specmult sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    cap = _cap_blas_threads()
    setup = [] if args.trace or args.record_reference else _measure_setup()
    sys.path.insert(0, str(SRC))
    import specmult.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: specmult imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = _environment(args, cap)
    WORK_DIR.mkdir(exist_ok=True)
    bench = Bench(args, cli, Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)))
    tracer = Tracer() if args.trace else None
    try:
        if tracer is None:
            first = bench.run_pass()
            untraced = bench.passes_for(args.seconds)
        else:
            tracer.install()
            first = bench.run_pass()
            cold = (0, len(tracer.spans))
            warm, traced = [], []
            while not traced or sum(traced) < args.seconds / 2:
                mark = len(tracer.spans)
                traced.append(bench.run_pass())
                warm.append((mark, len(tracer.spans)))
            tracer.uninstall()
            untraced = bench.passes_for(args.seconds / 2)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    if args.record_reference:
        if bench.failed:
            print("\n".join(bench.failures), file=sys.stderr)
            return 1
        print(f"reference for seed {args.seed} written to {bench.record_reference()}",
              file=sys.stderr)
        return 0

    notes = {}
    if tracer is None:
        metrics = {
            "pass_s": (statistics.median(untraced), "s"),
            "first_pass_s": (first, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        notes["pass_s"] = (f"median of {len(untraced)} warm passes, "
                           f"min {min(untraced):.4g}, max {max(untraced):.4g}")
        notes["setup_s"] = f"median of {len(setup)} fresh interpreters"
    else:
        metrics = per_layer_metrics(
            tracer.spans, cold, warm, traced, untraced,
            statistics.fmean(bench.report_bytes[1 : 1 + len(traced)]),
        )
        notes["trace.pass_s"] = f"mean of {len(traced)} traced warm passes"
        notes["trace_overhead_ratio"] = (
            f"median of {len(traced)} traced / median of {len(untraced)} untraced warm passes"
        )
    declared = _declared_metrics(args.trace)
    if declared is not None and set(declared) != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} differ from "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    failed_ratio = bench.failed / bench.attempted
    digest = check.digest(bench.first_reports)

    print(f"workload {args.workload}, {len(bench.experiments)} experiments per pass")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"digest {digest}")
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<{width}}  {value:.6g} {unit}{note}")
    print(f"failed_ratio  {failed_ratio:.6g} ratio  "
          f"({bench.failed} of {bench.attempted} experiment runs failed)")
    for line in bench.failures[:MAX_SHOWN_FAILURES]:
        print(f"FAIL {line}", file=sys.stderr)

    result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "env": env,
        "digest": digest,
        "metrics": result_metrics,
        "failed_ratio": failed_ratio,
        "failures": bench.failures,
        "first_pass_s": first,
        "warm_pass_s": untraced,
        "setup_s": setup,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.json.gz")

    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
