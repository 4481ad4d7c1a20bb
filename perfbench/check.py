"""Correctness gate: collect each experiment's report and compare it.

A report is the ``summary.json`` results and invariants plus every CSV
table an experiment writes.  Reports are compared three ways:

* against the first pass of the same run, exactly, because a fixed seed
  makes specmult reports byte-identical;
* against the stored reference for the seed, if ``references/`` has one,
  within the tolerance the tier-1 tests state for each quantity;
* for experiments that take no seed, against the stored reference of any
  seed, since their results cannot depend on it.
"""
from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

# Tolerance per quantity, by result key or CSV column name: ("rel"|"abs", value).
# Each is the tolerance a tier-1 test already applies to that quantity:
#   CZ sups rel 1e-12 (test_products frozen sups), seminorms rel 1e-12
#   (test_multipliers MAR_RIESZ1_RHO1), Mellin values rel 1e-12 (mellin_on_grid
#   vs mellin), square-function ratios abs 1e-6 (constant_within_1e-6), the
#   square constant rel 1e-15, kernel-vs-spectral error abs 1e-5 and the
#   Riesz identity residual abs 1e-12 (acceptance test 06), norm estimates
#   rel 1e-13 (test_cli RIESZ_P4_T10_S5) and the spectral sup rel 1e-15,
#   CZ thresholds and cube values rel 1e-12 (exact_to_machine).
# Quantities not listed (integers, names, booleans) must match exactly.
TOLERANCES: dict[str, dict[str, tuple[str, float]]] = {
    "cz-estimates": {
        "growth_sup": ("rel", 1e-12),
        "smooth_sup": ("rel", 1e-12),
        "sup": ("rel", 1e-12),
    },
    "riesz-cross-check": {
        "max_relative_error": ("abs", 1e-5),
        "relative_error": ("abs", 1e-5),
        "identity_residual": ("abs", 1e-12),
    },
    "marcinkiewicz": {
        "mar_norm": ("rel", 1e-12),
        "seminorm": ("rel", 1e-12),
    },
    "mellin-decay": {
        "slope": ("rel", 1e-12),
        "constant": ("rel", 1e-12),
        "u": ("rel", 1e-12),
        "sup_abs": ("rel", 1e-12),
    },
    "square-function": {
        "constant": ("rel", 1e-15),
        "max_abs_error": ("abs", 1e-6),
        "ratio": ("abs", 1e-6),
        "abs_error": ("abs", 1e-6),
    },
    "norm-estimate": {
        "estimate": ("rel", 1e-13),
        "ratio": ("rel", 1e-13),
        "spectral_sup": ("rel", 1e-15),
    },
    "cz-decompose": {
        "threshold": ("rel", 1e-12),
        "good_sup": ("rel", 1e-12),
        "lo": ("rel", 1e-12),
        "hi": ("rel", 1e-12),
    },
}


def collect(exp_dir: Path) -> dict:
    """The comparable part of one experiment's report directory."""
    summary = json.loads((exp_dir / "summary.json").read_text())
    tables = {
        p.name: p.read_text() for p in sorted(exp_dir.iterdir()) if p.name != "summary.json"
    }
    return {
        "results": summary["results"],
        "invariants": summary["invariants"],
        "tables": tables,
    }


def digest(reports: dict) -> str:
    """Short fingerprint of a pass's reports (stable for a fixed seed)."""
    blob = json.dumps(reports, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _close(got, want, tol) -> bool:
    if isinstance(got, bool) or isinstance(want, bool) or tol is None:
        return got == want
    if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
        return got == want
    if not (math.isfinite(got) and math.isfinite(want)):
        return got == want
    mode, value = tol
    if mode == "rel":
        return abs(got - want) <= value * abs(want)
    return abs(got - want) <= value


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _compare_value(path: str, key: str, got, want, tols: dict, misses: list) -> None:
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            misses.append(f"{path}: keys {sorted(got)} != {sorted(want)}")
            return
        for k in want:
            _compare_value(f"{path}.{k}", k, got[k], want[k], tols, misses)
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            misses.append(f"{path}: length {len(got)} != {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_value(f"{path}[{i}]", key, g, w, tols, misses)
    elif not _close(got, want, tols.get(key)):
        misses.append(f"{path}: {got!r} != reference {want!r}")


def compare(kind: str, got: dict, want: dict) -> list[str]:
    """Differences of a report from its reference beyond the tolerances."""
    tols = TOLERANCES.get(kind, {})
    misses: list[str] = []
    _compare_value("results", "", got["results"], want["results"], tols, misses)
    _compare_value("invariants", "", got["invariants"], want["invariants"], {}, misses)
    if got["tables"].keys() != want["tables"].keys():
        misses.append(f"tables: {sorted(got['tables'])} != {sorted(want['tables'])}")
        return misses
    for name in want["tables"]:
        rows_got = list(csv.reader(io.StringIO(got["tables"][name])))
        rows_want = list(csv.reader(io.StringIO(want["tables"][name])))
        if not rows_want or rows_got[:1] != rows_want[:1] or len(rows_got) != len(rows_want):
            misses.append(f"{name}: header or row count differs from reference")
            continue
        header = rows_want[0]
        for r, (row_g, row_w) in enumerate(zip(rows_got[1:], rows_want[1:]), start=1):
            for col, g, w in zip(header, row_g, row_w):
                if not _close(_cell(g), _cell(w), tols.get(col)):
                    misses.append(f"{name} row {r} {col}: {g} != reference {w}")
    return misses


def _reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_references(workload: str) -> dict:
    """{"seeds": {seed: {experiment id: report}}, "seedless": [experiment ids]}."""
    path = _reference_path(workload)
    if not path.is_file():
        return {"seeds": {}, "seedless": []}
    return json.loads(gzip.decompress(path.read_bytes()))


def save_references(workload: str, refs: dict) -> Path:
    """Gzipped JSON, byte-stable for equal content."""
    path = _reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(refs, indent=1, sort_keys=True).encode() + b"\n"
    path.write_bytes(gzip.compress(blob, mtime=0))
    return path
