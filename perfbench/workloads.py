"""The benchmark workloads: which experiments a pass runs, and why.

A pass runs the experiments of one workload in order, each through
``specmult.cli.build_config`` + ``specmult.cli.run``, with the workload
seed given on the command line.  Together the three workloads run all
seven experiments at their default configs.
"""
from __future__ import annotations

# name -> [(experiment kind, config overrides), ...]
WORKLOADS: dict[str, list[tuple[str, dict[str, str]]]] = {
    # The products kernel quadrature does almost all the work: cz-estimates
    # calls kernel_Ktilde 1800 times a pass, each rebuilding a 512-node Legendre
    # rule, and riesz-cross-check runs the same r-quadrature batched over a
    # grid in apply_T_split.  A change that speeds the per-pair path but
    # slows the batched one shows here.
    "kernel-audit": [
        ("cz-estimates", {}),
        ("riesz-cross-check", {}),
    ],
    # multipliers on large batched grids, far larger than the CPU caches:
    # the riesz2 seminorm evaluates m 9 times on a 6.9M-point grid, the 2-d
    # square function costs tens of ms per trial.  riesz1 takes the analytic
    # partials path and imag_decay the finite-difference path, so a change
    # to one path has a bypass case in the same workload.
    "multiplier-grids": [
        ("marcinkiewicz", {}),
        ("marcinkiewicz", {"multiplier": "imag_decay", "rho": "4"}),
        ("marcinkiewicz", {"multiplier": "riesz1", "rho": "2"}),
        ("mellin-decay", {"u_count": "200", "rho": "3"}),
        ("square-function", {"n_order": "2,2", "trials": "50"}),
    ],
    # Small arrays and many calls, so fixed per-call cost dominates: the
    # dict-keyed spectral loops (reconstruct, apply_multiplier,
    # random_coefficients), system construction, report writing and the
    # dyadic result expansion in the cz-decompose invariants.  The other two
    # workloads barely touch these.
    "small-runs": [
        ("norm-estimate", {"trials": "500", "p": "4.0"}),
        ("norm-estimate", {"operator": "imag", "trials": "500"}),
        ("square-function", {"k_max": "40", "trials": "200"}),
        ("cz-decompose", {"fixture": "random", "grid": "2048", "fibers": "64"}),
        ("mellin-decay", {}),
        ("cz-decompose", {}),
        ("norm-estimate", {}),
        ("square-function", {}),
    ],
}


def experiment_id(position: int, kind: str) -> str:
    """Stable name of the experiment at ``position`` in a workload."""
    return f"{position}-{kind}"
