"""The derived experiment suite (see DESIGN.md for the index).

The paper publishes no tables or figures; each module here
operationalises one quantitative claim from its text. Importing this
package registers every experiment in ``common.REGISTRY``; run one
with::

    from repro.experiments.common import run_experiment
    from repro.experiments.report import render_result
    print(render_result(run_experiment("F1", scale="paper")))

or everything via ``python -m repro.experiments``. Every check an
experiment records is deterministic; whatever compares timings lives
in ``benchmarks/`` (T3's clock costs and T4's query speed included).
"""

from repro.experiments import (  # noqa: F401  (imported for registration)
    f1_chessboard,
    f2_rot_spots,
    f3_consume,
    f4_streaming,
    f5_extinction,
    f6_ablation,
    f7_owner_care,
    t1_fungus_comparison,
    t2_cooking,
    t3_overhead,
    t4_health,
    t5_vault,
)

__all__ = [
    "f1_chessboard",
    "f2_rot_spots",
    "f3_consume",
    "f4_streaming",
    "f5_extinction",
    "f6_ablation",
    "f7_owner_care",
    "t1_fungus_comparison",
    "t2_cooking",
    "t3_overhead",
    "t4_health",
    "t5_vault",
]
