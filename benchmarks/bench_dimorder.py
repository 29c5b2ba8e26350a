"""Self-tuning dimension order gate: ``dim_order="auto"`` vs the statics.

Range cubing's build *time* is sensitive to the trie dimension order even
though its output is not: on correlated tables (the paper's Section 1
motivation) the wrong order splits functionally-determined dimensions
across millions of sort groups before the determinants that collapse them
are seen.  ``repro.tune`` plans the order from a bounded sample; this
module is the acceptance gate for that planner on two correlated
workloads with *opposite* static winners (see
``benchmarks.conftest.DIMORDER_WORKLOADS``):

* ``auto`` must be within ``TOLERANCE`` of the best static order, and
* the worst static order must cost at least ``MIN_WORST_RATIO``x auto, and
* planning itself must cost at most ``MAX_PLAN_FRACTION`` of one build.

Answers are verified bit-identical (full cell expansion) between the
tuned and untuned builds before anything is timed.  Build times are
best-of-3 with the plan precomputed — the plan is reused across serving
rebuilds and parallel partitions, so its one-off cost is reported (and
capped) separately rather than folded into every build.

Run under pytest-benchmark like the other bench modules, or standalone
as the CI gate::

    PYTHONPATH=src python benchmarks/bench_dimorder.py --quick

The standalone mode writes its full series to ``BENCH_dimorder.json``
(committed at the repo root; see ``docs/performance.md``).
"""

import json
import time

from repro.core.range_cubing import range_cubing
from repro.harness.runner import preferred_order
from repro.tune import plan_table

try:
    from benchmarks.conftest import DIMORDER_WORKLOADS, PRESET, cached_correlated, run_once
    from benchmarks.provenance import provenance
except ModuleNotFoundError:  # executed as a script: put the repo root on the path
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    from benchmarks.conftest import DIMORDER_WORKLOADS, PRESET, cached_correlated, run_once
    from benchmarks.provenance import provenance

#: auto's build may cost at most this factor of the best static build.
TOLERANCE = 1.15

#: The worst static build must cost at least this factor of auto's.
MIN_WORST_RATIO = 1.5

#: Planning may cost at most this fraction of one auto build.
MAX_PLAN_FRACTION = 0.5

#: The static orders auto competes against (None = as-is column order).
STATIC_POLICIES = ("desc", "asc", None)

ROWS = {"quick": 6_000, "tiny": 6_000, "small": 20_000}
N_ROWS = ROWS["small" if PRESET == "small" else "tiny"]


def _build(table, dim_order):
    return range_cubing(table, dim_order=dim_order)


def test_dimorder_auto(benchmark):
    table = cached_correlated("determined_wide", N_ROWS)
    plan = plan_table(table)
    cube = run_once(benchmark, _build, table, plan)
    benchmark.extra_info.update(
        workload="determined_wide", order="auto", ranges=cube.n_ranges
    )


def test_dimorder_worst_static(benchmark):
    table = cached_correlated("determined_wide", N_ROWS)
    worst = preferred_order(table, "asc")  # splits the determined dims first
    cube = run_once(benchmark, _build, table, worst)
    benchmark.extra_info.update(
        workload="determined_wide", order="asc", ranges=cube.n_ranges
    )


# ----------------------------------------------------------------------
# standalone gate mode (CI): verify identity, print series, enforce floors
# ----------------------------------------------------------------------


def _states_close(a, b, rel: float = 1e-9) -> bool:
    """Exact on ints (counts), last-ulp tolerant on float sums.

    A different trie order merges the same addends in a different order,
    so float sums drift by accumulated rounding; everything discrete must
    still match exactly.
    """
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_states_close(x, y, rel) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= rel * max(1.0, abs(a), abs(b))
    return a == b


def verify_identity(table) -> None:
    """Tuned and untuned builds must agree cell-for-cell before timing."""
    plain = dict(range_cubing(table, dim_order=None).expand())
    tuned = dict(range_cubing(table, dim_order="auto").expand())
    if plain.keys() != tuned.keys() or not all(
        _states_close(plain[cell], tuned[cell]) for cell in plain
    ):
        raise AssertionError(
            "dim_order='auto' changed query answers — refusing to time a "
            "wrong result"
        )


def _best_of(n, fn, *args) -> float:
    best = float("inf")
    for _ in range(n):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def measure_workload(name: str, n_rows: int) -> dict:
    table = cached_correlated(name, n_rows)
    verify_identity(table)

    plan_seconds = _best_of(3, plan_table, table)
    plan = plan_table(table)

    statics = {}
    for policy in STATIC_POLICIES:
        order = preferred_order(table, policy)
        statics[policy or "as-is"] = round(_best_of(3, _build, table, order), 4)
    auto_seconds = round(_best_of(3, _build, table, plan), 4)

    best = min(statics.values())
    worst = max(statics.values())
    return {
        "workload": name,
        "n_rows": n_rows,
        "n_dims": table.n_dims,
        "plan_order": list(plan.dim_order),
        "plan_source": plan.source,
        "plan_seconds": round(plan_seconds, 4),
        "auto_seconds": auto_seconds,
        "static_seconds": statics,
        "auto_vs_best": round(auto_seconds / best, 3),
        "worst_vs_auto": round(worst / auto_seconds, 3),
        "plan_fraction": round(plan_seconds / auto_seconds, 3),
    }


def print_workload(p: dict) -> None:
    statics = "  ".join(f"{k} {v:.3f}s" for k, v in p["static_seconds"].items())
    print(
        f"{p['workload']:>16} {p['n_rows']:>7,} rows: auto {p['auto_seconds']:.3f}s "
        f"(order {tuple(p['plan_order'])} via {p['plan_source']!r}, "
        f"plan {p['plan_seconds'] * 1000:.0f}ms)   {statics}"
    )
    print(
        f"{'':>16} auto/best {p['auto_vs_best']:.2f}x  "
        f"worst/auto {p['worst_vs_auto']:.2f}x  "
        f"plan/build {p['plan_fraction']:.2f}"
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smallest scale (the CI smoke job)"
    )
    parser.add_argument(
        "--tolerance", type=float, default=TOLERANCE,
        help="fail if auto exceeds the best static build by this factor",
    )
    parser.add_argument(
        "--min-worst-ratio", type=float, default=MIN_WORST_RATIO,
        help="fail unless the worst static costs this factor of auto",
    )
    parser.add_argument(
        "--max-plan-fraction", type=float, default=MAX_PLAN_FRACTION,
        help="fail if planning costs more than this fraction of one build",
    )
    parser.add_argument(
        "--out", default=None,
        help="write the series as JSON (default: no file in --quick mode, "
        "BENCH_dimorder.json otherwise)",
    )
    args = parser.parse_args(argv)
    n_rows = ROWS["quick"] if args.quick else N_ROWS
    out_path = args.out if args.out else (None if args.quick else "BENCH_dimorder.json")

    print(
        f"dim-order bench: {len(DIMORDER_WORKLOADS)} correlated workloads, "
        f"{n_rows:,} rows, statics {[p or 'as-is' for p in STATIC_POLICIES]}"
    )
    series = [measure_workload(name, n_rows) for name in DIMORDER_WORKLOADS]
    for point in series:
        print_workload(point)

    if out_path:
        with open(out_path, "w") as fh:
            json.dump(
                {
                    "benchmark": "dimorder",
                    "provenance": provenance(),
                    "n_rows": n_rows,
                    "tolerance": args.tolerance,
                    "min_worst_ratio": args.min_worst_ratio,
                    "max_plan_fraction": args.max_plan_fraction,
                    "workloads": series,
                },
                fh,
                indent=2,
            )
            fh.write("\n")
        print(f"wrote {out_path}")

    failed = False
    for p in series:
        if p["auto_vs_best"] > args.tolerance:
            print(
                f"FAIL: {p['workload']}: auto is {p['auto_vs_best']:.2f}x the "
                f"best static build (cap {args.tolerance:g}x)"
            )
            failed = True
        if p["worst_vs_auto"] < args.min_worst_ratio:
            print(
                f"FAIL: {p['workload']}: worst static is only "
                f"{p['worst_vs_auto']:.2f}x auto (need >= {args.min_worst_ratio:g}x)"
            )
            failed = True
        if p["plan_fraction"] > args.max_plan_fraction:
            print(
                f"FAIL: {p['workload']}: planning costs {p['plan_fraction']:.2f} "
                f"of a build (cap {args.max_plan_fraction:g})"
            )
            failed = True
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
