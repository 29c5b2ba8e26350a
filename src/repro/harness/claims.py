"""The paper's qualitative claims as executable checks.

EXPERIMENTS.md argues the reproduction target at reduced scale is the
*shape* of each result.  This module makes those shapes machine-checkable:
each claim is a predicate over a figure's measured series, robust to
constant factors (only orderings, monotone trends and coarse ratios are
asserted).  ``python -m repro.harness.claims`` prints a PASS/FAIL table;
the test suite runs the whole set at the tiny preset, so any regression
that flips a paper-level conclusion fails CI even if every unit oracle
still holds.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Callable

from repro.harness import (
    fig8_dimensionality,
    fig9_skew,
    fig10_sparsity,
    fig11_scalability,
    real_weather,
)


@dataclass
class ClaimResult:
    claim_id: str
    description: str
    passed: bool
    detail: str


def _stable_run(module, preset: str, repeats: int = 3) -> list[dict]:
    """Run a figure several times, keep the per-point minimum of every timing.

    At the tiny preset individual points are tens of milliseconds, where
    scheduler noise can flip a trend; minima over repeated runs are
    stable (load only ever adds time) while leaving the size metrics
    (deterministic) untouched.
    """
    first = module.run(preset=preset)
    for _ in range(repeats - 1):
        rerun = module.run(preset=preset)
        for a, b in zip(first, rerun):
            for key in a:
                if key.endswith("_seconds") and key in b:
                    a[key] = min(a[key], b[key])
    return first


def _mostly_decreasing(values: list[float], tolerance: float = 0.0) -> bool:
    """Non-increasing up to ``tolerance`` relative wiggle per step."""
    return all(b <= a * (1 + tolerance) for a, b in zip(values, values[1:]))


def _mostly_increasing(values: list[float], tolerance: float = 0.0) -> bool:
    return _mostly_decreasing(list(reversed(values)), tolerance)


def check_fig8(preset: str) -> list[ClaimResult]:
    rows = _stable_run(fig8_dimensionality, preset)
    speedups = [r["hcubing_seconds"] / r["range_seconds"] for r in rows]
    tuple_ratios = [r["tuple_ratio"] for r in rows]
    node_ratios = [r["node_ratio"] for r in rows]
    return [
        ClaimResult(
            "fig8-time",
            "range cubing's advantage over H-Cubing grows with dimensionality",
            speedups[-1] > max(1.0, speedups[0]),
            f"speedup {speedups[0]:.2f}x at {rows[0]['dimensionality']} dims -> "
            f"{speedups[-1]:.2f}x at {rows[-1]['dimensionality']} dims",
        ),
        ClaimResult(
            "fig8-dense-parity",
            "in the dense low-dimension regime the two algorithms nearly coincide",
            0.2 < speedups[0] < 5.0 and tuple_ratios[0] > 0.75,
            f"lowest-dim speedup {speedups[0]:.2f}x, tuple ratio "
            f"{100 * tuple_ratios[0]:.0f}%",
        ),
        ClaimResult(
            "fig8-space",
            "tuple ratio and node ratio improve (fall) as dimensionality grows",
            _mostly_decreasing(tuple_ratios, 0.02)
            and _mostly_decreasing(node_ratios, 0.02),
            f"tuple {100 * tuple_ratios[0]:.0f}%->{100 * tuple_ratios[-1]:.0f}%, "
            f"node {100 * node_ratios[0]:.0f}%->{100 * node_ratios[-1]:.0f}%",
        ),
    ]


def check_fig9(preset: str) -> list[ClaimResult]:
    rows = _stable_run(fig9_skew, preset)
    range_times = [r["range_seconds"] for r in rows]
    hc_times = [r["hcubing_seconds"] for r in rows]
    ratios = [r["tuple_ratio"] for r in rows]
    mid = len(rows) // 2
    return [
        ClaimResult(
            "fig9-time",
            "both algorithms get faster as skew grows",
            range_times[-1] < range_times[0] and hc_times[-1] < hc_times[0],
            f"range {range_times[0]:.3f}s->{range_times[-1]:.3f}s, "
            f"H-Cubing {hc_times[0]:.3f}s->{hc_times[-1]:.3f}s",
        ),
        ClaimResult(
            "fig9-space",
            "compression ratio degrades with skew, then stabilizes",
            ratios[mid] > ratios[0]
            and abs(ratios[-1] - ratios[mid]) < max(0.15, ratios[mid] * 0.35),
            f"tuple ratio {100 * ratios[0]:.0f}% -> {100 * ratios[mid]:.0f}% "
            f"-> {100 * ratios[-1]:.0f}%",
        ),
    ]


def check_fig10(preset: str) -> list[ClaimResult]:
    rows = _stable_run(fig10_sparsity, preset)
    range_times = [r["range_seconds"] for r in rows]
    hc_times = [r["hcubing_seconds"] for r in rows]
    ratios = [r["tuple_ratio"] for r in rows]
    range_growth = range_times[-1] / range_times[0]
    hc_growth = hc_times[-1] / hc_times[0]
    return [
        ClaimResult(
            "fig10-time",
            "H-Cubing degrades with cardinality far more than range cubing",
            hc_growth > range_growth,
            f"growth across the sweep: H-Cubing {hc_growth:.2f}x, "
            f"range cubing {range_growth:.2f}x",
        ),
        ClaimResult(
            "fig10-space",
            "space compression improves with sparsity",
            ratios[-1] < ratios[0],
            f"tuple ratio {100 * ratios[0]:.0f}% -> {100 * ratios[-1]:.0f}%",
        ),
    ]


def check_fig11(preset: str) -> list[ClaimResult]:
    rows = _stable_run(fig11_scalability, preset)
    range_times = [r["range_seconds"] for r in rows]
    hc_times = [r["hcubing_seconds"] for r in rows]
    # Every scale point's H-Cubing/range ratio, so a failure names the
    # point that flipped, not only the final gap.
    points = ", ".join(
        f"{row['n_rows']} rows {h / r:.2f}x ({h:.3f}s vs {r:.3f}s)"
        + ("" if h > r else " FLIPPED")
        for row, h, r in zip(rows, hc_times, range_times)
    )
    return [
        ClaimResult(
            "fig11-scaling",
            "range cubing stays well ahead of H-Cubing as scale grows",
            all(h > r for h, r in zip(hc_times, range_times))
            and hc_times[-1] / range_times[-1] > 1.5,
            f"H-Cubing/range by scale: {points}; the last must exceed 1.50x",
        ),
    ]


def check_weather(preset: str) -> list[ClaimResult]:
    (row,) = _stable_run(real_weather, preset)
    time_ratio = row["range_seconds"] / row["hcubing_seconds"]
    return [
        ClaimResult(
            "weather-time",
            "range cubing beats H-Cubing on the correlated weather data",
            time_ratio < 1.0,
            f"time ratio {time_ratio:.3f}",
        ),
        ClaimResult(
            "weather-space",
            "the range cube is a small fraction of the full weather cube",
            row["tuple_ratio"] < 0.35,
            f"tuple ratio {100 * row['tuple_ratio']:.2f}% "
            f"(paper bound at full scale: 11.1%)",
        ),
    ]


CHECKS: list[Callable[[str], list[ClaimResult]]] = [
    check_fig8,
    check_fig9,
    check_fig10,
    check_fig11,
    check_weather,
]


def run_claims(preset: str = "tiny") -> list[ClaimResult]:
    # Telemetry stays off while the figures run: the claims compare raw
    # algorithm timings at small scale, where even light per-build
    # instrumentation is noise we do not want in the numbers.
    from repro.obs import is_enabled, set_enabled

    was_enabled = is_enabled()
    set_enabled(False)
    try:
        results: list[ClaimResult] = []
        for check in CHECKS:
            results.extend(check(preset))
        return results
    finally:
        set_enabled(was_enabled)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="tiny", choices=("tiny", "small", "paper"))
    args = parser.parse_args(argv)
    results = run_claims(args.preset)
    width = max(len(r.claim_id) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += not r.passed
        print(f"[{status}] {r.claim_id.ljust(width)}  {r.description}")
        print(f"       {' ' * width}  {r.detail}")
    print(f"\n{len(results) - failures}/{len(results)} claims hold at preset {args.preset!r}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
