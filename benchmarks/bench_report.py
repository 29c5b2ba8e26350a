"""Aggregate every committed ``BENCH_*.json`` into one trajectory table.

Each standalone benchmark (``bench_point_queries``, ``bench_sharded``,
``bench_snapshot``, ``bench_dimorder``, ``bench_bulk_build``,
``bench_approx``...) commits a ``BENCH_<name>.json`` with its measured
headline next to the floor it enforces.  This script folds them into a
single markdown table and splices it into ``docs/benchmarks.md``
between the ``bench-report`` markers, so the perf history is readable
in one place (and diffs whenever a headline moves).  Each row names the
commit and CPU count its file was measured at (the ``provenance`` block
of :mod:`benchmarks.provenance`; ``—`` for files written before it)::

    PYTHONPATH=src python benchmarks/bench_report.py        # rewrite docs
    PYTHONPATH=src python benchmarks/bench_report.py --stdout
"""

import argparse
import glob
import json
import os

START = "<!-- bench-report:start -->"
END = "<!-- bench-report:end -->"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOC = os.path.join(ROOT, "docs", "benchmarks.md")


def _fmt(value, digits=2) -> str:
    if value is None:
        return "—"
    if isinstance(value, float):
        return f"{value:,.{digits}f}".rstrip("0").rstrip(".")
    return f"{value:,}"


def _headline(data: dict) -> list[dict]:
    """``{scale, metric, value, floor}`` rows for one benchmark file.

    Handles the three committed shapes: a flat result (one headline), a
    ``points`` sweep (headline = the largest-scale point, with the
    sweep's range in the scale column), and the dim-order ``workloads``
    list (headline = the worst-case ratios the floors gate).
    """
    name = data.get("benchmark", "?")
    floor = data.get("min_speedup_floor")
    if "points" in data:
        points = data["points"]
        speedups = [p.get("speedup") for p in points if p.get("speedup") is not None]
        last = points[-1]
        scale_keys = ("n_rows", "cardinality", "shards")
        scale = ", ".join(
            f"{k}={_fmt(last[k], 0)}" for k in scale_keys if k in last
        )
        value = (
            f"{_fmt(min(speedups))}x – {_fmt(max(speedups))}x"
            if len(speedups) > 1
            else f"{_fmt(speedups[0])}x" if speedups else "—"
        )
        return [{
            "benchmark": name,
            "scale": f"{len(points)} points (top: {scale})",
            "metric": "speedup over baseline",
            "value": value,
            "floor": f">= {_fmt(floor)}x" if floor else "—",
        }]
    if "workloads" in data:
        workloads = data["workloads"]
        worst = min(w["worst_vs_auto"] for w in workloads)
        auto = max(w["auto_vs_best"] for w in workloads)
        return [{
            "benchmark": name,
            "scale": f"{len(workloads)} adversarial workloads",
            "metric": "worst static order vs auto (min) / auto vs best (max)",
            "value": f"{_fmt(worst)}x / {_fmt(auto)}x",
            "floor": f">= {_fmt(data.get('min_worst_ratio'))}x"
            f" / <= {_fmt(data.get('tolerance'))}x",
        }]
    scale_keys = ("n_rows", "n_dims", "cardinality", "queries")
    scale = ", ".join(f"{k}={_fmt(data[k], 0)}" for k in scale_keys if k in data)
    row = {
        "benchmark": name,
        "scale": scale or "—",
        "metric": "speedup over baseline",
        "value": f"{_fmt(data.get('speedup'))}x",
        "floor": f">= {_fmt(floor)}x" if floor else "—",
    }
    if "refresh_ms" in data:
        row["metric"] = "refresh (append + apex read) vs re-emit"
        row["value"] = (
            f"{_fmt(data['speedup'])}x ({_fmt(data['refresh_ms'])} vs "
            f"{_fmt(data['reference_ms'], 1)} ms)"
        )
    if "coverage" in data:
        row["metric"] = "approx speedup (bound coverage)"
        row["value"] = (
            f"{_fmt(data.get('speedup'))}x "
            f"({data['coverage']:.0%} of {_fmt(data.get('queries'), 0)} queries)"
        )
    return [row]


def _provenance(data: dict) -> str:
    """``commit · nproc N`` of one benchmark file (``—`` when unrecorded)."""
    prov = data.get("provenance")
    if not prov:
        return "—"
    commit = (prov.get("commit") or "no commit")[:10]
    return f"{commit} · nproc {prov.get('nproc', '?')}"


def render(paths: list[str]) -> str:
    rows = []
    for path in sorted(paths):
        with open(path) as fh:
            data = json.load(fh)
        for row in _headline(data):
            row["file"] = os.path.basename(path)
            row["provenance"] = _provenance(data)
            rows.append(row)
    lines = [
        "| benchmark | workload | headline | measured | floor | measured at | source |",
        "|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            f"| {r['benchmark']} | {r['scale']} | {r['metric']} "
            f"| {r['value']} | {r['floor']} | {r['provenance']} | `{r['file']}` |"
        )
    return "\n".join(lines)


def splice(doc_path: str, table: str) -> None:
    with open(doc_path) as fh:
        text = fh.read()
    block = (
        f"{START}\n"
        "*Generated by `make bench-report` "
        "(`benchmarks/bench_report.py`) from the committed "
        "`BENCH_*.json` files — edit those, not this table.*\n\n"
        f"{table}\n{END}"
    )
    if START in text and END in text:
        head, rest = text.split(START, 1)
        _, tail = rest.split(END, 1)
        text = head + block + tail
    else:
        text = text.rstrip() + "\n\n## Committed headline results\n\n" + block + "\n"
    with open(doc_path, "w") as fh:
        fh.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--stdout", action="store_true",
        help="print the table instead of rewriting docs/benchmarks.md",
    )
    args = parser.parse_args(argv)
    paths = glob.glob(os.path.join(ROOT, "BENCH_*.json"))
    if not paths:
        print("no BENCH_*.json files found")
        return 1
    table = render(paths)
    if args.stdout:
        print(table)
        return 0
    splice(DOC, table)
    print(f"wrote {len(paths)} benchmark headlines into {os.path.relpath(DOC, ROOT)}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
