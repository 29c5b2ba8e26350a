"""End-to-end benchmark of the Range CUBE system: build, dashboard reads, live ingest.

    python3 e2e_bench/run.py --workload large --seed 1 --seconds 24 --trace 0

One run measures the whole life of a cube, from outside the program.
Set-up builds a snapshot and starts two servers; then the run makes a
fixed number of rounds, each of three kinds of operation:

* **build** — ``repro snapshot save`` called in this process:
  CSV -> ``read_table_csv`` -> planner -> bulk trie -> Algorithm 2
  traversal -> columnar freeze -> sketch -> ``write_snapshot``;
* **dashboard reads** — against a ``repro serve --snapshot-dir``
  process, one ``HTTPCubeClient`` in a closed loop with Zipf-popular
  point, roll-up, drill-down, slice and dice reads;
* **ingest** — against a ``repro serve <csv>`` process holding a
  resident engine: append a fact batch, read the grand total (which
  must come from the new version), then more reads.

A round is one build, then ``SEGMENTS`` times a chunk of dashboard reads
and one ingest round, so every metric's samples are spread over the
whole run and a few seconds of a slower machine move all of them a
little instead of one of them a lot.  The number of rounds follows from
``--seconds`` alone (``Workload.rounds``), never from how fast the host
runs, so every run with the same ``--seconds`` does the same work: the
same builds, the same appends and the same reads at the same positions
of the request order.  The workloads differ in scale (see
``WORKLOADS``).  Inputs, traffic and
the output checks come from this directory (``inputs.py``,
``oracle.py``); the program receives only the generated rows and
requests.  ``--trace 1`` runs the untraced measurement, then the same
run with span wrappers installed (``tracing.py``), and prints the
per-layer tables and the tracing overhead.  The last line of standard
output is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from server import ServerProcess  # noqa: E402


@dataclass(frozen=True)
class Workload:
    build_rows: int
    ingest_rows: int
    #: Seconds one round takes on the reference machine (see README.md).
    round_seconds: float

    def rounds(self, seconds: float) -> int:
        """Rounds per run: a function of ``--seconds`` only."""
        return max(1, round(seconds / self.round_seconds))


#: ``large`` is the table shape of the repository's BENCH_* files; ``small``
#: runs the same paths on a cube about a third the size, so cost that
#: follows cube size shows as a ratio between the two.
WORKLOADS = {
    "large": Workload(100_000, 20_000, 12.0),
    "small": Workload(30_000, 6_000, 5.5),
}

#: Distinct reads per pool: four times the server's 4,096-entry result
#: cache, so on the dashboard hits set the median and kernel misses the tail.
POOL_SIZE = 16_384
#: Set-up is repeated this many times per server and its median reported.
SETUP_REPS = 3
DASHBOARD_WARMUP = 1_000
INGEST_WARMUP = 100
#: One round: a build, then this many times a chunk of dashboard reads
#: and one ingest round.
SEGMENTS = 3
DASHBOARD_CHUNK = 600
#: Reads after each append's first read, per ingest round.
INGEST_READS = 150


# ----------------------------------------------------------------------
# measurement helpers
# ----------------------------------------------------------------------


def percentile(samples: list[float], q: float) -> float:
    """The exact nearest-rank order statistic of the raw samples."""
    return float(np.percentile(np.asarray(samples), q, method="inverted_cdf"))


def median(values: list[float]) -> float:
    return float(np.median(np.asarray(values)))


def own_memory_mb(field: str) -> float:
    """``VmRSS`` or ``VmHWM`` of this process, in MiB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} in /proc/self/status")


def dir_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.iterdir()) / 1e6


def build_snapshot(csv_path: Path, out: Path) -> None:
    """CSV -> published snapshot directory: ``repro snapshot save``, in process."""
    from repro.cli import main as repro_main

    # The command's one-line summary would land in the benchmark's output.
    with contextlib.redirect_stdout(io.StringIO()):
        status = repro_main(["snapshot", "save", str(csv_path), "--measures", "1", "--out", str(out)])
    if status:
        raise RuntimeError(f"repro snapshot save exited with status {status}")


class Run:
    """Set-up, timed rounds and checks of one run; ``recorder`` set means traced."""

    def __init__(self, workload: Workload, seed: int, seconds: float, work: Path,
                 recorder: tracing.Recorder | None) -> None:
        self.workload = workload
        self.seed = seed
        self.rounds = workload.rounds(seconds)
        self.work = work
        self.rec = recorder
        self.metrics: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.tables: list[str] = []
        self.problems: list[str] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.server_spans: dict[str, list] = {}
        self._servers: list[ServerProcess] = []
        self._next_op = 0
        # timed samples
        self.build_times: list[float] = []
        self.read_times: list[float] = []
        self.read_cpu = 0.0
        self.refresh_times: list[float] = []
        self.ingest_times: list[float] = []
        # answers kept for the checker
        self.kept: dict = {}
        self.ingest_kept: dict = {}
        self.apex_answers: list[dict] = []
        # EXPLAIN counts of traced reads, summed as they arrive (keeping
        # every account would grow the heap the collector walks)
        self.explained: dict[str, int] = dict.fromkeys(
            ("misses", "postings_intersected", "cells_scanned", "merge_misses",
             "ranges_merged", "cuboid_maps_built", "ingest_cuboid_maps_built"), 0)

    # -- plumbing ----------------------------------------------------------

    def _op(self) -> int:
        self._next_op += 1
        return self._next_op

    def _start_server(self, name: str, serve_args: list[str], rep: int) -> ServerProcess:
        trace_out = self.work / f"{name}-spans-{rep}.json" if self.rec else None
        server = ServerProcess(ROOT, serve_args, self.work / f"{name}-{rep}.log", trace_out, name)
        self._servers.append(server)
        server.start()
        return server

    def _stop(self, server: ServerProcess) -> None:
        server.stop()
        self._servers.remove(server)

    def stop_all(self) -> None:
        for server in list(self._servers):
            self._stop(server)

    def _read(self, client, request: dict, root: str):
        """One read: (seconds, response or None when it failed).

        Traced, the read carries ``explain`` and runs under a root span
        ``root`` with a fresh operation id.
        """
        from repro.serve.engine import ServeError

        start = time.perf_counter()
        try:
            if self.rec is None:
                response = client.query(request)
                return time.perf_counter() - start, response
            self.rec.op = self._op()
            try:
                with self.rec.span(root):
                    response = client.query(dict(request, explain=True))
            finally:
                self.rec.op = 0
            return time.perf_counter() - start, response
        except ServeError as exc:
            self.failures.append(f"{request}: {exc}")
            return time.perf_counter() - start, None

    # -- the run -------------------------------------------------------------

    def run(self) -> None:
        oracle.self_test()
        self._inputs()
        self._setup()
        self.dash_stats = self.dash.stats()
        for _ in range(self.rounds):
            self._build()
            for _ in range(SEGMENTS):
                self._dashboard_reads()
                self._ingest_round()
        self._finish()

    def _inputs(self) -> None:
        # Import the program before anything is timed.
        for module in ("repro.cli", "repro.serve.client"):
            importlib.import_module(module)

        world = [np.random.default_rng(s) for s in np.random.SeedSequence(inputs.WORLD_SEED).spawn(3)]
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(self.seed).spawn(6)]
        self.source = inputs.FactSource(world[0])
        raw, self.base_measures = self.source.draw(self.workload.build_rows, world[1])
        self.base_codes = inputs.ServedCodes().encode(raw)
        self.base_csv = self.work / "base.csv"
        inputs.write_csv(self.base_csv, raw, self.base_measures)
        raw, self.ingest_measures = self.source.draw(self.workload.ingest_rows, world[2])
        self.ingest_coder = inputs.ServedCodes()
        self.ingest_codes = self.ingest_coder.encode(raw)
        self.ingest_csv = self.work / "ingest.csv"
        inputs.write_csv(self.ingest_csv, raw, self.ingest_measures)
        self.append_rng = rngs[0]
        self.pool = inputs.make_pool(self.base_codes, POOL_SIZE, rngs[1])
        self.ingest_pool = inputs.make_pool(self.ingest_codes, POOL_SIZE, rngs[2])
        segments = self.rounds * SEGMENTS
        self.sequence = inputs.read_sequence(
            POOL_SIZE, DASHBOARD_WARMUP + segments * DASHBOARD_CHUNK, rngs[3]).tolist()
        self.ingest_sequence = inputs.read_sequence(
            POOL_SIZE, INGEST_WARMUP + segments * INGEST_READS, rngs[4]).tolist()
        self.check_rng = rngs[5]
        self.position, self.ingest_position = DASHBOARD_WARMUP, INGEST_WARMUP
        self.keep = self._keep_set(self.sequence, DASHBOARD_WARMUP)
        self.ingest_keep = self._keep_set(self.ingest_sequence, INGEST_WARMUP)
        self.rows_at_version = {0: len(self.ingest_codes)}
        # The in-process builds should not pay for the collector walking the
        # benchmark's own pools and request orders.
        gc.collect()
        gc.freeze()

    def _keep_set(self, sequence: list[int], start: int) -> set[int]:
        """Pool indices whose answers are kept for checking."""
        keep = set(sequence[start:start + 300])
        keep.update(int(i) for i in self.check_rng.choice(POOL_SIZE, size=100, replace=False))
        return keep

    def _setup(self) -> None:
        """The served snapshot, then both servers started and warmed up.

        The served snapshot's build is the run's first build sample: it is
        the operation ``build_s`` times, with both servers not yet started.
        The builds' memory is measured from here: what this process holds
        before it (the program's modules, the inputs, the request pools)
        is the benchmark's, not the build's.
        """
        self.rss_before_build = own_memory_mb("VmRSS")
        self._build()
        served = self.last_snapshot.rename(self.work / "served-snapshot")
        # The dashboard warm-up sends the first reads of the request order,
        # which fill the result cache with popular answers, then one read of
        # every cuboid shape in the pool, so the timed reads meet the
        # server's lazily built per-cuboid structures already built.  On
        # ingest every append drops those structures, so its warm-up only
        # sends the first reads of its request order.
        self.dash_server, self.dash, dash_setup, self.warm_maps = self._ready(
            "dashboard", ["--snapshot-dir", str(served)], self.pool,
            self.sequence[:DASHBOARD_WARMUP] + inputs.shape_cover(self.pool))
        self.ingest_server, self.ingest, ingest_setup, _ = self._ready(
            "ingest", [str(self.ingest_csv), "--measures", "1"],
            self.ingest_pool, self.ingest_sequence[:INGEST_WARMUP])
        self.metrics["setup_s"] = dash_setup + ingest_setup

    def _ready(self, name: str, serve_args: list[str], pool, warmup: list[int]):
        """Start a server and send it the ``warmup`` reads, ``SETUP_REPS`` times.

        Keeps the last server.  Returns it, its client, the median set-up
        seconds and the cuboid maps the kept server's warm-up built (traced
        runs only).
        """
        from repro.serve.client import HTTPCubeClient

        times = []
        for rep in range(SETUP_REPS):
            start = time.perf_counter()
            server = self._start_server(name, serve_args, rep)
            client = HTTPCubeClient(server.url)
            maps = 0
            for index in warmup:
                _, response = self._read(client, pool[index], "op.warmup")
                if self.rec is not None and response is not None:
                    maps += response["explain"].get("cuboid_maps_built", 0)
            times.append(time.perf_counter() - start)
            if rep < SETUP_REPS - 1:
                client.close()
                self._stop(server)
        return server, client, median(times), maps

    def _build(self) -> None:
        out = self.work / f"snapshot-{len(self.build_times)}"
        start = time.perf_counter()
        if self.rec is None:
            build_snapshot(self.base_csv, out)
        else:
            self.rec.op = self._op()
            with self.rec.span("op.build"):
                build_snapshot(self.base_csv, out)
            self.rec.op = 0
        self.build_times.append(time.perf_counter() - start)
        self.attempted += 1
        if len(self.build_times) > 2:
            shutil.rmtree(self.last_snapshot)
        self.last_snapshot = out

    def _dashboard_reads(self) -> None:
        cpu = self.dash_server.cpu_seconds()
        for _ in range(DASHBOARD_CHUNK):
            index = self.sequence[self.position]
            self.position += 1
            seconds, response = self._read(self.dash, self.pool[index], "op.read")
            self.attempted += 1
            if response is None:
                self.failed += 1
                continue
            self.read_times.append(seconds)
            if index in self.keep:
                self.kept.setdefault((index, response["cached"]), response)
            if self.rec is not None:
                self._explained(self.pool[index]["op"], response["explain"])
        self.read_cpu += self.dash_server.cpu_seconds() - cpu

    def _ingest_round(self) -> None:
        from repro.serve.engine import ServeError

        raw, measures = self.source.draw(inputs.APPEND_ROWS, self.append_rng)
        codes = self.ingest_coder.encode(raw)
        self.ingest_codes = np.concatenate([self.ingest_codes, codes])
        self.ingest_measures = np.concatenate([self.ingest_measures, measures])
        rows, meas = codes.tolist(), [[m] for m in measures.tolist()]
        apex = inputs.apex_read()
        self.attempted += 2
        start = time.perf_counter()
        try:
            if self.rec is None:
                version = self.ingest.append(rows, meas)["version"]
                answer = self.ingest.query(apex)
            else:
                self.rec.op = self._op()
                with self.rec.span("op.refresh"):
                    version = self.ingest.append(rows, meas)["version"]
                    answer = self.ingest.query(dict(apex, explain=True))
                self.rec.op = 0
                self.explained["ingest_cuboid_maps_built"] += answer["explain"].get("cuboid_maps_built", 0)
        except ServeError as exc:
            self.failures.append(f"append: {exc}")
            self.failed += 2
            return
        self.refresh_times.append(time.perf_counter() - start)
        self.rows_at_version[version] = len(self.ingest_codes)
        self.apex_answers.append(answer)
        if answer["version"] != version:
            self.problems.append(f"first read after append {version} came from version {answer['version']}")
        for _ in range(INGEST_READS):
            index = self.ingest_sequence[self.ingest_position]
            self.ingest_position += 1
            seconds, response = self._read(self.ingest, self.ingest_pool[index], "op.ingest_read")
            self.attempted += 1
            if response is None:
                self.failed += 1
                continue
            self.ingest_times.append(seconds)
            if index in self.ingest_keep:
                self.ingest_kept.setdefault((index, response["version"], response["cached"]), response)
            if self.rec is not None:
                self.explained["ingest_cuboid_maps_built"] += response["explain"].get("cuboid_maps_built", 0)

    def _explained(self, op: str, account: dict) -> None:
        sums = self.explained
        sums["cuboid_maps_built"] += account.get("cuboid_maps_built", 0)
        if account["cache_hit"]:
            return
        sums["misses"] += 1
        sums["postings_intersected"] += account.get("postings_intersected", 0)
        sums["cells_scanned"] += account.get("cells_scanned", 0)
        if op in ("dice", "slice"):
            sums["merge_misses"] += 1
            sums["ranges_merged"] += account.get("ranges_merged", 0)

    def _finish(self) -> None:
        dash_stats, ingest_stats = self.dash.stats(), self.ingest.stats()
        m = self.metrics
        m["serve_rss_mb"] = self.dash_server.peak_rss_mb()
        m["ingest_rss_mb"] = self.ingest_server.peak_rss_mb()
        m["build_rss_mb"] = own_memory_mb("VmHWM") - self.rss_before_build
        for client in (self.dash, self.ingest):
            client.close()
        self.stop_all()
        m["build_s"] = median(self.build_times)
        m["snapshot_mb"] = dir_mb(self.last_snapshot)
        m["p50_ms"] = percentile(self.read_times, 50) * 1e3
        m["p99_ms"] = percentile(self.read_times, 99) * 1e3
        m["server_cpu_ms"] = self.read_cpu * 1e3 / len(self.read_times)
        m["refresh_ms"] = median(self.refresh_times) * 1e3
        m["ingest_p50_ms"] = percentile(self.ingest_times, 50) * 1e3
        self._check()
        if self.rec is not None:
            for name in ("dashboard", "ingest"):
                self.server_spans[name] = json.loads(
                    (self.work / f"{name}-spans-{SETUP_REPS - 1}.json").read_text())
            self._layers(dash_stats, ingest_stats)

    def _check(self) -> None:
        from repro.store import load_snapshot

        store = load_snapshot(self.last_snapshot, verify=True)
        self.problems += oracle.check_partition(store, self.base_codes)
        checker = oracle.Oracle(self.base_codes, self.base_measures)
        points = [r for r in self.pool if r["op"] == "point"]
        for index in self.check_rng.choice(len(points), size=min(100, len(points)), replace=False):
            cell = points[int(index)]["cell"]
            rid = store.find_id(tuple(cell))
            value = None if rid < 0 else store.aggregator.finalize(store.states[rid])
            self.problems += checker.check(points[int(index)], {"op": "point", "cell": cell, "value": value})
        for (index, _), response in self.kept.items():
            self.problems += checker.check(self.pool[index], response)
        checker = oracle.Oracle(self.ingest_codes, self.ingest_measures)
        for answer in self.apex_answers:
            self.problems += checker.check(inputs.apex_read(), answer, self.rows_at_version[answer["version"]])
        for (index, version, _), response in self.ingest_kept.items():
            self.problems += checker.check(self.ingest_pool[index], response, self.rows_at_version[version])

    # -- per-layer figures (traced run) ---------------------------------------

    def _layers(self, dash_stats: dict, ingest_stats: dict) -> None:
        ops = tracing.per_op(self.rec.spans, list(self.server_spans.values()))
        layers = self.layers

        total, rows = tracing.layer_table(ops, ("build",))
        self.tables.append(tracing.format_table("builds", total, rows, "build.unaccounted"))
        builds = len(self.build_times)
        for name in ("data.io.read", "tune.plan", "core.range_trie.sort", "core.range_trie.group",
                     "core.range_trie.aggregate", "core.range_cubing.traverse", "tune.restore",
                     "core.columnar.freeze", "approx.sketch", "store.snapshot.write"):
            layers[f"{name}_s"] = rows.get(name, [0, 0])[0] / builds / 1e9
        layers["build.unaccounted_s"] = rows["unaccounted"][0] / builds / 1e9
        from repro.store import inspect_snapshot

        layers["core.range_trie.nodes"] = float(self.rec.counts["trie_nodes"])
        layers["core.range_cubing.ranges"] = float(inspect_snapshot(self.last_snapshot)["n_ranges"])
        layers["core.columnar.store_mb"] = self.rec.counts["store_mb"]

        total, rows = tracing.layer_table(ops, ("read",))
        self.tables.append(tracing.format_table("dashboard reads", total, rows, "dashboard.unaccounted"))
        reads = len(self.read_times)
        for name in ("serve.client.encode", "serve.client.decode", "serve.http.transport",
                     "serve.http.handler", "serve.protocol.decode"):
            layers[f"{name}_us"] = rows.get(name, [0, 0])[0] / reads / 1e3
        layers["dashboard.unaccounted_us"] = rows["unaccounted"][0] / reads / 1e3
        for kind in ("hit", *(f"{op}_miss" for op in inputs.MIX)):
            self_ns, calls = rows.get(f"serve.engine.{kind}", [0, 0])
            layers[f"serve.engine.{kind}_us"] = self_ns / calls / 1e3 if calls else 0.0
        before, after = self.dash_stats, dash_stats
        hits = after["cache"]["hits"] - before["cache"]["hits"]
        misses = after["cache"]["misses"] - before["cache"]["misses"]
        layers["serve.cache.hit_rate"] = hits / (hits + misses)
        sums = self.explained
        for key in ("postings_intersected", "cells_scanned"):
            layers[f"core.columnar.{key}"] = sums[key] / max(sums["misses"], 1)
        layers["core.columnar.ranges_merged"] = sums["ranges_merged"] / max(sums["merge_misses"], 1)
        layers["core.columnar.cuboid_maps_built"] = float(self.warm_maps + sums["cuboid_maps_built"])
        tier_before, tier = before["snapshot"]["tier"], after["snapshot"]["tier"]
        hot = tier["hot_hits"] - tier_before["hot_hits"]
        cold = tier["cold_hits"] - tier_before["cold_hits"]
        layers["store.engine.hot_share"] = hot / (hot + cold) if hot + cold else 0.0
        layers["store.engine.promotions"] = float(tier["promotions"])
        layers["store.engine.evictions"] = float(tier["evictions"])
        layers["store.engine.resident_mb"] = tier["resident_bytes"] / 1e6

        total, rows = tracing.layer_table(ops, ("refresh", "ingest_read"))
        self.tables.append(tracing.format_table("ingest rounds", total, rows, "ingest.unaccounted"))
        _, rows = tracing.layer_table(ops, ("refresh",))
        refreshes = len(self.refresh_times)
        for name, key in (("serve.engine.append", "serve.engine.append_ms"),
                          ("core.incremental.absorb", "core.incremental.absorb_ms"),
                          ("core.incremental.emit", "core.incremental.emit_ms"),
                          ("core.columnar.refreeze", "core.columnar.refreeze_ms"),
                          ("unaccounted", "ingest.unaccounted_ms")):
            layers[key] = rows.get(name, [0, 0])[0] / refreshes / 1e6
        attrs = [a for e in ops.values() if e["kind"] == "refresh" for _, a in e["attrs"]]
        shares = [a["changed_share"] for a in attrs if "changed_share" in a]
        dropped = [a["dropped"] for a in attrs if "dropped" in a]
        layers["core.incremental.changed_share"] = sum(shares) / len(shares) if shares else 0.0
        layers["serve.cache.invalidated"] = sum(dropped) / len(dropped) if dropped else 0.0
        layers["tune.replans"] = float((ingest_stats.get("tuning") or {}).get("replans", 0))
        layers["core.columnar.cuboid_maps_built_per_refresh"] = sums["ingest_cuboid_maps_built"] / refreshes


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

E2E_UNITS = {
    "setup_s": "s", "build_s": "s", "snapshot_mb": "MB", "build_rss_mb": "MB",
    "p50_ms": "ms", "p99_ms": "ms", "server_cpu_ms": "ms",
    "serve_rss_mb": "MB", "refresh_ms": "ms", "ingest_p50_ms": "ms", "ingest_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "ratio" if name.endswith(("_rate", "_share")) else "count"


def provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": WORKLOADS[args.workload].rounds(args.seconds),
        "trace": args.trace,
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def _measure(workload, args, work: Path, recorder) -> Run:
    work.mkdir(parents=True)
    run = Run(workload, args.seed, args.seconds, work, recorder)
    try:
        run.run()
    finally:
        run.stop_all()
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing: {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, _terminate)
    # Servers stop on SIGINT.  A process started in the background inherits
    # SIGINT ignored, and an ignored signal stays ignored across exec; a
    # handler of our own is reset to the default in every child instead.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    work = out / f"work-{os.getpid()}"
    stamp = provenance(args)
    print("provenance: " + json.dumps(stamp), flush=True)
    workload = WORKLOADS[args.workload]
    try:
        plain = _measure(workload, args, work / "plain", None)
        result = plain
        if args.trace:
            recorder = tracing.Recorder()
            tracing.install_build(recorder)
            tracing.install_client(recorder)
            result = _measure(workload, args, work / "traced", recorder)
            trace_path = out / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps({"client": recorder.spans, **result.server_spans}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, value in plain.metrics.items():
        print(f"{name:16} {value:14.4f} {E2E_UNITS[name]}")
    if args.trace:
        for table in result.tables:
            print(table)
        print("tracing overhead (traced minus untraced):")
        for name, value in plain.metrics.items():
            if name == "build_rss_mb":
                # The traced half runs in the untraced half's process and
                # inherits its high-water mark.
                print(f"  {name:16} {'not measured':>14}")
                continue
            traced = result.metrics[name]
            print(f"  {name:16} {traced - value:+14.4f} {E2E_UNITS[name]} ({(traced - value) / value:+.1%})")
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in result.layers.items()}
    else:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in plain.metrics.items()}
    runs = [plain, result] if args.trace else [plain]
    problems = [p for r in runs for p in r.problems]
    for line in problems[:20] + [f"failed: {f}" for r in runs for f in r.failures[:5]]:
        print(line, file=sys.stderr)
    summary = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": metrics,
    }
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": stamp, "e2e": plain.metrics, "layers": result.layers,
                    "build_s": plain.build_times, "refresh_s": plain.refresh_times,
                    "tables": result.tables, "problems": problems, **summary}, indent=1))
    print(json.dumps(summary))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
