"""Sharded multi-process cube service: scatter-gather over shard workers.

One process and one GIL bound the single :class:`~repro.serve.engine.QueryEngine`;
this module is the step past it.  The fact table is split **by value**
along one *shard dimension* (:func:`repro.core.partitioned.shard_partition_payloads`:
row ``r`` lives on shard ``r[shard_dim] % n_shards``), each shard builds
its own resident engine inside a persistent worker process
(:class:`repro.exec.WorkerProcess`), and a :class:`ShardRouter` front end
serves the engine's request pipeline (:class:`~repro.serve.engine.Engine`)
with a resolver that routes, scatters and gathers — so the HTTP server,
the clients and the workload driver drop on top of it unchanged.

Three ideas carry the design:

* **Value routing.**  A query that binds the shard dimension can only be
  answered by one residue class, so the router sends it to exactly one
  worker — on top of the smaller per-shard cubes (shorter postings,
  smaller cuboid maps) this is where the sharded tier *reduces* work
  rather than merely spreading it.  Queries that leave the shard
  dimension free scatter to every shard.
* **State merging.**  Shards return partial *aggregate states* (the
  count-first tuples of :mod:`repro.table.aggregates`), never finalized
  values; the router folds them with the aggregator's merge algebra
  (:meth:`~repro.table.aggregates.Aggregator.merge_many`) and finalizes
  once.  Distributivity makes the merged answer exactly the single-cube
  answer — the cross-shard identity suite asserts bit-for-bit equality.
* **Versioned two-phase refresh.**  Every scatter is tagged with the
  router's cube version and every shard refuses a tag that is not its
  own (a structured ``version_conflict``).  An append runs prepare →
  commit across all shards while holding the same lock that serializes
  scatter *sends*; pipes deliver in FIFO order per worker, so a read's
  sub-requests land either entirely before or entirely after the swap —
  no batch ever observes torn versions.

Per-shard failures surface as structured partial results: a dead or
timed-out shard turns only the requests that needed it into
``shard_unavailable`` / ``shard_timeout`` error entries (with the shard
id) while the rest of the batch answers normally.

Observability: ``serve.scatter`` spans wrap each fan-out with per-shard
``serve.gather`` child spans, and the ``repro_shard_*`` metric families
(requests, errors, scatter seconds, fan-out, reply lag, live shards,
per-shard version) feed ``/metrics``.  The scatter span's
:class:`~repro.obs.TraceContext` rides to every worker, whose
``shard.scatter`` spans come back in the reply and are folded into the
router's buffer — ``GET /trace`` shows one stitched tree per request.
:meth:`ShardRouter.federated_metrics` folds every worker's registry
snapshot into a fresh ``shard``-labeled registry for ``GET /metrics``,
and :meth:`ShardRouter.readiness` backs ``GET /readyz``.  See
``docs/sharding.md`` and ``docs/observability.md``.
"""

from __future__ import annotations

import threading
import time
from typing import Mapping, Sequence

from repro.core.columnar import collect_explain
from repro.core.partitioned import shard_partition_payloads
from repro.exec.workers import (
    RemoteError,
    WorkerProcess,
    WorkerTimeout,
    WorkerUnavailable,
    spawn_workers,
)
from repro.obs import OBS_STATE, TraceContext, get_registry, get_tracer
from repro.obs.metrics import MetricRegistry
from repro.serve.engine import (
    CubeVersion,
    Engine,
    QueryEngine,
    _Plan,
    covering_schema,
    validate_rows,
)
from repro.serve.protocol import ErrorCode, ErrorInfo, QueryRequest, ServeError
from repro.table.aggregates import Aggregator, default_aggregator
from repro.table.base_table import BaseTable
from repro.table.schema import Dimension, Schema

_TRACER = get_tracer()
_REGISTRY = get_registry()
_SHARD_REQUESTS = _REGISTRY.counter(
    "repro_shard_requests_total",
    "Scattered sub-requests sent, by shard.",
    ("shard",),
)
_SHARD_ERRORS = _REGISTRY.counter(
    "repro_shard_errors_total",
    "Per-shard scatter failures, by shard and error code.",
    ("shard", "code"),
)
_SCATTER_SECONDS = _REGISTRY.histogram(
    "repro_shard_scatter_seconds",
    "Scatter + gather wall-clock seconds per fanned-out request.",
)
_SHARD_FANOUT = _REGISTRY.histogram(
    "repro_shard_fanout",
    "Shards touched per routed request (1 = routed to a single shard).",
    min_value=1.0,
)
_SHARD_LAG = _REGISTRY.gauge(
    "repro_shard_lag_seconds",
    "Last gather: shard reply time minus the fastest shard's reply time.",
    ("shard",),
)
_SHARDS_LIVE = _REGISTRY.gauge(
    "repro_shard_live", "Shard workers currently believed alive.", ("router",)
)
_SHARD_VERSION = _REGISTRY.gauge(
    "repro_shard_version", "Cube version last confirmed per shard.", ("shard",)
)


# ---------------------------------------------------------------------------
# the shard worker
# ---------------------------------------------------------------------------


class ShardEngine:
    """One shard's engine, driven over a worker pipe.

    Lives inside the worker process.  Wraps a :class:`QueryEngine` built
    from the shard's slice of the fact table, answers ``scatter`` calls
    at the *state* level through the same local resolver the engines use
    (:meth:`CubeVersion.resolve`; the router does the merging and
    finalizing), and takes part in the router's two-phase refresh:
    ``prepare`` stages a validated row batch against a target version,
    ``commit`` absorbs it and adopts the version, ``abort`` drops it.

    The coordinated version lives here (``self.version``), not in the
    inner engine — a shard whose slice of an append is empty must still
    advance in lockstep with its peers.
    """

    def __init__(
        self,
        shard_id: int,
        table: BaseTable,
        *,
        aggregator: Aggregator | None = None,
        min_support: int = 1,
    ) -> None:
        self.shard_id = shard_id
        self.engine = QueryEngine.from_table(
            table, aggregator=aggregator, min_support=min_support, cache_capacity=8
        )
        self.version = 0
        self._staged: tuple[int, list, list] | None = None
        self._latency = 0.0
        self._fail_next = 0

    # -- read path ------------------------------------------------------

    @property
    def _sketch_seed(self) -> int:
        # Distinct per-shard sampling seeds: the router sums per-shard
        # variances, which is only valid when the shard samples are
        # independent.  Same-seed shards over similarly ordered
        # partitions draw correlated samples and the merged confidence
        # interval undercovers.
        return 1 + self.shard_id

    def scatter(
        self,
        target_version: int,
        items: Sequence[tuple],
        trace: Mapping | None = None,
        explain: bool = False,
    ) -> list | dict:
        """Answer one batch of routed sub-requests with partial states.

        Items are pre-validated by the router: ``("point", cell)`` →
        state-or-None; ``("children", cell, dim)`` → ``[(value, state)]``
        for the non-empty specializations along ``dim``; ``("dice",
        cell, {dim: codes})`` → the merged state of the sub-cube;
        ``("approx_dice", cell, {dim: codes}, having)`` → one mergeable
        partial estimate dict (:meth:`repro.approx.CubeSketch.estimate_partial`),
        which the router combines variance-correctly and finalizes once.

        ``trace`` (a :meth:`TraceContext.to_json` dict) grafts this
        shard's work into the router's trace: the worker opens a real
        ``shard.scatter`` span under the remote context and ships its
        finished span dict back in the reply for the router to fold.
        ``explain`` resolves every item individually under an explain
        collector and returns one account per item.  Either flag changes
        the reply from a plain partials list to a ``{"results", "spans",
        "explain"}`` envelope — the router is the only caller and always
        knows which shape it asked for, so the plain form (and every
        pre-envelope caller) is untouched.
        """
        if self._latency:
            time.sleep(self._latency)
        if self._fail_next > 0:
            self._fail_next -= 1
            raise RuntimeError(f"shard {self.shard_id}: injected fault")
        if target_version != self.version:
            raise ServeError(
                f"shard {self.shard_id} serves version {self.version}, "
                f"scatter targets {target_version}",
                code=ErrorCode.VERSION_CONFLICT,
                shard=self.shard_id,
            )
        remote = None
        if trace is not None:
            try:
                remote = TraceContext.from_json(trace)
            except (KeyError, TypeError, ValueError):
                remote = None  # a malformed context must never fail the read
        accounts: list | None = None
        span = _TRACER.span(
            "shard.scatter",
            remote_context=remote,
            shard=self.shard_id,
            items=len(items),
            version=target_version,
        )
        with span:
            snap = self.engine.snapshot()
            if explain:
                out, accounts = self._resolve_explained(snap, items)
            else:
                # Point items resolve together through one lookup_batch
                # over the shard's smaller store — the batched path (and
                # batched advantage) the single engine's batches get.
                pooled = [i for i, item in enumerate(items) if item[0] == "point"]
                out = snap.resolve(items, pooled=pooled, sketch_seed=self._sketch_seed)
        if trace is None and not explain:
            return out
        reply: dict = {"results": out}
        if span.context() is not None:  # real span (tracing enabled here)
            reply["spans"] = [span.to_dict()]
        if explain:
            reply["explain"] = accounts
        return reply

    def _resolve_explained(
        self, snap: CubeVersion, items: Sequence[tuple]
    ) -> tuple[list, list]:
        """Resolve items one by one, each under its own explain collector.

        Explained items skip the pooled point resolution on purpose — an
        account must cover exactly its own item's index work — the same
        bargain the engines' explain path makes.
        """
        out: list = []
        accounts: list = []
        for item in items:
            t0 = time.perf_counter()
            with collect_explain() as acc:
                out.extend(snap.resolve([item], sketch_seed=self._sketch_seed))
            account = dict(acc.data)
            account.update(self.engine._explain_extras(acc.data))
            account["kind"] = item[0]
            account["elapsed_us"] = round((time.perf_counter() - t0) * 1e6, 1)
            accounts.append(account)
        return out, accounts

    # -- two-phase refresh ----------------------------------------------

    def _check_writable(self) -> None:
        if self.engine.read_only:
            raise ServeError(
                f"shard {self.shard_id} serves an immutable snapshot: rebuild and "
                "re-snapshot the fleet to ingest data",
                code=ErrorCode.BAD_REQUEST,
                shard=self.shard_id,
            )

    def prepare(self, target_version: int, rows: list, measures: list) -> int:
        """Phase one: validate and stage a row batch for ``target_version``."""
        self._check_writable()
        if target_version != self.version + 1:
            raise ServeError(
                f"shard {self.shard_id} at version {self.version} cannot "
                f"prepare {target_version}",
                code=ErrorCode.VERSION_CONFLICT,
                shard=self.shard_id,
            )
        if rows:  # an empty slice still participates in the swap
            rows, measures = self.engine._validate_rows(rows, measures)
        self._staged = (target_version, list(rows), list(measures or []))
        return self.shard_id

    def commit(self, target_version: int) -> int:
        """Phase two: absorb the staged batch and adopt ``target_version``."""
        self._check_writable()
        staged = self._staged
        if staged is None or staged[0] != target_version:
            raise ServeError(
                f"shard {self.shard_id} has no prepared batch for "
                f"version {target_version}",
                code=ErrorCode.VERSION_CONFLICT,
                shard=self.shard_id,
            )
        _, rows, measures = staged
        self._staged = None
        if rows:
            self.engine.append(rows, measures)
        self.version = target_version
        return self.version

    def abort(self, target_version: int) -> int:
        """Drop a staged batch (no-op when nothing matching is staged)."""
        if self._staged is not None and self._staged[0] == target_version:
            self._staged = None
        return self.version

    # -- introspection and fault injection ------------------------------

    def stats(self) -> dict:
        inner = self.engine.stats()
        return {
            "shard": self.shard_id,
            "version": self.version,
            "rows_absorbed": inner["rows_absorbed"],
            "n_ranges": inner["n_ranges"],
            "trie_nodes": inner["trie_nodes"],
            "cardinalities": inner["cardinalities"],
        }

    def metrics_snapshot(self) -> dict:
        """This worker's whole metric registry in the federation format.

        The router folds it into a fresh registry with a ``shard`` label
        (:meth:`ShardRouter.federated_metrics`); the snapshot is plain
        JSON-able data, so it rides the worker pipe like any reply.
        """
        return get_registry().to_dict()

    def readiness(self) -> dict:
        """This shard's serving state (snapshot still loading vs serving)."""
        return dict(self.engine.readiness(), shard=self.shard_id, version=self.version)

    def set_latency(self, seconds: float) -> None:
        """Testing hook: delay every subsequent scatter by ``seconds``."""
        self._latency = float(seconds)

    def fail_next(self, n: int = 1) -> None:
        """Testing hook: make the next ``n`` scatters raise."""
        self._fail_next = int(n)


def _build_shard_engine(payload: tuple) -> ShardEngine:
    """Worker factory (module-level so it pickles by reference).

    ``payload`` is pickle-cheap: the shard id, schema names, the
    *global* cardinalities (so each shard reports the fleet's domain),
    the shard's numpy slices, the aggregator and the min-support.
    """
    (shard_id, dim_names, measure_names, cardinalities, dim_codes,
     measures, aggregator, min_support) = payload
    base = Schema.from_names(list(dim_names), list(measure_names))
    schema = Schema(
        tuple(
            Dimension(d.name, card)
            for d, card in zip(base.dimensions, cardinalities)
        ),
        base.measures,
    )
    table = BaseTable(schema, dim_codes, measures)
    return ShardEngine(
        shard_id, table, aggregator=aggregator, min_support=min_support
    )


# ---------------------------------------------------------------------------
# the router
# ---------------------------------------------------------------------------


class ShardRouter(Engine):
    """Scatter-gather front end over the shard workers.

    The request pipeline — validation, cache, batching, EXPLAIN, spans,
    metrics — is :class:`~repro.serve.engine.Engine`'s, so the router
    rejects exactly what the engine rejects and answers with the same
    bytes; :class:`~repro.serve.http.CubeServer`,
    :class:`~repro.serve.client.InProcessClient` and the workload driver
    work unchanged on top of it.  The router supplies the resolver
    (route each plan's state items, scatter, gather), the two-phase
    append, the fleet's readiness and its stats/EXPLAIN fields.

    >>> router = ShardRouter.from_table(table, n_shards=4)   # doctest: +SKIP
    >>> router.execute(QueryRequest(op="point", cell=[3, None]))  # doctest: +SKIP
    >>> router.close()                                       # doctest: +SKIP
    """

    _RESOLVE_PHASE = "scatter"

    def __init__(
        self,
        workers: Sequence[WorkerProcess],
        schema: Schema,
        aggregator: Aggregator,
        *,
        shard_dim: int = 0,
        timeout: float = 30.0,
        append_timeout: float = 300.0,
        cache_capacity: int = 1024,
        min_support: int = 1,
        name: str = "router",
        slow_query_threshold: float = 0.050,
        initial_version: int = 0,
    ) -> None:
        if not workers:
            raise ValueError("a shard router needs at least one worker")
        super().__init__(
            aggregator,
            name=name,
            min_support=min_support,
            cache_capacity=cache_capacity,
            slow_query_threshold=slow_query_threshold,
        )
        self._workers = list(workers)
        self.n_shards = len(self._workers)
        self.shard_dim = shard_dim
        self.timeout = timeout
        self.append_timeout = append_timeout
        # The router's generation carries no cube: its state lives in
        # the workers, and each scatter is tagged with this version.
        self._version = CubeVersion(initial_version, None, covering_schema(schema))
        # Serializes scatter *sends* against the two-phase version swap;
        # gathers run outside it, so reads still overlap each other.
        self._scatter_lock = threading.Lock()
        # Exposed through readiness(): None while serving, else the
        # in-flight two-phase refresh phase ("prepare" / "commit").
        self._refresh_phase: str | None = None
        self._shard_series = [
            (
                _SHARD_REQUESTS.labels(shard=str(k)),
                _SHARD_LAG.labels(shard=str(k)),
                _SHARD_VERSION.labels(shard=str(k)),
            )
            for k in range(self.n_shards)
        ]
        _SHARDS_LIVE.set(self.n_shards, router=name)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_table(
        cls,
        table: BaseTable,
        *,
        n_shards: int = 4,
        shard_dim: int = 0,
        aggregator: Aggregator | None = None,
        min_support: int = 1,
        cache_capacity: int = 1024,
        timeout: float = 30.0,
        start_method: str | None = None,
        ready_timeout: float = 300.0,
    ) -> "ShardRouter":
        """Partition ``table`` by value and spawn one worker per shard."""
        import multiprocessing

        agg = aggregator or default_aggregator(table.n_measures)
        slices = shard_partition_payloads(table, n_shards, shard_dim)
        # Shards carry the *global* cardinalities, so each reports the
        # fleet's domain rather than its local maximum code.
        cardinalities = [c or 0 for c in table.schema.cardinalities]
        payloads = [
            (
                shard,
                tuple(table.schema.dimension_names),
                tuple(table.schema.measure_names),
                tuple(cardinalities),
                codes,
                measures,
                agg,
                min_support,
            )
            for shard, (codes, measures) in enumerate(slices)
        ]
        context = (
            multiprocessing.get_context(start_method) if start_method else None
        )
        workers = spawn_workers(
            _build_shard_engine,
            payloads,
            name="repro-shard",
            ready_timeout=ready_timeout,
            context=context,
        )
        schema = Schema(
            tuple(
                Dimension(d.name, card)
                for d, card in zip(table.schema.dimensions, cardinalities)
            ),
            table.schema.measures,
        )
        return cls(
            workers,
            schema,
            agg,
            shard_dim=shard_dim,
            timeout=timeout,
            cache_capacity=cache_capacity,
            min_support=min_support,
        )

    @classmethod
    def from_snapshot_dir(
        cls,
        path,
        *,
        aggregator: Aggregator | None = None,
        cache_capacity: int = 1024,
        timeout: float = 30.0,
        start_method: str | None = None,
        ready_timeout: float = 300.0,
        budget_bytes: int | None = None,
        promote_after: int = 2,
    ) -> "ShardRouter":
        """Cold-start the fleet from a sharded snapshot directory.

        Each worker memory-maps its own per-partition snapshot (written
        by :func:`repro.store.save_sharded_snapshot`), so nothing
        cube-sized crosses the spawn pipes and the fleet is serving
        after a directory walk plus one mmap per column file.  The
        resulting router is read-only: ``append`` surfaces each shard's
        structured ``bad_request`` refusal.
        """
        import multiprocessing

        from repro.store.engine import DEFAULT_BUDGET_BYTES
        from repro.store.sharded import (
            _build_snapshot_shard_engine,
            read_router_manifest,
            router_aggregator,
            router_schema,
        )
        from pathlib import Path

        path = Path(path)
        manifest = read_router_manifest(path)
        schema = router_schema(manifest)
        agg = router_aggregator(manifest, aggregator)
        engine_version = int(manifest.get("engine_version", 0))
        budget = budget_bytes if budget_bytes is not None else DEFAULT_BUDGET_BYTES
        payloads = [
            (shard, str(path / name), engine_version, budget, promote_after)
            for shard, name in enumerate(manifest["shards"])
        ]
        context = (
            multiprocessing.get_context(start_method) if start_method else None
        )
        workers = spawn_workers(
            _build_snapshot_shard_engine,
            payloads,
            name="repro-shard",
            ready_timeout=ready_timeout,
            context=context,
        )
        return cls(
            workers,
            schema,
            agg,
            shard_dim=int(manifest["shard_dim"]),
            timeout=timeout,
            cache_capacity=cache_capacity,
            min_support=int(manifest.get("min_support", 1)),
            initial_version=engine_version,
        )

    # -- routing and the resolver ----------------------------------------

    def _route(self, code: int) -> int:
        return code % self.n_shards

    def _plan(self, snap: CubeVersion, op: str, req: QueryRequest) -> _Plan:
        """The engine's plan, plus the shards that hold its rows.

        A plan whose cell binds the shard dimension can only be answered
        by one residue class; a dice predicate on it narrows the fan-out
        to the predicate codes' shards; anything else scatters to all.
        """
        plan = super()._plan(snap, op, req)
        code = plan.cell[self.shard_dim]
        if code is not None:
            plan.targets = (self._route(code),)
        elif plan.predicates and self.shard_dim in plan.predicates:
            codes = plan.predicates[self.shard_dim]
            plan.targets = tuple(sorted({self._route(v) for v in codes}))
        else:
            plan.targets = tuple(range(self.n_shards))
        return plan

    def _resolve(
        self,
        snap: CubeVersion,
        plans: Sequence[_Plan],
        *,
        pooled: bool = False,
        account: dict | None = None,
    ) -> list:
        """Scatter every plan's items to its shards; a failed shard fails its plans.

        An explained request's account names the routing decision
        (shard dimension, shards touched, fan-out, item kinds) and folds
        each shard's index counters and tier into one entry per shard.
        """
        results, failures, accounts = self._scatter(
            plans, op="batch" if pooled else plans[0].op, explain=account is not None
        )
        for index, plan in enumerate(plans):
            if results[index] is None:
                results[index] = failures[next(k for k in plan.targets if k in failures)]
        if account is not None:
            plan = plans[0]
            account["sharded"] = True
            account["routing"] = {
                "shard_dim": self.shard_dim,
                "shards_touched": list(plan.targets),
                "fanout": len(plan.targets),
                "items": [item[0] for item in plan.items],
            }
            account["shards"] = self._merge_accounts(accounts[0])
        return results

    @staticmethod
    def _merge_accounts(item_accounts: list) -> list[dict]:
        """Fold per-item per-shard explain entries into one per shard.

        Numeric counters sum across a shard's items; the tier source
        stays when consistent and degrades to ``"mixed"`` when a shard
        served some items hot and some cold.
        """
        per_shard: dict[int, dict] = {}
        for entries in item_accounts:
            for entry in entries or ():
                shard = entry.get("shard")
                merged = per_shard.setdefault(shard, {"shard": shard, "items": 0})
                merged["items"] += 1
                for field, value in entry.items():
                    if field in ("shard", "kind"):
                        continue
                    if field == "tier":
                        prior = merged.get("tier")
                        if prior is None:
                            merged["tier"] = dict(value)
                        else:
                            if prior.get("source") != value.get("source"):
                                prior["source"] = "mixed"
                            for bucket in ("hot_hits", "cold_hits"):
                                if bucket in value:
                                    prior[bucket] = prior.get(bucket, 0) + value[bucket]
                    elif isinstance(value, (int, float)):
                        merged[field] = merged.get(field, 0) + value
                    else:
                        merged.setdefault(field, value)
        return [per_shard[k] for k in sorted(per_shard)]

    # -- scatter-gather --------------------------------------------------

    def _scatter(
        self, plans: Sequence[_Plan], *, op: str, explain: bool = False
    ) -> tuple[list, dict[int, ErrorInfo], list]:
        """Send every plan's items to its shards, gather, slot back.

        Returns ``(per-plan partials, failures, per-plan accounts)``:
        partials element ``i`` is a list of per-shard partial-result
        lists (one per item of plan ``i``), or ``None`` when any of the
        plan's shards failed; ``failures`` maps the shard id to its
        structured error; the accounts mirror the partials' shape with
        per-shard explain entries (empty unless ``explain``).

        When tracing is live, the scatter span's context rides to every
        shard and each reply's worker spans are folded back into the
        router's buffer — one request, one stitched trace tree.
        """
        per_shard_items: dict[int, list] = {}
        per_shard_slots: dict[int, list] = {}  # parallel (plan index) slots
        for index, plan in enumerate(plans):
            for shard in plan.targets:
                per_shard_items.setdefault(shard, []).extend(plan.items)
                per_shard_slots.setdefault(shard, []).extend(
                    (index,) * len(plan.items)
                )
        failures: dict[int, ErrorInfo] = {}
        seqs: dict[int, int] = {}
        start_wall = time.time()
        start = time.perf_counter()
        with _TRACER.span(
            "serve.scatter",
            op=op,
            shards=len(per_shard_items),
            requests=len(plans),
            version=self._version.version,
        ) as scatter_span:
            context = scatter_span.context()
            trace = context.to_json() if context is not None else None
            with self._scatter_lock:
                version = self._version.version
                for shard, items in per_shard_items.items():
                    worker = self._workers[shard]
                    try:
                        if trace is not None or explain:
                            seqs[shard] = worker.request(
                                "scatter", version, items, trace, explain
                            )
                        else:
                            seqs[shard] = worker.request("scatter", version, items)
                    except WorkerUnavailable as exc:
                        failures[shard] = self._shard_failure(shard, exc)
                    if OBS_STATE.enabled:
                        self._shard_series[shard][0].inc(len(items))
        deadline = start + self.timeout
        replies: dict[int, list] = {}
        shard_accounts: dict[int, list | None] = {}
        reply_at: dict[int, float] = {}
        for shard, seq in seqs.items():
            worker = self._workers[shard]
            remaining = max(deadline - time.perf_counter(), 0.0)
            try:
                reply = worker.collect(seq, timeout=remaining)
            except (WorkerTimeout, WorkerUnavailable, RemoteError) as exc:
                failures[shard] = self._shard_failure(shard, exc)
            else:
                if isinstance(reply, dict):  # traced/explained envelope
                    if reply.get("spans"):
                        _TRACER.fold(reply["spans"])
                    shard_accounts[shard] = reply.get("explain")
                    replies[shard] = reply["results"]
                else:
                    replies[shard] = reply
            reply_at[shard] = time.perf_counter() - start
            if OBS_STATE.enabled and shard not in failures:
                _TRACER.record_span(
                    "serve.gather",
                    start_wall=start_wall,
                    duration=reply_at[shard],
                    attributes={
                        "shard": shard,
                        "items": len(per_shard_items[shard]),
                    },
                )
        if OBS_STATE.enabled:
            _SCATTER_SECONDS.observe(time.perf_counter() - start)
            _SHARD_FANOUT.observe(len(per_shard_items))
            if reply_at:
                fastest = min(reply_at.values())
                for shard, at in reply_at.items():
                    self._shard_series[shard][1].set(at - fastest)
        # Slot each shard's replies back into per-plan partial lists.
        out: list = [
            [[] for _ in plan.items] if plan.targets else [] for plan in plans
        ]
        accounts: list = [
            [[] for _ in plan.items] if plan.targets else [] for plan in plans
        ]
        for shard, reply in replies.items():
            entries = shard_accounts.get(shard)
            cursors: dict[int, int] = {}
            for j, (slot, partial) in enumerate(
                zip(per_shard_slots[shard], reply)
            ):
                item_index = cursors.get(slot, 0)
                cursors[slot] = item_index + 1
                out[slot][item_index].append(partial)
                if entries is not None:
                    accounts[slot][item_index].append(dict(entries[j], shard=shard))
        for index, plan in enumerate(plans):
            if any(shard in failures for shard in plan.targets):
                out[index] = None
        return out, failures, accounts

    def _shard_failure(self, shard: int, exc: Exception) -> ErrorInfo:
        """Map one transport/remote failure to the structured taxonomy."""
        if isinstance(exc, WorkerTimeout):
            info = ErrorInfo(
                code=ErrorCode.SHARD_TIMEOUT,
                message=f"shard {shard} did not reply within {self.timeout:.3f}s",
                retryable=True,
                shard=shard,
            )
        elif isinstance(exc, WorkerUnavailable):
            info = ErrorInfo(
                code=ErrorCode.SHARD_UNAVAILABLE,
                message=f"shard {shard} is unavailable: {exc}",
                retryable=True,
                shard=shard,
            )
        elif isinstance(exc, RemoteError) and exc.info is not None:
            parsed = ErrorInfo.from_json(exc.info)
            info = ErrorInfo(
                code=parsed.code,
                message=parsed.message,
                retryable=parsed.retryable,
                shard=parsed.shard if parsed.shard is not None else shard,
            )
        else:
            info = ErrorInfo(
                code=ErrorCode.INTERNAL,
                message=f"shard {shard} failed: {exc}",
                shard=shard,
            )
        if OBS_STATE.enabled:
            _SHARD_ERRORS.inc(shard=str(shard), code=info.code)
            _SHARDS_LIVE.set(
                sum(1 for w in self._workers if w.alive), router=self._name
            )
        return info

    # -- write path ------------------------------------------------------

    def append(self, rows: Sequence[Sequence[int]], measures=None) -> int:
        """Two-phase versioned append across every shard.

        Rows are validated once, routed by the shard dimension, then all
        shards ``prepare`` the target version and, only once every
        prepare succeeded, ``commit`` it.  The scatter lock is held for
        the whole swap, so no read's sub-requests can interleave with it
        — the FIFO pipes then guarantee every shard answers each read at
        the read's tagged version.  A failed prepare aborts the target
        everywhere (no shard moves); a shard that fails its *commit* is
        marked unavailable rather than left silently behind.
        """
        schema = self._version.schema
        clean_rows, clean_measures = validate_rows(
            rows, measures, schema.n_dims, len(schema.measure_names)
        )
        with _TRACER.span("serve.append", rows=len(clean_rows), sharded=True):
            with self._scatter_lock:
                target = self._version.version + 1
                per_rows: list[list] = [[] for _ in range(self.n_shards)]
                per_meas: list[list] = [[] for _ in range(self.n_shards)]
                for row, meas in zip(clean_rows, clean_measures):
                    shard = self._route(row[self.shard_dim])
                    per_rows[shard].append(row)
                    per_meas[shard].append(meas)
                self._two_phase_swap(target, per_rows, per_meas)
                self._version = CubeVersion(
                    target, None, covering_schema(self._version.schema, clean_rows)
                )
                self.cache.invalidate_all()
        return target

    def _two_phase_swap(
        self, target: int, per_rows: list[list], per_meas: list[list]
    ) -> None:
        # The phase flag backs readiness(): while a swap is in flight,
        # reads queue behind the scatter lock, so /readyz can steer a
        # load balancer away instead of letting requests pile up.
        self._refresh_phase = "prepare"
        try:
            seqs = {}
            for shard, worker in enumerate(self._workers):
                try:
                    seqs[shard] = worker.request(
                        "prepare", target, per_rows[shard], per_meas[shard]
                    )
                except WorkerUnavailable as exc:
                    self._abort_all(target, exclude=())
                    raise ServeError.from_info(self._shard_failure(shard, exc))
            for shard, seq in seqs.items():
                try:
                    self._workers[shard].collect(seq, timeout=self.append_timeout)
                except (WorkerTimeout, WorkerUnavailable, RemoteError) as exc:
                    info = self._shard_failure(shard, exc)
                    self._abort_all(target, exclude=(shard,))
                    raise ServeError.from_info(info)
            self._refresh_phase = "commit"
            commit_seqs = {}
            for shard, worker in enumerate(self._workers):
                try:
                    commit_seqs[shard] = worker.request("commit", target)
                except WorkerUnavailable as exc:
                    self._shard_failure(shard, exc)
            for shard, seq in commit_seqs.items():
                try:
                    self._workers[shard].collect(seq, timeout=self.append_timeout)
                    if OBS_STATE.enabled:
                        self._shard_series[shard][2].set(target)
                except (WorkerTimeout, WorkerUnavailable, RemoteError) as exc:
                    # Past the point of no return: peers committed.  The
                    # shard is marked failed (subsequent scatters to it
                    # surface structured errors) instead of serving a torn
                    # version silently.
                    self._shard_failure(shard, exc)
                    self._workers[shard]._mark_dead(f"commit {target} failed: {exc}")
        finally:
            self._refresh_phase = None

    def _abort_all(self, target: int, exclude: tuple = ()) -> None:
        for shard, worker in enumerate(self._workers):
            if shard in exclude or not worker.alive:
                continue
            try:
                worker.call("abort", target, timeout=self.append_timeout)
            except (WorkerTimeout, WorkerUnavailable, RemoteError):
                pass

    # -- introspection ----------------------------------------------------

    def _stats_extras(self, snap: CubeVersion) -> dict:
        """The fleet's ``/stats`` fields: per-shard detail and their sums."""
        shard_stats: list[dict] = []
        for shard, worker in enumerate(self._workers):
            if not worker.alive:
                shard_stats.append({"shard": shard, "alive": False})
                continue
            try:
                stats = worker.call("stats", timeout=self.timeout)
            except (WorkerTimeout, WorkerUnavailable, RemoteError) as exc:
                self._shard_failure(shard, exc)
                shard_stats.append({"shard": shard, "alive": False})
                continue
            stats["alive"] = True
            shard_stats.append(stats)
        live = [s for s in shard_stats if s.get("alive")]
        return {
            "sharded": True,
            "n_shards": self.n_shards,
            "shard_dim": self.shard_dim,
            "shards_live": len(live),
            "n_ranges": sum(s.get("n_ranges", 0) for s in live),
            "rows_absorbed": sum(s.get("rows_absorbed", 0) for s in live),
            "trie_nodes": sum(s.get("trie_nodes", 0) for s in live),
            "shards": shard_stats,
        }

    def federated_metrics(self) -> MetricRegistry:
        """A fresh registry holding the whole fleet's series.

        Built per scrape, never accumulated: the router's own registry
        and every live worker's snapshot fold into a new registry with
        an identifying ``shard`` label (``shard="router"`` for the
        router's series, ``shard="0"``… for the workers), so counters
        sum per shard, gauges stay distinguishable, and histograms
        bucket-merge per shard.  Families that already carry a ``shard``
        label — the router's ``repro_shard_*`` — merge without growing a
        second one.  An unreachable worker degrades to its series being
        absent this scrape (and the usual shard-failure bookkeeping),
        not a scrape error.
        """
        fleet = MetricRegistry()
        fleet.merge_labeled(get_registry().to_dict(), "shard", "router")
        for shard, worker in enumerate(self._workers):
            if not worker.alive:
                continue
            try:
                snapshot = worker.call("metrics_snapshot", timeout=self.timeout)
            except (WorkerTimeout, WorkerUnavailable, RemoteError) as exc:
                self._shard_failure(shard, exc)
                continue
            fleet.merge_labeled(snapshot, "shard", str(shard))
        return fleet

    def readiness(self) -> dict:
        """The router's serving state, the body behind ``GET /readyz``.

        Liveness (is the process answering at all) stays ``/healthz``;
        this distinguishes *can it serve*: any dead shard degrades the
        fleet (``degraded`` — partial answers only), an in-flight
        two-phase refresh queues reads behind the scatter lock
        (``refresh-prepare`` / ``refresh-commit``), and otherwise the
        fleet is ``serving``.
        """
        dead = [k for k, w in enumerate(self._workers) if not w.alive]
        phase = self._refresh_phase
        out = {
            "sharded": True,
            "n_shards": self.n_shards,
            "shards_live": self.n_shards - len(dead),
            "version": self.version,
        }
        if dead:
            return dict(out, ready=False, state="degraded", dead_shards=dead)
        if phase is not None:
            return dict(out, ready=False, state=f"refresh-{phase}")
        return dict(out, ready=True, state="serving")

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Stop every shard worker (idempotent)."""
        for worker in self._workers:
            try:
                worker.stop(timeout=5.0)
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
        _SHARDS_LIVE.set(0, router=self._name)

    def __repr__(self) -> str:
        live = sum(1 for w in self._workers if w.alive)
        return (
            f"ShardRouter(v{self.version}, {live}/{self.n_shards} shards "
            f"live, shard_dim={self.shard_dim})"
        )


__all__ = ["ShardEngine", "ShardRouter", "_build_shard_engine"]
