"""Stratified cell samples + histogram sketches, and their estimators.

A :class:`CubeSketch` summarizes one immutable cube version from its
columnar layout (:class:`~repro.core.columnar.ColumnarRangeStore` or a
mapped snapshot with the same attribute surface):

* the *finest cuboid* — every all-dims-bound cell with its aggregate
  state — is the sampling population.  A dice with base-cell pins and
  per-dimension value sets selects a subset of these cells, and every
  supported aggregate (COUNT, SUM, AVG) is a *linear total* over them,
  so classic survey-sampling estimators apply directly;
* cells are sampled **stratified by weight**: the heaviest cells (a
  configurable head) are kept exactly, and the tail is partitioned into
  log2(count) strata sampled uniformly without replacement with
  proportional allocation.  Under Zipf-skewed data this is the textbook
  variance reducer — each stratum's values are within 2x of each other,
  so the per-stratum CLT interval is tight and honest;
* exact per-dimension histograms (count mass per code) provide a
  deterministic upper bound for the COUNT component of any dice — the
  estimate's interval is clipped against it, and against the observed
  sample mass from below.

Estimates are produced as *partials* — plain-JSON dicts carrying the
per-component estimate, variance, certain floor/ceiling and sample
accounting — which sum across independent shards.  The variance of a
sum of independent estimators is the sum of variances, so the
scatter-gather tier merges partials exactly like it merges aggregate
states: component-wise, finalizing bounds once at the router
(:func:`finalize_partials`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.obs import get_registry
from repro.table.aggregates import Aggregator, CountAggregator, SumCountAggregator

#: Estimator identifier reported in responses and EXPLAIN accounts.
ESTIMATOR = "stratified-cell-sample"

#: Default total sample budget (cells) per sketch.
DEFAULT_SAMPLE_SIZE = 2048

#: Fraction of the budget spent keeping the heaviest cells exactly.
DEFAULT_HEAD_FRACTION = 0.25

_REGISTRY = get_registry()
_SKETCH_BUILDS = _REGISTRY.counter(
    "repro_approx_sketch_builds_total",
    "Cube sketches built (per engine cube version, lazily or at snapshot time).",
)


class SketchUnsupported(ValueError):
    """The cube's aggregator has no linear estimator (e.g. MIN/MAX)."""


# ----------------------------------------------------------------------
# component layout
# ----------------------------------------------------------------------


def component_layout(aggregator: Aggregator) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``(components, kinds)`` of the linear estimate vector for ``aggregator``.

    Components mirror the columnar fast-state layout: ``count`` first,
    then one column per SUM spec and a ``(sum, count)`` pair per AVG
    spec.  Raises :class:`SketchUnsupported` for anything else (MIN/MAX
    have no unbiased sampling estimator; custom aggregators have no
    known layout) — callers fall back to the exact path.
    """
    if type(aggregator) not in (
        Aggregator,
        CountAggregator,
        SumCountAggregator,
    ) and aggregator._scalar_algebra_overridden():
        # Same rule as the columnar fast-state unpacking: an overridden
        # scalar algebra may change the state layout under the specs.
        raise SketchUnsupported("custom aggregator state layout")
    components = ["count"]
    kinds = []
    for j, (fn, _) in enumerate(aggregator.specs):
        if fn.name == "sum":
            kinds.append("sum")
            components.append(f"s{j}")
        elif fn.name == "avg":
            kinds.append("avg")
            components.extend((f"s{j}", f"c{j}"))
        else:
            raise SketchUnsupported(
                f"aggregate {fn.name!r} has no sampling estimator"
            )
    return tuple(components), tuple(kinds)


def result_keys(aggregator: Aggregator) -> tuple[str, ...]:
    """The finalized result-dict keys, matching :meth:`Aggregator.finalize`."""
    keys = ["count"]
    for fn, i in aggregator.specs:
        keys.append(f"{fn.name}({i})" if fn.name in keys else fn.name)
    return tuple(keys)


def _state_components(aggregator: Aggregator, state: tuple | None, width: int) -> list[float]:
    """An exact state flattened onto the component layout (zeros when empty)."""
    if state is None:
        return [0.0] * width
    flat: list[float] = [float(state[0])]
    for (fn, _), value in zip(aggregator.specs, state[1:]):
        if fn.name == "avg":
            flat.extend((float(value[0]), float(value[1])))
        else:
            flat.append(float(value))
    return flat


# ----------------------------------------------------------------------
# the sketch
# ----------------------------------------------------------------------


class CubeSketch:
    """A stratified finest-cuboid cell sample plus per-dimension histograms."""

    def __init__(
        self,
        *,
        n_dims: int,
        n_rows: int,
        n_cells: int,
        components: tuple[str, ...],
        kinds: tuple[str, ...],
        cells: np.ndarray,
        counts: np.ndarray,
        values: np.ndarray,
        strata_population: np.ndarray,
        strata_starts: np.ndarray,
        nonneg: np.ndarray,
        hist_offsets: np.ndarray,
        hist_codes: np.ndarray,
        hist_counts: np.ndarray,
    ) -> None:
        self.n_dims = int(n_dims)
        self.n_rows = int(n_rows)
        self.n_cells = int(n_cells)
        self.components = tuple(components)
        self.kinds = tuple(kinds)
        self.cells = cells  # (m, n_dims) int32, sorted by stratum
        self.counts = counts  # (m,) int64
        self.values = values  # (m, K) float64; column 0 is the count
        self.strata_population = strata_population  # (H,) int64
        self.strata_starts = strata_starts  # (H + 1,) int64 offsets into the sample
        self.nonneg = nonneg  # (K,) bool: column is nonnegative over the population
        self.hist_offsets = hist_offsets  # (n_dims + 1,) int64 CSR offsets
        self.hist_codes = hist_codes  # int32 codes, ascending per dimension
        self.hist_counts = hist_counts  # int64 count mass per code
        self._mass_tables: list[np.ndarray] | None = None  # dense, built lazily

    # -- construction ----------------------------------------------------

    @classmethod
    def from_store(
        cls,
        store,
        *,
        sample_size: int = DEFAULT_SAMPLE_SIZE,
        head_fraction: float = DEFAULT_HEAD_FRACTION,
        seed: int = 0,
    ) -> "CubeSketch":
        """Build from any columnar-layout store (resident or mapped).

        Raises :class:`SketchUnsupported` when the aggregator's states
        cannot be estimated (non-linear aggregates, custom layouts, or a
        store without unpacked fast columns).
        """
        aggregator = store.aggregator
        components, kinds = component_layout(aggregator)
        fast = getattr(store, "_fast_columns", None)
        if aggregator.specs and fast is None:
            raise SketchUnsupported("store has no unpacked measure columns")
        n_dims = store.n_dims
        ids = store.base_cell_ids()
        cells_all = np.array(store.specific[ids], dtype=np.int32)
        counts_all = np.array(store.counts[ids], dtype=np.int64)
        columns = [counts_all.astype(np.float64)]
        for j, kind in enumerate(kinds):
            if kind == "avg":
                sums, cnts = fast.columns[j]
                columns.append(np.array(sums[ids], dtype=np.float64))
                columns.append(np.array(cnts[ids], dtype=np.float64))
            else:
                columns.append(np.array(fast.columns[j][ids], dtype=np.float64))
        values_all = (
            np.column_stack(columns)
            if len(counts_all)
            else np.empty((0, len(components)), dtype=np.float64)
        )
        nonneg = (
            values_all.min(axis=0) >= 0
            if len(counts_all)
            else np.ones(len(components), dtype=bool)
        )
        sample_idx, population, starts = _stratify(
            counts_all, sample_size=sample_size, head_fraction=head_fraction, seed=seed
        )
        hist_offsets, hist_codes, hist_counts = _histograms(cells_all, counts_all, n_dims)
        _SKETCH_BUILDS.inc()
        return cls(
            n_dims=n_dims,
            n_rows=int(counts_all.sum()),
            n_cells=len(counts_all),
            components=components,
            kinds=kinds,
            cells=cells_all[sample_idx],
            counts=counts_all[sample_idx],
            values=values_all[sample_idx],
            strata_population=population,
            strata_starts=starts,
            nonneg=np.asarray(nonneg, dtype=bool),
            hist_offsets=hist_offsets,
            hist_codes=hist_codes,
            hist_counts=hist_counts,
        )

    @property
    def sample_size(self) -> int:
        return len(self.counts)

    def nbytes(self) -> int:
        return sum(
            a.nbytes
            for a in (
                self.cells, self.counts, self.values, self.strata_population,
                self.strata_starts, self.hist_codes, self.hist_counts,
            )
        )

    # -- persistence (snapshot arrays) -----------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The sketch as named arrays for the snapshot ``.npy`` columns."""
        return {
            "sketch_cells": self.cells,
            "sketch_counts": self.counts,
            "sketch_values": self.values,
            "sketch_strata_population": self.strata_population,
            "sketch_strata_starts": self.strata_starts,
            "sketch_nonneg": self.nonneg.astype(np.uint8),
            "sketch_hist_offsets": self.hist_offsets,
            "sketch_hist_codes": self.hist_codes,
            "sketch_hist_counts": self.hist_counts,
        }

    def manifest_entry(self) -> dict:
        """Scalar metadata for the snapshot manifest's ``sketch`` block."""
        return {
            "estimator": ESTIMATOR,
            "n_dims": self.n_dims,
            "n_rows": self.n_rows,
            "n_cells": self.n_cells,
            "components": list(self.components),
            "kinds": list(self.kinds),
            "sample_size": self.sample_size,
        }

    @classmethod
    def from_arrays(cls, meta: dict, arrays: Mapping[str, np.ndarray]) -> "CubeSketch":
        """Rebuild from a snapshot's manifest block + (mapped) arrays."""
        return cls(
            n_dims=int(meta["n_dims"]),
            n_rows=int(meta["n_rows"]),
            n_cells=int(meta["n_cells"]),
            components=tuple(meta["components"]),
            kinds=tuple(meta["kinds"]),
            cells=np.asarray(arrays["sketch_cells"]),
            counts=np.asarray(arrays["sketch_counts"]),
            values=np.asarray(arrays["sketch_values"]),
            strata_population=np.asarray(arrays["sketch_strata_population"]),
            strata_starts=np.asarray(arrays["sketch_strata_starts"]),
            nonneg=np.asarray(arrays["sketch_nonneg"]).astype(bool),
            hist_offsets=np.asarray(arrays["sketch_hist_offsets"]),
            hist_codes=np.asarray(arrays["sketch_hist_codes"]),
            hist_counts=np.asarray(arrays["sketch_hist_counts"]),
        )

    # -- estimation ------------------------------------------------------

    def _masses(self) -> list[np.ndarray]:
        """Dense per-dimension count-mass tables, built once on first use.

        ``_masses()[d][code]`` is the exact count mass of ``code`` on
        dimension ``d``; the trailing slot is a zero sentinel that
        out-of-range codes are clamped onto.  Turns the per-query
        ``searchsorted`` of the CSR histograms into one fancy-index, at
        the cost of one int64 slot per observed cardinality.
        """
        if self._mass_tables is None:
            tables = []
            for dim in range(self.n_dims):
                lo, hi = int(self.hist_offsets[dim]), int(self.hist_offsets[dim + 1])
                dim_codes = self.hist_codes[lo:hi]
                top = int(dim_codes.max()) if dim_codes.size else 0
                dense = np.zeros(top + 2, dtype=np.int64)
                dense[dim_codes] = self.hist_counts[lo:hi]
                tables.append(dense)
            self._mass_tables = tables
        return self._mass_tables

    def hist_mass(self, dim: int, codes: Iterable[int]) -> int:
        """Exact count mass of the code set ``codes`` on ``dim`` (histogram lookup).

        A code listed twice is one code: each code's slot is marked once,
        then the marked slots' mass is summed.
        """
        wanted = (
            codes.astype(np.int64, copy=False)
            if isinstance(codes, np.ndarray)
            else np.fromiter(codes, dtype=np.int64)
        )
        if wanted.size and int(wanted.min()) < 0:
            wanted = wanted[wanted >= 0]  # negatives carry no mass
        mass = self._masses()[dim]
        marked = np.zeros(mass.size, dtype=np.int64)
        marked[np.minimum(wanted, mass.size - 1)] = 1
        return int(mass @ marked)

    def estimate_partial(
        self,
        base: Mapping[int, int],
        value_sets: Mapping[int, Iterable[int]],
        having: float | None = None,
    ) -> dict:
        """One mergeable partial estimate for a dice selection.

        ``base`` pins dimensions to single codes, ``value_sets`` admits a
        code set per dimension, ``having`` keeps only finest cells with
        ``count >= having`` (the iceberg filter — exact per sampled cell,
        since sampled cells carry their true counts).
        """
        m, width = self.values.shape
        z = np.ones(m, dtype=bool)
        for d, v in base.items():
            z &= self.cells[:, d] == v
        code_sets = {
            d: (
                vs.astype(np.int64, copy=False)
                if isinstance(vs, np.ndarray)
                else np.asarray(
                    vs if isinstance(vs, (list, tuple)) else list(vs),
                    dtype=np.int64,
                )
            )
            for d, vs in value_sets.items()
        }
        for d, codes in code_sets.items():
            if not codes.size:
                z &= False
                continue
            # A boolean lookup beats np.isin's sort-based path: admitted
            # codes are small ints, so the table is a few hundred bytes.
            # The trailing slot is a False sentinel for out-of-set codes.
            lut = np.zeros(int(codes.max()) + 2, dtype=bool)
            lut[codes] = True
            col = self.cells[:, d]
            z &= lut[np.minimum(col, lut.size - 1)]
        if having is not None:
            z &= self.counts >= having
        y = self.values * z[:, None]
        est = np.zeros(width)
        var = np.zeros(width)
        floor = np.zeros(width)
        if m:
            starts = np.asarray(self.strata_starts[:-1], dtype=np.intp)
            sums = np.add.reduceat(y, starts, axis=0)
            squares = np.add.reduceat(np.square(y), starts, axis=0)
            sizes = np.diff(self.strata_starts).astype(np.float64)
            population = self.strata_population.astype(np.float64)
            scale = population / sizes
            est = (sums * scale[:, None]).sum(axis=0)
            floor = sums.sum(axis=0)
            # Per-stratum CLT variance with finite-population correction;
            # fully-sampled strata (the head, n_h == N_h) contribute zero.
            # The sample variance is augmented with two phantom rows (one
            # at the stratum's value scale, one at zero): when a stratum's
            # matched sample is sparse, the realized estimate and its
            # variance estimate dip *together*, and the plain CLT interval
            # undercovers — the phantoms keep the interval honest there
            # while vanishing (O(1/n)) when matches are dense.
            open_strata = (population > sizes) & (sizes > 1)
            if open_strata.any():
                scales = np.maximum.reduceat(np.abs(self.values), starts, axis=0)
                n_h = sizes[open_strata, None] + 2.0
                big_n = population[open_strata, None]
                v_h = scales[open_strata]
                s_aug = sums[open_strata] + v_h
                ss_aug = squares[open_strata] + np.square(v_h)
                mean = s_aug / n_h
                s2 = np.maximum(ss_aug - n_h * mean**2, 0.0) / (n_h - 1)
                var = (big_n * big_n * (1.0 - (n_h - 2.0) / big_n) * s2 / n_h).sum(axis=0)
        # Deterministic COUNT ceiling from the per-dimension histograms.
        caps = [self.n_rows]
        caps += [self.hist_mass(d, codes) for d, codes in code_sets.items()]
        caps += [self.hist_mass(d, (v,)) for d, v in base.items()]
        return {
            "estimator": ESTIMATOR,
            "est": est.tolist(),
            "var": var.tolist(),
            "floor": floor.tolist(),
            "floor_valid": self.nonneg.tolist(),
            "ceil": float(min(caps)),
            "sample_size": int(m),
            "matched": int(z.sum()),
            "population": self.n_cells,
            "rows": self.n_rows,
        }


def _stratify(
    counts: np.ndarray, *, sample_size: int, head_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(sample indices, stratum populations, stratum start offsets)``.

    Stratum 0 is the fully-kept head (heaviest cells); the tail splits
    into log2-weight strata sampled without replacement with
    proportional allocation (at least 2 per stratum, so every open
    stratum carries a variance estimate).
    """
    n = len(counts)
    order = np.argsort(-counts, kind="stable")
    head_n = min(max(int(sample_size * head_fraction), 0), n, sample_size)
    picks: list[np.ndarray] = []
    population: list[int] = []
    if head_n:
        picks.append(order[:head_n])
        population.append(head_n)
    tail = order[head_n:]
    if tail.size:
        rng = np.random.default_rng(seed)
        budget = max(sample_size - head_n, 2)
        buckets = np.floor(np.log2(np.maximum(counts[tail], 1))).astype(np.int64)
        # counts[tail] is non-increasing, so buckets is non-increasing:
        # contiguous runs are the strata.
        boundaries = np.flatnonzero(np.diff(buckets)) + 1
        starts = np.concatenate(([0], boundaries, [len(tail)]))
        for lo, hi in zip(starts[:-1], starts[1:]):
            group = tail[lo:hi]
            share = int(round(budget * len(group) / tail.size))
            take = min(len(group), max(share, 2))
            if take == len(group):
                picks.append(group)
            else:
                picks.append(rng.choice(group, size=take, replace=False))
            population.append(len(group))
    sample = np.concatenate(picks) if picks else np.empty(0, dtype=np.int64)
    sizes = np.fromiter((len(p) for p in picks), dtype=np.int64, count=len(picks))
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    return sample, np.asarray(population, dtype=np.int64), offsets


def _histograms(
    cells: np.ndarray, counts: np.ndarray, n_dims: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact per-dimension count-mass histograms in CSR form."""
    offsets = [0]
    codes: list[np.ndarray] = []
    masses: list[np.ndarray] = []
    for d in range(n_dims):
        column = cells[:, d].astype(np.int64)
        uniq, inverse = np.unique(column, return_inverse=True)
        mass = np.bincount(inverse, weights=counts.astype(np.float64))
        codes.append(uniq.astype(np.int32))
        masses.append(mass.astype(np.int64))
        offsets.append(offsets[-1] + len(uniq))
    return (
        np.asarray(offsets, dtype=np.int64),
        np.concatenate(codes) if codes else np.empty(0, dtype=np.int32),
        np.concatenate(masses) if masses else np.empty(0, dtype=np.int64),
    )


# ----------------------------------------------------------------------
# partial combination and finalization
# ----------------------------------------------------------------------


def exact_partial(
    aggregator: Aggregator, state: tuple | None, *, sample_size: int = 0, matched: int = 0
) -> dict:
    """An exact aggregate state wrapped as a zero-variance partial.

    ``sample_size`` and ``matched`` count the rows it read and the rows
    that matched, when the state was read off rows (an append delta).
    """
    components, _ = component_layout(aggregator)
    flat = _state_components(aggregator, state, len(components))
    return {
        "estimator": "exact",
        "est": flat,
        "var": [0.0] * len(flat),
        "floor": flat,
        "floor_valid": [True] * len(flat),
        "ceil": flat[0],
        "sample_size": sample_size,
        "matched": matched,
        "population": 0,
        "rows": 0,
    }


def combine_partials(first: Mapping, second: Mapping) -> dict:
    """Two partials over disjoint rows as one partial.

    Independent estimators (disjoint row partitions, private samples)
    add: totals and variances sum, and floors/ceilings sum while both
    contributors' are valid.  A sampled estimator wins over ``"exact"``,
    so an exact partial added to a sampled one leaves the answer sampled.
    """
    ceil = (
        None if first["ceil"] is None or second["ceil"] is None
        else first["ceil"] + second["ceil"]
    )
    return {
        "estimator": (
            second["estimator"] if first["estimator"] == "exact" else first["estimator"]
        ),
        "est": [a + b for a, b in zip(first["est"], second["est"])],
        "var": [a + b for a, b in zip(first["var"], second["var"])],
        "floor": [a + b for a, b in zip(first["floor"], second["floor"])],
        "floor_valid": [a and b for a, b in zip(first["floor_valid"], second["floor_valid"])],
        "ceil": ceil,
        "sample_size": first["sample_size"] + second["sample_size"],
        "matched": first["matched"] + second["matched"],
        "population": first["population"] + second["population"],
        "rows": first["rows"] + second["rows"],
    }


@dataclass
class ApproxAnswer:
    """A finalized ``(estimate, lower, upper, confidence)`` answer."""

    estimate: dict[str, float | None]
    lower: dict[str, float | None]
    upper: dict[str, float | None]
    confidence: float
    estimator: str
    sample_size: int
    matched: int
    bound_width: float  # relative COUNT interval width, for metrics/EXPLAIN

    def to_block(self) -> dict:
        """The wire-shape ``approx`` response block."""
        return {
            "estimate": self.estimate,
            "lower": self.lower,
            "upper": self.upper,
            "confidence": self.confidence,
            "estimator": self.estimator,
            "sample_size": self.sample_size,
            "matched": self.matched,
        }


def z_score(confidence: float) -> float:
    """Two-sided normal quantile for a confidence level in (0, 1)."""
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def finalize_partials(
    aggregator: Aggregator,
    partials: Sequence[Mapping],
    confidence: float,
) -> ApproxAnswer:
    """Combine independent partials and turn them into bounds.

    The partials fold through :func:`combine_partials`, starting from
    the empty exact partial; bounds are computed once here — mirroring
    how the router merges aggregate *states* and finalizes once.
    """
    _, kinds = component_layout(aggregator)
    total = functools.reduce(combine_partials, partials, exact_partial(aggregator, None))
    est = np.asarray(total["est"], dtype=np.float64)
    var = np.asarray(total["var"], dtype=np.float64)
    floor = np.asarray(total["floor"], dtype=np.float64)
    floor_valid = np.asarray(total["floor_valid"], dtype=bool)
    ceil = total["ceil"]
    half = z_score(confidence) * np.sqrt(var)
    lower = est - half
    upper = est + half
    lower = np.where(floor_valid, np.maximum(lower, floor), lower)
    lower[0] = max(lower[0], 0.0)
    if ceil is not None:
        upper[0] = min(upper[0], ceil)
        if upper[0] < lower[0]:
            # The sampling interval contradicts the deterministic
            # floor/ceiling box; the box always contains the truth, so
            # it replaces the interval instead of inverting it.
            lower[0] = max(float(floor[0]) if floor_valid[0] else 0.0, 0.0)
            upper[0] = float(ceil)
    # Raising a grossly-low interval to a deterministic floor can invert
    # it the other way; keep every component well-formed.
    upper = np.maximum(upper, lower)
    est = np.clip(est, lower, upper)
    keys = result_keys(aggregator)
    estimate_d: dict[str, float | None] = {"count": float(est[0])}
    lower_d: dict[str, float | None] = {"count": float(lower[0])}
    upper_d: dict[str, float | None] = {"count": float(upper[0])}
    col = 1
    for kind, key in zip(kinds, keys[1:]):
        if kind == "avg":
            s, c = col, col + 1
            col += 2
            estimate_d[key] = float(est[s] / est[c]) if est[c] > 0 else None
            lo, hi = _ratio_interval(
                (lower[s], upper[s]), (lower[c], upper[c])
            )
            lower_d[key], upper_d[key] = lo, hi
        else:
            estimate_d[key] = float(est[col])
            lower_d[key] = float(lower[col])
            upper_d[key] = float(upper[col])
            col += 1
    count_width = float(upper[0] - lower[0]) / max(float(est[0]), 1.0)
    return ApproxAnswer(
        estimate=estimate_d,
        lower=lower_d,
        upper=upper_d,
        confidence=confidence,
        estimator=total["estimator"],
        sample_size=int(total["sample_size"]),
        matched=int(total["matched"]),
        bound_width=count_width,
    )


def _ratio_interval(
    numerator: tuple[float, float], denominator: tuple[float, float]
) -> tuple[float | None, float | None]:
    """Conservative interval for a ratio (AVG = sum / count).

    Undefined (``None`` bounds) when the denominator interval touches
    zero — an average over possibly-zero tuples has no finite bound.
    """
    d_lo, d_hi = denominator
    if d_lo <= 0:
        return None, None
    ratios = [
        numerator[0] / d_lo,
        numerator[0] / d_hi,
        numerator[1] / d_lo,
        numerator[1] / d_hi,
    ]
    return min(ratios), max(ratios)
