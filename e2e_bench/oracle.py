"""The output checker: every checked answer recomputed with numpy.

The checker answers reads over the rows the benchmark generated and sent,
in the served dictionary codes (see :class:`inputs.ServedCodes`).  COUNT
must match exactly; SUM must agree within ``REL_TOL`` relative, because
the program and numpy add in different orders.  The served aggregate
(count and sum) has no AVG field of its own, so there is no AVG to
check: an average derived from the checked count and sum could not
disagree.  On the build
phase it also checks paper Theorem 1 on the published snapshot: the
ranges partition the cube's cells, so every cuboid holds exactly as many
cells as there are distinct projections of the fact rows onto it.
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-9


class Oracle:
    """Answers reads over ``codes``/``measures`` (their first ``n`` rows per call)."""

    def __init__(self, codes: np.ndarray, measures: np.ndarray) -> None:
        self.codes = codes
        self.measures = measures

    def _rows(self, cell, n_rows: int) -> np.ndarray:
        keep = np.ones(n_rows, dtype=bool)
        for d, v in enumerate(cell):
            if v is not None:
                keep &= self.codes[:n_rows, d] == v
        return keep

    def _value(self, keep: np.ndarray, n_rows: int):
        count = int(np.count_nonzero(keep))
        if not count:
            return None
        return {"count": count, "sum": float(self.measures[:n_rows][keep].sum())}

    def _children(self, cell, dim: int, n_rows: int) -> dict:
        keep = self._rows(cell, n_rows)
        values = self.codes[:n_rows, dim][keep]
        weights = self.measures[:n_rows][keep]
        counts = np.bincount(values)
        sums = np.bincount(values, weights=weights)
        out = {}
        for code in np.flatnonzero(counts).tolist():
            child = list(cell)
            child[dim] = code
            out[tuple(child)] = {"count": int(counts[code]), "sum": float(sums[code])}
        return out

    def expected(self, request: dict, n_rows: int | None = None) -> dict:
        """The answer fields a correct server returns for ``request``."""
        n = len(self.codes) if n_rows is None else n_rows
        op = request["op"]
        cell = list(request["cell"])
        if op == "point":
            return {"cell": cell, "value": self._value(self._rows(cell, n), n)}
        if op == "rollup":
            cell[request["dim"]] = None
            return {"cell": cell, "value": self._value(self._rows(cell, n), n)}
        if op == "drilldown":
            return {"children": self._children(cell, request["dim"], n)}
        if op == "slice":
            children: dict = {}
            for dim in range(len(cell)):
                if cell[dim] is None:
                    children.update(self._children(cell, dim, n))
            return {"children": children}
        if op == "dice":
            keep = self._rows(cell, n)
            for dim, values in request["predicates"].items():
                keep &= np.isin(self.codes[:n, int(dim)], values)
            return {"value": self._value(keep, n)}
        raise ValueError(f"no oracle for op {op!r}")

    def check(self, request: dict, response: dict, n_rows: int | None = None) -> list[str]:
        """Problems with ``response`` as an answer to ``request`` (empty when correct)."""
        want = self.expected(request, n_rows)
        problems: list[str] = []
        if response.get("op") != request["op"]:
            problems.append(f"op {response.get('op')!r}, expected {request['op']!r}")
        if "cell" in want and response.get("cell") != want["cell"]:
            problems.append(f"cell {response.get('cell')}, expected {want['cell']}")
        if "value" in want:
            problems += _compare_value(response.get("value"), want["value"], "value")
        if "children" in want:
            got: dict = {}
            for child in response.get("children", []):
                key = tuple(child["cell"])
                if key in got:
                    problems.append(f"child {list(key)} listed twice")
                got[key] = child["value"]
            for key in want["children"].keys() - got.keys():
                problems.append(f"missing child {list(key)}")
            for key in got.keys() - want["children"].keys():
                problems.append(f"extra child {list(key)}")
            for key in want["children"].keys() & got.keys():
                problems += _compare_value(got[key], want["children"][key], f"child {list(key)}")
        return [f"{request}: {p}" for p in problems]


def _compare_value(got, want, what: str) -> list[str]:
    if want is None or got is None:
        return [] if got == want else [f"{what} {got}, expected {want}"]
    problems = []
    if got.get("count") != want["count"]:
        problems.append(f"{what} count {got.get('count')}, expected {want['count']}")
        return problems
    total = got.get("sum")
    if not isinstance(total, (int, float)) or abs(total - want["sum"]) > REL_TOL * abs(want["sum"]):
        problems.append(f"{what} sum {total}, expected {want['sum']}")
    return problems


def check_partition(store, codes: np.ndarray) -> list[str]:
    """Paper Theorem 1 on a loaded snapshot store, against the fact rows.

    Every cuboid's cell count from the store (``cuboid_sizes``, which
    counts each range once per cell it covers) must equal the number of
    distinct projections of the rows onto that cuboid's dimensions, and
    the apex must count every row.
    """
    n_dims = codes.shape[1]
    bits = max(int(codes.max()).bit_length(), 1)
    if bits * n_dims > 63:
        raise ValueError("codes too wide to pack into one int64 key")
    distinct = np.unique(codes, axis=0)
    sizes = store.cuboid_sizes()
    problems = []
    for mask in range(1 << n_dims):
        key = np.zeros(len(distinct), dtype=np.int64)
        for d in range(n_dims):
            if mask >> d & 1:
                key = (key << bits) | distinct[:, d]
        expected = int(np.unique(key).size)
        if sizes.get(mask, 0) != expected:
            problems.append(
                f"cuboid mask {mask:#x} holds {sizes.get(mask, 0)} cells, "
                f"the rows project to {expected}"
            )
    apex = store.find_id((None,) * n_dims)
    apex_count = int(store.counts[apex]) if apex >= 0 else 0
    if apex_count != len(codes):
        problems.append(f"apex count {apex_count}, expected {len(codes)} rows")
    return problems


def self_test() -> None:
    """Show the checker rejects a perturbed value, a missing child and an extra one."""
    codes = np.array([[0, 0], [0, 1], [1, 1], [1, 1]], dtype=np.int64)
    oracle = Oracle(codes, np.array([1.5, 2.25, 3.0, 4.0]))
    point = {"op": "point", "cell": [1, None]}
    good_point = {"op": "point", "cell": [1, None], "value": {"count": 2, "sum": 7.0}}
    drill = {"op": "drilldown", "cell": [None, None], "dim": 1}
    children = [
        {"cell": [None, 0], "value": {"count": 1, "sum": 1.5}},
        {"cell": [None, 1], "value": {"count": 3, "sum": 9.25}},
    ]
    good_drill = {"op": "drilldown", "children": children}
    cases = {
        "correct point": (point, good_point, False),
        "correct drill-down": (drill, good_drill, False),
        "perturbed sum": (point, {**good_point, "value": {"count": 2, "sum": 7.0 * (1 + 1e-6)}}, True),
        "perturbed count": (point, {**good_point, "value": {"count": 3, "sum": 7.0}}, True),
        "missing child": (drill, {"op": "drilldown", "children": children[:1]}, True),
        "extra child": (
            drill,
            {"op": "drilldown", "children": children + [{"cell": [None, 2], "value": {"count": 1, "sum": 1.0}}]},
            True,
        ),
    }
    for name, (request, response, should_fail) in cases.items():
        if bool(oracle.check(request, response)) != should_fail:
            raise AssertionError(f"checker self-test failed on the {name} case")
