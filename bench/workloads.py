"""Workload inputs and their oracles.

``build(workload, seed)`` returns the commands of one repetition, each with
the graph it reads; the same seed gives the same commands and graphs.
``expect(item)`` computes what the command must answer, with the code in
``oracle.py`` only, and ``check(item, expected, rc, out, err)`` judges one
command's exit code and output against it.

classgen  isomorph-free generation: every class up to order 7, then the
          max-degree-3 classes of order 8.  Canonical labeling is nearly all
          of the work; the seed changes nothing, as there are no inputs.
enumerate ``mis`` and ``mibs`` on seeded small graphs and on fixed large
          unions relabeled by the seed.  The enumerators do nearly all of
          the work, on large outputs; nothing is labeled.
pipeline  ``pipeline`` on cubic, large cubic, irregular and diamond-union
          instances: the same stages under opposite mixes (MIS enumeration
          on large cubic graphs, the transversal census on diamonds, early
          refusals on irregular graphs).
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

import oracle as O

WORKLOADS = ("classgen", "enumerate", "pipeline")

SMALL_GRAPHS = 120  # connected, 8..20 vertices, one `mis` command each
SMALL_DENSITIES = (0.05, 0.1, 0.2, 0.3, 0.45)
UNIONS = 10  # disjoint unions of up to 60 vertices
UNION_MIS_BAND = (72_000, 80_000)
MIBS_INPUTS = 10  # disjoint unions of 16..28 vertices
MIBS_PAIR_BAND = (24_000, 27_000)
CUBIC_ORDERS = (8, 10, 12, 14, 16, 18, 20)
ACCEPTANCE_SEED0 = 7000  # the 100-instance acceptance corpus of the test suite
IRREGULAR = 200
LARGE_CUBIC_ORDERS = (32, 36, 40, 44)
DIAMOND_CELLS = (8, 9, 10)


# Commands of a few milliseconds, timed several times per repetition.
SHORT_KINDS = ("small", "cubic", "irregular")


@dataclass
class Item:
    """One command of a repetition: argv before the input path, and the input."""

    kind: str
    command: list[str]
    graph: tuple | None = None
    parts: list = field(default_factory=list)  # components, for union oracles

    def argv(self, path: str | None) -> list[str]:
        return self.command + ([path] if path is not None else [])


def build(workload: str, seed: int) -> list[Item]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "classgen":
        return [
            Item("verify", ["verify-theorem2", "--max-n", "7", "--workers", "1"]),
            Item("search", ["search", "-n", "8", "--filter", "maxdeg3", "--workers", "1"]),
        ]
    if workload == "enumerate":
        return _enumerate_items(rng)
    if workload == "pipeline":
        return _pipeline_items(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _shuffled(graph, rng: random.Random):
    perm = list(range(graph[0]))
    rng.shuffle(perm)
    return O.relabel(graph, perm)


def _banded_union(rng, sizes, densities, max_n, min_n, band, measure):
    """Components drawn until ``measure`` of their union falls in ``band``.

    The measure is a product over components; a draw that would overshoot
    the band or the order cap is dropped, and a union stuck below the band
    starts over.
    """
    parts, value, n, misses = [], 1, 0, 0
    while not (band[0] <= value and min_n <= n):
        part = O.connected_graph(rng.randint(*sizes), rng.choice(densities), rng)
        factor = measure(part)
        if value * factor <= band[1] and n + part[0] <= max_n:
            parts.append(part)
            value *= factor
            n += part[0]
        elif (misses := misses + 1) > 20:
            parts, value, n, misses = [], 1, 0, 0
    return parts


def _enumerate_items(rng: random.Random) -> list[Item]:
    items = []
    for i in range(SMALL_GRAPHS):
        n = 8 + i % 13
        p = SMALL_DENSITIES[i // 13 % len(SMALL_DENSITIES)]
        items.append(Item("small", ["mis"], O.connected_graph(n, p, rng)))
    # The large inputs are drawn once, the same for every seed, and relabeled
    # by the seed: their cost per answer varies with their structure, and
    # they are most of the work.
    fixed = random.Random("enumerate:large")
    for _ in range(UNIONS):
        parts = _banded_union(
            fixed, (3, 12), (0.15, 0.3, 0.5), 60, 1, UNION_MIS_BAND,
            lambda g: sum(O.mis_profile(g)),
        )
        items.append(Item("union", ["mis"], _shuffled(O.disjoint_union(parts), rng), parts))
    for _ in range(MIBS_INPUTS):
        parts = _banded_union(
            fixed, (3, 7), (0.2, 0.4, 0.6), 28, 16, MIBS_PAIR_BAND,
            lambda g: len(O.mis_pairs(g)),
        )
        items.append(Item("mibs", ["mibs"], _shuffled(O.disjoint_union(parts), rng), parts))
    return items


def _irregular(n: int, rng: random.Random):
    """A cubic K4-free graph with about a tenth of its edges deleted."""
    edges = O.edges_of(O.cubic_k4free(n, rng.randrange(1 << 30)))
    for _ in range(max(1, round(len(edges) / 10))):
        edges.pop(rng.randrange(len(edges)))
    return O.from_edges(n, edges)


def _pipeline_items(rng: random.Random) -> list[Item]:
    items = [
        Item("cubic", ["pipeline"], O.cubic_k4free(CUBIC_ORDERS[i % 7], ACCEPTANCE_SEED0 + i))
        for i in range(100)
    ]
    items += [
        Item("irregular", ["pipeline"], _irregular(CUBIC_ORDERS[i % 7], rng))
        for i in range(IRREGULAR)
    ]
    # Fixed large graphs, relabeled by the seed: the largest sets the peak
    # memory, which would otherwise move with its MIS count.
    items += [
        Item("large", ["pipeline"], _shuffled(O.cubic_k4free(n, ACCEPTANCE_SEED0 + n), rng))
        for n in LARGE_CUBIC_ORDERS
    ]
    items += [
        Item("diamond", ["pipeline"], _shuffled(O.diamond_union(t), rng))
        for t in DIAMOND_CELLS
    ]
    return items


def expect(item: Item):
    """The oracle's answer for one command (None where only invariants are checked)."""
    if item.kind == "small":
        return O.mis_profile(item.graph)
    if item.kind == "union":
        return O.profile_product([O.mis_profile(p) for p in item.parts])
    if item.kind == "mibs":
        return O.union_mibs_counts(item.parts)
    if item.kind in ("cubic", "irregular"):
        return O.mis_profile(item.graph)
    return None


# The documented refusals (exit 1) that these inputs can legitimately meet:
# they are K4-free with maximum degree <= 3 and the program picks the root
# set, so only a CellConflictError on an irregular instance qualifies; a
# DecompositionError or GuardError here is a wrong answer.
CELL_CONFLICT = re.compile(
    r"error: cell neighbor (\d+) of center (\d+) also touches root vertex (\d+)"
    r"|error: cell of center \d+ overlaps an earlier cell"
)


class Wrong(Exception):
    """A command's answer disagrees with the oracle."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise Wrong(what)


def check(item: Item, expected, rc, out: str, err: str) -> str:
    """'ok', 'refused' (a documented precondition), or 'error: <reason>'."""
    if rc != 0:
        return _check_refusal(item, rc, err)
    try:
        report = json.loads(out)
        CHECKS[item.kind](item, expected, report)
    except Wrong as exc:
        return f"error: {item.kind}: {exc}"
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"error: {item.kind}: malformed output ({type(exc).__name__}: {exc})"
    return "ok"


def _check_refusal(item: Item, rc, err: str) -> str:
    first = err.strip().splitlines()[0] if err.strip() else "no message"
    match = CELL_CONFLICT.fullmatch(first)
    if rc != 1 or item.kind != "irregular" or not match:
        return f"error: {item.kind}: exit {rc}: {first}"
    if match.group(1) is not None:
        w, u, r = map(int, match.groups())
        adj = item.graph[1]
        if not (adj[w] >> u & 1 and adj[w] >> r & 1):
            return f"error: {item.kind}: conflict witness {w}-{u}/{r} is not in the graph"
    return "refused"


def _check_mis(item, expected, report) -> None:
    _require(report["profile"] == expected, f"profile {report['profile']} != {expected}")
    _require(report["mis"] == sum(expected), f"mis {report['mis']} != {sum(expected)}")


def _check_mibs(item, expected, report) -> None:
    for key, out_key in (("mibs", "mibs"), ("ordered_pairs", "ordered_pairs"), ("nonmaximal_pairs", "nonmaximal_pairs")):
        _require(report[out_key] == expected[key], f"{out_key} {report[out_key]} != {expected[key]}")


def _check_pipeline(item, expected, report) -> None:
    n, adj = item.graph
    _require(report["violations"] == [], f"violations {report['violations']}")
    _require(report["capture"]["holds"] is True, "capture does not hold")
    _require(all(rec["holds"] for rec in report["inequalities"]), "an inequality fails")
    _require(report["n"] == n, f"order {report['n']} != {n}")
    root = sum(1 << v for v in report["root_set"])
    _require(O.is_maximal_independent(item.graph, root), "root set is not a maximal independent set")
    k = len(report["root_set"])
    census = report["census"]
    _require(census["total"] == 4 ** len(report["selection"]["I4"]), "census total != 4^|I4|")
    _require(0 <= census["good"] <= census["total"], "good transversals out of range")
    captured = sum(row["family_size"] for row in report["capture"]["families"])
    if expected is not None:
        # A minimum maximal independent set, and every MIS of its size captured.
        smallest = min(size for size, count in enumerate(expected) if count)
        _require(k == smallest, f"root size {k} != minimum {smallest}")
        _require(captured == expected[k], f"captured {captured} != mis_{k} {expected[k]}")
    if item.kind == "diamond":
        t = n // 4
        _require(k == t, f"root size {k} != {t}")
        _require(census["good"] == 2**t and census["total"] == 4**t, "diamond census != 2^t / 4^t")
        _require(Fraction(census["p_good"]) == Fraction(1, 2**t), "diamond p_good != 2^-t")
        _require(captured == 2**t, f"captured {captured} != 2^{t}")


def _check_verify(item, expected, report) -> None:
    _require(report["holds"] is True, "theorem 2 reported not to hold")
    rows = {(row["n"], row["k"]): row for row in report["rows"]}
    _require(sorted(rows) == [(n, k) for n in range(1, 8) for k in range(n + 1)], "rows do not cover n<=7")
    for (n, k), row in rows.items():
        bound = O.eppstein_bound(n, k)
        attainers = O.clique_union_attainers(n, k)
        _require(Fraction(row["bound"]) == bound, f"bound at n={n}, k={k}")
        _require(row["violations"] == [], f"violations at n={n}, k={k}")
        _require(row["attainers"] == attainers, f"attainers at n={n}, k={k}")
        _require(row["max_count"] <= bound, f"max_count above the bound at n={n}, k={k}")
        _require((row["max_count"] == bound) == bool(attainers), f"equality case at n={n}, k={k}")


def _check_search(item, expected, report) -> None:
    _require(report["class_count"] == O.MAXDEG3_CLASSES_8, f"class_count {report['class_count']} != 424")
    _require([row["k"] for row in report["rows"]] == list(range(9)), "rows do not cover k=0..8")
    for row in report["rows"]:
        k = row["k"]
        bound = O.eppstein_bound(8, k)
        _require(abs(row["ln_bound"] - _ln(bound)) <= 1e-9 * max(1.0, abs(_ln(bound))), f"ln_bound at k={k}")
        if row["argmax"] is None:
            _require(row["max_mis_k"] == 0, f"no argmax but max_mis_k at k={k}")
            continue
        g = O.from_graph6(row["argmax"])
        _require(g[0] == 8 and O.max_degree(g) <= 3, f"argmax at k={k} is not an order-8 maxdeg3 graph")
        _require(O.mis_profile(g)[k] == row["max_mis_k"], f"argmax count at k={k}")


def _ln(value: Fraction) -> float:
    return math.log(value.numerator) - math.log(value.denominator)


CHECKS = {
    "small": _check_mis,
    "union": _check_mis,
    "mibs": _check_mibs,
    "cubic": _check_pipeline,
    "irregular": _check_pipeline,
    "large": _check_pipeline,
    "diamond": _check_pipeline,
    "verify": _check_verify,
    "search": _check_search,
}


def check_class_counts(counts: list[int]) -> str:
    """Unfiltered class counts for orders 1..7 against A000088."""
    want = list(O.GRAPH_CLASSES[1:])
    return "ok" if counts == want else f"error: class counts {counts} != A000088 {want}"
