"""Self-test of the benchmark's oracles and tracing.

    python3 bench/test_oracles.py
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import unittest
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle as O  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))


def _cli(argv: list[str]) -> list:
    """One command through misbench.cli.main, as a repetition result row."""
    import misbench.cli

    out = StringIO()
    with redirect_stdout(out):
        rc = misbench.cli.main(argv)
    return [0.0, rc, out.getvalue(), "", 1, 0]


class OracleTest(unittest.TestCase):
    def setUp(self) -> None:
        self.dir = run.WORK / "selftest"
        self.dir.mkdir(parents=True, exist_ok=True)

    def tearDown(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _write(self, graph) -> str:
        path = self.dir / f"g{len(list(self.dir.iterdir()))}.g6"
        path.write_text(O.to_graph6(graph) + "\n", encoding="ascii")
        return str(path)

    def test_product_rule_matches_brute_force_on_unions(self) -> None:
        rng = random.Random(3)
        parts = [O.connected_graph(n, 0.3, rng) for n in (5, 7, 8)]
        union = O.relabel(O.disjoint_union(parts), rng.sample(range(20), 20))
        self.assertEqual(O.mis_profile(union), O.profile_product([O.mis_profile(p) for p in parts]))
        small = [O.connected_graph(n, 0.4, rng) for n in (4, 5, 5)]
        whole = O.mibs_counts(O.disjoint_union(small))
        expected = O.union_mibs_counts(small)
        self.assertEqual(whole["mibs"], expected["mibs"])
        self.assertEqual(whole["ordered_pairs"], expected["ordered_pairs"])
        self.assertEqual(whole["ordered_pairs"] - whole["maximal_pairs"], expected["nonmaximal_pairs"])

    def test_graph6_round_trip(self) -> None:
        graph = O.connected_graph(13, 0.3, random.Random(1))
        self.assertEqual(O.from_graph6(O.to_graph6(graph)), graph)

    def test_wrong_expected_count_is_an_error(self) -> None:
        graph = O.connected_graph(12, 0.2, random.Random(2))
        item = workloads.Item("small", ["mis"], graph)
        rep = {"results": [_cli(item.argv(self._write(graph)))]}
        right = O.mis_profile(graph)
        wrong = list(right)
        wrong[right.index(max(right))] += 1
        self.assertEqual(run.judge([item], [right], [rep])[1], 0)
        attempted, failed, _, reasons = run.judge([item], [wrong], [rep])
        self.assertEqual((attempted, failed), (1, 1))
        self.assertIn("profile", reasons[0])
        rep["results"][0][4:] = [5, 1]  # one of five runs printed something else
        self.assertEqual(run.judge([item], [right], [rep])[:2], (5, 5))

    def test_refusal_only_counts_where_documented(self) -> None:
        graph = O.cubic_k4free(8, 1)
        w = 0
        u, r = list(O.bits(graph[1][w]))[:2]
        err = f"error: cell neighbor {w} of center {u} also touches root vertex {r}\n"
        irregular = workloads.Item("irregular", ["pipeline"], graph)
        cubic = workloads.Item("cubic", ["pipeline"], graph)
        self.assertEqual(workloads.check(irregular, None, 1, "", err), "refused")
        self.assertTrue(workloads.check(cubic, None, 1, "", err).startswith("error"))
        self.assertTrue(workloads.check(irregular, None, 1, "", "error: other\n").startswith("error"))

    def test_metrics_match_benchmark_json(self) -> None:
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            self.assertEqual([(m["name"], m["unit"]) for m in spec[key]], list(table))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_speedometer_scales_by_the_loop_time(self) -> None:
        import speed

        meter = speed.Speedometer()
        meter.starts = [i * speed.PERIOD_S for i in range(200)]
        meter.loops = [2 * speed.REFERENCE_S] * 100 + [4 * speed.REFERENCE_S] * 100
        # Forty samples at half the reference speed fall inside [0.5, 1.5).
        own = 40 * 2 * speed.REFERENCE_S
        self.assertAlmostEqual(meter.scaled(0.5, 1.5), (1.0 - own) / 2)
        # A command between two samples takes the speed of the nearer one.
        self.assertAlmostEqual(meter.scaled(4.501, 4.502), 0.001 / 4)
        self.assertAlmostEqual(meter.slowdown(), 3.0)

    def test_speedometer_samples_while_running(self) -> None:
        import speed

        meter = speed.Speedometer()
        meter.start()
        start = perf_counter()
        while perf_counter() - start < 0.2:
            pass
        end = perf_counter()
        meter.stop()
        self.assertGreaterEqual(len(meter.starts), 4)
        self.assertGreater(meter.scaled(start, end), 0.0)

    def test_tracer_wraps_every_binding(self) -> None:
        import misbench.extremal
        import misbench.misenum
        from spans import Tracer

        original = misbench.misenum.enumerate_mis
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(misbench.extremal.enumerate_mis, original)
            self.assertIs(misbench.extremal.enumerate_mis, misbench.misenum.enumerate_mis)
            _cli(["mis", self._write(O.diamond_union(2))])
        finally:
            tracer.uninstall()
        self.assertIs(misbench.extremal.enumerate_mis, original)
        summary = tracer.summary()
        self.assertEqual(summary["cli.main"]["calls"], 1)
        self.assertEqual(summary["misenum.enumerate_mis"]["calls"], 1)
        self.assertEqual(tracer.counters["misenum.enumerate_mis.sets"], 9)
        root = tracer.names.index("cli.main")
        self.assertEqual(tracer.parent_col[0], -1)
        self.assertEqual(tracer.name_col[0], root)
        total = summary["cli.main"]["s"]
        self.assertAlmostEqual(sum(row["self_s"] for row in summary.values()), total, delta=1e-6)


if __name__ == "__main__":
    unittest.main()
