"""Command-line interface: output contracts, formats, and exit codes."""

import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import misbench
from misbench import bounds, cli, extremal, pipeline
from misbench.cli import CURVE_HEADER, _emit, build_parser, main
from misbench.corpus import diamond_union
from misbench.graphio import to_graph6
from misbench.graphs import Graph, from_edges
from misbench.mibs import MibsCounts

from fixtures import complete_graph, disjoint_union, empty_graph


COMMAND_NAMES = ("mis", "mibs", "bounds", "curves", "solve", "pipeline", "search", "verify-theorem2")


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def reference_json(payload) -> str:
    """Oracle of the report writer: the json module's text, one line break added."""
    return json.dumps(_round_floats(payload), sort_keys=True, indent=2) + "\n"


def emitted(payload) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        _emit(payload)
    return out.getvalue()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def run_module(*argv, stdin=b"", env=None):
    """``python -m misbench`` in a subprocess: bytes in, bytes out."""
    src = str(Path(misbench.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "misbench", *argv],
        input=stdin,
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src, **(env or {})},
        timeout=60,
    )


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.g6"
    path.write_text("C~\n")
    return str(path)


def clique_union(tmp_path, size, copies):
    g = empty_graph(0)
    for _ in range(copies):
        g = disjoint_union(g, complete_graph(size))
    path = tmp_path / f"{copies}k{size}.g6"
    path.write_text(to_graph6(g) + "\n")
    return str(path)


@pytest.fixture
def multi_file(tmp_path):
    path = tmp_path / "many.g6"
    path.write_text("C~\nBw\n")
    return str(path)


class TestMis:
    def test_k4_object_shape(self, capsys, k4_file):
        payload = run_json(capsys, "mis", k4_file)
        assert payload == {"mis": 4, "profile": [0, 4, 0, 0, 0]}

    def test_multiple_graphs_give_array(self, capsys, multi_file):
        payload = run_json(capsys, "mis", multi_file)
        assert isinstance(payload, list) and len(payload) == 2
        assert payload[1] == {"mis": 3, "profile": [0, 3, 0, 0]}

    def test_edge_list_input(self, capsys, tmp_path):
        path = tmp_path / "c5.edges"
        path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
        payload = run_json(capsys, "mis", str(path))
        assert payload["mis"] == 5

    def test_union_of_21_triangles(self, capsys, tmp_path):
        # 3^21 maximal independent sets, all of size 21: counted per
        # component, never listed.
        payload = run_json(capsys, "mis", clique_union(tmp_path, 3, 21))
        assert payload["mis"] == 3**21
        assert payload["profile"] == [0] * 21 + [3**21] + [0] * 42


class TestModuleEntryPoint:
    def test_python_dash_m_reads_stdin(self):
        # ``python -m misbench`` runs the console script's main().
        done = run_module("mis", "-", stdin=b"C~\n")
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == b'{\n  "mis": 4,\n  "profile": [\n    0,\n    4,\n    0,\n    0,\n    0\n  ]\n}\n'


class TestImportCost:
    """Every command first imports misbench.cli.  Generating the methods of
    a frozen dataclass costs about 0.45 ms of that import, against about
    0.05 ms for a NamedTuple (Python 3.11, six fields), so the result
    records are NamedTuples and Graph, whose constructor validates every
    graph, is the one dataclass."""

    RECORDS = {
        "bounds": ("ExactBound", "EpsDeltaWitness", "TwoSumReport", "TwoSumWitness"),
        "mibs": ("MibsCounts",),
        "pipeline": ("Decomposition", "Cell", "SelectionState", "TransversalStats"),
    }

    def test_graph_is_the_only_dataclass(self):
        names = [m.name for m in pkgutil.iter_modules(misbench.__path__) if m.name != "__main__"]
        modules = {name: importlib.import_module(f"misbench.{name}") for name in names}
        found = {
            obj
            for module in modules.values()
            for obj in vars(module).values()
            if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        }
        assert found == {Graph}
        for name, records in self.RECORDS.items():
            for record in records:
                assert issubclass(getattr(modules[name], record), tuple), record
        assert sum(map(len, self.RECORDS.values())) == 9
        # The enumeration returns a plain sorted list of masks, not a record.
        assert not hasattr(modules["misenum"], "MisFamily")
        assert not hasattr(modules["misenum"], "enumerate_mis")


class TestMibs:
    def test_k4(self, capsys, k4_file):
        payload = run_json(capsys, "mibs", k4_file)
        assert payload["mibs"] == 6
        assert payload["ordered_pairs"] == 12

    def test_union_of_16_k4(self, capsys, tmp_path):
        # Each K4 contributes one of its 6 edges, split in 2 orders; the
        # unordered witnesses all have |A| = |B| = 16.
        payload = run_json(capsys, "mibs", clique_union(tmp_path, 4, 16))
        assert payload == {
            "mibs": 6**16,
            "ordered_pairs": 12**16,
            "nonmaximal_pairs": 0,
            "a_size_histogram": [{"a_size": 16, "records": 12**16 // 2}],
        }

    def test_order_zero(self, capsys, tmp_path):
        path = tmp_path / "k0.g6"
        path.write_text("?\n")
        payload = run_json(capsys, "mibs", str(path))
        assert payload == {
            "mibs": 1,
            "ordered_pairs": 1,
            "nonmaximal_pairs": 0,
            "a_size_histogram": [{"a_size": 0, "records": 1}],
        }


class TestBounds:
    def test_keys_and_values(self, capsys):
        payload = run_json(capsys, "bounds", "12", "3", "--eta", "0.4")
        assert payload["eppstein"]["exact"] == "64"
        assert payload["nielsen"]["exact"] == "64"
        assert payload["moon_moser"]["exact"] == "81"
        assert payload["interpolated"]["exact"] is None
        assert 62 < payload["interpolated"]["value"] < 64
        assert payload["induction_residual"] < 1e-10

    def test_float_rendering_is_12_significant_digits(self, capsys):
        payload = run_json(capsys, "bounds", "10", "3", "--eta", "0.5")
        ln = payload["interpolated"]["ln"]
        assert ln == float(f"{3.632631691345650948222:.12g}")

    @pytest.mark.parametrize("n, k", [(1938, 1), (1939, 1), (3745, 936)])
    def test_value_past_float_range_is_null(self, capsys, n, k):
        # 3^{n/3} passes the largest float between n = 1938 and 1939;
        # ln and the exact value are printed either way.
        payload = run_json(capsys, "bounds", str(n), str(k))
        ln_max = math.log(sys.float_info.max)
        for name in ("moon_moser", "eppstein", "nielsen", "interpolated"):
            entry = payload[name]
            assert (entry["value"] is None) == (entry["ln"] > ln_max)
        assert (payload["moon_moser"]["value"] is None) == (n > 1938)
        assert payload["moon_moser"]["exact"] == (str(3 ** (n // 3)) if n % 3 == 0 else None)
        assert payload["eppstein"]["exact"] == str(Fraction(3) ** (4 * k - n) * 4 ** (n - 3 * k))

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_exact_within_the_interpreter_digit_limit(self):
        # Under a 640-digit limit, 4^5997 / 3^5996 and the other exact values
        # at (6000, 1) cannot be printed, so they are null, not an error.
        done = run_module("bounds", "6000", "1", env={"PYTHONINTMAXSTRDIGITS": "640"})
        assert (done.returncode, done.stderr) == (0, b"")
        payload = json.loads(done.stdout)
        for name in ("moon_moser", "eppstein", "nielsen", "interpolated"):
            assert payload[name]["exact"] is None

    @pytest.mark.parametrize("n, k", [(7000, 1), (3100, 3100), (10**9, 1)])
    def test_exact_past_digit_cap_is_null(self, capsys, n, k):
        # A numerator or denominator above 4,300 digits, which str() of an
        # int refuses, is decided from the exponents and never built.  At
        # (7000, 1) only the eppstein value fits: 4^6997 / 3^6996.
        start = time.perf_counter()
        payload = run_json(capsys, "bounds", str(n), str(k))
        assert time.perf_counter() - start < 1.0
        expected = str(Fraction(3) ** (4 * k - n) * 4 ** (n - 3 * k)) if n == 7000 else None
        assert payload["eppstein"]["exact"] == expected
        for name in ("moon_moser", "nielsen", "interpolated"):
            assert payload[name]["exact"] is None
            assert math.isfinite(payload[name]["ln"])


class TestCurves:
    def test_header_and_shape(self, capsys):
        code, out, err = run(capsys, "curves", "--eta", "0.4", "--points", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,eppstein,nielsen,interp,corollary1_eta"
        assert all(len(line.split(",")) == 5 for line in lines[1:])
        # Reference abscissas are merged into the grid.
        xs = [float(line.split(",")[0]) for line in lines[1:]]
        for anchor in (0.2, 0.25, 0.333):
            assert any(abs(x - anchor) < 1e-9 for x in xs)

    def test_points_past_cap_exit_three(self, capsys):
        cap = bounds.CURVE_POINTS_CAP
        code, out, err = run(capsys, "curves", "--points", str(cap + 1))
        assert (code, out) == (3, "")
        assert err == f"error: curves capped at {cap} grid points, got {cap + 1}\n"

    @pytest.mark.parametrize("eta", ["2", "-3", "nan"])
    def test_eta_outside_unit_interval_exits_one(self, capsys, eta):
        code, out, err = run(capsys, "curves", "--eta", eta)
        assert (code, out) == (1, "")
        assert err == f"error: eta must lie in [0, 1], got {float(eta)}\n"

    def test_closed_stdout_closes_the_null_device(self, monkeypatch, tmp_path, k4_file):
        # stdout goes to the null device through the descriptor opened for
        # it, which is closed once duplicated.
        opened, closed = [], []
        real_open, real_close = os.open, os.close

        def record_open(*args):
            opened.append(real_open(*args))
            return opened[-1]

        def record_close(fd):
            closed.append(fd)
            real_close(fd)

        def closed_pipe(payload):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "_emit", closed_pipe)
        with open(tmp_path / "stdout", "w") as out:
            monkeypatch.setattr(sys, "stdout", out)
            monkeypatch.setattr(os, "open", record_open)
            monkeypatch.setattr(os, "close", record_close)
            code = main(["mis", k4_file])
            monkeypatch.undo()
        assert code == 141
        assert len(opened) == 1 and closed == opened

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # The reader takes one line and closes the pipe, as ``| head -1``
        # does; the rest of the 1.4 MB cannot sit in the pipe's buffer.
        src = str(Path(misbench.__file__).resolve().parent.parent)
        with open(tmp_path / "stderr", "w+b") as err:
            child = subprocess.Popen(
                [sys.executable, "-m", "misbench", "curves", "--points", "20000"],
                stdout=subprocess.PIPE,
                stderr=err,
                env={**os.environ, "PYTHONPATH": src},
            )
            first = child.stdout.readline()
            child.stdout.close()
            code = child.wait(timeout=60)
            err.seek(0)
            assert (first, err.read(), code) == (CURVE_HEADER.encode() + b"\n", b"", 141)


class TestSolve:
    def test_eps_delta(self, capsys):
        payload = run_json(capsys, "solve", "--margin", "0.001")
        assert payload["delta_star"] > 0
        assert payload["eps_star"] > 0

    def test_impossible_margin_exits_one(self, capsys):
        code, _, err = run(capsys, "solve", "--margin", "0.5")
        assert code == 1 and "margin" in err

    @pytest.mark.parametrize("margin", ["nan", "inf", "-inf"])
    def test_non_finite_margin_exits_one(self, capsys, margin):
        code, out, err = run(capsys, "solve", f"--margin={margin}")
        assert (code, out, err) == (1, "", f"error: margin must be finite, got {float(margin)}\n")

    @pytest.mark.parametrize("margin", ["-1", "-1e-09"])
    def test_negative_margin_exits_one(self, capsys, margin):
        code, out, err = run(capsys, "solve", f"--margin={margin}")
        assert (code, out, err) == (1, "", f"error: margin must be nonnegative, got {float(margin)}\n")

    def test_negative_zero_margin_is_margin_zero(self, capsys):
        assert run_json(capsys, "solve", "--margin=-0.0") == run_json(capsys, "solve", "--margin=0")

    def test_two_sum_witness(self, capsys):
        payload = run_json(capsys, "solve", "--two-sum-eta", "0.4")
        assert payload["both_below_target"] is True
        assert payload["ln_sum1"] < payload["ln_target"]
        assert payload["ln_sum2"] < payload["ln_target"]

    def test_two_sum_search_cap_exits_three(self, capsys):
        # Near eta = 0 the witness order passes TWO_SUM_N_CAP: a resource
        # guard, as the other caps are.
        code, out, err = run(capsys, "solve", "--two-sum-eta", "1e-6")
        assert (code, out) == (3, "")
        assert err == f"error: no witness n found below {bounds.TWO_SUM_N_CAP}\n"


class TestPipeline:
    def test_diamond_default_root(self, capsys, tmp_path):
        path = tmp_path / "d.edges"
        path.write_text("4 5\n0 1\n0 2\n0 3\n1 3\n2 3\n")
        payload = run_json(capsys, "pipeline", str(path))
        assert payload["violations"] == []
        assert payload["census"]["p_good"] == "1/2"

    def test_explicit_root_and_selection(self, capsys, tmp_path):
        path = tmp_path / "dd.edges"
        edges = [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (4, 5), (4, 6), (4, 7), (5, 7), (6, 7)]
        path.write_text("8 10\n" + "\n".join(f"{u} {v}" for u, v in edges) + "\n")
        payload = run_json(capsys, "pipeline", str(path), "--i0", "0,4", "--s", "0")
        assert payload["selection"]["S"] == [0]
        assert payload["selection"]["I4"] == [1]

    def test_bad_root_exits_one(self, capsys, tmp_path):
        path = tmp_path / "d.edges"
        path.write_text("4 5\n0 1\n0 2\n0 3\n1 3\n2 3\n")
        code, _, err = run(capsys, "pipeline", str(path), "--i0", "1")
        assert code == 1 and "maximal" in err

    def test_root_vertex_outside_graph_exits_one(self, capsys, tmp_path):
        path = tmp_path / "p8.edges"
        path.write_text("8 7\n" + "".join(f"{v} {v + 1}\n" for v in range(7)))
        code, out, err = run(capsys, "pipeline", str(path), "--i0", "0,99")
        assert (code, out) == (1, "")
        assert err == "error: root set vertex 99 is not a vertex of the 8-vertex graph\n"

    def test_huge_root_vertex_exits_one_without_a_mask(self, capsys, tmp_path):
        # A mask with bit 10^11 set would take about 12.5 GB.
        path = tmp_path / "c4.edges"
        path.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "pipeline", str(path), "--i0", "0,100000000000")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == "error: root set vertex 100000000000 is not a vertex of the 4-vertex graph\n"

    def test_selection_on_a_root_set_without_cells_exits_one(self, capsys, tmp_path):
        # random_cubic_k4free(10, 7010): its minimum root set has no cells.
        path = tmp_path / "cubic.g6"
        path.write_text("IaA@lPgF?\n")
        code, out, err = run(capsys, "pipeline", str(path), "--s", "99")
        assert (code, out) == (1, "")
        assert err == "error: selection [99] refused: the root set has no cells\n"

    def test_negative_root_vertex_is_a_format_error(self, capsys, tmp_path):
        path = tmp_path / "p8.edges"
        path.write_text("8 7\n" + "".join(f"{v} {v + 1}\n" for v in range(7)))
        code, out, err = run(capsys, "pipeline", str(path), "--i0", "-1")
        assert (code, out, err) == (2, "", "error: expected nonnegative integers, got '-1'\n")

    @pytest.mark.parametrize("i0", ["", " , "], ids=["empty", "separators-only"])
    def test_empty_root_set_is_not_maximal(self, capsys, tmp_path, i0):
        # A root list with no vertex parses to the empty set, which no
        # graph with a vertex has as a maximal independent set.
        path = tmp_path / "triangle.g6"
        path.write_text("Bw\n")
        code, out, err = run(capsys, "pipeline", str(path), "--i0", i0)
        assert (code, out, err) == (1, "", "error: root set [] is not a maximal independent set\n")

    @pytest.mark.parametrize(
        "graph, i0, message",
        [
            ("C~", "99", "4-clique on vertices [0, 1, 2, 3]"),
            ("5 4\n0 1\n0 2\n0 3\n0 4", "99", "vertex 0 has degree 4 > 3"),
            ("9 10\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n4 5\n4 6\n4 7\n4 8", "0", "vertex 4 has degree 4 > 3"),
            ("3 2\n0 1\n1 2", "0,99", "root set vertex 99 is not a vertex of the 3-vertex graph"),
        ],
        ids=["clique-before-outside", "degree-before-outside", "degree-before-clique", "outside-before-maximal"],
    )
    def test_precondition_order(self, capsys, tmp_path, graph, i0, message):
        # Degree, then 4-clique, then a root vertex outside the graph, then
        # maximality: an input failing two checks names the earlier one.
        # The {0, 99} root on a path fails both of the last two.
        path = tmp_path / "g.txt"
        path.write_text(graph + "\n")
        assert run(capsys, "pipeline", "--i0", i0, str(path)) == (1, "", f"error: {message}\n")

    def test_precondition_refused_before_any_search(self, capsys, tmp_path, monkeypatch):
        # 12 disjoint triangles (3^12 maximal independent sets) and a claw
        # K_{1,4} centered at vertex 36: the degree check refuses it before
        # any set is listed.
        triangles = empty_graph(0)
        for _ in range(12):
            triangles = disjoint_union(triangles, complete_graph(3))
        g = disjoint_union(triangles, from_edges(5, [(0, i) for i in range(1, 5)]))
        path = tmp_path / "star.g6"
        path.write_text(to_graph6(g) + "\n")

        def no_search(*args):
            raise AssertionError("searched before the precondition checks")

        monkeypatch.setattr(pipeline, "mis_of_size", no_search)
        start = time.perf_counter()
        code, out, err = run(capsys, "pipeline", str(path))
        assert (code, out, err) == (1, "", "error: vertex 36 has degree 4 > 3\n")
        assert time.perf_counter() - start < 1.0

    def test_root_size_guard_is_three(self, capsys, tmp_path):
        # 21 disjoint triangles: 3^21 minimum maximal independent sets.
        # The search stops at its set budget instead of filling memory.
        start = time.perf_counter()
        code, out, err = run(capsys, "pipeline", clique_union(tmp_path, 3, 21))
        assert code == 3 and out == ""
        assert "maximal independent sets of size 21" in err
        assert time.perf_counter() - start < 30

    def test_violation_exits_one(self, capsys, tmp_path, monkeypatch):
        # One failed layer inequality on the second graph: that report
        # lists it, and the command exits 1.
        real = pipeline.decomposition_inequalities
        calls = []

        def fail_second_graph(dec, sizes):
            recs = real(dec, sizes)
            calls.append(dec)
            if len(calls) == 2:
                recs[-1] = {**recs[-1], "holds": False}
            return recs

        monkeypatch.setattr(pipeline, "decomposition_inequalities", fail_second_graph)
        path = tmp_path / "two.g6"
        path.write_text("Cv\nCv\n")  # the diamond, twice
        code, out, _ = run(capsys, "pipeline", str(path))
        reports = json.loads(out)
        assert code == 1
        assert [r["violations"] for r in reports] == [[], ["ell_lower"]]

    def test_capture_violation_exits_one(self, capsys, tmp_path, monkeypatch):
        # A doctored root-size set on the two-diamond union (cells {0..3}
        # and {4..7}): {0, 1} meets cell 0 twice and misses cell 1, so its
        # family fails the capture check.
        real = pipeline.mis_of_size
        monkeypatch.setattr(pipeline, "mis_of_size", lambda g, k: (k, [*real(g, k)[1], 0b11]))
        path = tmp_path / "diamonds.g6"
        path.write_text(to_graph6(diamond_union(2)) + "\n")
        code, out, _ = run(capsys, "pipeline", "--i0", "0,4", str(path))
        assert code == 1
        assert json.loads(out)["violations"] == ["is_capture"]


class TestSearch:
    def test_scan_and_class_persistence(self, capsys, tmp_path):
        saved = tmp_path / "n4.g6"
        payload = run_json(
            capsys, "search", "-n", "4", "--filter", "k4free", "--save-classes", str(saved)
        )
        assert payload["class_count"] == 10
        assert saved.read_text().count("\n") == 10

        reloaded = run_json(
            capsys, "search", "-n", "4", "--filter", "k4free", "--classes", str(saved)
        )
        assert reloaded["rows"] == payload["rows"]

    @pytest.mark.parametrize("filter_name", sorted(extremal.FILTERS))
    def test_saved_classes_reload_to_the_same_report(self, capsys, tmp_path, filter_name):
        saved = tmp_path / "n6.g6"
        argv = ("search", "-n", "6", "--filter", filter_name)
        generated = run(capsys, *argv, "--save-classes", str(saved))
        assert generated[0] == 0
        assert run(capsys, *argv, "--classes", str(saved)) == generated

    def test_empty_class_list_is_two(self, capsys, tmp_path):
        # A class list is a graph input: it must hold at least one graph.
        empty = tmp_path / "empty.g6"
        empty.write_text("")
        code, out, err = run(capsys, "search", "-n", "4", "--classes", str(empty))
        assert (code, out, err) == (2, "", "error: no graphs in input\n")
        done = run_module("search", "-n", "4", "--classes", "-", stdin=b"")
        assert (done.returncode, done.stdout, done.stderr) == (2, b"", b"error: no graphs in input\n")

    def test_header_line_is_skipped(self, capsys, tmp_path):
        plain = tmp_path / "plain.g6"
        plain.write_text("CF\nC~\n")
        headed = tmp_path / "headed.g6"
        headed.write_text(">>graph6<<\nCF\nC~\n")
        expected = run(capsys, "search", "-n", "4", "--classes", str(plain))
        assert expected[0] == 0
        assert run(capsys, "search", "-n", "4", "--classes", str(headed)) == expected

    def test_edge_list_is_a_one_class_list(self, capsys, tmp_path):
        path = tmp_path / "p2.edges"
        path.write_text("4 1\n0 1\n")
        payload = run_json(capsys, "search", "-n", "4", "--classes", str(path))
        assert payload["class_count"] == 1
        code, out, err = run(capsys, "search", "-n", "5", "--classes", str(path))
        message = f"error: class list {path} contains graphs of order != 5\n"
        assert (code, out, err) == (2, "", message)

    def test_worker_pool_prints_serial_output(self, capsys, monkeypatch):
        serial = run(capsys, "search", "-n", "7", "--workers", "1")
        monkeypatch.setattr(extremal, "_class_cache", {})
        assert run(capsys, "search", "-n", "7", "--workers", "2") == serial

    def test_negative_order_exits_one(self, capsys):
        code, out, err = run(capsys, "search", "-n", "-1")
        assert (code, out, err) == (1, "", "error: order must be nonnegative, got -1\n")

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_one(self, capsys, tmp_path, workers):
        # Refused before any work: when the order's classes are already
        # cached, when they are loaded from a file, and when no order
        # needs generating at all.
        run(capsys, "search", "-n", "4")
        k4 = tmp_path / "k4.g6"
        k4.write_text("C~\n", encoding="ascii")
        for argv in (
            ("search", "-n", "4"),
            ("search", "-n", "4", "--classes", str(k4)),
            ("verify-theorem2", "--max-n", "0"),
        ):
            code, out, err = run(capsys, *argv, "--workers", workers)
            message = f"error: workers must be at least 1, got {workers}\n"
            assert (code, out, err) == (1, "", message)

    def test_one_worker_with_class_list_is_scanned(self, capsys, tmp_path):
        k4 = tmp_path / "k4.g6"
        k4.write_text("C~\n", encoding="ascii")
        assert run_json(capsys, "search", "-n", "4", "--classes", str(k4), "--workers", "1")["class_count"] == 1

    def test_class_order_mismatch(self, capsys, tmp_path):
        saved = tmp_path / "n4.g6"
        run_json(capsys, "search", "-n", "4", "--save-classes", str(saved))
        code, _, err = run(capsys, "search", "-n", "5", "--classes", str(saved))
        assert code == 2

    @pytest.mark.parametrize(
        "n, filter_name, listed, refused",
        [
            ("4", "k4free", "C~\nCF\n", "C~"),
            ("4", "both", "CF\nC~\n", "C~"),
            # K_{1,4} (Ds_) has degree 4 and no K4; K5 (D~{) has both.
            ("5", "maxdeg3", "Ds_\nD~{\n", "Ds_"),
            ("5", "both", "Ds_\n", "Ds_"),
            ("5", "k4free", "Ds_\nD~{\n", "D~{"),
        ],
    )
    def test_class_outside_the_filter_is_two(self, capsys, tmp_path, n, filter_name, listed, refused):
        # A class list is checked against --filter as a whole; the first
        # class outside it is named.
        path = tmp_path / "classes.g6"
        path.write_text(listed, encoding="ascii")
        code, out, err = run(capsys, "search", "-n", n, "--filter", filter_name, "--classes", str(path))
        message = f"error: class list {path} holds {refused}, outside filter {filter_name}\n"
        assert (code, out, err) == (2, "", message)

    def test_class_list_inside_the_filter_is_scanned(self, capsys, tmp_path):
        # K4 minus an edge, a 4-cycle and the empty graph pass every filter.
        path = tmp_path / "classes.g6"
        path.write_text("Cz\nCr\nC?\n", encoding="ascii")
        payload = run_json(capsys, "search", "-n", "4", "--filter", "both", "--classes", str(path))
        assert (payload["filter"], payload["class_count"]) == ("both", 3)
        # The same list with K4 added passes only the filters without K4-freeness.
        path.write_text("Cz\nCr\nC?\nC~\n", encoding="ascii")
        for filter_name in ("none", "maxdeg3"):
            argv = ("search", "-n", "4", "--filter", filter_name, "--classes", str(path))
            assert run_json(capsys, *argv)["class_count"] == 4

    def test_non_ascii_class_list_is_two(self, capsys, tmp_path):
        # The class list is read as the graph inputs are: bytes, then ASCII.
        saved = tmp_path / "classes.g6"
        saved.write_bytes(b"C\xc3\xa9\n")
        code, out, err = run(capsys, "search", "-n", "4", "--classes", str(saved))
        assert (code, out, err) == (2, "", "error: byte 0xc3 at offset 1 is not ASCII\n")


class TestVerifyTheorem2:
    def test_small_orders(self, capsys):
        payload = run_json(capsys, "verify-theorem2", "--max-n", "4")
        assert payload["holds"] is True
        assert all(row["violations"] == [] for row in payload["rows"])

    def test_order_seven_digest(self, capsys):
        # The report holds only ints, rationals and graph6, so its bytes
        # do not depend on the platform.
        code, out, err = run(capsys, "verify-theorem2", "--max-n", "7")
        assert (code, err) == (0, "")
        digest = hashlib.sha256(out.encode("ascii")).hexdigest()
        assert digest == "b7af9e331c4f0a1177fdcaca504e5ac61c449d93c836ab4011f30a70511464f6"


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (("verify-theorem2", "--max-n", "9"), 3, "exhaustive generation capped at 8 vertices"),
            (("verify-theorem2", "--max-n", "-3"), 1, "order must be nonnegative, got -3"),
            (
                ("search", "-n", "8", "--selector", "corollary1", "--eta", "1.5"),
                1,
                "eta must lie in [0, 1], got 1.5",
            ),
            (
                ("search", "-n", "8", "--selector", "eppstein", "--eta", "1.5"),
                1,
                "eta must lie in [0, 1], got 1.5",
            ),
            # Options the command would ignore: the class list (a file that
            # does not exist) is never opened, and no witness is searched.
            (
                ("search", "-n", "4", "--classes", "missing.g6", "--workers", "2"),
                2,
                "--workers has no effect with --classes: a loaded class list is not generated",
            ),
            (("solve", "--margin", "0", "--two-sum-eta", "0.4"), 2, "--margin has no effect with --two-sum-eta"),
        ],
    )
    def test_option_values_refused_before_generation(self, capsys, monkeypatch, argv, code, err):
        def no_work(*args):
            raise AssertionError("generated classes or searched for a witness")

        monkeypatch.setattr(extremal, "generate_all", no_work)
        monkeypatch.setattr(bounds, "find_two_sum_witness", no_work)
        start = time.perf_counter()
        assert run(capsys, *argv) == (code, "", f"error: {err}\n")
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize(
        "argv, graph, code, err",
        [
            (("bounds", "-1", "0"), None, 1, "order must be nonnegative"),
            (("solve", "--two-sum-eta", "0"), None, 1, "eta must lie strictly inside (0, 1), got 0.0"),
            (("solve", "--two-sum-eta", "1"), None, 1, "eta must lie strictly inside (0, 1), got 1.0"),
            (("curves", "--points", "1"), None, 1, "need at least 2 grid points"),
            (("pipeline", "--i0", "a"), "Cv\n", 2, "expected comma-separated integers, got 'a'"),
            (("mis",), "-1 0\n", 2, "negative order or size"),
            (("mis",), "3 1\n0 1 2\n", 2, "edge line must be 'u v', got '0 1 2'"),
            (("mis",), "3 1\n0 x\n", 2, "non-integer edge line '0 x'"),
        ],
    )
    def test_input_refusals(self, capsys, tmp_path, argv, graph, code, err):
        if graph is not None:
            path = tmp_path / "input.txt"
            path.write_text(graph, encoding="ascii")
            argv = (*argv, str(path))
        assert run(capsys, *argv) == (code, "", f"error: {err}\n")

    def test_parse_error_is_two(self, capsys, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("this is not graph6 \x01\n")
        code, _, err = run(capsys, "mis", str(path))
        assert code == 2

    def test_guard_error_is_three(self, capsys, tmp_path):
        path = tmp_path / "big.edges"
        path.write_text("65 0\n")
        code, _, err = run(capsys, "mis", str(path))
        assert code == 3

    def test_unknown_subcommand_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        error = "misbench: error: argument command: invalid choice: 'frobnicate' (choose from {})\n"
        # Later Python 3.13 releases list the choices unquoted.
        assert captured.out == ""
        assert captured.err in {
            build_parser().format_usage() + error.format(", ".join(map(form, COMMAND_NAMES))) for form in (repr, str)
        }

    def test_empty_input_is_two(self, capsys, tmp_path):
        path = tmp_path / "empty.g6"
        path.write_text("")
        code, _, _ = run(capsys, "mis", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "data, err",
        [
            (b"C\xc3\xa9\n", b"error: byte 0xc3 at offset 1 is not ASCII\n"),
            (b"C~\n\xff\n", b"error: byte 0xff at offset 3 is not ASCII\n"),
        ],
    )
    def test_non_ascii_is_two_from_a_file_and_from_stdin(self, capsys, tmp_path, data, err):
        path = tmp_path / "input.g6"
        path.write_bytes(data)
        assert run(capsys, "mis", str(path)) == (2, "", err.decode())
        done = run_module("mis", "-", stdin=data)
        assert (done.returncode, done.stdout, done.stderr) == (2, b"", err)

    def test_crlf_lines_read_as_lf(self, capsys, tmp_path):
        path = tmp_path / "crlf.edges"
        path.write_bytes(b"3 3\r\n0 1\r\n1 2\r\n0 2\r\n")
        assert run_json(capsys, "mis", str(path)) == {"mis": 3, "profile": [0, 3, 0, 0]}


json_text = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from('[]{},":\\\x00\x1f\x7f\u2028\ud800\U0001f600'),
    ),
    max_size=8,
)
json_scalars = st.one_of(
    json_text,
    st.integers(),
    st.booleans(),
    st.none(),
    st.fractions(),
    st.floats(),
    st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 0.1 + 0.2, 1 / 3, 1e22, 5e-324)),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(json_text, inner, max_size=4),
    ),
    max_leaves=24,
)


class TestWriter:
    """The report writer prints what json.dumps printed for the rounded payload."""

    @settings(max_examples=150, deadline=None)
    @given(json_values)
    def test_matches_json_module(self, payload):
        assert emitted(payload) == reference_json(payload)

    def test_rounding_and_special_floats(self):
        payload = {"b": [0.1 + 0.2, -0.0, math.nan, math.inf, -math.inf], "a": (Fraction(-3, 7), 2**70)}
        assert emitted(payload) == reference_json(payload)
        assert '"a": [\n    "-3/7",\n    1180591620717411303424\n  ]' in emitted(payload)
        assert "0.3,\n    -0.0,\n    NaN,\n    Infinity,\n    -Infinity" in emitted(payload)

    def test_bools_ints_and_empty_containers(self):
        # True and False are not written as 1 and 0, and empty containers
        # close on their own line.  Each sits at every position a value can
        # take.
        payload = {
            "t": True,
            "f": False,
            "zero": 0,
            "one": 1,
            "empty_dict": {},
            "empty_list": [],
            "name": "n\u00e9",
            "list": [True, False, 0, 1, -2, {}, [], "s", {"d": {}, "l": []}],
            "nested": {"in": [[], {}, [{}], {"e": []}]},
        }
        text = emitted(payload)
        assert text == reference_json(payload)
        assert '"t": true' in text and '"f": false' in text
        assert '"zero": 0' in text and '"one": 1' in text
        assert "    true,\n    false,\n    0,\n    1,\n    -2,\n    {},\n    []," in text
        for top in ([True, 0], [3, {}], [[], [{}]], True, 1, "u"):
            assert emitted(top) == reference_json(top)

    def test_int_str_and_float_subclasses_are_type_errors(self):
        # The writer dispatches on the exact type; no report holds a
        # subclass, and one is refused wherever it sits.
        class Count(int):
            pass

        class Name(str):
            pass

        class Ratio(float):
            pass

        for value in (Count(7), Name("t"), Ratio(0.5)):
            for payload in (value, {"a": value}, [1, value]):
                with pytest.raises(TypeError, match=type(value).__name__):
                    emitted(payload)
        with pytest.raises(TypeError):
            emitted({Name("k"): 1})

    def test_non_string_key_is_a_type_error(self):
        with pytest.raises(TypeError):
            emitted({"a": {1: "b"}})

    def test_set_value_is_a_type_error(self):
        with pytest.raises(TypeError):
            emitted({"a": [1, {2, 3}]})

    @pytest.mark.parametrize("record", [MibsCounts(1, 1, 0, ((0, 1),)), bounds.solve_eps_delta(0.001)])
    def test_record_value_is_a_type_error(self, record):
        # A record is a tuple; written as one it would drop its field names.
        with pytest.raises(TypeError, match=type(record).__name__):
            emitted({"a": record})
        with pytest.raises(TypeError):
            emitted([record])


class TestOneParsePass:
    """main parses with the named command's parser alone, and hands help,
    unknown commands and leftover arguments to the whole parser: each argv
    gives the exit, stdout and stderr that parsing with the whole parser
    and running the command gives."""

    @staticmethod
    def outcome(capsys, call, argv):
        try:
            result = ("returned", call(argv))
        except SystemExit as exc:
            result = ("exited", exc.code)
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    @staticmethod
    def whole_parser(argv):
        args = build_parser().parse_args(argv)
        return args.func(args)

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["--help"],
            ["frobnicate"],
            *([command, "--help"] for command in COMMAND_NAMES),
            ["mis", "{k4}", "extra"],
            ["mis", "--bogus"],
            ["search", "-n", "x"],
            ["bounds", "12"],
            ["pipeline", "{k4}", "--i0"],
            # Exits 2 naming '--' as the command, or, where argparse drops
            # a leading '--' (later Python 3.13 releases), runs mis.
            ["--", "mis", "{k4}"],
            ["mis", "--", "{k4}"],
        ],
        ids=lambda argv: " ".join(argv) or "no arguments",
    )
    def test_same_outcome_as_the_whole_parser(self, capsys, k4_file, argv):
        argv = [arg.format(k4=k4_file) for arg in argv]
        assert self.outcome(capsys, main, argv) == self.outcome(capsys, self.whole_parser, argv)


class TestParserReuse:
    COMMANDS = (
        ("curves", "--points", "6", "--eta", "0.3"),
        ("bounds", "12", "3", "--eta", "0.5"),
        ("mibs",),
        ("mis",),
        ("curves", "--points", "6"),
        ("solve", "--margin", "0.001"),
        ("bounds", "12", "3"),
    )

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_consecutive_commands_match_fresh_parsers(self, capsys, k4_file):
        # Options and defaults of one command must not leak into the next.
        def argv(command):
            return [*command, k4_file] if command[0] in ("mis", "mibs") else list(command)

        reused = [run(capsys, *argv(c)) for c in self.COMMANDS]
        fresh = []
        for command in self.COMMANDS:
            build_parser.cache_clear()
            fresh.append(run(capsys, *argv(command)))
        assert reused == fresh

    def test_parse_errors_still_exit_two(self, capsys, k4_file):
        run_json(capsys, "mis", k4_file)
        # mis has no enumerator selector.
        for bad in (["mis", k4_file, "--method", "pivot"], ["bounds", "12"], ["frobnicate"]):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2
        assert run_json(capsys, "mis", k4_file) == {"mis": 4, "profile": [0, 4, 0, 0, 0]}
