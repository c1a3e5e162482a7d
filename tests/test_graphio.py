"""graph6 and edge-list round trips, format anchors, and input guards."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import misbench
from misbench.graphio import (
    FormatError,
    load_graphs,
    looks_like_edge_list,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from misbench.graphs import MAX_VERTICES, Graph, GuardError, from_edges

from fixtures import (
    complete_graph,
    cycle_graph,
    edge_count,
    empty_graph,
    path_graph,
    random_graph_strategy,
    to_edge_list,
)


class TestGraph6Anchors:
    """Fixed strings with independently known encodings."""

    def test_k1(self):
        g = parse_graph6("@")
        assert g.n == 1 and edge_count(g) == 0

    def test_order_zero(self):
        g = parse_graph6("?")
        assert g.n == 0

    def test_k3(self):
        g = parse_graph6("Bw")
        assert g.n == 3 and edge_count(g) == 3

    def test_p3(self):
        g = parse_graph6("Bg")
        # Path on 3 vertices: edges 0-1 and 1-2 under the column-major bit order.
        assert g.n == 3 and edge_count(g) == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 2) and not g.has_edge(0, 2)

    def test_header_stripped(self):
        g = parse_graph6(">>graph6<<Bw")
        assert g.n == 3 and edge_count(g) == 3

    def test_known_encodings(self):
        assert to_graph6(complete_graph(3)) == "Bw"
        assert to_graph6(empty_graph(1)) == "@"
        assert to_graph6(empty_graph(0)) == "?"


class TestGraph6Validation:
    def test_bad_alphabet(self):
        with pytest.raises(FormatError):
            parse_graph6("B w")

    def test_truncated_body(self):
        with pytest.raises(FormatError):
            parse_graph6("D")  # order 5 needs data bytes

    def test_trailing_garbage(self):
        with pytest.raises(FormatError):
            parse_graph6("Bww")

    def test_nonzero_padding(self):
        # K3 body uses 3 of 6 bits; force a padding bit on.
        with pytest.raises(FormatError):
            parse_graph6("Bx")

    def test_empty_string(self):
        with pytest.raises(FormatError):
            parse_graph6("")

    def test_extended_order_to_cap(self):
        g64 = empty_graph(64)
        s = to_graph6(g64)
        assert s.startswith("~")
        assert parse_graph6(s).n == 64

    def test_extended_order_above_cap(self):
        # order 65 in the 3-byte extended form; the guard fires before
        # the body-length check, so no data bytes are needed.
        with pytest.raises(GuardError):
            parse_graph6("~?@@")

    def test_eight_byte_order_guarded(self):
        with pytest.raises(GuardError):
            parse_graph6("~~?@?w")

    def test_truncated_extended_header(self):
        with pytest.raises(FormatError):
            parse_graph6("~?")


class TestEdgeList:
    def test_roundtrip(self):
        g = cycle_graph(5)
        assert parse_edge_list(to_edge_list(g)) == g

    def test_parse(self):
        g = parse_edge_list("3 2\n0 1\n1 2\n")
        assert g.n == 3 and edge_count(g) == 2

    def test_bad_header(self):
        with pytest.raises(FormatError):
            parse_edge_list("3\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(FormatError):
            parse_edge_list("3 2\n0 1\n")

    def test_loop_rejected(self):
        with pytest.raises(FormatError):
            parse_edge_list("3 1\n1 1\n")

    def test_out_of_range(self):
        with pytest.raises(FormatError):
            parse_edge_list("3 1\n0 3\n")

    def test_order_guard(self):
        with pytest.raises(GuardError):
            parse_edge_list("65 0\n")

    def test_vertex_zero_graph(self):
        g = parse_edge_list("0 0\n")
        assert g.n == 0


class TestLoadGraphs:
    def test_auto_sniffs_edges(self):
        assert looks_like_edge_list("4 1\n0 2\n")
        gs = load_graphs("4 1\n0 2\n")
        assert len(gs) == 1 and gs[0].n == 4

    def test_auto_sniffs_g6(self):
        gs = load_graphs("Bw\n@\n")
        assert [g.n for g in gs] == [3, 1]

    def test_explicit_format(self):
        # graph6's own header line, or the header glued to a graph.
        assert [g.n for g in load_graphs(">>graph6<<\nBw\n@\n")] == [3, 1]
        assert load_graphs(">>graph6<<Bw")[0].n == 3

    def test_signed_header_is_an_edge_list(self):
        # int() reads "+2", so the first line is an "n m" header.
        assert load_graphs("+2 1\n0 1") == [from_edges(2, [(0, 1)])]

    def test_two_fields_go_to_the_edge_list_parser(self):
        with pytest.raises(FormatError, match="non-integer header"):
            load_graphs("a b\n")

    def test_empty_input(self):
        with pytest.raises(FormatError):
            load_graphs("\n\n")


class TestRoundTripProperties:
    @settings(max_examples=120, deadline=None)
    @given(random_graph_strategy(max_n=12))
    def test_graph6_roundtrip(self, g):
        assert parse_graph6(to_graph6(g)) == g

    @settings(max_examples=80, deadline=None)
    @given(random_graph_strategy(max_n=12))
    def test_edge_list_roundtrip(self, g):
        assert parse_edge_list(to_edge_list(g)) == g
        assert load_graphs(to_edge_list(g)) == [g]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(random_graph_strategy(max_n=12), min_size=1, max_size=4))
    def test_load_graphs_reads_graph6_lines_in_order(self, graphs):
        assert load_graphs("".join(to_graph6(g) + "\n" for g in graphs)) == graphs

    def test_large_order_roundtrip(self):
        g = from_edges(63, [(0, 62), (10, 20)])
        assert parse_graph6(to_graph6(g)) == g
        g64 = path_graph(64)
        assert parse_graph6(to_graph6(g64)) == g64


def pair_order_graph6(line: str) -> Graph:
    """Oracle decoder: the upper triangle read one pair at a time, in graph6
    bit order (0,1), (0,2), (1,2), (0,3), ..., with the same checks and
    messages as parse_graph6."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise FormatError("empty graph6 string")
    data = []
    for ch in s:
        code = ord(ch) - 63
        if not 0 <= code <= 63:
            raise FormatError(f"byte {ord(ch)} outside the graph6 alphabet")
        data.append(code)
    if data[0] == 63:
        if len(data) < 4:
            raise FormatError("truncated extended order field")
        if data[1] == 63:
            raise GuardError(f"graph order exceeds the cap {MAX_VERTICES}")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    if n > MAX_VERTICES:
        raise GuardError(f"graph order {n} exceeds the cap {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise FormatError(f"expected {(nbits + 5) // 6} data bytes for order {n}, got {len(body)}")
    bits = 0
    for code in body:
        bits = (bits << 6) | code
    pad = len(body) * 6 - nbits
    if bits & ((1 << pad) - 1):
        raise FormatError("nonzero padding bits")
    bits >>= pad
    adj = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits >> (nbits - 1 - pos) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            pos += 1
    return Graph(tuple(adj))


def decode_outcome(decoder, line):
    try:
        return decoder(line)
    except (FormatError, GuardError) as exc:
        return type(exc), str(exc)


@st.composite
def graph6_like(draw):
    """Strings near graph6: an order in one of both forms, a body of about
    the right length with random (often nonzero) padding, stray bytes."""
    n = draw(st.integers(min_value=0, max_value=MAX_VERTICES + 2))
    if n >= 63 or draw(st.booleans()):
        head = [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    else:
        head = [n]
    length = max((n * (n - 1) // 2 + 5) // 6 + draw(st.sampled_from((0, 0, 0, -1, 1))), 0)
    bits = draw(st.integers(min_value=0, max_value=(1 << 6 * length) - 1))
    body = [bits >> 6 * (length - 1 - i) & 63 for i in range(length)]
    text = "".join(chr(c + 63) for c in head + body)
    if draw(st.integers(0, 9)) == 0:
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + draw(st.sampled_from(("~", " ", "!", "\x7f", "~~"))) + text[cut:]
    return draw(st.sampled_from(("", ">>graph6<<"))) + text


class TestColumnDecoder:
    """parse_graph6 decodes by column; the pair-order decoder is its oracle."""

    def test_random_graphs_to_order_64(self):
        rng = random.Random(61)
        orders = list(range(MAX_VERTICES + 1)) + [63, 64] * 10
        for n in orders:
            for density in (0.0, rng.random(), 1.0):
                edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < density]
                text = to_graph6(from_edges(n, edges))
                assert parse_graph6(text) == pair_order_graph6(text) == from_edges(n, edges)

    def test_random_bodies_to_order_64(self):
        # Bodies drawn as bits, not encoded from a graph.
        rng = random.Random(67)
        for n in list(range(MAX_VERTICES + 1)) * 3:
            nbits = n * (n - 1) // 2
            bits = rng.getrandbits(nbits) << (-nbits % 6) if nbits else 0
            count = (nbits + 5) // 6
            body = [bits >> 6 * (count - 1 - i) & 63 for i in range(count)]
            head = [n] if n < 63 else [63, 0, n >> 6, n & 63]
            text = "".join(chr(c + 63) for c in head + body)
            assert parse_graph6(text) == pair_order_graph6(text)

    @settings(max_examples=300, deadline=None)
    @given(graph6_like())
    # Several bytes outside the alphabet, one in the order field: the first is named.
    @example("!B w")
    @example("~?!\x7fww!")
    @example(">>graph6<<~ ?@\x7f")
    @example("Bw\xe9!")
    # Orders 63 and 64 through the ~ order field, right and wrong.
    @example("~??~" + "?" * 326)
    @example("~??~" + "?" * 325 + "@")
    @example("~?@?" + "~" * 336)
    @example("~?@?" + "~" * 335)
    def test_same_graph_or_same_error(self, text):
        assert decode_outcome(parse_graph6, text) == decode_outcome(pair_order_graph6, text)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_order_64_under_the_lowest_digit_limit(self):
        # An order-64 body is 336 bytes, 672 octal digits: above 640, the
        # lowest limit the interpreter accepts on the digits of a string it
        # converts to int.  Bases 8 and 2 are exempt from it; base 10 is not.
        rng = random.Random(71)
        g = from_edges(64, [(i, j) for j in range(64) for i in range(j) if rng.random() < 0.5])
        script = (
            "import sys\n"
            "from misbench.graphio import parse_graph6\n"
            "print(*parse_graph6(sys.stdin.read()).adj)\n"
            "print(int('7' * 700, 8).bit_length(), int('1' * 2100, 2).bit_length())\n"
            "try:\n"
            "    int('9' * 700)\n"
            "except ValueError:\n"
            "    print('base 10 limited')\n"
        )
        src = str(Path(misbench.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-c", script],
            input=to_graph6(g) + "\n",
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONINTMAXSTRDIGITS": "640"},
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [" ".join(map(str, g.adj)), "2100 2100", "base 10 limited"]
