"""Reading graph6 strings and plain edge lists, and writing graph6.

graph6 is the compact ASCII format used by the nauty tool family.  The
order is encoded first (one byte for n <= 62, a ``~`` escape plus three
bytes otherwise), then the upper triangle of the adjacency matrix in
column-major order, packed big-endian into 6-bit groups offset by 63.
The reader checks the alphabet by the least and greatest byte, and reads
the order field and the body whole, each byte turned into two octal
digits by ``str.translate`` and the digits into one int, so its cost per
byte is a C loop's.

The edge-list format is a header line ``n m`` followed by ``m`` lines
``u v`` with 0-indexed endpoints.
"""

from __future__ import annotations

from .graphs import MAX_VERTICES, Graph, GuardError, from_edges, iter_bits

GRAPH6_HEADER = ">>graph6<<"


# Each graph6 byte, 63 + a 6-bit code, as the code's two octal digits.
_OCTAL = {63 + code: f"{code:02o}" for code in range(64)}


class FormatError(ValueError):
    """Raised when input text is not valid graph6 or edge-list data."""


def decode_ascii(data: bytes) -> str:
    """The text of input bytes, all of which must be ASCII; FormatError
    names the first byte that is not."""
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"byte {data[exc.start]:#04x} at offset {exc.start} is not ASCII") from exc


def from_columns(cols) -> Graph:
    """The graph with graph6 columns ``cols``, one per vertex, so of order
    n = ``len(cols)``.

    Column j, for j = 1..n-1, holds the pairs (0, j) .. (j - 1, j) as a
    j-bit int whose most significant bit is row 0, so bit j - 1 - i is the
    edge i-j; ``cols[0]`` is not read.  This is the order in which graph6
    writes the columns and in which ``extremal.canonical_key`` builds its
    segments.
    """
    n = len(cols)
    adj = [0] * n
    for j in range(1, n):
        col = cols[j]
        while col:
            low = col & -col
            col ^= low
            i = j - low.bit_length()
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph(tuple(adj))


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 string (optionally prefixed by the format header).

    The order field and the body are read whole: ``str.translate`` turns
    each byte into the two octal digits of its 6-bit code, and one
    ``int(..., 8)`` reads them (base 8 is exempt from the interpreter's
    limit on digits converted).
    """
    s = line.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise FormatError("empty graph6 string")
    if min(s) < "?" or max(s) > "~":
        bad = next(ch for ch in s if not "?" <= ch <= "~")
        raise FormatError(f"byte {ord(bad)} outside the graph6 alphabet")
    if s[0] == "~":
        if len(s) < 4:
            raise FormatError("truncated extended order field")
        if s[1] == "~":
            # The 8-byte order form encodes n > 258047, far above the cap.
            raise GuardError(f"graph order exceeds the cap {MAX_VERTICES}")
        n = int(s[1:4].translate(_OCTAL), 8)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if n > MAX_VERTICES:
        raise GuardError(f"graph order {n} exceeds the cap {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise FormatError(f"expected {(nbits + 5) // 6} data bytes for order {n}, got {len(body)}")
    bits = int(body.translate(_OCTAL), 8) if body else 0
    pad = len(body) * 6 - nbits
    if bits & ((1 << pad) - 1):
        raise FormatError("nonzero padding bits")
    bits >>= pad
    # The last column sits in the lowest bits.
    cols = [0] * n
    for j in range(n - 1, 0, -1):
        cols[j] = bits & ((1 << j) - 1)
        bits >>= j
    return from_columns(cols)


def to_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (no header)."""
    n = g.n
    if n <= 62:
        prefix = [n]
    else:
        prefix = [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    nbits = n * (n - 1) // 2
    bits = 0
    for j in range(1, n):
        col = 0
        for i in iter_bits(g.adj[j] & ((1 << j) - 1)):
            col |= 1 << (j - 1 - i)
        bits = bits << j | col
    pad = -nbits % 6
    bits <<= pad
    body = []
    for shift in range(nbits + pad - 6, -6, -6):
        body.append(bits >> shift & 63)
    return "".join(chr(c + 63) for c in prefix + body)


def parse_edge_list(text: str) -> Graph:
    """Decode the ``n m`` / ``u v`` edge-list format."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise FormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"non-integer header {lines[0]!r}") from exc
    if n < 0 or m < 0:
        raise FormatError("negative order or size")
    if n > MAX_VERTICES:
        raise GuardError(f"graph order {n} exceeds the cap {MAX_VERTICES}")
    if len(lines) - 1 != m:
        raise FormatError(f"header announces {m} edges, found {len(lines) - 1} edge lines")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"edge line must be 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"non-integer edge line {ln!r}") from exc
        if u == v:
            raise FormatError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"edge ({u}, {v}) outside 0..{n - 1}")
        edges.append((u, v))
    return from_edges(n, edges)


def looks_like_edge_list(text: str) -> bool:
    """Whether the first content line other than the graph6 header splits
    into two fields, as an edge list's ``n m`` header does.  A graph6 line
    holds no whitespace (its alphabet is bytes 63-126), so text that either
    parser accepts goes to that parser."""
    for raw in text.splitlines():
        ln = raw.strip()
        if ln and ln != GRAPH6_HEADER:
            return len(ln.split()) == 2
    return False


def load_graphs(text: str) -> list[Graph]:
    """Parse input text holding one edge list or any number of graph6 lines."""
    if looks_like_edge_list(text):
        return [parse_edge_list(text)]
    graphs = []
    for raw in text.splitlines():
        ln = raw.strip()
        if not ln or ln == GRAPH6_HEADER:
            continue
        graphs.append(parse_graph6(ln))
    if not graphs:
        raise FormatError("no graphs in input")
    return graphs
