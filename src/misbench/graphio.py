"""Reading and writing graphs: graph6 strings and plain edge lists.

graph6 is the compact ASCII format used by the nauty tool family.  The
order is encoded first (one byte for n <= 62, a ``~`` escape plus three
bytes otherwise), then the upper triangle of the adjacency matrix in
column-major order, packed big-endian into 6-bit groups offset by 63.

The edge-list format is a header line ``n m`` followed by ``m`` lines
``u v`` with 0-indexed endpoints.
"""

from __future__ import annotations

from .graphs import MAX_VERTICES, Graph, GuardError, from_edges

GRAPH6_HEADER = ">>graph6<<"


class FormatError(ValueError):
    """Raised when input text is not valid graph6 or edge-list data."""


def decode_ascii(data: bytes) -> str:
    """The text of input bytes, all of which must be ASCII; FormatError
    names the first byte that is not."""
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"byte {data[exc.start]:#04x} at offset {exc.start} is not ASCII") from exc


def _triangle_pairs(n: int):
    """Upper-triangle pairs in graph6 bit order: (0,1), (0,2), (1,2), (0,3), ..."""
    for j in range(1, n):
        for i in range(j):
            yield i, j


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 string (optionally prefixed by the format header)."""
    s = line.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
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
            # The 8-byte order form encodes n > 258047, far above the cap.
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
    if n > 1:
        # Column j, the pairs (0, j) .. (j - 1, j), is the j-bit slice at
        # offset j(j - 1)/2 from the first bit.  In the reversed bit string
        # it ends where column j - 1 begins, with row 0 last, so it reads
        # as the mask of rows below j; each row gets bit j back.
        rev = format(bits, f"0{nbits}b")[::-1]
        end = nbits
        for j in range(1, n):
            col = int(rev[end - j:end], 2)
            end -= j
            adj[j] = col
            bit = 1 << j
            while col:
                low = col & -col
                col ^= low
                adj[low.bit_length() - 1] |= bit
    return Graph(n, tuple(adj))


def to_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (no header)."""
    n = g.n
    if n <= 62:
        prefix = [n]
    else:
        prefix = [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    nbits = n * (n - 1) // 2
    bits = 0
    for i, j in _triangle_pairs(n):
        bits = (bits << 1) | (g.adj[i] >> j & 1)
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


def to_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


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
