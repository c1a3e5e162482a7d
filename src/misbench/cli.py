"""Command-line interface.

Subcommands::

    mis              count maximal independent sets by size
    mibs             census of maximal induced bipartite subgraphs
    bounds           closed-form count bounds at one (n, k)
    curves           CSV of per-vertex bound exponents over k/n
    solve            numeric witnesses (eps/delta, two-sum crossover)
    pipeline         decomposition / cell / transversal analysis report
    search           exhaustive scan of small-graph isomorphism classes
    verify-theorem2  size-capped bound with equality classification

Graphs, also a ``search --classes`` list, are read as ASCII from a file
argument (or stdin with ``-``), in graph6 or edge-list format told apart by
the first line.  Results are JSON on stdout (CSV for ``curves``); floats
carry 12 significant digits.  Exit codes: 0 success, 1 semantic failure,
2 input/parse error, 3 resource guard, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import inf

from . import bounds, extremal
from .graphio import FormatError, decode_ascii, load_graphs, to_graph6
from .graphs import Graph, GuardError
from .mibs import mibs_counts
from .misenum import mis_profile
from .pipeline import analyze_instance

CURVE_HEADER = "x,eppstein,nielsen,interp,corollary1_eta"
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, as a shell reports a program a closed pipe stops


def _write(obj, out: list[str], indent: str) -> None:
    """Append obj to out as the text ``json.dumps(..., indent=2)`` gives.

    indent is the newline and spaces that begin a line at obj's depth.
    One branch per exact type: keys sorted, strings escaped to ASCII,
    floats rounded to 12 significant digits (NaN and the infinities as
    ``json`` writes them), Fractions written as strings and tuples as
    lists.  Any other type raises TypeError, and so does a subclass of
    one of these: a result record would lose its field names and print as
    a bare list.  A key that is not a str raises TypeError too.
    """
    kind = type(obj)
    if kind is int:
        out.append(int.__repr__(obj))
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write(obj[key], out, inner)
            sep = "," + inner
        out.append(indent + "}")
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write(value, out, inner)
            sep = "," + inner
        out.append(indent + "]")
    elif kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is bool:
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif kind is float:
        if obj != obj:
            out.append("NaN")
        elif obj == inf:
            out.append("Infinity")
        elif obj == -inf:
            out.append("-Infinity")
        else:
            out.append(float.__repr__(float(f"{obj:.12g}")))
    elif kind is Fraction:
        out.append(encode_basestring_ascii(str(obj)))
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(payload) -> None:
    out: list[str] = []
    _write(payload, out, "\n")
    print("".join(out))


def _read_graphs(path: str) -> list[Graph]:
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return load_graphs(decode_ascii(data))


def _single_or_array(reports: list[dict]):
    return reports[0] if len(reports) == 1 else reports


def _parse_vertex_list(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    text = text.strip()
    if not text:
        return ()
    try:
        values = tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise FormatError(f"expected comma-separated integers, got {text!r}") from exc
    if any(v < 0 for v in values):
        raise FormatError(f"expected nonnegative integers, got {text!r}")
    return values


def cmd_mis(args) -> int:
    reports = [{"mis": sum(p), "profile": p} for p in map(mis_profile, _read_graphs(args.path))]
    _emit(_single_or_array(reports))
    return 0


def cmd_mibs(args) -> int:
    reports = []
    for counts in map(mibs_counts, _read_graphs(args.path)):
        histogram = [{"a_size": a, "records": r} for a, r in counts.a_size_histogram]
        reports.append({**counts._asdict(), "a_size_histogram": histogram})
    _emit(_single_or_array(reports))
    return 0


def _bound_entry(b) -> dict:
    return {
        "ln": b.ln_value,
        "value": b.as_float(),
        "exact": str(b.exact) if b.exact is not None else None,
    }


def cmd_bounds(args) -> int:
    n, k = args.n, args.k
    payload = {
        "n": n,
        "k": k,
        "eta": args.eta,
        "moon_moser": _bound_entry(bounds.moon_moser(n)),
        "eppstein": _bound_entry(bounds.eppstein(n, k)),
        "nielsen": _bound_entry(bounds.nielsen(n, k)),
        "interpolated": _bound_entry(bounds.interpolated(n, k, args.eta)),
        "induction_residual": bounds.induction_identity_residual(n, k, args.eta),
    }
    _emit(payload)
    return 0


def cmd_curves(args) -> int:
    columns = CURVE_HEADER.split(",")
    lines = [CURVE_HEADER]
    for row in bounds.curve_rows(args.eta, args.points):
        lines.append(",".join(f"{row[col]:.12g}" for col in columns))
    print("\n".join(lines))
    return 0


def cmd_solve(args) -> int:
    if args.two_sum_eta is None:
        _emit(bounds.solve_eps_delta(0.0 if args.margin is None else args.margin)._asdict())
        return 0
    if args.margin is not None:
        raise FormatError("--margin has no effect with --two-sum-eta")
    witness = bounds.find_two_sum_witness(args.two_sum_eta)
    # The report carries the witness's eta, n, p_cut and verdict.
    _emit({**witness.report._asdict(), "xi": witness.xi})
    return 0


def cmd_pipeline(args) -> int:
    i0_list = _parse_vertex_list(args.i0)
    s_list = _parse_vertex_list(args.s) or ()
    reports = [analyze_instance(g, i0_list, s_list) for g in _read_graphs(args.path)]
    _emit(_single_or_array(reports))
    return 1 if any(report["violations"] for report in reports) else 0


def cmd_search(args) -> int:
    if args.classes and args.workers != 1:
        raise FormatError("--workers has no effect with --classes: a loaded class list is not generated")
    bounds.check_eta(args.eta)
    if args.classes:
        reps = _read_graphs(args.classes)
        if any(g.n != args.n for g in reps):
            raise FormatError(f"class list {args.classes} contains graphs of order != {args.n}")
        for g in reps:
            if not extremal.admits(g, args.filter):
                raise FormatError(
                    f"class list {args.classes} holds {to_graph6(g)}, outside filter {args.filter}"
                )
    else:
        reps = extremal.generate_all(args.n, args.filter, args.workers)
    if args.save_classes:
        with open(args.save_classes, "w", encoding="ascii") as fh:
            fh.writelines(to_graph6(g) + "\n" for g in reps)
    rows = extremal.tightness_scan(reps, args.selector, args.eta)
    _emit(
        {
            "n": args.n,
            "filter": args.filter,
            "selector": args.selector,
            "eta": args.eta,
            "class_count": len(reps),
            "rows": rows,
        }
    )
    return 0


def cmd_verify_theorem2(args) -> int:
    extremal.check_order(args.max_n)
    rows = []
    for n in range(1, args.max_n + 1):
        rows += extremal.verify_equality_scan(extremal.generate_all(n, "none", args.workers))
    ok = not any(row["violations"] for row in rows)
    _emit({"max_n": args.max_n, "holds": ok, "rows": rows})
    return 0 if ok else 1


def _add_graph_input(sub) -> None:
    sub.add_argument("path", nargs="?", default="-", help="graph file, or - for stdin")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="misbench",
        description="Exact enumeration and bound verification for maximal independent sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mis", help="count maximal independent sets by size")
    _add_graph_input(p)
    p.set_defaults(func=cmd_mis)

    p = sub.add_parser("mibs", help="census of maximal induced bipartite subgraphs")
    _add_graph_input(p)
    p.set_defaults(func=cmd_mibs)

    p = sub.add_parser("bounds", help="closed-form bounds at one (n, k)")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--eta", type=float, default=0.4)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("curves", help="CSV of bound exponents over k/n in [1/5, 1/3]")
    p.add_argument("--eta", type=float, default=0.4)
    p.add_argument("--points", type=int, default=28)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("solve", help="numeric witnesses for the analytic estimates")
    p.add_argument("--margin", type=float, default=None, help="margin of the eps/delta solve (default: 0)")
    p.add_argument(
        "--two-sum-eta",
        type=float,
        default=None,
        help="instead solve for the smallest order putting both count sums below target",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("pipeline", help="decomposition and transversal analysis")
    _add_graph_input(p)
    p.add_argument("--i0", default=None, help="root set as comma-separated vertices (default: minimum maximal independent set)")
    p.add_argument("--s", default=None, help="doubled cell indices, comma-separated (default: none)")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("search", help="scan isomorphism classes against a bound family")
    p.add_argument("-n", type=int, required=True, dest="n")
    p.add_argument("--filter", choices=sorted(extremal.FILTERS), default="none")
    p.add_argument("--selector", choices=tuple(bounds.SELECTORS), default="eppstein")
    p.add_argument("--eta", type=float, default=0.4)
    p.add_argument("--workers", type=int, default=1, help="class generation processes (only 1 with --classes)")
    p.add_argument("--save-classes", default=None, help="write generated class list (graph6)")
    p.add_argument("--classes", default=None, help="load class list instead of generating")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "verify-theorem2", help="size-capped bound with equality classification, exhaustively"
    )
    p.add_argument("--max-n", type=int, default=7)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_verify_theorem2)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # search and verify-theorem2 take --workers; refuse a bad count
        # before any work, even when no process pool would be started.
        workers = getattr(args, "workers", 1)
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point it at the null device, so that
        # the flush at interpreter exit has nowhere to fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
