"""misbench benchmark: end-to-end and per-layer metrics for one workload.

    python3 bench/run.py --workload classgen|enumerate|pipeline --seed N \
        --seconds S --trace 0|1

Each repetition runs in a fresh process that imports misbench from ``src``,
builds the seeded inputs, then drives ``misbench.cli.main`` in process with
real argv, one command per input, on a single core (``--workers 1``).  This
parent process repeats that until ``--seconds`` are spent, checks every
command's output against an oracle that never runs misbench, and prints one
line per metric with its unit, then a JSON summary as the last line.

With ``--trace 0`` it reports the end-to-end metrics (medians over
repetitions), with times scaled to a reference core by the speed samples
``speed.py`` takes inside each repetition.  With ``--trace 1`` it alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones, with the
tracing overhead as traced over untraced ``wall_s``.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from speed import Speedometer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "misbench"
MIN_UNTRACED = 2
LATENCY_RUNS = 5
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("answered_rate", "ratio"),
)

PER_LAYER = (
    ("extremal.canonical_key.calls", "count"),
    ("extremal.canonical_key.s", "s"),
    ("extremal.canonical_key.us_per_call", "us"),
    ("extremal.generate_all.classes", "count"),
    ("extremal.classes_per_key", "ratio"),
    ("graphs.Graph.calls", "count"),
    ("graphs.Graph.s", "s"),
    ("extremal.verify_equality_scan.self_s", "s"),
    ("extremal.tightness_scan.self_s", "s"),
    ("bounds.eppstein.calls", "count"),
    ("bounds.eppstein.s", "s"),
    ("misenum.enumerate_mis.calls", "count"),
    ("misenum.enumerate_mis.s", "s"),
    ("misenum.enumerate_mis.sets", "count"),
    ("misenum.enumerate_mis.sets_per_s", "1/s"),
    ("mibs.enumerate_mibs.calls", "count"),
    ("mibs.enumerate_mibs.self_s", "s"),
    ("mibs.ordered_pairs", "count"),
    ("mibs.distinct_per_pair", "ratio"),
    ("pipeline.transversal_census.calls", "count"),
    ("pipeline.transversal_census.s", "s"),
    ("pipeline.transversal_census.states", "count"),
    ("pipeline.transversal_census.states_per_s", "1/s"),
    ("corpus.min_mis.s", "s"),
    ("pipeline.verify_is_capture.self_s", "s"),
    ("pipeline.verify_is_capture.families", "count"),
    ("pipeline.decompose.s", "s"),
    ("pipeline.label_cells.s", "s"),
    ("pipeline.select.calls", "count"),
    ("pipeline.select.s", "s"),
    ("pipeline.verify_product_bound.s", "s"),
    ("pipeline.analyze_instance.s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("graphio.load_graphs.s", "s"),
    ("graphio.to_graph6.calls", "count"),
    ("trace.overhead", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: dict, counters: dict, classes: int) -> dict[str, float]:
    """The per-layer metrics of one traced repetition."""

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    metrics = {}
    for name, _unit in PER_LAYER:
        base, _, key = name.rpartition(".")
        if key in ("calls", "s", "self_s"):
            metrics[name] = span(base, key)
    key_calls = span("extremal.canonical_key", "calls")
    metrics["extremal.canonical_key.us_per_call"] = _ratio(span("extremal.canonical_key", "s") * 1e6, key_calls)
    metrics["extremal.generate_all.classes"] = classes
    metrics["extremal.classes_per_key"] = _ratio(classes, key_calls)
    sets = counters["misenum.enumerate_mis.sets"]
    metrics["misenum.enumerate_mis.sets"] = sets
    metrics["misenum.enumerate_mis.sets_per_s"] = _ratio(sets, span("misenum.enumerate_mis", "s"))
    metrics["mibs.ordered_pairs"] = counters["mibs.ordered_pairs"]
    metrics["mibs.distinct_per_pair"] = _ratio(counters["mibs.distinct"], counters["mibs.ordered_pairs"])
    states = counters["pipeline.transversal_census.states"]
    metrics["pipeline.transversal_census.states"] = states
    metrics["pipeline.transversal_census.states_per_s"] = _ratio(states, span("pipeline.transversal_census", "s"))
    metrics["pipeline.verify_is_capture.families"] = counters["pipeline.verify_is_capture.families"]
    return metrics


# ---------------------------------------------------------------- child side


def child(args) -> int:
    """One repetition: import, build inputs, run every command, report its scaled times and outputs."""
    meter = Speedometer()
    meter.start()
    sys.path.insert(0, str(SRC))
    import misbench.cli
    from misbench import extremal

    items = workloads.build(args.workload, args.seed)
    rep_dir = Path(args.child)
    rep_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, item in enumerate(items):
        if item.graph is None:
            paths.append(None)
            continue
        path = rep_dir / f"item{i:04d}.g6"
        path.write_text(workloads.O.to_graph6(item.graph) + "\n", encoding="ascii")
        paths.append(str(path))
    setup_end = perf_counter()

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    def run_command(item, path):
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = misbench.cli.main(item.argv(path))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a traceback is a wrong answer, recorded and judged by the parent
            rc = None
            err.write(traceback.format_exc())
        return (start, perf_counter()), [rc, out.getvalue(), err.getvalue()]

    outcomes, times = [], []
    job_start = perf_counter()
    for item, path in zip(items, paths):
        interval, outcome = run_command(item, path)
        times.append([interval])
        outcomes.append(outcome)
    job_end = perf_counter()
    differing = [0] * len(items)
    if tracer is None:
        # Time the short commands again, in whole passes so that each one's
        # runs are spread over the repetition, for steadier item percentiles.
        short = [i for i, item in enumerate(items) if item.kind in workloads.SHORT_KINDS]
        for _ in range(LATENCY_RUNS - 1):
            for i in short:
                interval, outcome = run_command(items[i], paths[i])
                times[i].append(interval)
                differing[i] += outcome != outcomes[i]
    meter.stop()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    results = [
        [statistics.median(meter.scaled(*interval) for interval in runs), *outcome, len(runs), diff]
        for runs, outcome, diff in zip(times, outcomes, differing)
    ]

    report = {
        "setup_s": meter.scaled(_T0, setup_end),
        "wall_s": meter.scaled(job_start, job_end),
        "raw_wall_s": job_end - job_start,
        "slowdown": meter.slowdown(),
        "peak_rss_mib": peak_rss_mib,
        "results": results,
    }
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.summary()
        report["layers"] = layer_metrics(spans, tracer.counters, sum(tracer.class_lists.values()))
        report["self_s"] = {name: row["self_s"] for name, row in spans.items() if row["calls"]}
        tracer.write(WORK / f"spans-{args.workload}.json")
    if args.workload == "classgen":
        # Read back after the timed job: the unfiltered class counts it generated.
        report["class_counts"] = [len(extremal.generate_all(n)) for n in range(1, 8)]
    print(json.dumps(report))
    return 0


# --------------------------------------------------------------- parent side


def run_repetition(args, traced: bool, rep_dir: Path) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(int(traced)),
        "--child", str(rep_dir),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition exited {proc.returncode}: {proc.stderr[-2000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["traced"] = traced
    return rep


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
    }


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def judge(items, expected, reps) -> tuple[int, int, int, list[str]]:
    """Check every run of every command of every repetition; returns attempted, failed, refused, reasons."""
    attempted = failed = refused = 0
    reasons = []
    first = reps[0]["results"]
    verdicts = [
        workloads.check(item, exp, rc, out, err)
        for item, exp, (_, rc, out, err, *_) in zip(items, expected, first)
    ]
    for rep in reps:
        for i, (_, rc, out, err, runs, differing) in enumerate(rep["results"]):
            verdict = verdicts[i]
            if differing or [rc, out, err] != first[i][1:4]:
                verdict = f"error: {items[i].kind}: output differs between runs"
            if verdict == "ok" and "class_counts" in rep and items[i].kind == "verify":
                verdict = workloads.check_class_counts(rep["class_counts"])
            attempted += runs
            if verdict == "refused":
                refused += runs
            elif verdict != "ok":
                failed += runs
                if len(reasons) < 10:
                    reasons.append(f"command {i} {items[i].argv('<input>')}: {verdict}")
    return attempted, failed, refused, reasons


def end_to_end(reps: list[dict], refused: int, attempted: int) -> dict[str, float]:
    per_item = zip(*(rep["results"] for rep in reps))
    item_ms = [statistics.median(row[0] for row in runs) * 1e3 for runs in per_item]
    return {
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "item_p50_ms": nearest_rank(item_ms, 50),
        "item_p90_ms": nearest_rank(item_ms, 90),
        "peak_rss_mib": statistics.median(rep["peak_rss_mib"] for rep in reps),
        "answered_rate": 1 - refused / attempted,
    }


def parent(args) -> int:
    # On SIGTERM unwind normally, so subprocess.run kills and reaps a running repetition.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "misbench" / "__init__.py").is_file():
        print(f"error: no misbench sources under {SRC}", file=sys.stderr)
        return 2
    items = workloads.build(args.workload, args.seed)
    expected = [workloads.expect(item) for item in items]
    run_dir = WORK / f"run-{os.getpid()}"
    reps: list[dict] = []
    start, longest = perf_counter(), 0.0
    try:
        while True:
            traced = args.trace and len(reps) % 2 == 1
            rep_start = perf_counter()
            reps.append(run_repetition(args, traced, run_dir / f"rep{len(reps)}"))
            longest = max(longest, perf_counter() - rep_start)
            untraced = sum(not r["traced"] for r in reps)
            enough = 0 < untraced < len(reps) if args.trace else untraced >= MIN_UNTRACED
            if enough and perf_counter() - start + longest > args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed, refused, reasons = judge(items, expected, reps)
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    e2e = end_to_end(untraced, refused, attempted)

    print("# environment " + json.dumps(environment(args), sort_keys=True))
    print(
        f"# {len(untraced)} untraced and {len(traced)} traced repetitions, each in a fresh process; "
        f"{len(items)} commands per repetition, short ones ({', '.join(workloads.SHORT_KINDS)}) "
        f"run {LATENCY_RUNS} times in untraced ones; item percentiles are nearest-rank over "
        f"{len(items)} per-command medians"
    )
    print(
        "# repetition wall_s scaled/measured, slowdown (T = traced): "
        + " ".join(f"{r['wall_s']:.4f}/{r['raw_wall_s']:.4f},{r['slowdown']:.2f}x{'T' * r['traced']}" for r in reps)
    )
    print(f"# error_rate {failed}/{attempted} = {failed / attempted:.6g}")
    print(f"# refusal_rate {refused}/{attempted} = {refused / attempted:.6g}")
    for reason in reasons:
        print(f"# FAIL {reason}")
    for name, unit in END_TO_END:
        print(f"{'end_to_end' if not args.trace else '# untraced'} {name} {e2e[name]!r} {unit}")

    if args.trace:
        layers = {
            name: statistics.median(rep["layers"][name] for rep in traced)
            for name, _ in PER_LAYER
            if name != "trace.overhead"
        }
        layers["trace.overhead"] = statistics.median(r["wall_s"] for r in traced) / e2e["wall_s"]
        self_s = {name: statistics.median(rep["self_s"].get(name, 0.0) for rep in traced) for name in traced[0]["self_s"]}
        ranked = sorted(self_s.items(), key=lambda kv: -kv[1])[:6]
        print("# largest self times: " + ", ".join(f"{name} {secs:.4g} s" for name, secs in ranked))
        print(f"# tracing overhead: traced wall_s / untraced wall_s = {layers['trace.overhead']:.4g}")
        for name, unit in PER_LAYER:
            print(f"per_layer {name} {layers[name]!r} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is not None:
        return child(args)
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
