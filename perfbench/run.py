"""logvf benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload corpus-replay --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory and the corpus read from its ``corpus`` directory.  The
client sends the next request only when the previous one has finished.

``--trace 0`` measures whole rounds of the workload's stream (see gen.py)
until the requests have taken ``--seconds`` and prints the end-to-end
metrics.  Times, ``--seconds`` included, are taken at the reference host
speed of hostspeed.py; the wall-clock figures are printed above the
result line.
``--trace 1`` serves the first TRACE_ROUNDS rounds untraced, then the
requests that met the deadline once with the tracer installed and once
more untraced; it prints the per-layer metrics and writes the spans under
perfbench/out/.  The last
line of standard output is one JSON object.  See README.md for what each
metric should move.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import hostspeed  # noqa: E402
from tracer import SPAN_MODULES, Tracer, layer_self_times  # noqa: E402

WORKLOADS = ("corpus-replay", "fresh-germs", "cli-questions")

# One deadline for every request on every commit, in seconds at the
# reference host speed (hostspeed.py), so the same requests overrun
# however fast the host runs at the time.  For logvf 0.1.0 it sits
# between the slowest request that ends by itself (about 2.6 s, analyze
# at the default truncation on x^2 + y^5 + c*x^2*y; about 2 s, cech at
# bound 4 on the 4-variable quartic) and the fastest one that stalls
# (about 14 s).
DEADLINE_S = 5.0
# The traced pass re-runs only requests that met DEADLINE_S untraced; the
# wider limit keeps tracing overhead from turning them into overruns.
TRACED_DEADLINE_S = 4 * DEADLINE_S
SETUP_REPEATS = 9
TRACE_ROUNDS = {"corpus-replay": 2, "fresh-germs": 1, "cli-questions": 1}

class Library:
    """The package entry points the client calls, looked up per call so
    that tracer wrappers are seen.  The answer check is bound once, here,
    so the tracer never records the benchmark's own checking."""

    def __init__(self, root: Path):
        src = root / "src"
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        for name in [m for m in sys.modules
                     if m == "logvf" or m.startswith("logvf.")]:
            del sys.modules[name]
        importlib.import_module("logvf")
        package = Path(sys.modules["logvf"].__file__).resolve().parent
        if package != (src / "logvf").resolve():
            raise SystemExit(f"logvf imported from {package}, not {src}")
        self.report = sys.modules["logvf.report"]
        self.check_expectations = self.report.check_expectations
        self.cli = importlib.import_module("logvf.cli")
        self.errors = sys.modules["logvf.errors"]
        self.poly_parse = sys.modules["logvf.poly"].poly_parse


def load_corpus(root: Path, lib: Library) -> List[gen.CorpusEntry]:
    directory = root / "corpus"
    entries = []
    for path in sorted(directory.glob("*.div")):
        varnames, f, expect = lib.report.parse_div(
            path.read_text(encoding="utf-8"))
        entries.append(gen.CorpusEntry(varnames, f, expect))
    if not entries:
        raise SystemExit(f"no .div files in {directory}")
    return entries


def make_stream(workload: str, seed: int, root: Path, lib: Library):
    corpus = load_corpus(root, lib)
    if workload == "corpus-replay":
        return gen.CorpusReplay(seed, corpus)
    if workload == "fresh-germs":
        return gen.FreshGerms(seed, lib.poly_parse)
    return gen.CliQuestions(seed, corpus)


def set_up(workload: str, seed: int, root: Path):
    """Import the package and generate the first round, SETUP_REPEATS times
    from a clean import; the last set-up is the one used.  Returns the
    median set-up time at reference speed."""
    speed = hostspeed.HostSpeed()
    times = []
    for _ in range(SETUP_REPEATS):
        speed.probe()
        start = time.perf_counter()
        lib = Library(root)
        stream = make_stream(workload, seed, root, lib)
        first = stream.next_round()
        times.append(time.perf_counter() - start)
    speed.probe()
    adjusted = [speed.adjusted(i, t) for i, t in enumerate(times)]
    return lib, stream, first, statistics.median(adjusted)


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by the continued
    fraction of Numerical Recipes (section 6.4)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return front * h / a


def harrell_davis(values: Sequence[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of
    all order statistics.

    Latencies cluster by input kind, and a plain sample quantile that falls
    between two clusters jumps from one to the other between runs; this
    estimate moves smoothly instead.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    total, below = 0.0, 0.0
    for i, x in enumerate(xs, start=1):
        upto = _betainc(a, b, i / n)
        total += (upto - below) * x
        below = upto
    return total


def _metric(value, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _failure_counts(outcomes: Sequence[checks.Outcome]) -> Dict[str, int]:
    counts = {kind: 0 for kind in checks.FAILURE_KINDS}
    for o in outcomes:
        if o.failed:
            counts[o.status] += 1
    return counts


def _result(outcomes, metrics) -> dict:
    failures = _failure_counts(outcomes)
    return {"correct": failures["check"] == 0 and failures["exception"] == 0,
            "attempted": len(outcomes), "failed": sum(failures.values()),
            "metrics": metrics}


def _report_failures(outcomes) -> None:
    shown = set()
    for o in outcomes:
        if o.failed and (o.status, o.detail) not in shown:
            shown.add((o.status, o.detail))
            print(f"  failed ({o.status}): {o.detail}")


def serve_probed(request, lib, deadline_s: float,
                 speed: hostspeed.HostSpeed) -> checks.Outcome:
    """Probe the host, then serve one request under a deadline of
    `deadline_s` seconds at reference speed."""
    speed.probe()
    return checks.serve(request, lib, speed.wall(deadline_s))


def _latency_summary(seconds: Sequence[float]) -> str:
    ms = [s * 1000.0 for s in seconds]
    return (f"{len(ms) / sum(seconds):.4g} 1/s, p50 "
            f"{harrell_davis(ms, 0.5):.4g} ms, p90 "
            f"{harrell_davis(ms, 0.9):.4g} ms")


def run_timed(stream, first, seconds: float, lib: Library, setup_s: float):
    outcomes: List[checks.Outcome] = []
    speed = hostspeed.HostSpeed()
    busy = 0.0
    batch = first
    with checks.alarm_handler():
        while True:
            for r in batch:
                outcomes.append(serve_probed(r, lib, DEADLINE_S, speed))
                # each request at the speed of the probes before it, so
                # the host's speed does not change how many rounds run
                busy += speed.reference(outcomes[-1].seconds)
            if busy >= seconds:
                break
            batch = stream.next_round()
    speed.probe()
    # an interrupted request took the deadline, by the clock that stopped it
    adjusted = [DEADLINE_S if o.status == "deadline"
                else speed.adjusted(i, o.seconds)
                for i, o in enumerate(outcomes)]
    latencies_ms = [s * 1000.0 for s in adjusted]
    answered = sum(not o.failed for o in outcomes)
    n = len(outcomes)
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "throughput_rps": _metric(n / sum(adjusted), "1/s"),
        "latency_p50_ms": _metric(harrell_davis(latencies_ms, 0.5), "ms"),
        "latency_p90_ms": _metric(harrell_davis(latencies_ms, 0.9), "ms"),
        "answered_ratio": _metric(answered / n, "ratio"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
    }
    factors = [speed.factor(i) for i in range(n)]
    print(f"{n} requests ({answered} answered) in {busy:.3f} s "
          f"at reference speed; "
          f"latency percentiles over all {n} requests")
    print(f"  wall clock:       {_latency_summary([o.seconds for o in outcomes])}")
    print(f"  reference speed:  {_latency_summary(adjusted)} "
          f"(host speed factor {min(factors):.3f}..{max(factors):.3f}, "
          f"median {statistics.median(factors):.3f})")
    _report_failures(outcomes)
    return _result(outcomes, metrics)


def run_traced(stream, first, workload: str, seed: int, lib: Library):
    requests = list(first)
    for _ in range(TRACE_ROUNDS[workload] - 1):
        requests += stream.next_round()
    tracer = Tracer()
    first_speed = hostspeed.HostSpeed()
    traced_speed = hostspeed.HostSpeed()
    again_speed = hostspeed.HostSpeed()
    with checks.alarm_handler():
        untraced = [serve_probed(r, lib, DEADLINE_S, first_speed)
                    for r in requests]
        kept = [i for i, o in enumerate(untraced) if o.status != "deadline"]
        traced: List[checks.Outcome] = []
        tracer.install()
        try:
            for i in kept:
                tracer.request_id = i
                mark = tracer.mark()
                traced.append(serve_probed(requests[i], lib,
                                           TRACED_DEADLINE_S, traced_speed))
                if traced[-1].status == "deadline":
                    tracer.rollback(mark)
        finally:
            tracer.restore()
        traced_speed.probe()
        # the first pass also warmed the process up; time the same requests
        # untraced again for the overhead
        again = [serve_probed(requests[i], lib, TRACED_DEADLINE_S,
                              again_speed) for i in kept]
        again_speed.probe()
    done = [k for k, o in enumerate(traced) if o.status != "deadline"]
    counts = tracer.counts
    self_s = layer_self_times(tracer.spans, {
        kept[k]: traced_speed.factor(k) for k in range(len(kept))})
    failures = _failure_counts(untraced)
    metrics = {f"{layer}.self_s": _metric(self_s.get(layer, 0.0), "s")
               for layer in SPAN_MODULES}
    for key in ("standard_bases.standard_basis.calls",
                "standard_bases.membership.calls",
                "standard_bases.syzygies.calls", "poly.substitute.calls",
                "poly.mul.terms_out", "linalg.rref.calls",
                "linalg.rref.cells", "cech.box_columns"):
        metrics[key] = _metric(counts[key], "count")
    metrics["normalform.coordchange.calls"] = _metric(
        counts["normalform.CoordChange.make.calls"]
        + counts["normalform.CoordChange.then.calls"], "count")
    metrics["derlog.derlog_generators.calls_per_request"] = _metric(
        counts["derlog.derlog_generators.calls"] / max(len(done), 1),
        "calls/request")
    for kind in checks.FAILURE_KINDS:
        metrics[f"failures.{kind}"] = _metric(failures[kind], "count")
    metrics["failed_ratio"] = _metric(
        sum(failures.values()) / len(untraced), "ratio")
    untraced_s = sum(again_speed.adjusted(k, again[k].seconds) for k in done)
    metrics["trace_overhead_ratio"] = _metric(
        sum(traced_speed.adjusted(k, traced[k].seconds) for k in done)
        / untraced_s if untraced_s else 1.0, "ratio")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{workload}-{seed}.jsonl")
    print(f"{len(requests)} requests untraced, {len(done)} traced "
          f"(requests over the deadline are not traced)")
    _report_failures(untraced)
    return _result(untraced, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = HERE.parent
    lib, stream, first, setup_s = set_up(args.workload, args.seed, root)
    if args.trace:
        result = run_traced(stream, first, args.workload, args.seed, lib)
    else:
        result = run_timed(stream, first, args.seconds, lib, setup_s)
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
