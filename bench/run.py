"""wallcross benchmark: one workload, one client, closed loop, one process.

    python3 bench/run.py --workload cli_sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` of the checkout
this file sits in.  ``--trace 0`` measures the end-to-end metrics untraced,
scaling each op and set-up time by host-speed probes taken around and
during it (see ``HostProbe`` and ``host_scaled``); ``--trace 1`` runs a
fixed op list untraced and then traced, checks that both give the same
outputs, and reports per-layer calls, self times and size counts.  Every
op's exact output is checked (goldens in golden.json, self-checks in
workloads.py); a mismatch counts as failed and is named.

The last line of stdout is the result object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit, as declared in
BENCHMARK.json).  The line before it holds the diagnostics: the tail
percentile and sample count, failed ops, workload property shares, the
probe times and the same metrics unscaled (raw wall time).
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # the checkout must stay as it was given

import argparse
import bisect
import gc
import importlib
import json
import os
import random
import resource
import signal
import statistics
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
SETUP_REPS = 11
PROBE_REF_S = 0.001  # host-scaled times read as on a host where one probe takes this long
PROBE_EVERY_S = 0.025  # timer period of the probes taken while an op runs
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(min_ops: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it in every run."""
    return next(p for p in TAIL_LADDER if min_ops * (100 - p) / 100 >= 10)


def percentile(values, p: float) -> float:
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]


class HostProbe:
    """Times a fixed pure-Fraction loop, as a measure of the host's speed.

    Call it to take one probe.  Inside ``with`` it also probes from a timer
    signal every PROBE_EVERY_S, so that long ops are sampled while they run,
    and once more on leaving.  ``spans`` holds each probe's (start, end) in
    time order.

    The loop does the kind of work wallcross does (Fraction arithmetic in
    pure Python) but runs no wallcross code, so a change to the program
    cannot change its time; the garbage collector is off while it runs, so
    the program's heap cannot either.
    """

    def __init__(self):
        self.spans: list[tuple[float, float]] = []
        self._running = False

    def __call__(self, *_signal_args) -> None:
        if self._running:  # a timer tick during a probe
            return
        self._running = True
        gc_enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            total = Fraction(0)
            for k in range(1, 300):
                total += Fraction(1, k % 97 + 1)
            self.spans.append((start, perf_counter()))
        finally:
            if gc_enabled:
                gc.enable()
            self._running = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self()


def host_scaled(spans, probes) -> tuple[list[float], list[float]]:
    """Each span's own time, and that time scaled to a host where a probe takes PROBE_REF_S.

    A span's own time leaves out the probes taken inside it.  The shared
    host's speed moves by up to 2x, both from one second to the next and
    over minutes, and it moves the probe and the program alike, so the own
    time is divided by the mean time of the probes around it: those inside
    the span or within min(own time, PROBE_EVERY_S) of it, and always the
    ones just before and after it.  A long op is thus scaled by the probes
    taken while it ran, and a short one by its neighbours.
    """
    ends = [end for _, end in probes]
    starts = [start for start, _ in probes]
    prefix = [0.0]
    for start, end in probes:
        prefix.append(prefix[-1] + end - start)
    own, scaled = [], []
    for start, end in spans:
        first, last = bisect.bisect_left(starts, start), bisect.bisect_right(ends, end)
        width = end - start - (prefix[last] - prefix[first] if last > first else 0.0)
        margin = min(width, PROBE_EVERY_S)
        lo = max(0, min(bisect.bisect_left(ends, start - margin), bisect.bisect_right(ends, start) - 1))
        hi = min(
            len(probes), max(bisect.bisect_right(starts, end + margin), bisect.bisect_left(starts, end) + 1)
        )
        own.append(width)
        scaled.append(width * PROBE_REF_S * (hi - lo) / (prefix[hi] - prefix[lo]))
    return own, scaled


def import_wallcross():
    """Import the package afresh, so each set-up repetition pays the import."""
    for name in [n for n in sys.modules if n == "wallcross" or n.startswith("wallcross.")]:
        del sys.modules[name]
    wc = importlib.import_module("wallcross")
    importlib.import_module("wallcross.cli")
    if Path(wc.__file__).resolve().parent != ROOT / "src" / "wallcross":
        raise RuntimeError(f"imported wallcross from {wc.__file__}, not from {ROOT / 'src'}")
    return wc


def setup(cls, golden, reps, tracer=None, probe=None):
    """Build the workload reps times; return the last one and every set-up span.

    With a HostProbe, a probe runs before each repetition.  The garbage of
    the previous repetition (the purged modules) is collected before the
    next one starts, so that no repetition pays for another's.
    """
    spans = []
    for _ in range(reps):
        gc.collect()
        if probe is not None:
            probe()
        start = perf_counter()
        wc = import_wallcross()
        if tracer is not None:
            tracer.install()
        workload = cls(wc, ROOT, golden)
        spans.append((start, perf_counter()))
    return workload, spans


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.records: list = []
        self.failures: list[tuple[str, str]] = []
        self.wall = 0.0

    @property
    def correct(self) -> int:
        return len(self.latencies) - len(self.failures)


def run_pass(workload, ops, tally: Tally, tracer=None, probe=None) -> None:
    """Run ops in order; with a HostProbe, a probe runs before each op."""
    for op in ops:
        if tracer is not None:
            tracer.op = len(tally.latencies)
        if probe is not None:
            probe()
        began = perf_counter()
        try:
            ok, record, reason = workload.run(op)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            ok, record, reason = False, None, f"raised {type(exc).__name__}: {exc}"
        ended = perf_counter()
        tally.wall += ended - began
        tally.latencies.append(ended - began)
        tally.spans.append((began, ended))
        tally.records.append(record)
        if not ok:
            tally.failures.append((workload.op_name(op), reason))


def time_metrics(setup_times, op_times, correct: int, tail: float) -> dict:
    op_ms = [t * 1000 for t in op_times]
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": correct / sum(op_times),
        "latency_p50_ms": statistics.median(op_ms),
        "latency_tail_ms": percentile(op_ms, tail),
    }


def measure(cls, golden, seed: int, seconds: float):
    """Untraced run: whole passes until the next one would overrun --seconds.

    The time metrics are host-scaled; the detail line holds them unscaled.
    """
    rng = random.Random(seed)
    tally, ops_run, passes = Tally(), [], 0
    with HostProbe() as probe:
        workload, setup_spans = setup(cls, golden, SETUP_REPS, probe=probe)
        while passes < cls.min_passes or tally.wall + tally.wall / passes <= seconds:
            ops = workload.next_pass(rng)
            run_pass(workload, ops, tally, probe=probe)
            tally.records.clear()  # only the traced run compares records; keep them out of peak RSS
            ops_run.extend(ops)
            passes += 1
    tail = tail_percentile(cls.min_passes * cls.pass_ops)
    setup_own, setup_scaled = host_scaled(setup_spans, probe.spans)
    op_own, op_scaled = host_scaled(tally.spans, probe.spans)
    metrics = time_metrics(setup_scaled, op_scaled, tally.correct, tail)
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe_ms = [(end - start) * 1000 for start, end in probe.spans]
    detail = {
        "passes": passes,
        "latency_tail": {"percentile": tail, "samples": len(op_own)},
        "setup_s_reps": setup_own,
        "unscaled": time_metrics(setup_own, op_own, tally.correct, tail),
        "probe_ms": {"count": len(probe_ms), "min": min(probe_ms), "median": statistics.median(probe_ms),
                     "max": max(probe_ms)},
        "properties": workload.properties(ops_run),
    }
    return metrics, tally, [], detail


def measure_traced(cls, golden, seed: int):
    """Traced run: the first min_passes passes untraced, then the same ops traced.

    The tracing overhead compares the host-scaled op times of the two, from
    probes taken before each op only: a probe inside an op would count in
    the self time of the span it interrupted.
    """
    tracer = Tracer()
    workload, _ = setup(cls, golden, 1, tracer)
    tracer.uninstall()
    rng = random.Random(seed)
    ops = [op for _ in range(cls.min_passes) for op in workload.next_pass(rng)]
    plain, traced, probe = Tally(), Tally(), HostProbe()
    run_pass(workload, ops, plain, probe=probe)
    tracer.install()
    try:
        run_pass(workload, ops, traced, tracer, probe)
    finally:
        tracer.uninstall()
    probe()

    problems = [
        f"traced output differs from untraced: {workload.op_name(op)}"
        for op, a, b in zip(ops, plain.records, traced.records)
        if a != b
    ]
    try:
        metrics = tracer.layer_metrics()
    except ValueError as exc:
        problems.append(str(exc))
        metrics = {}
    for name in cls.direct:
        if metrics.get(f"{name}.calls", 0) == 0:
            problems.append(f"tracer recorded no call of {name}: a binding was missed")
    plain_s, traced_s = (sum(host_scaled(t.spans, probe.spans)[1]) for t in (plain, traced))
    metrics["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    plain.failures.extend(traced.failures)
    plain.latencies.extend(traced.latencies)
    detail = {
        "untraced_wall_s": plain.wall,
        "traced_wall_s": traced.wall,
        "spans": len(tracer.spans),
        **tracer.breakdown(),
        "properties": workload.properties(ops),
    }
    return metrics, plain, problems, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wallcross" / "__init__.py").is_file():
        print(f"error: no wallcross sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)  # cli_sweep passes scenario paths relative to the checkout
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    cls = WORKLOADS[args.workload]

    if args.trace:
        metrics, tally, problems, detail = measure_traced(cls, golden, args.seed)
    else:
        metrics, tally, problems, detail = measure(cls, golden, args.seed, args.seconds)

    if set(metrics) != {m["name"] for m in declared}:
        problems.append(f"metric set differs from BENCHMARK.json: {sorted(set(metrics) ^ {m['name'] for m in declared})}")

    attempted, failed = len(tally.latencies), len(tally.failures)
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fail_ratio": failed / attempted,
        "failed_ops": [f"{name}: {reason}" for name, reason in tally.failures],
        "problems": problems,
    })
    for name, reason in tally.failures:
        print(f"FAILED {name}: {reason}", file=sys.stderr)
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
            if m["name"] in metrics
        },
    }
    for name, entry in result["metrics"].items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
