"""Self-test of the benchmark: self-time, instance-time and tail arithmetic, metric names.

    python3 perfbench/selftest.py

``run.py`` runs the same checks before every measurement and refuses to
measure when one fails.
"""

from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def self_time_problems() -> list[str]:
    """A synthetic trace whose self times are known by hand."""
    from spans import Span, Tracer, self_time, span_metrics

    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 3.0, 6.0, 0, 1),  # overlaps a: the covered part counts once
        Span("a", 2.0, 3.0, 1, 1),  # a child of a, not of root
        Span("b", 9.0, 12.0, 0, 1, failed=True),  # runs past its parent's end
        Span("c", 20.0, 20.5, None, 2),
    ]
    want = [10 - 5 - 1, 3 - 1, 3, 1, 3, 0.5]
    got = self_time(spans)
    out = []
    if any(abs(g - w) > 1e-12 for g, w in zip(got, want)):
        out.append(f"self times {got}, expected {want}")
    m = span_metrics(spans, ["a", "b", "missing"])
    expected = {
        "a.calls": 2, "a.time_s": 2.0, "a.self_s": 1.5, "a.failed": 0,
        "b.calls": 2, "b.time_s": 3.0, "b.self_s": 3.0, "b.failed": 1,
        "missing.calls": 0, "missing.time_s": 0.0, "missing.self_s": 0.0, "missing.failed": 0,
    }
    if m != expected:
        out.append(f"span metrics {m}, expected {expected}")

    tr = Tracer(True)
    try:
        tr.call("outer", tr.call, "inner", int, "not a number")
    except ValueError:
        pass
    flags = [(s.name, s.parent, s.failed) for s in tr.spans]
    if flags != [("outer", None, True), ("inner", 0, True)]:
        out.append(f"recorded spans {flags}")
    return out


def instance_time_problems() -> list[str]:
    """Each instance's time is the median of its repeats."""
    from run import per_instance

    done = [(k, None, None) for k in ("a", "b", "a", "b", "a", "b")]
    got = per_instance(done, [1.0, 5.0, 3.0, 4.0, 2.0, 9.0])
    return [] if got == [2.0, 5.0] else [f"instance times {got}, expected [2.0, 5.0]"]


def tail_problems() -> list[str]:
    """The tail percentile keeps ten request times above it in the shortest run,
    and the host speed leaves out the slowest and fastest tenth of the probes."""
    from run import MIN_ROUNDS, percentile, tail_percentile, trimmed_mean

    out = []
    for size, want in ((42, 88), (500, 99), (1866, 99)):
        if tail_percentile(size) != want:
            out.append(f"tail percentile p{tail_percentile(size)} for {size}, expected p{want}")
        times = list(range(MIN_ROUNDS * size))
        above = sum(1 for t in times if t > percentile(times, tail_percentile(size)))
        if above < 10:
            out.append(f"{above} request times above the tail of {size}-request rounds")
    got = trimmed_mean([100.0] + [2.0] * 8 + [0.0])
    if got != 2.0:
        out.append(f"trimmed mean {got}, expected 2.0")
    return out


def name_problems() -> list[str]:
    """BENCHMARK.json lists exactly the metrics and workloads the benchmark has."""
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    out = []
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    out += [f"bad name {n!r}" for n in names if not NAME.fullmatch(n)]
    out += [f"name used twice: {n}" for n in sorted(set(names)) if names.count(n) > 1]
    for key, catalogue in (("end_to_end", workloads.END_TO_END), ("per_layer", workloads.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if listed != list(catalogue):
            out.append(f"BENCHMARK.json {key} differs from the benchmark's metrics")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        out.append("BENCHMARK.json workloads differ from the benchmark's workloads")

    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as fh:
        predictions = json.load(fh)["predictions"]
    layer = {m[0] for m in workloads.PER_LAYER}
    e2e = {m[0] for m in workloads.END_TO_END}
    for p in predictions:
        unknown = [n for n in p["layer_metrics"] if n not in layer]
        unknown += [n for n in p["end_to_end"] if n not in e2e]
        unknown += [w for w in p["moves"] + p["stays"] if w not in workloads.WORKLOADS]
        out += [f"prediction names unknown metric or workload {n}" for n in unknown]
    return out


def problems() -> list[str]:
    return self_time_problems() + instance_time_problems() + tail_problems() + name_problems()


if __name__ == "__main__":
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    found = problems()
    for p in found:
        print("FAIL " + p)
    print("self-test " + ("failed" if found else "passed"))
    sys.exit(1 if found else 0)
