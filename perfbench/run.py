#!/usr/bin/env python3
"""The aspsigma benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload asp_corpus --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; the library is imported from
``src/``.  One client sends one request at a time (a closed loop) and sends
the next only after the reply; a request is one cross-validated verdict for
one instance.  Whole rounds of the workload's request list run until
``--seconds`` have passed, so every run does whole rounds of the same work.
Times are reported at a fixed reference speed of the host (see REFERENCE_S).

With ``--trace 0`` the last line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (spans are also written
to ``perfbench/out/``).  The lines before it give the run's metadata, every
metric with its unit, each failed input and the correctness gate's result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 7
# every end-to-end run does at least this many whole rounds, so the tail
# percentile can be fixed per workload (see ``tail_percentile``)
MIN_ROUNDS = 2

# The host's speed drifts by a quarter and more between runs of the same code,
# and most of the drift is common to any interpreter work.  The benchmark times
# ``reference_loop``, which calls nothing in the library, and gives every time
# at the host speed where that loop takes REFERENCE_S.  Request times are
# scaled by REFERENCE_S / (the loop's mean time in the run, the slowest and
# fastest tenth left out), timed between requests once per PROBE_EVERY_S
# seconds that have passed (up to MAX_PROBES at a time, after a long request);
# each set-up by the median of SETUP_PROBES loops before it and as
# many after it.  The host switches between a fast and a slow state within a
# run, so the mean, not the median, follows its speed averaged over the run.
PROBE_EVERY_S = 0.1
MAX_PROBES = 10
SETUP_PROBES = 5
REFERENCE_S = 0.003


def load(workload: str, seed: int):
    """Import the library, generate the corpus and parse the first round.

    This is the benchmark's set-up; returns the workload, its first round, the
    tracer that recorded the set-up and the seconds it took.
    """
    t0 = time.perf_counter()
    sys.path[:0] = [SRC, HERE]
    import aspsigma

    if not os.path.abspath(aspsigma.__file__).startswith(SRC + os.sep):
        raise ImportError(f"aspsigma imported from {aspsigma.__file__}, not {SRC}")
    import spans
    import workloads

    ws = workloads.WORKLOADS[workload]()
    tracer = spans.Tracer(True)
    ws.setup(seed, tracer)
    first = ws.round(0)
    return ws, first, tracer, time.perf_counter() - t0


def probed_load(workload: str, seed: int):
    """``load`` with the host speed probed around it; returns load's results
    and the set-up's seconds scaled to the reference speed."""
    probes = [probe() for _ in range(SETUP_PROBES)]
    *loaded, seconds = load(workload, seed)
    probes += [probe() for _ in range(SETUP_PROBES)]
    return *loaded, seconds, seconds * REFERENCE_S / statistics.median(probes)


def setup_in_fresh_process(workload: str, seed: int) -> tuple[float, float]:
    """Unscaled and scaled seconds of one set-up in a fresh interpreter."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import run; "
        "print(*run.probed_load(sys.argv[2], int(sys.argv[3]))[-2:])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, HERE, workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    unscaled, scaled = map(float, out.stdout.split()[-2:])
    return unscaled, scaled


def tail_percentile(round_size: int) -> int:
    """The highest whole percentile with at least ten request times above it
    in every end-to-end run, which times at least MIN_ROUNDS whole rounds.

    It is fixed per workload, so every run reports the same percentile.
    """
    return max(0, math.floor(100 * (1 - 10 / (MIN_ROUNDS * round_size))))


def per_instance(done: list, latencies: list[float]) -> list[float]:
    """Each instance's median time over its repeats in the run, one per instance.

    Every round repeats every instance (under fresh names), so the repeats of
    one instance measure the same work at different moments of the run.
    """
    repeats: dict = {}
    for (key, _, _), dt in zip(done, latencies):
        repeats.setdefault(key, []).append(dt)
    return sorted(statistics.median(v) for v in repeats.values())


def reference_loop() -> int:
    """Fixed interpreter work of the library's kind: tuples, strings,
    frozensets and a dict, all freed by reference counting."""
    d = {}
    acc = 0
    for i in range(3000):
        t = (i, i + 1, str(i))
        fs = frozenset(t)
        d[t] = fs
        acc += len(fs) + hash(t) % 3
    return acc + len(d)


def probe() -> float:
    """Seconds of one ``reference_loop``."""
    gc.disable()  # a collection would time the library's garbage
    t0 = time.perf_counter()
    reference_loop()
    t1 = time.perf_counter()
    gc.enable()
    return t1 - t0


def trimmed_mean(values: list[float]) -> float:
    """The mean without the lowest and the highest tenth."""
    v = sorted(values)
    cut = len(v) // 10
    return statistics.fmean(v[cut : len(v) - cut])


def percentile(sorted_values: list[float], p: float) -> float:
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


class Phase:
    """Whole rounds of requests, traced or not, for at least ``seconds``,
    with the host's speed probed between them."""

    def __init__(self, ws, tracer, prepared: dict, traced: bool):
        # prepared: rounds parsed during set-up, released once they have run
        self.ws, self.tracer, self.prepared, self.traced = ws, tracer, prepared, traced
        self.latencies: list[float] = []
        self.probes: list[float] = []
        self.last_probe = 0.0
        self.busy = 0.0
        self.verdicts = self.undecided = self.errors = self.disagreements = 0
        self.done: list = []  # (instance key, report or None, exception type or None)
        self.failures: list[str] = []

    def run(self, seconds: float, next_round: int, min_rounds: int = 1) -> int:
        tr, ws = self.tracer, self.ws
        tr.enabled = self.traced
        first = next_round
        while self.busy < seconds or next_round - first < min_rounds:
            items = self.prepared.pop(next_round, None) or ws.round(next_round)
            next_round += 1
            for item in items:
                self.request(item)
        tr.enabled = False
        return next_round

    def request(self, item) -> None:
        tr = self.tracer
        rid = tr.request = (tr.request or 0) + 1
        due = int((time.perf_counter() - self.last_probe) / PROBE_EVERY_S)
        if due:
            self.probe(min(due, MAX_PROBES))
        t0 = time.perf_counter()
        report = error = None
        try:
            report = tr.call("request", self.ws.request, item, tr)
        except Exception as e:  # a failed request is counted, never fatal
            error = type(e).__name__
            detail = f"{error}: {e}"
        dt = time.perf_counter() - t0
        self.busy += dt
        self.latencies.append(dt)
        self.done.append((item[0], report, error))
        if error is None and report.skipped:
            self.undecided += 1
        elif error is None and report.agreed:
            self.verdicts += 1
        else:
            self.errors += 1
            if error is None:
                self.disagreements += 1
                detail = "disagreement: " + json.dumps(report.to_json()["agreement"])
            self.failures.append(f"request {rid}: {describe(item)} -> {detail}")

    def probe(self, n: int) -> None:
        self.probes += [probe() for _ in range(n)]
        self.last_probe = time.perf_counter()

    def scale(self) -> float:
        """The factor from this run's host speed to the reference speed."""
        return REFERENCE_S / trimmed_mean(self.probes)

    def throughput(self, scaled: bool = True) -> float:
        """Clean verdicts per second of time spent in requests."""
        return self.verdicts / (self.busy * (self.scale() if scaled else 1.0))


def describe(item) -> str:
    """The failing input's text: a formula, a program, and a model if any."""
    from aspsigma.syntax import Formula, fmt_formula

    def text(x) -> str:
        if isinstance(x, Formula):
            return fmt_formula(x)
        if isinstance(x, frozenset):
            return "model {" + ", ".join(sorted(map(str, x))) + "}"
        return str(x).strip().replace("\n", " ")

    parts = [text(x) for x in item[1:] if not isinstance(x, bool)]
    return f"instance {item[0]}: " + " | ".join(parts)


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def end_to_end(untraced: Phase, round_size: int, setup_samples: list[tuple]) -> dict:
    import workloads

    scale = untraced.scale()
    raw = per_instance(untraced.done, untraced.latencies)
    lat = [x * scale for x in raw]
    raw_all = sorted(untraced.latencies)
    lat_all = [x * scale for x in raw_all]
    pct = tail_percentile(round_size)
    tail = percentile(lat_all, pct)
    undecided = untraced.undecided / len(untraced.latencies)
    errors = untraced.errors / len(untraced.latencies)
    values = {
        "throughput_ips": untraced.throughput(),
        "verdict_p50_ms": 1000 * statistics.median(lat),
        "verdict_tail_ms": 1000 * tail,
        # the complements of the undecided and error shares, which can be 0
        "decided_share": 1 - undecided,
        "clean_share": 1 - errors,
        "setup_s": statistics.median(scaled for _, scaled in setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: (values[name], unit) for name, unit, _ in workloads.END_TO_END}
    show(metrics)
    above = sum(1 for x in lat_all if x > tail)
    rounds = len(lat_all) // len(lat)
    print(
        f"# verdict_p50_ms is over {len(lat)} instances, each the median of its {rounds} "
        f"repeats; verdict_tail_ms is p{pct} of {len(lat_all)} requests, {above} above it"
    )
    probes = untraced.probes
    q = statistics.quantiles(probes, n=4) if len(probes) > 1 else probes * 3
    print(
        f"# host speed: reference loop trimmed mean {1000 * REFERENCE_S / scale:.4f} ms, "
        f"median {1000 * q[1]:.4f} ms over {len(probes)} probes "
        f"(IQR/median {(q[2] - q[0]) / q[1]:.3f}); times scaled by {scale:.4f}; "
        f"unscaled: throughput_ips {untraced.throughput(scaled=False):.6f}, "
        f"verdict_p50_ms {1000 * statistics.median(raw):.6f}, "
        f"verdict_tail_ms {1000 * percentile(raw_all, pct):.6f}"
    )
    print(f"# undecided_share {undecided:.6f}, error_share {errors:.6f}")
    print("# setup_s unscaled samples " + " ".join(f"{x:.4f}" for x, _ in setup_samples))
    return metrics


def per_layer(tracer, untraced: Phase, traced: Phase) -> dict:
    import workloads
    from spans import span_metrics

    values = span_metrics(tracer.spans, workloads.SPAN_NAMES)
    for name, _, _ in workloads.COUNTERS:
        values[name] = tracer.mean(name)
    values["trace.overhead_ips"] = traced.throughput() - untraced.throughput()
    metrics = {name: (values[name], unit) for name, unit, _ in workloads.PER_LAYER}
    show(metrics)
    return metrics


def show(metrics: dict) -> None:
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"{name:>{width}} {value:16.6f} {unit}")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    try:
        ws, first, tracer, *setup = probed_load(args.workload, args.seed)
        round_size, prepared = len(first), {0: first}
        del first
    except (ImportError, KeyError) as e:
        print(f"error: cannot set up workload {args.workload}: {e!r}", file=sys.stderr)
        return 2
    import selftest
    import workloads

    problems = selftest.problems()
    if problems:
        print("error: benchmark self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 2
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "budgets_s": {"asp": workloads.ASP_BUDGET, "logic": workloads.LOGIC_BUDGET},
        "clients": 1,
        "round_size": round_size,
    }
    print("# meta " + json.dumps(meta, sort_keys=True))

    untraced = Phase(ws, tracer, prepared, traced=False)
    if args.trace:
        traced = Phase(ws, tracer, prepared, traced=True)
        traced.run(args.seconds / 2, untraced.run(args.seconds / 2, 0))
        phases = [untraced, traced]
        metrics = per_layer(tracer, untraced, traced)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path, dict(meta, failures=[f for ph in phases for f in ph.failures]))
        print(f"# spans written to {os.path.relpath(path, ROOT)}")
    else:
        untraced.run(args.seconds, 0, MIN_ROUNDS)
        phases = [untraced]
        samples = [tuple(setup)] + [
            setup_in_fresh_process(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
        ]
        metrics = end_to_end(untraced, round_size, samples)

    done = [d for ph in phases for d in ph.done]
    problems = ws.gate(done, round_size)
    errors = sum(ph.errors for ph in phases)
    disagreements = sum(ph.disagreements for ph in phases)
    correct = not problems and disagreements == 0
    for ph in phases:
        for line in ph.failures:
            print("# failed " + line)
    for p in problems:
        print("# GATE FAILED: " + p)
    print(
        f"# gate {'passed' if correct else 'FAILED'}: {len(done)} requests, "
        f"{errors} failed, {disagreements} disagreements"
    )
    result = {
        "correct": correct,
        "attempted": len(done),
        "failed": errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
