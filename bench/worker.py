"""Timed process of the benchmark: runs the user path on the inputs it is given.

Reads one JSON request from stdin, ``{"texts": [...], "half": [...] | null,
"seconds": S, "trace": bool}``, and writes one JSON result to stdout. The
process imports only the program and receives only the inputs' JSON text.

Per input, the timed path is what ``katograph FILE --dot --contract`` does
without the file writes: ``json.loads`` -> ``cli.parse_spec_dict`` ->
``cli.build_report`` -> ``RunReport.render()`` -> ``cli.emit_dot`` of the
graph and of the skeleton. One catalog serves every input, as one
``katograph`` process would. A closed loop with one client: the next input
starts when the previous one has finished.

A pass runs every input once. The first pass is a warm-up; it is not timed
and fixes each input's output digest, the size counts and the failure count
that every later run of the input must reproduce. Without ``trace`` the timed
passes repeat until ``seconds`` have gone by; the first is always whole and
the last stops at the deadline. Between inputs, at least every
``PROBE_EVERY_S`` of input time, the worker times a fixed integer loop (the
probe); each latency is returned with the mean of the probe times just
before and just after it, which tells the machine's speed at that moment.

With ``trace`` the run is split in three: untraced passes for a quarter of
the time, traced passes for half of it, and traced passes over the half-size
inputs for the last quarter; each of these is a list of whole passes. The
tracer wraps, from outside the program, the names where the calling module
looks them up, and sums each span's self time (its duration minus its child
spans') per name.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from collections import Counter, defaultdict

from katograph import analysis, catalog, cli, graphs

# Span names of the traced run; each is reported as ``<name>_s`` per pass.
STAGES = (
    "cli.parse",
    "cli.build_report",
    "graphs.check_input",
    "graphs.realize",
    "analysis.formulas",
    "analysis.contract",
    "analysis.structural_check",
    "analysis.separation_plan",
    "cli.render",
    "cli.emit_dot",
    "catalog.elementary_tree",
    "catalog.attachment_traces",
    "groups.symbol_contains",
)
ROOT = "trace.glue"  # the per-input span; its self time is the loop's own code
PROBE_EVERY_S = 0.05
PROBE_LOOP = 20_000  # about 1-2 ms


def probe_s() -> float:
    """Time of a fixed integer loop that allocates nothing the collector tracks."""
    start = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOP):
        x += i * i % 7
    return time.perf_counter() - start


def parse(text: str):
    return cli.parse_spec_dict(json.loads(text))


def run_input(text: str, cat):
    raw = parse(text)
    report = cli.build_report(raw, cat)
    return report, report.render(), cli.emit_dot(report.graph), cli.emit_dot(report.skeleton)


class Tracer:
    """Self time and call count per span name, kept in memory."""

    def __init__(self):
        self.stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)

    def clear(self):
        self.self_s.clear()
        self.calls.clear()
        self.keys.clear()

    def wrap(self, name, fn, key=None):
        stack, self_s, calls, keys = self.stack, self.self_s, self.calls, self.keys
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            if key is not None:
                keys[name].add(key(args))
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_s[name] += duration - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration

        return traced

    def install(self):
        """Wrap each layer's entry points where their callers look them up."""
        me = sys.modules[__name__]
        targets = [
            (me, "run_input", ROOT, None),
            (me, "parse", "cli.parse", None),
            (cli, "build_report", "cli.build_report", None),
            (cli, "check_input", "graphs.check_input", None),
            (cli, "realize", "graphs.realize", None),
            (cli, "contract", "analysis.contract", None),
            (cli, "structural_check", "analysis.structural_check", None),
            (cli, "separation_plan", "analysis.separation_plan", None),
            (cli, "emit_dot", "cli.emit_dot", None),
            # render calls branch_points itself: that call is a child of cli.render.
            (cli.RunReport, "render", "cli.render", None),
            (catalog.Catalog, "elementary_tree", "catalog.elementary_tree", lambda a: a[1:3]),
            (catalog.Catalog, "attachment_traces", "catalog.attachment_traces", lambda a: a[1:4]),
        ]
        for name in ("count_cusps_direct", "cusp_count_general", "cusp_count_char0",
                     "census", "is_ordinary", "branch_points"):
            targets.append((cli, name, "analysis.formulas", None))
        for module in (graphs, analysis, catalog):
            targets.append((module, "symbol_contains", "groups.symbol_contains", None))
        for owner, attr, name, key in targets:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), key))


def one_pass(texts, cat, sizes=None, total=None, deadline=None, probes=None):
    """Run the inputs once, in order, stopping at ``deadline`` if one is given.

    Returns (latencies, per-input output digests, failures, first error).
    ``total``, a hash object, is fed every input's output in order. With a
    list for ``probes``, it gets each latency's probe time.
    """
    latencies, digests, failures, first_error = [], [], 0, None
    clock = time.perf_counter
    if probes is not None:
        last_probe, probed, since = probe_s(), 0, 0.0
    for text in texts:
        start = clock()
        if deadline is not None and start >= deadline:
            break
        try:
            report, out, dot_graph, dot_skeleton = run_input(text, cat)
        except Exception as exc:  # a failed input is counted, and the pass goes on
            latencies.append(clock() - start)
            failures += 1
            first_error = first_error or traceback.format_exc()
            output = f"FAILED {type(exc).__name__}: {exc}\0".encode()
        else:
            latencies.append(clock() - start)
            if not (report.formulas_agree and report.structure.ok and report.ordinary is not False):
                failures += 1
                first_error = first_error or f"checks failed on input {len(latencies) - 1}"
            output = b"".join(part.encode() + b"\0" for part in (out, dot_graph, dot_skeleton))
            if sizes is not None:
                add_sizes(sizes, report, out)
        digests.append(hashlib.sha256(output).digest())
        if total is not None:
            total.update(output)
        if probes is not None:
            since += latencies[-1]
            if since >= PROBE_EVERY_S or len(latencies) == len(texts):
                this_probe = probe_s()
                probes += [(last_probe + this_probe) / 2] * (len(latencies) - probed)
                last_probe, probed, since = this_probe, len(latencies), 0.0
    if probes is not None and probed < len(latencies):
        probes += [(last_probe + probe_s()) / 2] * (len(latencies) - probed)
    return latencies, digests, failures, first_error


def add_sizes(sizes, report, out):
    """Add one input's size counts to ``sizes``."""
    g, sk, plan = report.graph, report.skeleton, report.plan
    sizes["workload.input_vertices"] += len(report.raw.vertices)
    sizes["graphs.kato_vertices"] += len(g.vertices)
    sizes["graphs.kato_edges"] += len(g.finite_edges)
    sizes["graphs.cusps"] += len(g.cusps)
    sizes["analysis.skeleton_vertices"] += len(sk.vertices)
    sizes["analysis.collapses"] += len(g.vertices) - len(sk.vertices)
    sizes["analysis.contract_warnings"] += len(sk.warnings)
    sizes["analysis.contract_duplicate_warnings"] += len(sk.warnings) - len(set(sk.warnings))
    sizes["analysis.plan_clusters"] += len(plan.clusters)
    sizes["analysis.plan_distances"] += len(plan.distances)
    sizes["cli.report_bytes"] += len(out.encode())


class Session:
    """Passes over one input set; every input must reproduce its warm-up output."""

    def __init__(self, texts, cat):
        self.texts, self.cat = texts, cat
        self.sizes = Counter()
        total = hashlib.sha256()
        _, self.digests, self.failures, self.first_error = one_pass(texts, cat, self.sizes, total)
        self.digest = total.hexdigest()
        self.attempted = len(texts)
        self.digests_match = True

    def timed_pass(self, deadline=None, probes=None):
        """One timed pass, checked against the warm-up; its latencies."""
        latencies, digests, failures, error = one_pass(
            self.texts, self.cat, deadline=deadline, probes=probes)
        self.attempted += len(latencies)
        self.failures += failures
        self.first_error = self.first_error or error
        self.digests_match &= digests == self.digests[:len(digests)]
        return latencies

    def run(self, seconds):
        """Probed passes for ``seconds``, the first one whole: (latencies, probe times)."""
        probes = []
        deadline = time.perf_counter() + seconds
        latencies = self.timed_pass(probes=probes)
        while time.perf_counter() < deadline:
            latencies += self.timed_pass(deadline, probes)
        return latencies, probes


def whole_passes(session, seconds, tracer=None):
    """Whole passes until ``seconds`` have gone by (at least one): per pass, its
    time and, with a tracer, each span's self time, calls and distinct keys."""
    records = []
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline:
        if tracer is None:
            records.append({"pass_s": sum(session.timed_pass())})
            continue
        tracer.clear()
        records.append({
            "pass_s": sum(session.timed_pass()),
            "self_s": dict(tracer.self_s),
            "calls": dict(tracer.calls),
            "distinct": {name: len(keys) for name, keys in tracer.keys.items()},
        })
    return records


def main():
    request = json.load(sys.stdin)
    cat = catalog.Catalog()
    full = Session(request["texts"], cat)
    seconds = request["seconds"]
    result = {}
    if request["trace"]:
        half = Session(request["half"], cat)
        result["untraced"] = whole_passes(full, seconds / 4)
        tracer = Tracer()
        tracer.install()
        result["traced"] = whole_passes(full, seconds / 2, tracer)
        result["traced_half"] = whole_passes(half, seconds / 4, tracer)
        result["half_sizes"] = half.sizes
        sessions = (full, half)
    else:
        result["latencies"], result["probes"] = full.run(seconds)
        sessions = (full,)
    result.update(
        digest=full.digest,
        sizes=full.sizes,
        attempted=sum(s.attempted for s in sessions),
        failed=sum(s.failures for s in sessions),
        first_error=next((s.first_error for s in sessions if s.first_error), None),
        digests_match=all(s.digests_match for s in sessions),
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
