"""The katograph benchmark: one command, seeded workloads, checked outputs.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``, nothing needs installing. The workloads, and why each exists, are
described in ``bench/workloads.py``.

``--trace 0`` prints the end-to-end metrics. Inputs run in a fresh worker
process (``bench/worker.py``) with tracing off:

    setup_s          median time of fresh interpreters that import katograph
                     and construct a Catalog, as every ``katograph FILE``
                     call does before its first input; half of them start
                     before the timed run, half after
    inputs_per_s     inputs completed per second of timed passes
    latency_p50_ms   median time of an input over every timed sample
    latency_tail_ms  a high percentile of the same samples, fixed per
                     workload (see ``workloads.TAIL_PERCENTILE``) and printed
                     with the number of samples beyond it
    peak_rss_mb      peak resident memory of the worker process
    failed_share     failed inputs over attempted ones (printed; it is 0 at
                     the commit that defined the benchmark, so it is not a
                     gated metric: the result's ``failed`` field carries it)

Every time above is scaled to one reference speed of the machine. The
machine the benchmark was defined on (2 vCPUs of a shared host) changes
speed by up to 2x, in states that last from seconds to minutes, with the
benchmark alone on it: a corpus pass over the same inputs took 1.45-2.92 s
within five minutes, and whole 50 s runs over inputs of one kind read from
7.1 to 13.5 inputs/s. So the benchmark times a fixed integer loop (the
probe, ``worker.probe_s``) next to the work, at least every 50 ms of it and
around every setup, and reports each time t as t * PROBE_REFERENCE_S / p,
where p is the mean probe time just before and after it. The program's
time follows the probe's closely: in a 150 s record of the skeleton and
chain inputs, per-input times spread 0.21 (standard deviation over mean)
raw and 0.105 scaled, and over sliding 25-50 s windows the throughput's
spread (quartile distance over median) was 0.16-0.20 raw and 0.06 scaled.
Wall-clock figures are printed beside the scaled ones; the traced run's
times are wall times. The probe runs in
the worker's own thread, so work the program moved to a thread of its own
would slow the probe too and be partly scaled away.

``--trace 1`` prints the per-layer metrics of a traced run: the self time
of each layer's stages per pass (median over traced passes), call counts,
distinct-key shares of the catalog, graph sizes, the tracing overhead, and
each stage's size exponent log(t1/t_half)/log(V1/V_half) against the same
workload at half size.

Outputs are checked three ways: every input's cusp counts agree, its
structure check passes and it is not non-ordinary; every pass reproduces
the warm-up pass's SHA-256 of each input's report and DOT texts; and the
warm-up's SHA-256 over all of them equals the one recorded in
``bench/digests.json`` for the seed, when one is recorded (``--record``
writes it there instead).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
SETUP_RUNS = 4  # before the timed run, and as many after it
# The probe's time at the reference speed: about its median on the machine
# the benchmark was defined on. Scaled times read as wall times there.
PROBE_REFERENCE_S = 0.0015
TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record this seed's output digest instead of checking it")
    args = parser.parse_args(argv)
    if not (SRC / "katograph" / "__init__.py").is_file():
        print(f"bench: no program at {SRC / 'katograph'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from worker import probe_s

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    texts = workloads.generate(args.workload, args.seed)
    half = workloads.generate(args.workload, args.seed, scale=0.5) if args.trace else None
    setup = None if args.trace else setup_times(probe_s)
    result = run_worker(texts, half, args.seconds, bool(args.trace))
    if setup is not None:
        setup += setup_times(probe_s)

    print(f"workload {args.workload}  seed {args.seed}  inputs {len(texts)}")
    print("sizes: " + "  ".join(f"{k} {v}" for k, v in sorted(result["sizes"].items())))
    correct = check_outputs(args.workload, args.seed, result, args.record)
    if args.trace:
        metrics = layer_metrics(result)
    else:
        metrics = end_to_end_metrics(result, setup, workloads.TAIL_PERCENTILE[args.workload])
    for name, m in metrics.items():
        print(f"{name:36} {m['value']:.6g} {m['unit']}{m.get('note', '')}")
    if not args.trace:
        print(f"{'probe (not a metric)':36} {1000 * statistics.median(result['probes']):.4g} ms"
              f"  (median; the reference is {1000 * PROBE_REFERENCE_S:g} ms)")
    print(f"{'failed_share':36} {result['failed'] / result['attempted']:.6g} share"
          f"  ({result['failed']} of {result['attempted']} inputs; not gated, see 'failed')")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_times(probe_s) -> list[tuple[float, float]]:
    """Wall and probe times of fresh interpreters that import katograph and build a Catalog."""
    cmd = [sys.executable, "-c", "import katograph; katograph.Catalog()"]
    times = []
    for _ in range(SETUP_RUNS + 1):  # the first may also write the bytecode cache
        before = probe_s()
        start = time.perf_counter()
        # Captured pipes make the wait end at the child's exit; a bare wait with
        # a timeout polls, in steps of up to 50 ms.
        subprocess.run(cmd, env=child_env(), check=True, timeout=TIMEOUT_S, capture_output=True)
        times.append((time.perf_counter() - start, (before + probe_s()) / 2))
    return times[1:]


def run_worker(texts, half, seconds, trace) -> dict:
    request = json.dumps({"texts": texts, "half": half, "seconds": seconds, "trace": trace})
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")],
        input=request, capture_output=True, text=True, env=child_env(), timeout=TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def check_outputs(workload, seed, result, record) -> bool:
    """True when every input passed its checks and every output matched."""
    correct = result["failed"] == 0 and result["digests_match"]
    if result["first_error"]:
        print(f"first failure:\n{result['first_error']}", file=sys.stderr)
    if not result["digests_match"]:
        print("output differs from the warm-up pass", file=sys.stderr)
    digest = result["digest"]
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    expected = recorded.get(workload, {}).get(str(seed))
    if record:
        recorded.setdefault(workload, {})[str(seed)] = digest
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        verdict = "recorded"
    elif expected is None:
        verdict = "no digest recorded for this seed"
    elif expected == digest:
        verdict = "matches the recorded digest"
    else:
        verdict = f"DIFFERS from the recorded {expected}"
        correct = False
    print(f"output sha256 {digest}: {verdict}")
    return correct


def end_to_end_metrics(result, setup, tail_pct) -> dict:
    """Throughput and latencies over all timed samples, scaled to the reference speed."""
    wall = result["latencies"]
    samples = sorted(t * PROBE_REFERENCE_S / p for t, p in zip(wall, result["probes"]))
    n = len(samples)
    tail = statistics.quantiles(samples, n=100, method="inclusive")[tail_pct - 1]
    beyond = sum(t > tail for t in samples)
    setup_scaled = [t * PROBE_REFERENCE_S / p for t, p in setup]
    return {
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s",
                    "note": f"  (median of {len(setup)} fresh interpreters;"
                            f" wall {statistics.median(t for t, _ in setup):.4g} s)"},
        "inputs_per_s": {"value": n / sum(samples), "unit": "1/s",
                         "note": f"  ({n} samples; wall {n / sum(wall):.4g} 1/s)"},
        "latency_p50_ms": {"value": 1000 * statistics.median(samples), "unit": "ms",
                           "note": f"  (wall {1000 * statistics.median(wall):.4g} ms)"},
        "latency_tail_ms": {"value": 1000 * tail, "unit": "ms",
                            "note": f"  (p{tail_pct}; {beyond} of {n} samples beyond it)"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
    }


def layer_metrics(result) -> dict:
    """Per-layer numbers of a traced run; times are per pass, median over passes."""
    import worker

    full, half = result["traced"], result["traced_half"]

    def self_s(records, stage):
        return statistics.median(r["self_s"].get(stage, 0.0) for r in records)

    def pass_s(records):
        return statistics.median(r["pass_s"] for r in records)

    def metric(value, unit):
        return {"value": value, "unit": unit}

    out = {f"{stage}_s": metric(self_s(full, stage), "s") for stage in worker.STAGES}
    calls, distinct = full[-1]["calls"], full[-1]["distinct"]
    for name in ("catalog.elementary_tree", "catalog.attachment_traces", "groups.symbol_contains"):
        out[f"{name}_calls"] = metric(calls.get(name, 0), "count")
    for short, name in (("tree", "catalog.elementary_tree"), ("trace", "catalog.attachment_traces")):
        share = distinct.get(name, 0) / calls[name] if calls.get(name) else 0.0
        out[f"catalog.{short}_distinct_share"] = metric(share, "share")
    for name, value in result["sizes"].items():
        out[name] = metric(value, "bytes" if name.endswith("_bytes") else "count")

    untraced_s = pass_s(result["untraced"])
    traced_s = pass_s(full)
    out["trace.glue_s"] = metric(self_s(full, worker.ROOT), "s")
    out["trace.pass_s"] = metric(traced_s, "s")
    out["trace.untraced_pass_s"] = metric(untraced_s, "s")
    out["trace.overhead_share"] = metric(traced_s / untraced_s - 1, "share")
    # The stage spans partition each input's root span, so this reads about 1.
    out["trace.stage_sum_share"] = metric(
        statistics.median(sum(r["self_s"].values()) / r["pass_s"] for r in full), "share")

    vertices = "workload.input_vertices"
    size_ratio = math.log(result["sizes"][vertices] / result["half_sizes"][vertices])
    for stage in ("pass",) + worker.STAGES:
        if stage == "pass":
            t1, th = traced_s, pass_s(half)
        else:
            t1, th = self_s(full, stage), self_s(half, stage)
        value = math.log(t1 / th) / size_ratio if t1 > 0 and th > 0 else 0.0
        out[f"{stage}.size_exponent"] = metric(value, "exponent")
    return out


if __name__ == "__main__":
    sys.exit(main())
