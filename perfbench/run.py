#!/usr/bin/env python3
"""The curtain repo benchmark.

Builds perfbench_workload from the checkout's sources, runs one workload
through core::Scenario / core::Study for --seconds, checks every
iteration's output and prints one JSON result as the last stdout line:

    python3 perfbench/run.py --workload paper_report --seed 20141105 \
        --seconds 40 --trace 0

--trace 0 reports the end-to-end metrics (medians over the iterations
that fit in --seconds, at least two). --trace 1 runs one untraced and
one traced iteration and reports the per-layer metrics instead; its
spans land in .bench_out/ as chrome://tracing JSON. See
perfbench/README.md for the workloads, metrics and correctness rules.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "perfbench_workload"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 20141105
# Never used while tuning the benchmark or a change: re-check a perf claim
# on it before accepting it.
HELDOUT_SEED = 20150226
MIN_ITERATIONS = 2
DEADLINE_S = 165  # stop starting iterations that would end past this

WORKLOADS = {
    # The paper reproducer's job: 158 devices, ~70 experiments each (warm
    # per-device resolver caches), then the report reads and aggregates.
    "paper_report": {
        "scale": 0.1, "us_clients": 0, "analysis": "report",
        "toy": {"scale": 0.003},
    },
    # A wide fleet touched about once per device (cold state lanes), then
    # the CSV export writes the dataset.
    "fleet_export": {
        "scale": 0.001, "us_clients": 2500, "analysis": "export",
        "toy": {"scale": 0.002, "us_clients": 120},
    },
}

END_TO_END = ["setup_s", "experiments_per_s", "experiments_per_cpu_s",
              "total_s", "peak_rss_mb", "correct_share"]
UNITS = {
    "setup_s": "s", "experiments_per_s": "1/s", "experiments_per_cpu_s": "1/s",
    "total_s": "s", "peak_rss_mb": "MB", "correct_share": "share",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


# --- build ------------------------------------------------------------------

def build():
    """Configures (once) and builds the workload binary; exits non-zero on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_workload", "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(step)}")
            sys.exit(3)


# --- host stamp -------------------------------------------------------------

def source_digest():
    """sha256 over the library sources, for checkouts that carry no git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def host_stamp(iteration):
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        commit = result.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "kernel": platform.release(),
        "compiler": iteration.get("compiler"),
        "build_type": iteration.get("build_type"),
        "commit": commit,
        "source_sha256": source_digest(),
        "workers": iteration.get("workers"),
    }


def steal_ticks():
    """(steal, total) jiffies across all CPUs from /proc/stat, or None."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    except OSError:
        return None
    ticks = [int(f) for f in fields]
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks[:8])


def steal_share(before, after):
    """Share of host CPU time the hypervisor stole between two samples."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


# --- one iteration ----------------------------------------------------------

def child_env():
    # Only the benchmark chooses the workload: drop every CURTAIN_* knob the
    # caller may have exported, and keep the log quiet.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CURTAIN_")}
    env["CURTAIN_LOG"] = "warn"
    return env


def run_iteration(shape, seed, tag, analysis=None, traced=False,
                  timeout=DEADLINE_S):
    out_dir = OUT / tag
    shutil.rmtree(out_dir, ignore_errors=True)
    command = [str(BINARY), "--seed", str(seed), "--scale", str(shape["scale"]),
               "--us-clients", str(shape["us_clients"]),
               "--analysis", analysis or shape["analysis"],
               "--out", str(out_dir)]
    if traced:
        command += ["--trace", str(OUT / tag)]
    steal0 = steal_ticks()
    try:
        result = subprocess.run(command, capture_output=True, text=True,
                                env=child_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: iteration {tag} timed out")
        return None
    if result.returncode != 0 or not result.stdout.strip():
        log(result.stderr[-4000:])
        log(f"perfbench: iteration {tag} exited {result.returncode}")
        return None
    data = json.loads(result.stdout.strip().splitlines()[-1])
    data["host_steal_share"] = steal_share(steal0, steal_ticks())
    data["problems"] = check_outputs(data, out_dir, shape["analysis"])
    for layer in ("dns.decode_query", "dns.decode"):
        failed = data.get("replay", {}).get(layer, {}).get("failed", 0)
        if failed:
            data["problems"].append(f"{layer}: {failed} round trips did not "
                                    "reproduce the encoded message")
    data["output_sha256"] = output_digest(out_dir, shape["analysis"])
    data["counters_sha256"] = counters_digest(data["counters"])
    shutil.rmtree(out_dir, ignore_errors=True)
    return data


def output_digest(out_dir, analysis):
    digest = hashlib.sha256()
    if analysis == "report":
        paths = [out_dir / "report.md"]
    else:
        paths = sorted((out_dir / "export").iterdir())
    for path in paths:
        digest.update(path.name.encode() + b"\0")
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
    return digest.hexdigest()


def counters_digest(counters):
    text = "".join(f"{name}={value}\n" for name, value in sorted(counters.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def check_outputs(data, out_dir, analysis):
    """Invariants any correct run satisfies, whatever the seed."""
    problems = []
    counters = data["counters"]
    for counter, total in (("curtain_measure_experiments_total", "experiments"),
                           ("curtain_measure_resolutions_total", "resolutions"),
                           ("curtain_measure_probes_total", "probes"),
                           ("curtain_measure_traceroutes_total", "traceroutes")):
        if counters.get(counter) != data[total]:
            problems.append(f"{counter}={counters.get(counter)} but "
                            f"{data[total]} {total} records")
    if data["experiments"] <= 0 or data["touched_devices"] <= 0:
        problems.append("campaign produced no experiments")
    if analysis == "report":
        text = (out_dir / "report.md").read_text(encoding="utf-8")
        expected = f"dataset: {data['experiments']} experiments, " \
                   f"{data['resolutions']} resolutions"
        if not text.startswith("# EXPERIMENTS") or expected not in text:
            problems.append("report header does not match the run's records")
    else:
        export = out_dir / "export"
        if data["analysis"].get("export_files") != 7:
            problems.append(f"export wrote {data['analysis'].get('export_files')} files")
        manifest = (export / "MANIFEST.txt").read_text().splitlines()
        listed = dict(line.split(": ") for line in manifest[1:] if ": " in line)
        for stream in ("experiments", "resolutions", "probes", "traceroutes"):
            with open(export / f"{stream}.csv", "rb") as handle:
                rows = sum(1 for _ in handle) - 1
            if rows != data[stream] or int(listed.get(stream, -1)) != rows:
                problems.append(f"{stream}.csv has {rows} rows, manifest "
                                f"{listed.get(stream)}, records {data[stream]}")
    return problems


# --- correctness against the reference ----------------------------------------

def load_reference(workload, seed):
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def judge(iterations, reference):
    """Marks each iteration ok or failed; returns the failure count.

    The reference is the committed one for (workload, seed) when there is
    one, else the run's first iteration: every iteration must then repeat
    it byte for byte (output digest and deterministic counter vector).
    """
    failed = 0
    for data in iterations:
        problems = list(data["problems"])
        expect = reference or {"output_sha256": iterations[0]["output_sha256"],
                               "counters": iterations[0]["counters"]}
        if data["output_sha256"] != expect["output_sha256"]:
            problems.append("output digest differs from the reference")
        # Counters the reference names must match; a counter added since the
        # reference was recorded is not a difference in results.
        for name, value in expect["counters"].items():
            if data["counters"].get(name) != value:
                problems.append(f"counter {name}={data['counters'].get(name)} "
                                f"!= reference {value}")
        data["problems"] = problems
        if problems:
            failed += 1
            for problem in problems:
                log(f"perfbench: FAILED iteration: {problem}")
    return failed


# --- metrics ----------------------------------------------------------------

def analysis_seconds(data, analysis):
    return data["analysis"]["report_s" if analysis == "report" else "export_s"]


def end_to_end(iterations, analysis, failed):
    ok = [d for d in iterations if not d["problems"]] or iterations
    setups = [s for d in ok for s in d["setup_s"]]
    return {
        "setup_s": statistics.median(setups),
        "experiments_per_s": statistics.median(
            d["experiments"] / d["run_s"] for d in ok),
        # CPU seconds (getrusage, all threads) rather than shard wall time:
        # on a shared VM wall time also counts the time the hypervisor
        # steals, which swings by several percent from minute to minute.
        "experiments_per_cpu_s": statistics.median(
            d["experiments"] / d["run_cpu_s"] for d in ok),
        "total_s": statistics.median(
            d["setup_s"][-1] + d["run_s"] + analysis_seconds(d, analysis)
            for d in ok),
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in ok),
        "correct_share": (len(iterations) - failed) / len(iterations),
    }


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(plain, traced):
    """Per-layer metrics from one untraced and one traced iteration.

    Returns {name: (value, unit)}. Ratios and per-experiment counts come
    from the deterministic counters; per-call timings from the traced
    iteration's replay; `computed.*` multiplies exact campaign call counts
    by replayed mean ns/call and always sits beside the measured
    exec.busy_s with the residual between them.
    """
    c = plain["counters"]
    experiments = plain["experiments"]
    resolutions = plain["resolutions"]
    busy = plain["busy_ms"]
    mean_busy = statistics.mean(busy)
    replay = traced["replay"]
    m = {}

    m["exec.utilization"] = (
        ratio(sum(busy) / 1000.0, plain["workers"] * plain["run_s"]), "share")
    m["exec.imbalance"] = (ratio(max(busy), mean_busy), "ratio")
    m["exec.queue_wait_p95_ms"] = (traced["profile"]["queue_wait_p95_ms"], "ms")
    m["exec.busy_s"] = (sum(traced["busy_ms"]) / 1000.0, "s")

    m["measure.resolutions_per_experiment"] = (ratio(resolutions, experiments), "count")
    m["measure.probes_per_experiment"] = (
        ratio(plain["probes"] + plain["traceroutes"], experiments), "count")
    m["measure.record_bytes_per_experiment"] = (
        ratio(plain["record_bytes"], experiments), "B")

    for kind in ("local", "google", "opendns"):
        stats = replay[f"dns.stub_query.{kind}"]
        m[f"dns.stub_query_us.{kind}.p50"] = (stats["p50_ns"] / 1000.0, "us")
        m[f"dns.stub_query_us.{kind}.p95"] = (stats["p95_ns"] / 1000.0, "us")
    for op in ("encode", "decode"):
        m[f"dns.{op}_ns.p50"] = (replay[f"dns.{op}"]["p50_ns"], "ns")
        m[f"dns.{op}_ns.p95"] = (replay[f"dns.{op}"]["p95_ns"], "ns")
    m["dns.upstream_per_resolution"] = (
        ratio(c["curtain_dns_upstream_queries_total"], c["curtain_dns_queries_total"]),
        "count")
    hits = c["curtain_dns_cache_hits_total"]
    m["dns.cache_hit_ratio"] = (
        ratio(hits, hits + c["curtain_dns_cache_misses_total"]), "share")
    m["dns.lane_cache_kb_per_touched_device"] = (
        ratio((plain["lane_cache_bytes"] + plain["lane_state_bytes"]) / 1024.0,
              plain["touched_devices"]), "KiB")

    queries = c["curtain_cell_client_queries_total"]
    m["cellular.client_hit_ratio"] = (
        ratio(c["curtain_cell_client_cache_hits_total"], queries), "share")
    m["cellular.forwards_per_query"] = (
        ratio(c["curtain_cell_forwards_total"], queries), "count")

    cdn = replay["cdn.cluster_for_resolver"]
    m["cdn.cluster_for_resolver_ns.p50"] = (cdn["p50_ns"], "ns")
    m["cdn.cluster_for_resolver_ns.p95"] = (cdn["p95_ns"], "ns")
    m["cdn.lookups_per_resolution"] = (
        ratio(c["curtain_cdn_mapping_lookups_total"], resolutions), "count")

    m["net.transport_rtt_ns.p50"] = (replay["net.transport_rtt"]["p50_ns"], "ns")
    m["net.transport_rtt_ns.p95"] = (replay["net.transport_rtt"]["p95_ns"], "ns")
    m["net.ping_ns.p50"] = (replay["net.ping"]["p50_ns"], "ns")
    m["net.ping_ns.p95"] = (replay["net.ping"]["p95_ns"], "ns")
    m["net.traceroute_us.p50"] = (replay["net.traceroute"]["p50_ns"] / 1000.0, "us")
    m["net.traceroute_us.p95"] = (replay["net.traceroute"]["p95_ns"] / 1000.0, "us")
    m["net.pings_per_experiment"] = (
        ratio(c["curtain_net_pings_total"], experiments), "count")

    report_s = traced["analysis"]["report_s"]
    export_s = traced["analysis"]["export_s"]
    m["analysis.report_s"] = (report_s, "s")
    m["analysis.export_s"] = (export_s, "s")
    m["analysis.export_mb_per_s"] = (
        ratio(traced["analysis"]["export_bytes"] / 1e6, export_s), "MB/s")

    m["obs.trace_overhead"] = (
        ratio(traced["experiments"] / traced["run_s"],
              plain["experiments"] / plain["run_s"]), "ratio")

    # Computed layer time: exact call counts x replayed mean ns/call.
    def seconds(calls, layer):
        return calls * replay[layer]["mean_ns"] / 1e9

    stub_s = sum(seconds(traced["stub_calls"][kind], f"dns.stub_query.{kind}")
                 for kind in ("local", "google", "opendns"))
    pings = traced["probes"] - traced["http_probes"]
    net_s = (seconds(pings, "net.ping")
             + seconds(2 * traced["http_probes"], "net.transport_rtt")
             + seconds(traced["traceroutes"], "net.traceroute"))
    # Nested inside the stub figure, so not added to the sum: each DNS
    # exchange (stub, recursive upstream, carrier forward) encodes and
    # decodes one query and one response.
    tc = traced["counters"]
    exchanges = (sum(traced["stub_calls"].values())
                 + tc["curtain_dns_upstream_queries_total"]
                 + tc["curtain_cell_forwards_total"])
    codec_s = sum(seconds(exchanges, layer) for layer in (
        "dns.encode_query", "dns.decode_query", "dns.encode", "dns.decode"))
    cdn_s = seconds(tc["curtain_cdn_mapping_lookups_total"], "cdn.cluster_for_resolver")
    busy_s = m["exec.busy_s"][0]
    m["computed.dns_stub_s"] = (stub_s, "s")
    m["computed.net_probe_s"] = (net_s, "s")
    m["computed.dns_codec_nested_s"] = (codec_s, "s")
    m["computed.cdn_mapping_nested_s"] = (cdn_s, "s")
    m["computed.layers_s"] = (stub_s + net_s, "s")
    m["computed.residual_s"] = (busy_s - stub_s - net_s, "s")
    m["computed.residual_share"] = (ratio(busy_s - stub_s - net_s, busy_s), "share")
    return m


def print_layer_table(metrics):
    log("per-layer metrics (traced run):")
    module = None
    for name, (value, unit) in metrics.items():
        head = name.split(".", 1)[0]
        if head != module:
            module = head
            log(f"  [{module}]")
        log(f"    {name:<42} {value:>14.6g} {unit}")
    log("  computed vs measured shard busy time:")
    log(f"    computed (stub + net probes) {metrics['computed.layers_s'][0]:10.3f} s"
        f"   measured sum of busy {metrics['exec.busy_s'][0]:10.3f} s"
        f"   unexplained residual {metrics['computed.residual_s'][0]:10.3f} s")


# --- one benchmark run ------------------------------------------------------

def run(workload, seed, seconds, trace, toy=False):
    shape = dict(WORKLOADS[workload])
    if toy:
        shape.update(shape["toy"])
    OUT.mkdir(exist_ok=True)
    reference = None if toy else load_reference(workload, seed)
    start = time.monotonic()
    iterations = []
    attempted = 0
    tag = f"{workload}-{seed}"
    if trace:
        plans = [dict(traced=False), dict(traced=True, analysis="both")]
        for i, plan in enumerate(plans):
            attempted += 1
            data = run_iteration(shape, seed, f"{tag}-{i}", **plan)
            if data:
                iterations.append(data)
    else:
        longest = 0.0
        while True:
            elapsed = time.monotonic() - start
            if attempted >= MIN_ITERATIONS and elapsed >= seconds:
                break
            if attempted and elapsed + longest > DEADLINE_S:
                break
            attempted += 1
            began = time.monotonic()
            data = run_iteration(shape, seed, f"{tag}-{attempted - 1}",
                                 timeout=max(1.0, DEADLINE_S - elapsed))
            longest = max(longest, time.monotonic() - began)
            if data:
                iterations.append(data)
    if not iterations:
        log("perfbench: no iteration completed")
        sys.exit(1)

    failed = judge(iterations, reference) + (attempted - len(iterations))
    if trace:
        if len(iterations) < 2:
            log("perfbench: the traced run needs both iterations")
            sys.exit(1)
        layers = per_layer(iterations[0], iterations[1])
        print_layer_table(layers)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}
    else:
        values = end_to_end(iterations, shape["analysis"], failed)
        metrics = {name: {"value": values[name], "unit": UNITS[name]}
                   for name in END_TO_END}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    host = host_stamp(iterations[0])
    record = {"workload": workload, "seed": seed, "trace": trace, "toy": toy,
              "host": host, "result": result,
              "iterations": iterations}
    with open(OUT / "records.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")
    return result, host, iterations


def record_reference(workload):
    """Stores the default and held-out seeds' digests and counters."""
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for seed in (DEFAULT_SEED, HELDOUT_SEED):
        data = run_iteration(WORKLOADS[workload], seed, f"{workload}-{seed}-ref")
        if data is None or data["problems"]:
            log(f"perfbench: cannot record a reference: {data and data['problems']}")
            sys.exit(1)
        table.setdefault(workload, {})[str(seed)] = {
            "output_sha256": data["output_sha256"], "counters": data["counters"]}
        log(f"perfbench: recorded reference for {workload} seed {seed}")
    REFERENCE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store the default and held-out seeds' digests "
                             "and counters in perfbench/reference.json "
                             "instead of measuring")
    args = parser.parse_args()

    build()
    if args.record_reference:
        record_reference(args.workload)
        return
    result, host, _ = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"host": host}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
