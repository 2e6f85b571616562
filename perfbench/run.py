#!/usr/bin/env python3
"""Benchmark entry point: builds the measurement binary, runs one workload,
checks its outputs and prints the metrics.

    python3 perfbench/run.py --workload link_sweep --seed 1 --seconds 20 --trace 0

Run it from the repository root. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1
its per-layer metrics. Everything before that line is a readable report.
See perfbench/README.md for the workloads, metrics and checks.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

MANIFEST = os.path.join("perfbench", "Cargo.toml")
BINARY = "fdb-perfbench"
WORKLOADS = ("link_sweep", "city_metro", "service_mixed")
# The binary gets the rest of the 180 s a run may take.
RUN_TIMEOUT_S = 170

# Output bands, from the values measured when the benchmark was defined
# (see README.md, "Output checks"). Rates are per frame. Frames of one
# point share a link, so their counts spread more than a binomial's: up to
# 2.3x its variance (marginal link, 300 jobs); DISPERSION covers that.
REFERENCE = {
    # config: (lock rate, fully delivered fraction)
    "default_link": (0.9993, 0.673),
    "near_tower": (0.999, 0.672),
    "marginal_link": (0.814, 0.120),
}
DISPERSION = 3.0
Z = 5.0
# delivered / offered of the metro city run (0.6095 +- 0.0006 over six
# seeds), and the allowed distance.
CITY_DELIVERED_PER_OFFERED = (0.6095, 0.01)
# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(values, q):
    """Linear interpolation between closest ranks, q in [0, 100]."""
    s = sorted(values)
    k = (len(s) - 1) * q / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def median(values):
    return percentile(values, 50.0)


def tail_percentile(planned):
    """The highest ladder percentile with at least ten of `planned`
    samples beyond it (None when there is none)."""
    for p in TAIL_LADDER:
        if planned * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def describe(values, unit, planned, scale=1.0):
    """'median X unit, pNN Y unit, n=Z' for a list of timings."""
    xs = [v * scale for v in values]
    p = tail_percentile(planned)
    tail = f"p{p:g} {percentile(xs, p):.4g} {unit}" if p else "no tail (n < 40)"
    return f"median {median(xs):.4g} {unit}, {tail}, n={len(xs)}"


def band(p, n):
    """Allowed count range for n frames at reference rate p."""
    sd = math.sqrt(DISPERSION * max(p * (1 - p), 1.0 / n) * n)
    return max(0.0, p * n - Z * sd), min(float(n), p * n + Z * sd)


def in_band(count, n, p):
    lo, hi = band(p, n)
    return lo <= count <= hi


def build():
    """Builds the binary; returns its path, or exits 1 on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST,
           "--message-format=json-render-diagnostics"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg["target"]["name"] == BINARY:
            exe = msg["executable"]
    if proc.returncode != 0 or exe is None:
        sys.exit("perfbench: build failed")
    return exe


def pin_to_one_cpu():
    """Pins this process, and so the measurement it starts, to one CPU.

    The closed service loop hands each request from the client thread to
    the service's threads and back. On two CPUs each hand-off may or may
    not cross CPUs, and on a shared 2-vCPU VM a cross-CPU wake-up costs
    ~50 us: hit latencies then fall in two clusters (~75 us and ~125 us)
    and their median jumps between them from run to run. The loop never
    has more than one job in flight, and the link and city run on one
    thread, so one CPU takes nothing from them. Returns the CPU and how
    many were allowed."""
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    return cpu, len(allowed)


def fdb_core_features():
    """fdb-core's resolved feature set in the benchmark's build."""
    cmd = ["cargo", "tree", "--offline", "--manifest-path", MANIFEST,
           "-e", "features", "-i", "fdb-core", "--prefix", "none"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    feats = set()
    for line in proc.stdout.splitlines():
        if line.startswith('fdb-core feature "'):
            feats.add(line.split('"')[1])
    return sorted(feats)


class Checks:
    """Failed operations per phase and failed output checks."""

    def __init__(self):
        self.ops = {}
        self.problems = []

    def op(self, phase, ok):
        attempted, failed = self.ops.get(phase, (0, 0))
        self.ops[phase] = (attempted + 1, failed + (0 if ok else 1))

    def expect(self, ok, what):
        if not ok:
            self.problems.append(what)

    def attempted(self):
        return sum(a for a, _ in self.ops.values())

    def failed(self):
        return sum(f for _, f in self.ops.values())


def check_outputs(raw, checks):
    link, city, svc = raw["link"], raw["city"], raw["service"]
    totals = {}
    for pt in link["points"]:
        name = pt["config"]
        lock, deliver = REFERENCE[name]
        ok = (pt["error"] is None and pt["dead_frames"] == 0 and pt["frames"] > 0
              and in_band(pt["locked"], pt["frames"], lock)
              and in_band(pt["delivered"], pt["frames"], deliver))
        checks.op("link_sweep points", ok)
        agg = totals.setdefault(name, [0, 0, 0])
        agg[0] += pt["frames"]
        agg[1] += pt["locked"]
        agg[2] += pt["delivered"]
    totals["marginal_link"] = [svc["miss_frames"], svc["miss_locked"], svc["miss_delivered"]]
    for name, (n, locked, delivered) in totals.items():
        lock, deliver = REFERENCE[name]
        checks.expect(n > 0 and in_band(locked, n, lock),
                      f"{name}: lock rate {locked}/{n} outside its band around {lock}")
        checks.expect(n > 0 and in_band(delivered, n, deliver),
                      f"{name}: delivered {delivered}/{n} outside its band around {deliver}")

    ref, width = CITY_DELIVERED_PER_OFFERED
    first = city["runs"][0] if city["runs"] else None
    for run in city["runs"]:
        ok = (run["error"] is None and run["conserved"] and run["offered"] > 0
              and abs(run["delivered"] / run["offered"] - ref) <= width
              and run["events"] == first["events"] and run["delivered"] == first["delivered"])
        checks.op("city_metro runs", ok)

    submissions = len(svc["miss_ns"]) + len(svc["hit_ns"])
    for i in range(submissions):
        checks.op("service_mixed submissions", i >= svc["failed"])
    checks.expect(svc["byte_mismatches"] == 0,
                  f"{svc['byte_mismatches']} cache hits differ from their miss bytes")
    checks.expect((svc["cache_hits"], svc["cache_misses"])
                  == (svc["expected_hits"], svc["expected_misses"]),
                  f"cache counted {svc['cache_hits']} hits / {svc['cache_misses']} misses, "
                  f"designed {svc['expected_hits']} / {svc['expected_misses']}")
    for why in svc["failures"]:
        checks.expect(False, f"service: {why}")


def per_config(points, value):
    by = {}
    for pt in points:
        if pt["error"] is None and pt["samples"] > 0:
            by.setdefault(pt["config"], []).append(value(pt))
    return by


def end_to_end(raw, report):
    link, city, svc = raw["link"], raw["city"], raw["service"]
    m = {}
    m["setup_s"] = (median(raw["setup_s"]), "s")
    report.append(f"setup_s: median of {len(raw['setup_s'])} set-ups "
                  f"{', '.join(f'{v:.4f}' for v in raw['setup_s'])} s")

    # Per frame, not per point: a 2.5 ms frame runs either inside a slow
    # spell of the shared host or outside it, while a 50-frame point
    # averages the two, so a spell over part of the run moves the frame
    # median less.
    frames = per_config(link["points"], lambda p: list(zip(p["frame_ns"], p["frame_samples"])))
    for metric, unit, value in (
            ("link.ns_per_sample", "ns/sample", lambda ns, n: ns / n),
            ("link.frames_per_s", "1/s", lambda ns, n: 1e9 / ns)):
        by = {c: [value(ns, n) for pt in pts for ns, n in pt] for c, pts in frames.items()}
        m[metric] = (sum(median(v) for v in by.values()) / len(by), unit)
        parts = "; ".join(f"{c} {describe(v, unit, len(v))}" for c, v in sorted(by.items()))
        report.append(f"{metric}: mean of per-config medians over frames ({parts})")

    rates = [r["events"] * 1e9 / r["wall_ns"] for r in city["runs"] if r["error"] is None]
    m["city.events_per_s"] = (median(rates), "1/s")
    report.append(f"city.events_per_s: {describe(rates, '1/s', len(rates))}")

    planned_miss = svc["min_misses"]
    planned_hit = svc["min_misses"] * svc["hits_per_miss"]
    for kind, values, planned in (("miss", svc["miss_ns"], planned_miss),
                                  ("hit", svc["hit_ns"], planned_hit)):
        p = tail_percentile(planned)
        m[f"service.{kind}_p50_ms"] = (median(values) / 1e6, "ms")
        m[f"service.{kind}_tail_ms"] = (percentile(values, p) / 1e6, "ms")
        report.append(f"service.{kind}_*: {describe(values, 'ms', planned, 1e-6)} "
                      f"(tail = p{p:g}, the highest with >= 10 of the planned "
                      f"{planned} beyond it)")
    jobs = len(svc["miss_ns"]) + len(svc["hit_ns"])
    m["service.jobs_per_s"] = (jobs * 1e9 / svc["wall_ns"], "1/s")
    report.append(f"service.jobs_per_s: {jobs} jobs in {svc['wall_ns'] / 1e9:.3f} s, "
                  f"closed loop, 1 client, {svc['hits_per_miss']} hits per miss")
    return m


def per_layer(raw, report):
    link, city, svc = raw["link"], raw["city"], raw["service"]
    led = link["ledger"]
    m = {}
    samples = led["samples"]
    stage_total = sum(led["stage_ns"])
    for name, ns in zip(led["stages"], led["stage_ns"]):
        m[f"{name}.ns_per_sample"] = (ns / samples, "ns/sample")
    m["link.unattributed.ns_per_sample"] = ((led["run_frame_ns"] - stage_total) / samples,
                                            "ns/sample")
    m["link.run_frame.ns_per_sample"] = (led["run_frame_ns"] / samples, "ns/sample")
    coverage = stage_total / led["run_frame_ns"]
    m["link.ledger_coverage"] = (coverage, "ratio")
    m["link.replay_mismatches"] = (led["replay_mismatches"], "count")
    m["runner.ns_per_frame"] = ((led["run_link_ns"] - led["in_frame_ns"]) / led["frames"],
                                "ns/frame")
    m["trace.overhead_x"] = (led["traced_wall_ns"] / led["run_link_ns"], "ratio")
    pts = link["points"]
    frames = sum(p["frames"] for p in pts)
    dead = sum(p["dead_frames"] for p in pts)
    m["link.samples"] = (samples, "count")
    m["link.live_frames"] = (led["frames"] - dead, "count")
    m["link.dead_frames"] = (dead, "count")
    m["rx.sync_attempts"] = (sum(p["sync_attempts"] for p in pts), "count")
    m["rx.sync_rejections"] = (sum(p["sync_rejections"] for p in pts), "count")
    m["rx.marginal_sync_attempts"] = (svc["miss_sync_attempts"], "count")
    m["rx.marginal_sync_rejections"] = (svc["miss_sync_rejections"], "count")
    m["link.delivered_frac"] = (sum(p["delivered"] for p in pts) / frames, "ratio")
    m["feedback.pilots_ok_frac"] = (sum(p["pilots_ok"] for p in pts) / frames, "ratio")
    valid = led["replay_mismatches"] == 0
    report.append(f"link ledger: {led['frames']} frames, {samples} samples, coverage "
                  f"{coverage:.3f} (must be 0.75-1.25), pass-1 replay "
                  f"{'matches run_frame on every frame' if valid else 'DIVERGED: ledger INVALID'}")
    if not 0.75 <= coverage <= 1.25:
        report.append("link ledger: coverage outside 0.75-1.25, some layer is unmeasured")
    for name, ns in zip(led["stages"], led["stage_ns"]):
        report.append(f"  {name + '.ns_per_sample':32s} {ns / samples:9.2f} "
                      f"({100 * ns / led['run_frame_ns']:5.1f}% of run_frame)")

    runs = [r for r in city["runs"] if r["error"] is None]
    last = runs[-1]
    for key in ("events", "peak_queue", "attempts", "deferrals", "collisions", "aborts"):
        m[f"city.{key}"] = (last[key], "count")
    m["city.delivered_per_attempt"] = (last["delivered"] / last["attempts"], "ratio")
    m["city.deferrals_per_attempt"] = (last["deferrals"] / last["attempts"], "ratio")
    m["city.ns_per_event"] = (median([r["wall_ns"] / r["events"] for r in runs]), "ns/event")

    tr = svc["trace"]
    for metric, key, scale, unit in (
            ("hash.content_hash_us", "content_hash_ns", 1e-3, "us"),
            ("protocol.request_encode_us", "request_encode_ns", 1e-3, "us"),
            ("protocol.response_decode_us", "response_decode_ns", 1e-3, "us"),
            ("cache.lookup_us", "cache_lookup_ns", 1e-3, "us"),
            ("pool.wait_ms", "wait_ns", 1e-6, "ms"),
            ("pool.run_ms", "run_ns", 1e-6, "ms"),
            ("job.run_link_ms", "run_link_ns", 1e-6, "ms")):
        m[metric] = (median(tr[key]) * scale, unit)
        report.append(f"{metric}: {describe(tr[key], unit, len(tr[key]), scale)}")
    m["cache.hits"] = (svc["cache_hits"], "count")
    m["cache.misses"] = (svc["cache_misses"], "count")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    feats = fdb_core_features()
    cpu, allowed = pin_to_one_cpu()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(os.path.join("perfbench", ".work"), ignore_errors=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench: measurement failed (exit {proc.returncode})")
    raw = json.loads(proc.stdout)

    report = [
        f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}",
        f"fdb-core features: {', '.join(feats) or '(none)'}; "
        f"trace feature {'ON' if raw['engine']['fdb_core_trace'] else 'off'}; "
        f"run_frame engine: {raw['engine']['run_frame_engine']}; "
        f"measurement pinned to CPU {cpu} of the {allowed} allowed",
    ]
    checks = Checks()
    check_outputs(raw, checks)
    metrics = per_layer(raw, report) if args.trace else end_to_end(raw, report)
    for phase, (attempted, failed) in checks.ops.items():
        report.append(f"failed operations, {phase}: {failed}/{attempted} "
                      f"({100.0 * failed / attempted:.1f}%)")
    for problem in checks.problems:
        report.append(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        report.append(f"{name} = {value:.6g} {unit}")
    print("\n".join(report))
    result = {
        "correct": not checks.problems and checks.failed() == 0,
        "attempted": checks.attempted(),
        "failed": checks.failed(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
