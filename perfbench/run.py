#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/main.exe with dune and runs
one workload, then prints one JSON result as its last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Each run simulates a fixed number of
sub-seeds derived from --seed and combines them into each simulated
metric, a function of the seed alone. It then repeats sub-seeds in
turn while --seconds allows, which both adds host-time samples and
checks that a repeat reproduces its simulated results bit for bit. A
host metric is the median over sub-seeds of each sub-seed's median,
with host times scaled by a host-speed kernel. With --trace 1 the
per-layer metrics come from a fixed number of traced repetitions, each
next to a plain one, and the spans are written under .perfbench/. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
CALIB_EXE = os.path.join("_build", "default", "perfbench", "calib", "calib.exe")
OUT_DIR = ".perfbench"

# Per workload: sub-seeds simulated by an untraced run; sub-seeds traced
# by a traced run; whether it has a cost-model twin (its adapter runs
# real cryptography). On a 2-core x86-64 VM at its fast end, every
# sub-seed once plus one repeat takes 15-30 s and a traced run 15-25 s.
WORKLOADS = {
    "lyra-crypto-n16": {"subseeds": 2, "traced": 1, "twin": True},
    "lyra-mev-n16": {"subseeds": 3, "traced": 3, "twin": False},
    "pompe-n100": {"subseeds": 9, "traced": 4, "twin": False},
}

END_TO_END = {
    "commit_p50_ms": "ms",
    "commit_tail_ms": "ms",
    "throughput_tps": "tx/s",
    "inversion_rate": "ratio",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

LYRA_PHASES = ["vvb_deliver", "dbft_decide", "boc_decide", "accept_wait", "reveal"]
POMPE_PHASES = ["order", "consensus", "stable_exec"]
CRYPTO_OPS = [
    "schnorr_sign", "schnorr_verify", "share_verify", "verify_combined",
    "vss_encrypt", "vss_verify_share", "vss_decrypt", "sha256_batch",
]

PER_LAYER = dict(
    [
        ("sim.engine.events", "count"),
        ("sim.engine.events.timer", "count"),
        ("sim.engine.events.wire", "count"),
        ("sim.engine.events.cpu_job", "count"),
        ("sim.engine.events.nic_tx", "count"),
        ("sim.engine.events_per_s", "1/s"),
        ("sim.network.messages", "count"),
        ("sim.network.bytes", "bytes"),
        ("sim.network.messages_per_commit", "count"),
        ("sim.network.dropped", "count"),
        ("sim.network.duplicated", "count"),
        ("sim.cpu.busy_s", "s"),
        ("sim.cpu.util_max", "ratio"),
        ("sim.nic.util_max", "ratio"),
        ("sim.cpu.backlog_p99_us", "us"),
        ("sim.nic.backlog_p99_us", "us"),
    ]
    + [("lyra.phase.%s_p50_ms" % p, "ms") for p in LYRA_PHASES]
    + [("pompe.phase.%s_p50_ms" % p, "ms") for p in POMPE_PHASES]
    + [
        ("protocol.decide_rounds", "rounds"),
        ("protocol.accept_rate", "ratio"),
        ("protocol.submit_s", "s"),
        ("protocol.submit_calls", "count"),
        ("protocol.create_s", "s"),
        ("protocol.start_s", "s"),
        ("protocol.stats_s", "s"),
        ("protocol.output_log_s", "s"),
        ("harness.sim_s", "s"),
        ("harness.sim_self_s", "s"),
        ("harness.on_output_s", "s"),
        ("harness.on_observe_s", "s"),
        ("harness.post_s", "s"),
        ("bench.record_s", "s"),
        ("crypto.wall_s", "s"),
    ]
    + [("crypto.%s_us" % op, "us") for op in CRYPTO_OPS]
    + [
        ("workload.submitted", "count"),
        ("workload.committed", "count"),
        ("workload.searcher_success", "ratio"),
        ("fairness.score_s", "s"),
        ("fairness.gamma_violations", "count"),
        ("gc.minor_mwords", "Mwords"),
        ("gc.major_collections", "count"),
        ("gc.top_heap_mb", "MiB"),
        ("trace.overhead_frac", "ratio"),
    ]
)

# Simulated keys that legitimately differ between a traced and an
# untraced repetition: the profiler adds sampling events and backlog
# recorders, and never changes protocol behaviour.
TRACE_ONLY = ("sim.engine.events", "sim.engine.events.timer",
              "sim.cpu.backlog_p99_us", "sim.nic.backlog_p99_us")

# Host times are reported at the speed of a host on which the host-speed
# kernel takes this long (it takes 37-74 ms on a 2-core x86-64 VM). Such
# a shared VM slows down by up to 2x for minutes at a time, and raw wall
# times spread by 23-37 % over runs with different seeds.
CALIB_REF_S = 0.05

BUILD_TIMEOUT_S = 840
REP_TIMEOUT_S = 150


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("run from the repository root: %s not found" % need)
    # Build output goes to stderr: the last stdout line is the result.
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe",
             "./perfbench/calib/calib.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("dune build timed out")
    if proc.returncode != 0 or not (os.path.exists(EXE) and os.path.exists(CALIB_EXE)):
        fail("dune build failed")


class Rep:
    """One repetition: one process, one Scenario.run."""

    def __init__(self, workload, seed, mode, probes=False):
        args = [EXE, "--workload", workload, "--seed", str(seed), "--mode", mode]
        if probes:
            args.append("--probes")
        try:
            proc = subprocess.run(args, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("%s seed %d (%s) timed out" % (workload, seed, mode))
        self.seed, self.mode = seed, mode
        lines = proc.stdout.strip().splitlines()
        if not lines:
            fail("%s seed %d (%s) printed nothing: %s" % (workload, seed, mode, proc.stderr.strip()))
        out = json.loads(lines[-1])
        self.errors = out["errors"]
        if proc.returncode != 0 and not self.errors:
            self.errors = ["exit code %d: %s" % (proc.returncode, proc.stderr.strip())]
        self.manifest, self.sim, self.host, self.spans, self.latency = (
            out["manifest"], out["sim"], out["host"], out["spans"], out["latency_ms"])

    def same_sim(self, other, ignore=()):
        keep = lambda d: {k: v for k, v in d.items() if k not in ignore}
        return keep(self.sim) == keep(other.sim) and self.latency == other.latency


def subseed(seed, k):
    return seed * 1000 + k


def percentile(sorted_xs, p):
    """Linear interpolation between closest ranks, as Metrics.Stats does."""
    rank = p / 100.0 * (len(sorted_xs) - 1)
    lo, hi = int(rank), min(int(rank) + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (rank - lo) * (sorted_xs[hi] - sorted_xs[lo])


def tail_pct(count):
    """Highest of p50/p90/p99/p99.9 with at least ten samples above it."""
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if count * (100.0 - p) >= 1000.0:
            best = p
    return best


def run_twins(workload, reps, problems):
    """The cost-model twin of each real-crypto repetition. A real-crypto
    run that commits less than nine tenths of its twin fails, so a
    verification that silently fails cannot pass as a fast one."""
    twins = [Rep(workload, r.seed, "twin") for r in reps]
    for r, twin in zip(reps, twins):
        problems.extend(twin.errors)
        if r.sim["committed_txs"] < 0.9 * twin.sim["committed_txs"]:
            problems.append(
                "sub-seed %d: real crypto committed %d, its cost-model twin %d"
                % (r.seed, r.sim["committed_txs"], twin.sim["committed_txs"]))
    return twins


def calib_s():
    """Seconds the host-speed kernel (calib/calib.ml) takes right now."""
    proc = subprocess.run([CALIB_EXE], capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        fail("host-speed kernel failed: " + proc.stderr.strip())
    return float(proc.stdout)


def run_untraced(workload, seed, seconds, spec, problems):
    start = time.monotonic()
    k_max = spec["subseeds"]
    # The kernel is timed between repetitions; each repetition's host
    # times are scaled by CALIB_REF_S over the mean of the kernel times
    # right before and right after it.
    kernel = [calib_s()]

    def plain(k):
        t0 = time.monotonic()
        r = Rep(workload, subseed(seed, k), "plain")
        kernel.append(calib_s())
        r.scale = CALIB_REF_S / ((kernel[-2] + kernel[-1]) / 2)
        r.elapsed = time.monotonic() - t0
        return r

    first = [plain(k) for k in range(k_max)]
    if spec["twin"]:
        run_twins(workload, first, problems)
        kernel.append(calib_s())
    reps = [[r] for r in first]
    # Repeat sub-seeds in turn: once always (the determinism check), then
    # while another repetition fits in --seconds. Each repeat must
    # reproduce its first run bit for bit.
    step = max(r.elapsed for r in first)
    i = 0
    while i == 0 or time.monotonic() - start + step <= seconds:
        r = plain(i % k_max)
        if not r.same_sim(first[i % k_max]):
            problems.append("sub-seed %d did not repeat bit for bit" % r.seed)
        reps[i % k_max].append(r)
        i += 1
    for rs in reps:
        for r in rs:
            problems.extend(r.errors)

    # Simulated metrics over sub-seeds: the median of each sub-seed's
    # latency percentiles (one sub-seed's long tail does not move it),
    # and the mean of the rates, which is the rate over all windows.
    tail = tail_pct(min(len(r.latency) for r in first))
    if tail is None:
        problems.append("too few commits for a tail")
        tail = 50.0
    median = lambda f: statistics.median(f(r) for r in first)
    mean = lambda key: statistics.mean(r.sim[key] for r in first)
    # Host metrics: the median over sub-seeds of each sub-seed's median.
    host = lambda f: statistics.median(statistics.median(f(r) for r in rs) for rs in reps)
    attempted = sum(r.sim["attempted"] for r in first)
    failed = sum(r.sim["failed"] for r in first)
    metrics = {
        "commit_p50_ms": median(lambda r: percentile(r.latency, 50.0)),
        "commit_tail_ms": median(lambda r: percentile(r.latency, tail)),
        "throughput_tps": mean("throughput_tps"),
        "inversion_rate": mean("inversion_rate"),
        "wall_s": host(lambda r: r.host["wall_s"] * r.scale),
        "setup_s": host(lambda r: r.host["setup_s"] * r.scale),
        "peak_rss_mb": host(lambda r: r.host["peak_rss_mb"]),
    }
    detail = {
        "commit_samples": [len(r.latency) for r in first],
        "commit_tail_pct": tail,
        "fail_frac": failed / max(1, attempted),
        "subseeds": [r.seed for r in first],
        "raw_wall_s": host(lambda r: r.host["wall_s"]),
        "calib_s": statistics.median(kernel),
        "raw_wall_s_by_subseed": [[r.host["wall_s"] for r in rs] for rs in reps],
        "elapsed_s": time.monotonic() - start,
    }
    return metrics, {k: END_TO_END[k] for k in metrics}, attempted, failed, detail, first[0]


# Per-layer metrics read from spans: the self times of these span names,
# summed over phases.
SPAN_METRICS = {
    "protocol.submit_s": ("protocol.submit",),
    "protocol.create_s": ("protocol.make_net", "protocol.create"),
    "protocol.start_s": ("protocol.start",),
    "protocol.stats_s": ("protocol.stats",),
    "protocol.output_log_s": ("protocol.output_log", "protocol.seq_bounds"),
    "harness.on_output_s": ("harness.on_output",),
    "harness.on_observe_s": ("harness.on_observe",),
    "bench.record_s": ("bench.record",),
}


def run_traced(workload, seed, spec, problems):
    """A fixed amount of work: each of the first spec["traced"] sub-seeds
    traced and, right after, plain (and, with real crypto, its twin)."""
    start = time.monotonic()
    traced, plain = [], []
    for k in range(spec["traced"]):
        traced.append(Rep(workload, subseed(seed, k), "traced", probes=spec["twin"] and k == 0))
        plain.append(Rep(workload, subseed(seed, k), "plain"))
    for r in traced + plain:
        problems.extend(r.errors)
    for t, p in zip(traced, plain):
        if not p.same_sim(t, ignore=TRACE_ONLY):
            problems.append("sub-seed %d: tracing changed the simulated results" % t.seed)
        # Self times of everything inside the simulation phase, the
        # harness's own residue included, must add up to its wall time.
        inside = sum(s["self_s"] for s in t.spans if s["phase"] == "sim")
        if abs(inside - t.host["harness.sim_s"]) > 1e-6:
            problems.append("sub-seed %d: spans do not add up to harness.sim_s" % t.seed)

    def value(r, key):
        if key in SPAN_METRICS:
            return sum(s["self_s"] for s in r.spans if s["name"] in SPAN_METRICS[key])
        return r.sim.get(key, r.host.get(key))

    metrics = {}
    for key in PER_LAYER:
        values = [v for v in (value(r, key) for r in traced) if v is not None]
        # A metric of a layer the workload does not use reads 0.
        metrics[key] = statistics.median(values) if values else 0
    metrics["sim.engine.events_per_s"] = statistics.median(
        r.sim["sim.engine.events"] / r.host["harness.sim_s"] for r in plain)
    metrics["trace.overhead_frac"] = statistics.median(
        t.host["wall_s"] / p.host["wall_s"] - 1.0 for t, p in zip(traced, plain))
    if spec["twin"]:
        twins = run_twins(workload, plain, problems)
        metrics["crypto.wall_s"] = statistics.median(
            p.host["wall_s"] - w.host["wall_s"] for p, w in zip(plain, twins))
        metrics.update({k: v for k, v in traced[0].host.items() if k.startswith("crypto.")})
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s-seed%d-trace.json" % (workload, seed))
    with open(path, "w") as f:
        json.dump({
            "manifest": traced[0].manifest,
            "metrics": metrics,
            "repetitions": [{"seed": r.seed, "mode": r.mode, "sim": r.sim, "host": r.host,
                             "spans": r.spans} for r in traced + plain],
        }, f, indent=1)
    attempted = sum(r.sim["attempted"] for r in traced)
    failed = sum(r.sim["failed"] for r in traced)
    detail = {"trace_file": path, "subseeds": [r.seed for r in traced],
              "elapsed_s": time.monotonic() - start}
    return metrics, PER_LAYER, attempted, failed, detail, traced[0]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        fail("--seed must be non-negative")
    build()
    spec = WORKLOADS[a.workload]
    problems = []
    if a.trace:
        result = run_traced(a.workload, a.seed, spec, problems)
    else:
        result = run_untraced(a.workload, a.seed, a.seconds, spec, problems)
    metrics, units, attempted, failed, detail, rep = result
    manifest = dict(rep.manifest, seed=a.seed, nproc=os.cpu_count(),
                    python=platform.python_version(), trace=a.trace)
    print(json.dumps({"manifest": manifest, "detail": detail}))
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
