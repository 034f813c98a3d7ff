#!/usr/bin/env python3
"""The repository's benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (and the libraries under
src/ it links) into .bench_build/, then runs the perfbench binary as
separate processes:

  --trace 0: two set-up-only processes, one untraced wall-clock run of the
             threaded router, one model-clock run; prints the end-to-end
             metrics.
  --trace 1: one traced wall-clock run and one model-clock run; prints the
             per-layer metrics.

The last stdout line is the result object; the line before it is the run's
metadata (host fingerprint, sample counts, per-process details).
See perfbench/README.md for the workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ipv4_64b", "ipsec_imix", "ipv4_churn_zipf")

END_TO_END = ("fwd_mpps", "fwd_gbps", "model_mpps", "model_gbps", "setup_s", "rss_mb")

_DIST = ("n", "p50", "p99")
PER_LAYER = (
    ["core.worker_busy", "core.master_busy", "core.worker_runq_wait",
     "core.master_runq_wait", "core.worker_vcsw_per_kchunk", "core.chunk_fill",
     "core.gather_fill", "core.bp_reduced_batches", "core.bp_diverted_chunks"]
    + [f"apps.{m}.{d}" for m in ("pre_shade_ns_pkt", "post_shade_ns_pkt",
                                 "shade_ns_pkt", "sync_us") for d in _DIST]
    + ["apps.cpu_fallback_chunks", "route.lookup_ns"]
    + [f"route.commit_us.{d}" for d in _DIST]
    + ["route.slots_per_commit", "route.retired_pending"]
    + [f"gen.offer_ns_pkt.{d}" for d in _DIST]
    + ["gen.offer_share", "nic.rx_ring_drops", "loss_frac",
       "perf.cpu_ps_pkt", "perf.ioh_d2h_ps_pkt", "perf.ioh_h2d_ps_pkt",
       "perf.gpu_exec_ps_pkt", "perf.gpu_copy_ps_pkt", "perf.bottleneck_kind",
       "proc.allocs_per_kpkt", "proc.minflt_timed", "trace.overhead",
       "trace.spans_dropped"]
)

# The generator is flagged as the limit of fwd_mpps above this offer share.
OFFER_SHARE_FLAG = 0.9
SETUP_PROBES = 2
PROCESS_TIMEOUT_S = 150


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build incrementally. Returns the binary path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(out, "perfbench")


def run_binary(binary, args, deadline):
    """Run one perfbench process; return its parsed result object."""
    timeout = max(1.0, min(PROCESS_TIMEOUT_S, deadline - time.monotonic()))
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"perfbench: {' '.join(args)} exited {proc.returncode} without a result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.exit(f"perfbench: unparsable result from {' '.join(args)}")
    if proc.returncode not in (0, 1):  # 1 = an output check failed (reported)
        sys.exit(f"perfbench: {' '.join(args)} exited {proc.returncode}")
    return result


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout has no .git)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(".git"):
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--window", type=int, default=8192,
                    help="closed-loop bound on outstanding frames")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        sys.exit("perfbench: run from the repository root (src/ not found)")
    binary = build()
    # A run exits within 180 s of the build finishing (the first run of a
    # checkout also builds, which has its own, longer allowance).
    deadline = time.monotonic() + 170
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = []
    if args.trace == 0:
        setups = [run_binary(binary, ["--mode", "setup"] + common, deadline)
                  for _ in range(SETUP_PROBES)]
    wall = run_binary(binary, ["--mode", "wall"] + common + [
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--window", str(args.window)], deadline)
    model = run_binary(binary, ["--mode", "model"] + common, deadline)

    measured = {**wall["metrics"], **model["metrics"]}
    failures = wall["failures"] + model["failures"]
    for p in setups:
        failures += p["failures"]
    if args.trace == 0:
        samples = [p["metrics"]["setup_s"]["value"] for p in [wall] + setups]
        measured["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
        wanted = END_TO_END
    else:
        wanted = PER_LAYER
    missing = [m for m in wanted if m not in measured]
    if missing:
        sys.exit(f"perfbench: metrics not produced: {missing}")

    offer_share = measured.get("gen.offer_share", {}).get("value")
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "closed_loop_window_frames": args.window,
        "nproc": os.cpu_count(),
        "compiler": wall["meta"].get("compiler"),
        "build_type": wall["meta"].get("build_type"),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "setup_samples": 1 + len(setups) if args.trace == 0 else 0,
        "sample_counts": {k: v["value"] for k, v in measured.items() if k.endswith(".n")},
        "generator_bound": offer_share is not None and offer_share >= OFFER_SHARE_FLAG,
        "wall": wall["meta"],
        "model": model["meta"],
        "failures": failures,
    }
    print(json.dumps({"perfbench_meta": meta}, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": int(wall["attempted"]),
        "failed": int(wall["failed"]),
        "metrics": {m: measured[m] for m in wanted},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
