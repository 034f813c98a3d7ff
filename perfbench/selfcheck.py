#!/usr/bin/env python3
"""Self-checks of the benchmark itself (several minutes). Run from the
repository root:

    python3 perfbench/selfcheck.py [--seconds 5]

1. model_repeat: two model-clock processes with the same seed print
   byte-identical model_mpps and model_gbps, on every workload.
2. window: fwd_mpps with the closed-loop window doubled stays within the
   fwd_mpps bound, so the window is not what limits throughput.
3. offer_share: a traced run reports gen.offer_share on every workload and
   flags the generator as the limit when the share nears 1.
4. minflt: after the warm-up the timed window takes no minor faults, on
   the workloads whose steady state allocates no new memory.
5. seeds: every workload passes its output checks with nothing lost, on
   the default seed and on a second one.
6. names: BENCHMARK.json lists exactly the metrics run.py prints.
Exits 1 when any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run as perfrun  # noqa: E402

DEFAULT_SEED = 1
SECOND_SEED = 424242
WINDOW_PAIRS = 3
# The churn workload's RIB grows with every update batch, so its timed
# window keeps faulting in a few pages per second by design.
MINFLT_WORKLOADS = ("ipv4_64b", "ipsec_imix")


def model_numbers(binary, workload, seed):
    """The raw JSON text of model_mpps and model_gbps, as printed."""
    out = subprocess.run([binary, "--mode", "model", "--workload", workload, "--seed",
                          str(seed)], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True).stdout.strip().splitlines()[-1]
    metrics = json.loads(out)["metrics"]
    return {k: repr(metrics[k]["value"]) for k in ("model_mpps", "model_gbps")}


def run_bench(workload, seed, seconds, trace, window=8192):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace",
                           str(trace), "--window", str(window)],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py {workload} seed {seed} exited {proc.returncode}")
    meta_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(meta_line)["perfbench_meta"], json.loads(result_line)


def bound_of(metric, default=0.25):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        return default
    for m in spec.get("end_to_end", []):
        if m["name"] == metric:
            return m["bound"]
    return default


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=5)
    args = ap.parse_args()
    binary = perfrun.build()
    failures = []

    def report(name, ok, detail):
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
        if not ok:
            failures.append(name)

    for w in perfrun.WORKLOADS:
        a = model_numbers(binary, w, DEFAULT_SEED)
        b = model_numbers(binary, w, DEFAULT_SEED)
        report(f"model_repeat[{w}]", a == b, f"{a} vs {b}")

    bound = bound_of("fwd_mpps")
    base, doubled = [], []
    for i in range(WINDOW_PAIRS):
        for window, into in ((8192, base), (16384, doubled))[:: 1 if i % 2 == 0 else -1]:
            _, res = run_bench("ipv4_64b", DEFAULT_SEED, args.seconds, 0, window)
            into.append(res["metrics"]["fwd_mpps"]["value"])
    ratio = statistics.median(doubled) / statistics.median(base)
    report("window[ipv4_64b]", abs(ratio - 1) <= bound,
           f"fwd_mpps 2x window / 1x window = {ratio:.4f} (bound {bound}); "
           f"1x {base}, 2x {doubled}")

    for w in perfrun.WORKLOADS:
        meta, res = run_bench(w, DEFAULT_SEED, args.seconds, 1)
        share = res["metrics"].get("gen.offer_share", {}).get("value")
        flagged = meta["generator_bound"]
        report(f"offer_share[{w}]",
               share is not None and flagged == (share >= perfrun.OFFER_SHARE_FLAG),
               f"gen.offer_share = {share}, generator_bound = {flagged}")

    for w in perfrun.WORKLOADS:
        for seed in (DEFAULT_SEED, SECOND_SEED):
            meta, res = run_bench(w, seed, args.seconds, 0)
            report(f"seeds[{w}, seed {seed}]",
                   res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   f"correct={res['correct']} attempted={res['attempted']} "
                   f"failed={res['failed']} checked_tx={meta['wall']['checked_tx_frames']} "
                   f"failures={meta['failures']}")
            if w in MINFLT_WORKLOADS and seed == DEFAULT_SEED:
                faults = int(meta["wall"]["timed_minflt"])
                report(f"minflt[{w}]", faults == 0, f"minor faults in timed windows = {faults}")

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        e2e = {m["name"] for m in spec["end_to_end"]}
        layer = {m["name"] for m in spec["per_layer"]}
        report("names", e2e == set(perfrun.END_TO_END) and layer == set(perfrun.PER_LAYER),
               f"end_to_end diff {e2e ^ set(perfrun.END_TO_END)}, "
               f"per_layer diff {layer ^ set(perfrun.PER_LAYER)}")
    except OSError:
        report("names", False, "BENCHMARK.json not found (run from the repository root)")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
