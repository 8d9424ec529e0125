#!/usr/bin/env python3
"""Host wall-clock benchmark of cusim + cupp.

Usage, from the root of a checkout:

    python3 wallbench/run.py --workload boids_step|serve_soak|stream_pipeline \
        --seed N --seconds S --trace 0|1

Builds the wallbench program (wallbench/CMakeLists.txt, an optimised build of
../src) into $CARGO_TARGET_DIR/wallbench (default .bench_build/wallbench),
runs it, checks every output, and prints each metric with its unit. The last
stdout line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see BENCHMARK.json).

Every run starts several fresh processes:
  * a pin process at the baseline seed, whose modelled-output fingerprint
    must equal the one in wallbench/fingerprints.json (the modelled G80
    clock stays pinned whatever the seed of the run);
  * untraced: more setup-only processes at the run's seed; setup_s is the
    median, over them, the pin process and the main process, of the time
    from spawn to the first op being ready;
  * traced: bring-up processes, each timing one fresh
    cusim::Device(g80_properties()) construction;
  * the main process, which runs the closed loop and the output checks.
    Its own fingerprint is checked too when its seed is in the table.

    python3 wallbench/run.py --record-fingerprints

rewrites wallbench/fingerprints.json from the current code; only a change
that means to move the modelled clock should ever do that.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
WORKLOADS = ("boids_step", "serve_soak", "stream_pipeline")
SETUP_SAMPLES = 5      # fresh processes timed per untraced run, main included
BRINGUP_SAMPLES = 3    # fresh device constructions per traced run
DEADLINE_S = 170       # a run must end within 180 s, its build excepted
RECORD_SEEDS = list(range(0, 33))

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cusim.device.construct_ms": "ms",
    "cusim.device.construct_minflt": "count",
    "cusim.memory.alloc_free_us": "us",
    "cusim.memory.h2d_us": "us",
    "cusim.memory.d2h_us": "us",
    "cusim.engine.grid_ms": "ms",
    "cusim.engine.ns_per_sim_thread": "ns",
    "cusim.device.launch_us": "us",
    "cupp.kernel.call_us": "us",
    "cupp.kernel.protocol_us": "us",
    "cusim.block_pool.speedup": "x",
    "cusim.stream.enqueue_us": "us",
    "cusim.stream.drain_ms": "ms",
    "cusim.graph.instantiate_ms": "ms",
    "cusim.graph.replay_us": "us",
    "cusim.graph.replay_drain_ms": "ms",
    "gpusteer.open_ms": "ms",
    "steer.cpu_step_ms": "ms",
    "gpusteer.step_vs_cpu": "x",
    "serve.handler_ms": "ms",
    "serve.broker_ms": "ms",
    "serve.attempts_per_completed": "ratio",
    "cusim.faults.injected": "count",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no library sources next to wallbench/ (expected src/)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "wallbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "wallbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "wallbench"), build_dir


def child_env():
    # The recorders and the engine settings are driven by CUPP_* variables;
    # none may leak in from the caller's environment.
    return {k: v for k, v in os.environ.items() if not k.startswith("CUPP_")}


def run_child(binary, args, deadline):
    """Runs one wallbench process; returns (spawn monotonic ns, result dict)."""
    t0 = time.monotonic_ns()
    proc = subprocess.Popen([binary] + args, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("timed out: wallbench " + " ".join(args))
    if err.strip():
        log(err.rstrip())
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("no result from: wallbench " + " ".join(args))
    result = json.loads(lines[-1])
    if proc.returncode not in (0, 1):  # 1 = ran, and a check failed
        raise BenchError("exit %d from: wallbench %s" % (proc.returncode, " ".join(args)))
    return t0, result


def cpu_times():
    """Aggregate vCPU times from /proc/stat (None where unreadable)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return None


def steal_share(before, after):
    """Share of all vCPU time the hypervisor gave to other guests."""
    if not before or not after or len(before) < 8:
        return float("nan")
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) > 0 else float("nan")


def load_fingerprints():
    with open(FINGERPRINTS) as f:
        return json.load(f)


def fingerprint_ok(table, workload, seed, got, what):
    want = table["fingerprints"].get(workload, {}).get(str(seed))
    if want is None:
        return True
    if got != want:
        log("FAIL: %s fingerprint of %s at seed %d is %s, pinned %s"
            % (what, workload, seed, got, want))
        return False
    return True


def run(args):
    binary, build_dir = build()
    deadline = time.monotonic() + DEADLINE_S
    table = load_fingerprints()
    base_seed = table["baseline_seed"]
    if str(base_seed) not in table["fingerprints"].get(args.workload, {}):
        raise BenchError("fingerprints.json has no baseline entry for " + args.workload)
    common = ["--workload", args.workload]
    setup_samples = []
    correct = True

    # The pin: the baseline seed's modelled outputs, in a fresh process.
    t0, pin = run_child(binary, common + ["--seed", str(base_seed), "--role", "setup",
                                          "--fingerprint", "1"], deadline)
    setup_samples.append((pin["ready_ns"] - t0) * 1e-9)
    correct = pin["correct"] and correct
    correct = fingerprint_ok(table, args.workload, base_seed, pin["fingerprint"], "pin") and correct

    bringups = []
    if args.trace:
        for _ in range(BRINGUP_SAMPLES):
            bringups.append(run_child(binary, ["--role", "bringup"], deadline)[1])
    else:
        for _ in range(SETUP_SAMPLES - 2):
            t0, res = run_child(binary, common + ["--seed", str(args.seed), "--role", "setup"],
                                deadline)
            setup_samples.append((res["ready_ns"] - t0) * 1e-9)

    main_args = common + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                          "--trace", "1" if args.trace else "0"]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        main_args += ["--spans", os.path.join(spans_dir, "%s.seed%d.json" % (args.workload, args.seed))]
    stat0 = cpu_times()
    t0, main = run_child(binary, main_args, deadline)
    steal = steal_share(stat0, cpu_times())
    setup_samples.append((main["ready_ns"] - t0) * 1e-9)
    correct = main["correct"] and correct
    correct = fingerprint_ok(table, args.workload, args.seed, main["fingerprint"], "run") and correct

    if args.trace:
        metrics = dict(main["layers"])
        metrics["cusim.device.construct_ms"] = statistics.median(
            b["construct_s"] for b in bringups) * 1e3
        metrics["cusim.device.construct_minflt"] = statistics.median(
            b["minflt"] for b in bringups)
        units = PER_LAYER
    else:
        metrics = {k: main[k] for k in END_TO_END if k != "setup_s"}
        metrics["setup_s"] = statistics.median(setup_samples)
        units = END_TO_END
    missing = [k for k in units if k not in metrics]
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(missing))

    host = main["host"]
    print("host: " + ", ".join("%s=%s" % kv for kv in host.items())
          + ", steal=%.1f%%" % (100 * steal))
    figures = main["figures"]
    refused = int(figures.get("shed", 0) + figures.get("expired", 0))
    print("ops_attempted %d, ops_failed %d (checks failed %d, shed %d, expired %d)"
          % (main["attempted"], main["failed"] + refused, main["failed"],
             figures.get("shed", 0), figures.get("expired", 0)))
    print("fingerprint %s (pin %s at seed %d), checks %s"
          % (main["fingerprint"], pin["fingerprint"], base_seed, "ok" if correct else "FAILED"))
    wall = main["wall"]
    print("in plain wall time: ops_per_s %.6g, op_p50_ms %.6g, op_p90_ms %.6g "
          "(host speed %.3f of the reference)"
          % (wall["ops_per_s"], wall["op_p50_ms"], wall["op_p90_ms"], wall["host_speed"]))
    for name, unit in units.items():
        print("%-34s %14.6g %s" % (name, metrics[name], unit))
    result = {
        "correct": bool(correct),
        "attempted": int(main["attempted"]),
        "failed": int(main["failed"]),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def record_fingerprints():
    binary, _ = build()
    table = load_fingerprints()
    seeds = sorted(set(RECORD_SEEDS) | {table["baseline_seed"], table["held_out_seed"]})
    table["fingerprints"] = {}
    for workload in WORKLOADS:
        table["fingerprints"][workload] = {}
        for seed in seeds:
            _, res = run_child(binary, ["--workload", workload, "--seed", str(seed),
                                        "--role", "setup", "--fingerprint", "1"],
                               time.monotonic() + DEADLINE_S)
            if not res["correct"]:
                raise BenchError("checks failed while recording %s seed %d" % (workload, seed))
            table["fingerprints"][workload][str(seed)] = res["fingerprint"]
            log("%s seed %d: %s" % (workload, seed, res["fingerprint"]))
    with open(FINGERPRINTS, "w") as f:
        json.dump(table, f, indent=2)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-fingerprints", action="store_true")
    args = parser.parse_args()
    try:
        if args.record_fingerprints:
            return record_fingerprints()
        if args.workload is None:
            parser.error("--workload is required")
        return run(args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("wallbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
