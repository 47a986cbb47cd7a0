#!/usr/bin/env python3
"""The cmetile benchmark: three fixed-work, closed-loop workloads.

    python3 perfbench/run.py --workload solve|serve|sweep --seed N \
        --seconds T --trace 0|1

Run from the root of a cmetile checkout. The first run builds the library,
the service binaries and the perfbench program into .bench_build/.

Workloads (all closed loop: a compiler waits for its tiling; all do a fixed,
seeded amount of work, scaled in whole units of ~20 s by --seconds):

  solve  one in-process caller sends 114 distinct cold requests through
         core::optimize at OMP_NUM_THREADS=nproc: every Table-1 kernel plus
         LU and SYRK x {tiling, padding, joint} x {8 KB direct-mapped,
         8K+64K}, each sized kernel at one of its Figure 8/9 sizes drawn
         with the seed. Time is in cme/ga/core/transform, none in
         sweep/serve.
  serve  cmetile-serve with 2 TCP workers at OMP_NUM_THREADS=1, a fresh
         cache directory, and one load generator with 3 connections: one
         replays a 12-request warm set (computed through the daemon during
         set-up) 90,000 times back to back, two work through 132 cold tiling
         requests in blocks of 5 each, then one request sent on both at once
         so it coalesces. Warm replies dominate.
  sweep  sweep::run_sweep over the cells of bench_fig8 + bench_fig9,
         bench_table3 and bench_hierarchy (two experiment seeds, 136 cells)
         from an empty cache with 2 pipe workers, then 100 warm replays.

Untraced runs (--trace 0) report the end-to-end metrics; a traced run
(--trace 1) repeats the untraced run, then runs again with spans recorded
around the calls into each layer and reports the per-layer metrics. Every
run gates its answers (perfbench.cpp) and checks that its answer digest and
exact counts repeat those of any earlier run with the same seed and build.
The last stdout line is the JSON result; the exit code is non-zero when an
answer gate or the determinism check fails.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
PERFBENCH = os.path.join(BUILD, "perfbench")
SERVE = os.path.join(BUILD, "cmetile", "cmetile-serve")
NPROC = os.cpu_count() or 1
WORKLOADS = ("solve", "serve", "sweep")
SETUPS = 5  # serve daemon start-ups per run (median reported)
MIN_BEYOND = 10  # a percentile needs this many samples above it

# name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "answers_per_s": "1/s",
    "cold_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "miss_cost_ratio": "ratio",
    "sim_miss_ratio": "ratio",
}
# Printed with the end-to-end metrics where the workload has them, but not
# part of the JSON result (see BENCHMARK.json / CHANGES.md).
REPORTED_ONLY = {
    "cold_ms_p90": "ms",
    "warm_ms_p50": "ms",
    "warm_ms_p99": "ms",
    "replay_ms_p50": "ms",
    "error_share": "ratio",
}
PER_LAYER = {
    "core.bind_ms": "ms",
    "core.eval_us": "us",
    "core.estimate_ms": "ms",
    "ga.self_ms": "ms",
    "ga.generations": "count",
    "ga.evaluations": "count",
    "ga.objective_calls": "count",
    "ga.memo_hit_ratio": "ratio",
    "cme.verdict_hit_ratio": "ratio",
    "cme.probe_hit_ratio": "ratio",
    "cme.rebinds": "count",
    "cme.classify_ns_per_access": "ns",
    "transform.legality_ms": "ms",
    "baselines.seed_ms": "ms",
    "sweep.fingerprint_us": "us",
    "sweep.request_decode_us": "us",
    "sweep.response_decode_us": "us",
    "sweep.response_bytes": "bytes",
    "sweep.cache_load_us": "us",
    "sweep.cache_store_us": "us",
    "sweep.cell_decode_us": "us",
    "sweep.cells_per_s": "1/s",
    "sweep.remote_share": "ratio",
    "sweep.worker_failures": "count",
    "serve.queue_wait_ms": "ms",
    "serve.compute_ms": "ms",
    "serve.respond_us": "us",
    "serve.warm_share": "ratio",
    "serve.coalesced_share": "ratio",
    "serve.rejected": "count",
    "serve.computed_local": "count",
    "serve.worker_failures": "count",
    "bench.trace_overhead": "ratio",
    "host.ref_ms": "ms",
}


class BenchError(Exception):
    """A failure that ends the run without a result."""


# -- statistics ---------------------------------------------------------------


def percentile(values, q):
    """Nearest-rank q-quantile, or None when fewer than MIN_BEYOND samples
    lie above it (a tail figure resting on a handful of samples is noise)."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def median(values):
    return statistics.median(values) if values else None


def mean(values):
    return statistics.fmean(values) if values else None


# -- processes ----------------------------------------------------------------


class Fleet:
    """Every process a run starts; stop() kills and reaps what is left."""

    def __init__(self):
        self.procs = []

    def start(self, args, threads, **kwargs):
        env = dict(os.environ, OMP_NUM_THREADS=str(threads))
        proc = subprocess.Popen(args, env=env, **kwargs)
        self.procs.append(proc)
        return proc

    def reap(self, proc, timeout):
        """Wait for proc (killing it after timeout); its peak RSS in MB."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid == proc.pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return usage.ru_maxrss / 1024.0
            if time.monotonic() > deadline:
                proc.kill()
                deadline = math.inf
            time.sleep(0.005)

    def stop(self):
        for proc in self.procs:
            if proc.returncode is None:
                proc.kill()
                try:
                    self.reap(proc, 10)
                except ChildProcessError:
                    pass
        self.procs = []


def run_json(args, threads, timeout=170):
    """Run a perfbench mode; its last stdout line parsed as JSON."""
    env = dict(os.environ, OMP_NUM_THREADS=str(threads))
    proc = subprocess.run(args, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{' '.join(args[:2])} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- build ----------------------------------------------------------------------


def build():
    """Configure (first run) and build into .bench_build/; cmake rebuilds
    only what changed."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "-j", str(NPROC)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    raise BenchError("build failed:\n" + f.read()[-3000:])


def build_id():
    digest = hashlib.sha256()
    for path in (PERFBENCH, SERVE):
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def host_ref_ms():
    return run_json([PERFBENCH, "hostref"], 1)["host_ref_ms"]


# -- workloads --------------------------------------------------------------------


def common_args(seed, seconds, trace, run_dir):
    return [f"--seed={seed}", f"--seconds={seconds}", f"--trace={int(trace)}", f"--dir={run_dir}"]


def run_solve(seed, seconds, trace, run_dir):
    return run_json([PERFBENCH, "solve"] + common_args(seed, seconds, trace, run_dir), NPROC)


def run_sweep(seed, seconds, trace, run_dir):
    return run_json([PERFBENCH, "sweep"] + common_args(seed, seconds, trace, run_dir), NPROC)


def wait_for_listen(log_path, daemon, timeout=30):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if daemon.poll() is not None:
            break
        with open(log_path) as f:
            for line in f:
                if line.startswith("[serve] listening on "):
                    return line.split()[-1]
        time.sleep(0.002)
    raise BenchError("cmetile-serve did not start listening")


def run_serve(seed, seconds, trace, run_dir):
    """Daemon + 2 workers + the load generator, started SETUPS times (each
    from a fresh cache); the last start-up runs the timed phase."""
    base = common_args(seed, seconds, trace, run_dir)
    plan = run_json([PERFBENCH, "serve-load", "--plan"] + base, 1)
    setups = []
    for k in range(SETUPS):
        last = k == SETUPS - 1
        requests = plan["setup_requests"] + (plan["timed_requests"] if last else 0)
        log_path = os.path.join(run_dir, f"daemon-{k}.log")
        daemon_args = [SERVE, "--listen=127.0.0.1:0", f"--max-requests={requests}",
                       f"--cache-dir={os.path.join(run_dir, f'serve-cache-{k}')}"]
        if trace and last:
            daemon_args += [f"--metrics={os.path.join(run_dir, 'serve-metrics.json')}",
                            f"--trace={os.path.join(run_dir, 'serve-trace.json')}"]
        fleet = Fleet()
        try:
            t0 = time.monotonic()
            with open(log_path, "w") as log:
                daemon = fleet.start(daemon_args, 1, stdout=log, stderr=subprocess.STDOUT)
            address = wait_for_listen(log_path, daemon)
            workers = [fleet.start([SERVE, f"--connect={address}"], 1,
                                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                       for _ in range(2)]
            load_args = [PERFBENCH, "serve-load", f"--daemon={address}", f"--t0={t0!r}"] + base
            raw = run_json(load_args + ([] if last else ["--setup-only"]), NPROC)
            rss = sum(fleet.reap(p, 30) for p in [daemon] + workers)
        finally:
            fleet.stop()
        setups.append(raw["setup_s"])
    raw["setup_s"] = setups
    raw["peak_rss_mb"] = rss
    if trace:
        raw["layers"].update(daemon_layers(run_dir))
    return raw


def daemon_layers(run_dir):
    """serve.* per-layer metrics from the daemon's own spans and report."""
    with open(os.path.join(run_dir, "serve-trace.json")) as f:
        events = json.load(f)["traceEvents"]
    spans = {}
    for event in events:
        if event.get("ph") == "X":
            spans.setdefault(event["name"], []).append(event["dur"])
    with open(os.path.join(run_dir, "serve-metrics.json")) as f:
        serve = json.load(f)["serve"]
    requests = max(1, serve["requests"])
    return {
        "serve.queue_wait_ms": mean(spans.get("serve.enqueue", [0])) / 1e3,
        "serve.compute_ms": mean(spans.get("serve.schedule", [0])) / 1e3,
        "serve.respond_us": mean(spans.get("serve.respond", [0])),
        "serve.warm_share": serve["warm"] / requests,
        "serve.coalesced_share": serve["coalesced"] / requests,
        "serve.rejected": serve["rejected"],
        "serve.computed_local": serve["computed_local"],
        "serve.worker_failures": serve["worker_failures"],
    }


RUNNERS = {"solve": run_solve, "serve": run_serve, "sweep": run_sweep}


# -- metrics ------------------------------------------------------------------------


def end_to_end(raw):
    """Every end-to-end figure of one untraced run: name -> (value, samples)."""
    setup = raw["setup_s"] if isinstance(raw["setup_s"], list) else [raw["setup_s"]]
    failed = raw["attempted"] - raw["answered"] + len(raw["failures"])
    figures = {
        "setup_s": (median(setup), len(setup)),
        "answers_per_s": (raw["answered"] / raw["timed_s"], raw["answered"]),
        "cold_ms_p50": (median(raw["cold_ms"]), len(raw["cold_ms"])),
        "cold_ms_p90": (percentile(raw["cold_ms"], 0.90), len(raw["cold_ms"])),
        "peak_rss_mb": (raw["peak_rss_mb"], 1),
        "miss_cost_ratio": (mean(raw["miss_cost"]), len(raw["miss_cost"])),
        "sim_miss_ratio": (mean(raw["sim_miss"]), len(raw["sim_miss"])),
        "error_share": (failed / raw["attempted"], raw["attempted"]),
    }
    if "warm_ms" in raw:
        figures["warm_ms_p50"] = (median(raw["warm_ms"]), len(raw["warm_ms"]))
        figures["warm_ms_p99"] = (percentile(raw["warm_ms"], 0.99), len(raw["warm_ms"]))
    if "replay_ms" in raw:
        figures["replay_ms_p50"] = (median(raw["replay_ms"]), len(raw["replay_ms"]))
    return figures, failed


def per_layer(untraced, traced, host_ms):
    layers = {name: 0.0 for name in PER_LAYER}  # 0: layer not on this workload's path
    layers.update(traced["layers"])
    untraced_rate = untraced["answered"] / untraced["timed_s"]
    traced_rate = traced["answered"] / traced["timed_s"]
    layers["bench.trace_overhead"] = untraced_rate / traced_rate
    layers["host.ref_ms"] = host_ms
    return layers


def check_determinism(workload, seed, seconds, raw, build):
    """Digest and exact counts must repeat across runs with the same seed,
    work size and build; the first run of a key records it."""
    path = os.path.join(BUILD, "determinism.json")
    store = {}
    if os.path.exists(path):
        with open(path) as f:
            store = json.load(f)
    key = f"{workload}|{seed}|{seconds}|{build}"
    record = {"digest": raw["digest"], "counts": raw["counts"]}
    if key in store:
        return store[key] == record, store[key]
    store[key] = record
    with open(path + ".tmp", "w") as f:
        json.dump(store, f, sort_keys=True)
    os.replace(path + ".tmp", path)
    return True, record


def keep_traces(traced_dir, workload):
    """Keep the traced run's span files (the benchmark's own spans.json and
    the daemon's Chrome trace) in .bench_build/traces/<workload>/."""
    keep = os.path.join(BUILD, "traces", workload)
    shutil.rmtree(keep, ignore_errors=True)
    os.makedirs(keep)
    for name in ("spans.json", "serve-trace.json", "serve-metrics.json"):
        if os.path.exists(os.path.join(traced_dir, name)):
            shutil.move(os.path.join(traced_dir, name), keep)
    return os.path.relpath(keep, ROOT)


def show(name, value, unit, samples=None):
    text = "n/a (too few samples)" if value is None else f"{value:.6g} {unit}"
    print(f"  {name:28s} {text:28s}" + ("" if samples is None else f" (n={samples})"))


# -- main -----------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    build()
    ident = build_id()
    run_dir = os.path.join(BUILD, "runs", f"{opts.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    runner = RUNNERS[opts.workload]

    def fresh(name):  # each run starts from empty caches
        path = os.path.join(run_dir, name)
        os.makedirs(path)
        return path

    try:
        host_before = host_ref_ms()
        untraced = runner(opts.seed, opts.seconds, False, fresh("untraced"))
        traced = runner(opts.seed, opts.seconds, True, fresh("traced")) if opts.trace else None
        host_after = host_ref_ms()
        kept = keep_traces(os.path.join(run_dir, "traced"), opts.workload) if traced else None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    figures, failed = end_to_end(untraced)
    failures = list(untraced["failures"])
    attempted = untraced["attempted"]
    same, recorded = check_determinism(opts.workload, opts.seed, opts.seconds, untraced, ident)
    if not same:
        failures.append(f"digest/counts differ from an earlier run of this seed: {recorded}")
    if traced is not None:
        failures += traced["failures"]
        attempted += traced["attempted"]
        failed += traced["attempted"] - traced["answered"] + len(traced["failures"])
        if opts.workload != "solve":  # same daemon/fleet answers: must match exactly
            if traced["digest"] != untraced["digest"] or traced["counts"] != untraced["counts"]:
                failures.append("traced run's digest/counts differ from the untraced run's")
    failed += 0 if same else 1

    print(f"== perfbench {opts.workload} seed={opts.seed} seconds={opts.seconds} "
          f"trace={opts.trace} nproc={NPROC} build={ident}")
    print(f"  host.ref_ms before/after      {host_before:.1f} / {host_after:.1f} ms")
    print(f"  answer digest {untraced['digest']}  counts {json.dumps(untraced['counts'])}")
    for name, (value, samples) in figures.items():
        show(name, value, {**END_TO_END, **REPORTED_ONLY}[name], samples)
    for why in failures:
        print(f"  GATE FAILED: {why}")

    if traced is None:
        metrics = {name: {"value": figures[name][0], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        if opts.workload == "solve":
            same_answers = traced["digest"] == untraced["digest"]
            print(f"  traced composition answers {'equal' if same_answers else 'DIFFER FROM'} "
                  f"core::optimize's")
        for name in traced.get("traced_mismatches", []):
            print(f"  traced composition differs from the served answer: {name}")
        layers = per_layer(untraced, traced, (host_before + host_after) / 2)
        for name, unit in PER_LAYER.items():
            show(name, layers[name], unit)
        print(f"  spans kept in {kept}/")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    correct = not failures and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": min(attempted, failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
