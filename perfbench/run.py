#!/usr/bin/env python3
"""The repository benchmark: one named workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the library and the
benchmark binary from source into $CARGO_TARGET_DIR (default
.bench_build). Each run then

  * sets the workload up cold several times, each in a fresh process with
    its own empty JIT compile cache, and reports the median set-up time;
  * runs the timed window once more in a fresh process (tracing off with
    --trace 0; with --trace 1 the per-layer probes run instead of being
    skipped, and spans are recorded from the benchmark's own code);
  * verifies the outputs (JIT against the reference interpreter, a
    corrupted-copy self-check, finiteness at window end);
  * prints a readable report, then one JSON line with the metrics.

Workload rationale and the layer table: perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# Cold set-ups per run; setup_s is their median.
SETUP_SAMPLES = 5
# Each run must finish within 180 s.
RUN_BUDGET_S = 170.0


def listed_metrics():
    """Metric names and units, as BENCHMARK.json lists them."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure once, then build incrementally; logs go to a file."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                # Configure again next time; the log stays for the error.
                cache = os.path.join(build_dir, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                return None, log_path
        jobs = str(len(os.sched_getaffinity(0)))
        rc = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                            stdout=log, stderr=log).returncode
    if rc != 0:
        return None, log_path
    return os.path.join(build_dir, "perfbench"), log_path


def cpu_ranges(cpus):
    cpus = sorted(cpus)
    out = []
    start = prev = cpus[0]
    for c in cpus[1:] + [None]:
        if c is not None and c == prev + 1:
            prev = c
            continue
        out.append(str(start) if start == prev else "%d-%d" % (start, prev))
        if c is not None:
            start = prev = c
    return ",".join(out)


def proc_stat():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def cc_version():
    try:
        out = subprocess.run(["cc", "--version"], capture_output=True,
                             text=True, timeout=30).stdout
        return out.splitlines()[0] if out else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def run_child(cmd, env, deadline):
    """Runs one benchmark process as the leader of a new process group,
    so a timeout can stop it and every rank process it forked. Returns
    its stdout, or None with the error text and an exit code."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "timed out after %.0f s" % timeout, 1
    if proc.returncode != 0:
        return None, (out + err).strip()[-2000:], proc.returncode
    return out, "", 0


def split_solves(report):
    """The window's samples, one list of (steps, seconds) per solve."""
    solves, current, done = [], [], 0
    for steps, secs in zip(report["batch_steps"], report["batch_s"]):
        current.append((steps, secs))
        done += steps
        if done == report["solve_steps"]:
            solves.append(current)
            current, done = [], 0
    return solves


def tail_step(step_ms):
    """Highest percentile with at least ten samples beyond it."""
    s = sorted(step_ms)
    n = len(s)
    if n < 11:
        return s[-1], 100.0, 0
    k = n - 11
    return s[k], 100.0 * (k + 1) / n, n - k - 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary, log_path = build(build_dir)
    if binary is None:
        with open(log_path) as f:
            sys.stderr.write(f.read()[-4000:])
        fail("build failed (log: %s)" % log_path)

    end_to_end_units, per_layer_units = listed_metrics()
    cpus = os.sched_getaffinity(0)
    reports = os.path.join(build_dir, "reports")
    os.makedirs(reports, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(build_dir, "runs", "%s-%d" % (tag, os.getpid()))
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("JITFD_", "OMP_", "GOMP_"))}
    env["TMPDIR"] = tmp

    steal0, total0 = proc_stat()
    load0 = os.getloadavg()
    try:
        setups = []
        report = None
        for i in range(SETUP_SAMPLES):
            main_run = i == SETUP_SAMPLES - 1
            cache = os.path.join(work, "cache%d" % i)
            os.makedirs(cache)  # Fresh: fails if it already exists.
            env["JITFD_CACHE_DIR"] = cache
            out = os.path.join(work, "report%d.json" % i)
            cmd = [binary, "--workload", args.workload, "--seed",
                   str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace if main_run else 0),
                   "--report", out]
            if main_run and args.trace:
                cmd += ["--chrome", os.path.join(reports, tag + ".trace.json")]
            if not main_run:
                cmd.append("--setup-only")
            # The binary checks ranks x threads against the cores and
            # exits 3 when they would not fit; its code is passed on.
            stdout, err, rc = run_child(cmd, env, deadline)
            if stdout is None:
                fail("%s failed: %s" % (" ".join(cmd[1:3]), err), rc)
            with open(out) as f:
                rep = json.load(f)
            setups.append(rep["setup_s"])
            shutil.rmtree(cache)
            if main_run:
                report = rep
    finally:
        shutil.rmtree(work, ignore_errors=True)
    steal1, total1 = proc_stat()
    load1 = os.getloadavg()

    solves = split_solves(report)
    gpts = [report["global_points"] * report["solve_steps"]
            / sum(b for _, b in solve) / 1e9 for solve in solves]
    # The solve's step profile: each batch position's per-step wall, as
    # its median over the window's solves.
    profile = [1e3 * statistics.median(solve[i][1] / solve[i][0]
                                       for solve in solves)
               for i in range(len(solves[0]))]
    tail, pct, beyond = tail_step(profile)
    checks = report["checks"]
    failed = sum(1 for c in checks if not c["ok"])
    attempted = len(checks)

    e2e = {
        "gpts_per_s": statistics.median(gpts),
        "step_ms_tail": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_bytes"] / 1e6,
    }
    ranks = report["ranks"]
    threads = report["threads_per_rank"]
    nproc = report["cores_available"]
    conditions = {
        "seed": args.seed,
        "ranks": ranks,
        "threads_per_rank": threads,
        "cores_available": nproc,
        "affinity": cpu_ranges(cpus),
        "llc_bytes": report["llc_bytes"],
        "working_set_bytes": report["working_set_bytes"],
        "cc_version": cc_version(),
        "steal_share": ((steal1 - steal0) / (total1 - total0)
                        if total1 > total0 else 0.0),
        "loadavg_start": load0[0],
        "loadavg_end": load1[0],
        "ftz_or_daz_set": report["ftz_or_daz_set"],
    }

    w = args.workload
    print("perfbench %s seed %d: %s so%d, %s global, %d rank(s) x %d "
          "thread(s), transport %s, pattern %s"
          % (w, args.seed, report["model"], report["space_order"],
             "x".join(str(int(x)) for x in report["global_shape"]), ranks,
             threads, report["transport"], report["pattern"]))
    print("  conditions: cores %d (affinity %s), LLC %.0f MiB, working set "
          "%.1f MiB (%.2fx LLC), steal %.2f%%, load %.2f -> %.2f, FTZ/DAZ %s"
          % (nproc, conditions["affinity"], conditions["llc_bytes"] / 2**20,
             conditions["working_set_bytes"] / 2**20,
             conditions["working_set_bytes"] / max(1, conditions["llc_bytes"]),
             100 * conditions["steal_share"], load0[0], load1[0],
             "on" if conditions["ftz_or_daz_set"] else "off"))
    print("  compiler: %s" % conditions["cc_version"])
    first = report["first_step"]
    print("  window: %d solve(s) of steps %d-%d (simulated %.1f-%.1f ms, "
          "dt %.4f ms) in batches of %d, %.2f s; warm-up %.2f s"
          % (len(solves), first, first + report["solve_steps"] - 1,
             report["window_sim_ms"][0], report["window_sim_ms"][1],
             report["dt_ms"], solves[0][0][0], report["window_s"],
             report["warmup_s"]))
    if report["source_peak_ms"] > 0:
        print("  source: Ricker wavelet peaking at %.1f ms (step %.0f)"
              % (report["source_peak_ms"],
                 report["source_peak_ms"] / report["dt_ms"]))
    print("  gpts_per_s    %.5g GPts/s (median over %d solves)"
          % (e2e["gpts_per_s"], len(gpts)))
    print("  step_ms_tail  %.3f ms (p%.1f of the %d-position step profile, "
          "%d positions beyond: a late-phase step, not a jitter tail)"
          % (tail, pct, len(profile), beyond))
    print("  setup_s       %.3f s (median of %d cold set-ups: %s)"
          % (e2e["setup_s"], len(setups),
             ", ".join("%.3f" % s for s in setups)))
    print("  peak_rss_mb   %.1f MB (sum of rank processes' peak RSS)"
          % e2e["peak_rss_mb"])
    print("  fail_rate     %.3f (%d of %d checks failed)"
          % (failed / attempted, failed, attempted))
    for c in checks:
        print("    [%s] %s: %s" % ("ok" if c["ok"] else "FAIL", c["name"],
                                   c["detail"]))

    if args.trace:
        layers = report["layers"]
        metrics = {k: {"value": layers.get(k, 0.0), "unit": u}
                   for k, u in per_layer_units.items()}
        print("  per-layer (traced run; not applicable here: %s)"
              % (", ".join(report["not_applicable"]) or "none"))
        for k, u in per_layer_units.items():
            print("    %-24s %14.6g %s" % (k, layers.get(k, 0.0), u))
    else:
        metrics = {k: {"value": e2e[k], "unit": u}
                   for k, u in end_to_end_units.items()}

    full = dict(report)
    full.update(e2e)
    full["conditions"] = conditions
    full["step_ms_tail_percentile"] = pct
    full["step_ms_tail_beyond"] = beyond
    full["step_profile_ms"] = profile
    full["solve_gpts"] = gpts
    full["setup_samples"] = setups
    full["fail_rate"] = failed / attempted
    with open(os.path.join(reports, tag + ".json"), "w") as f:
        json.dump(full, f, indent=1)

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
