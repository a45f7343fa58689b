#!/usr/bin/env python3
"""Benchmark driver for dpma: one workload, one run.

    python3 perfbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. The driver builds the pass runner
(perfbench/pass.ml) with dune, writes the generated ADL inputs into
perfbench/_work/, and then starts one fresh process per pass, so that
every pass is cold: no heap, memo table or term table carries over.

--trace 0 runs passes back to back for about --seconds seconds and
reports the end-to-end metrics (medians over the passes). --trace 1 runs
one untraced and one traced pass (plus, on two_station_j2, a traced
repeat of build, NI check and Markovian partition at one job) and
reports the per-layer metrics. The last line of stdout is the result
object; the line before it holds the quartiles and sample counts.
See perfbench/README.md.
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

WORKLOADS = ("paper_figures", "functional_check", "scaled_solve", "two_station_j2")

# Checks one pass of each workload makes (as in pass.ml); a crashed or
# timed-out pass counts all of them as failed.
CHECKS = {"paper_figures": 8, "functional_check": 6, "scaled_solve": 5, "two_station_j2": 6}

# Files of the checkout the benchmark needs besides its own directory.
REQUIRED = ("dune-project", "lib", "examples/specs/streaming_scaled.aem", "perfbench/dune")

SETUP_PROBES = 20  # set-up-only processes per run, on top of the passes
BUILD_TIMEOUT = 840  # the first run in a checkout builds the program
RUN_BUDGET = 170  # seconds after the build within which a run must end
WORK = os.path.join("perfbench", "_work")
PASS_EXE = os.path.join("_build", "default", "perfbench", "pass.exe")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}

PER_LAYER_UNITS = {
    "adl.parse_s": "s", "adl.elaborate_s": "s",
    "lts.build_s": "s", "lts.states_per_s": "states/s", "lts.csr_pack_s": "s",
    "lts.merge_s": "s", "pa.sos_memo_hit_ratio": "ratio", "pa.terms": "count",
    "lts.segment_peak_mb": "MB", "lts.spill_mb": "MB", "lts.spill_write_s": "s",
    "flts.build_s": "s", "flts.project_s": "s",
    "bisim.strong_s": "s", "bisim.weak_s": "s", "bisim.refine_rounds": "count",
    "bisim.tau_cache_hit_ratio": "ratio", "bisim.weak_quotient_edge_ratio": "ratio",
    "bisim.markovian_s": "s", "bisim.par_seq_fallbacks": "count",
    "ni.check_s": "s", "ni.product_rounds": "count", "ni.states_pruned": "count",
    "ctmc.build_s": "s", "ctmc.solve_s": "s", "ctmc.solve_iterations": "count",
    "ctmc.solve_residual": "residual", "measures.eval_s": "s",
    "sim.replicate_s": "s", "sim.events": "count", "sim.events_per_s": "events/s",
    "pool.utilization": "ratio", "lts.build_j2_over_j1": "ratio",
    "ni.check_j2_over_j1": "ratio", "trace_overhead_s": "s", "unattributed_s": "s",
}

current = None  # the child process running now, stopped on SIGTERM


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def stop_child():
    if current is not None and current.poll() is None:
        current.kill()
        current.wait()


def on_term(signum, _frame):
    stop_child()
    sys.exit(128 + signum)


def child_env():
    env = dict(os.environ)
    for var in ("DPMA_JOBS", "DPMA_METRICS", "DPMA_TRACE", "OCAMLRUNPARAM"):
        env.pop(var, None)
    # The dune cache lives outside the checkout; the build stays inside.
    env["DUNE_CACHE"] = "disabled"
    return env


def call(argv, timeout, capture):
    """Run argv to completion (killing it at the timeout); return
    (exit code or None on timeout, stdout text)."""
    global current
    current = subprocess.Popen(
        argv, stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr, env=child_env(), text=True)
    try:
        out, _ = current.communicate(timeout=max(1.0, timeout))
        return current.returncode, out or ""
    except subprocess.TimeoutExpired:
        stop_child()
        return None, ""
    finally:
        stop_child()
        current = None


def build():
    dune = shutil.which("dune")
    if dune is None:
        log("dune not found on PATH")
        sys.exit(2)
    code, _ = call([dune, "build", "--root", ".", "./perfbench/pass.exe"],
                   BUILD_TIMEOUT, capture=False)
    if code != 0:
        log("build failed")
        sys.exit(1)


def generate_inputs():
    shutil.rmtree(WORK, ignore_errors=True)
    inputs = os.path.join(WORK, "inputs")
    os.makedirs(inputs)
    code, _ = call([PASS_EXE, "gen", inputs], 60, capture=False)
    if code != 0:
        log("input generation failed")
        sys.exit(1)
    shutil.copy(os.path.join("perfbench", "stations.measures"), inputs)
    return inputs


class Runner:
    def __init__(self, workload, seed, inputs, deadline):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.deadline = deadline
        self.count = 0

    def pass_(self, *flags):
        """One pass in a fresh process; None when it crashed or timed out."""
        self.count += 1
        work = os.path.join(WORK, "pass%d" % self.count)
        os.makedirs(work)
        argv = [PASS_EXE, "run", "--workload", self.workload, "--seed", str(self.seed),
                "--inputs", self.inputs, "--work", work]
        argv += list(flags)
        spawn = time.time()
        code, out = call(argv + ["--spawn", repr(spawn)],
                         self.deadline - time.monotonic(), capture=True)
        shutil.rmtree(work, ignore_errors=True)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            log("pass %s %s failed (exit %s)" % (self.workload, " ".join(flags), code))
            return None
        result = json.loads(lines[-1])
        for name in result.get("failures", []):
            log("check failed: %s: %s" % (self.workload, name))
        return result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summary(samples):
    q1, q3 = quartiles(samples)
    return {"median": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples)}


def end_to_end(runner, seconds):
    setups = []
    for _ in range(SETUP_PROBES):
        probe = runner.pass_("--setup-only")
        if probe is not None:
            setups.append(probe["setup_s"])
    passes, attempted, failed = [], 0, 0
    start = time.monotonic()
    durations = []
    while True:
        t0 = time.monotonic()
        result = runner.pass_()
        durations.append(time.monotonic() - t0)
        if result is None:
            attempted += CHECKS[runner.workload]
            failed += CHECKS[runner.workload]
        else:
            attempted += result["attempted"]
            failed += result["failed"]
            passes.append(result)
            setups.append(result["setup_s"])
        elapsed = time.monotonic() - start
        # Start another pass only if it should end within the run time.
        if elapsed + statistics.median(durations) > seconds:
            break
        if time.monotonic() + 2 * max(durations) > runner.deadline:
            break
    detail = {"passes": len(passes), "setup_samples": len(setups)}
    metrics = {}
    if passes:
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            s = summary([p[key] for p in passes])
            detail[key] = s
            metrics[key] = s["median"]
    if setups:
        detail["setup_s"] = summary(setups)
        metrics["setup_s"] = detail["setup_s"]["median"]
    metrics["pass_ratio"] = 1.0 - failed / attempted
    return metrics, attempted, failed, detail


def per_layer(runner):
    passes = [runner.pass_(), runner.pass_("--trace")]
    if runner.workload == "two_station_j2":
        passes.append(runner.pass_("--trace", "--j1-leg"))
    attempted = sum(p["attempted"] if p else CHECKS[runner.workload] for p in passes)
    failed = sum(p["failed"] if p else CHECKS[runner.workload] for p in passes)
    if None in passes:
        return {}, attempted, failed, {}
    untraced, traced = passes[0], passes[1]
    layers = dict(traced["layers"])
    layers["trace_overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    j2_over_j1 = {"lts.build_j2_over_j1": "lts.build_s", "ni.check_j2_over_j1": "ni.check_s"}
    for name, key in j2_over_j1.items():
        if len(passes) == 3 and passes[2]["layers"][key] > 0:
            layers[name] = traced["layers"][key] / passes[2]["layers"][key]
        else:
            layers[name] = 0.0
    detail = {"untraced_wall_s": untraced["wall_s"], "traced_wall_s": traced["wall_s"]}
    return layers, attempted, failed, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        log("not a dpma source checkout (missing %s); run from its root" % ", ".join(missing))
        sys.exit(2)
    signal.signal(signal.SIGTERM, on_term)

    build()
    deadline = time.monotonic() + RUN_BUDGET
    try:
        inputs = generate_inputs()
        runner = Runner(args.workload, args.seed, inputs, deadline)
        if args.trace:
            values, attempted, failed, detail = per_layer(runner)
            units = PER_LAYER_UNITS
        else:
            values, attempted, failed, detail = end_to_end(runner, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    missing = [k for k in units if k not in values]
    if missing:
        log("no value for %s" % ", ".join(missing))
        sys.exit(1)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))


if __name__ == "__main__":
    main()
