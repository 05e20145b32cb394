#!/usr/bin/env python3
"""End-to-end solve benchmark: builds the program in Release in a build tree
of its own, runs one workload, checks its outputs and prints one JSON result
as the last line of standard output.

    python3 solvebench/run.py --workload nsu3d_wing --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. Workloads: nsu3d_wing, cart3d_sphere
(see solvebench/README.md). --trace 0 reports the end-to-end metrics;
--trace 1 is the separate traced run that reports the per-layer metrics,
the 2-rank distributed launch included. Exits non-zero without a result
when the build or a run fails.
"""
import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys

import checks

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "solvebench-release")
# Workloads and their thread counts (fixed in the harness's cases).
THREADS = {"nsu3d_wing": 1, "cart3d_sphere": 2}
SETUP_REPEATS = 15   # timed set-ups per run before the measured loop
LAUNCH_CYCLES = 100  # fixed budget of the traced run's 2-rank launches
LAUNCH_PAIRS = 3     # untraced/traced launch pairs per traced run
LAUNCH_BACKEND = "tcp"
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_cmd(cmd, timeout=RUN_TIMEOUT_S, env=None):
    """Runs cmd in its own session, so a timeout kills the whole tree (a
    launcher's forked ranks included). Returns (exit code, stdout); stderr
    goes to our stderr."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out after {timeout}s: {' '.join(cmd)}")
    if err.strip():
        log(err.rstrip())
    return proc.returncode, out or ""


def spawn(cmd, env=None):
    """Runs cmd under the harness spawner. Returns (stdout lines of cmd,
    spawn record: wall_s, exit, maxrss_kb)."""
    code, out = run_cmd([binary("solvebench_harness"), "spawn", "--"] + cmd,
                        env=env)
    lines = out.splitlines()
    if code != 0 or not lines or not lines[-1].startswith('{"kind":"spawn"'):
        raise BenchError(f"spawner failed on {os.path.basename(cmd[0])}")
    return lines[:-1], json.loads(lines[-1])


# --- Build ------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no program sources (src/) next to the benchmark")
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        code, out = run_cmd(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                                "-DCMAKE_BUILD_TYPE=Release"], timeout=600)
        if code != 0:
            log(out[-4000:])
            raise BenchError("cmake configure failed")
    code, out = run_cmd(["cmake", "--build", BUILD_DIR, "-j", "2"],
                           timeout=900)
    if code != 0:
        log(out[-4000:])
        raise BenchError("build failed")


def binary(name):
    return os.path.join(BUILD_DIR, name)


def harness(args, timeout=RUN_TIMEOUT_S):
    code, out = run_cmd([binary("solvebench_harness")] + args, timeout)
    if code != 0:
        raise BenchError(f"harness {args[0]} exited {code}")
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def source_digest():
    """Content hash of what the benchmark builds (the checkout need not be
    a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "examples", "tools", "solvebench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def provenance(harness_prov, workload, threads):
    """Harness fingerprint plus the run's workload, threads and sources;
    the traced run's launches add 2 ranks x 1 thread."""
    prov = {k: v for k, v in harness_prov.items() if k != "kind"}
    prov.update(workload=workload, threads=threads, ranks=1,
                launch_ranks=2, launch_threads_per_rank=1,
                source_sha256=source_digest())
    print("provenance: " + json.dumps(prov, sort_keys=True), flush=True)


def median(values):
    return statistics.median(values)


def metric(value, unit):
    return {"value": value, "unit": unit}


def flipped(history, rng):
    """Anti-test input: one entry moved by one unit in the last place."""
    out = list(history)
    k = rng.randrange(len(out))
    out[k] = checks.flip_last_bit(out[k])
    return out


def stalled(history, rng):
    """Anti-test input: the final residual left 1-10x above the target."""
    target = history[0] * 10.0 ** -checks.ORDERS
    return history[:-1] + [target * rng.uniform(1.01, 10.0)]


# --- In-process workloads ----------------------------------------------------

def in_process(workload, seed, seconds, ledger, rng):
    out, run = spawn([binary("solvebench_harness"), "case", "--case", workload,
                      "--setups", str(SETUP_REPEATS), "--seconds", str(seconds),
                      "--seed", str(seed)])
    if run["exit"] != 0:
        raise BenchError(f"harness case exited {run['exit']}")
    lines = [json.loads(l) for l in out if l.startswith("{")]
    prov = next(l for l in lines if l["kind"] == "provenance")
    setups = [l["s"] for l in lines if l["kind"] == "setup"]
    solves = [l for l in lines if l["kind"] == "solve"]
    if not solves:
        raise BenchError("no solve completed")

    first = solves[0]["history"]
    for s in solves:
        h = s["history"]
        ledger.check("reached_3_orders", checks.reached_orders(h, s["cap"]),
                     checks.reached_orders(stalled(h, rng), s["cap"]))
        ledger.check("reference_residual",
                     checks.reference_drop(s["ref_initial"], s["ref_final"]),
                     checks.reference_drop(s["ref_initial"], s["ref_perturbed"]))
        forces = [s["cl"], s["cd"]] + s["force"]
        bad = list(forces)
        bad[rng.randrange(len(bad))] = float("nan")
        ledger.check("forces_finite", checks.forces_finite(forces),
                     checks.forces_finite(bad))
        if workload == "cart3d_sphere":
            ledger.check("lateral_symmetry",
                         checks.lateral_symmetric(s["force"]),
                         checks.lateral_symmetric(
                             checks.rotate_off_axis(s["force"], rng)))
        ledger.check("repeat_identical", checks.identical(h, first),
                     checks.identical(flipped(h, rng), first))

    all_cycles = [c for s in solves for c in s["cycle_s"]]
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "solve_s": metric(median([s["solve_s"] for s in solves]), "s"),
        "cycle_ms": metric(1e3 * median(all_cycles), "ms"),
        "cycles": metric(len(first) - 1, "count"),
        "peak_rss_mb": metric(run["maxrss_kb"] / 1024.0, "MB"),
    }
    log("solves (s): " + " ".join(f"{s['solve_s']:.3f}" for s in solves))
    log(f"{workload}: {len(setups)} set-ups, {len(solves)} solves, "
        f"{len(all_cycles)} cycles")
    return prov, metrics


# --- 2-rank launch -----------------------------------------------------------

def launch(workdir, cycles, extra=()):
    """One distributed_solve launch as a user runs it (LAUNCH_BACKEND, 2
    ranks, t2t, default overlap and agglomeration, one thread per rank, 3
    orders or `cycles`). Returns its wall time, exit code, peak RSS,
    status, transport counters and the rank-0 history artifact."""
    env = dict(os.environ, COLUMBIA_THREADS="1")
    for k in ("COLUMBIA_TRACE", "COLUMBIA_REPORT", "COLUMBIA_FAULTS"):
        env.pop(k, None)
    history_path = os.path.join(workdir, "history.txt")
    if os.path.exists(history_path):
        os.remove(history_path)
    out, run = spawn([binary("distributed_solve"), "--backend", LAUNCH_BACKEND,
                      "--ranks", "2", "--strategy", "t2t",
                      "--cycles", str(cycles), "--history", history_path]
                     + list(extra), env=env)
    r = {"wall": run["wall_s"], "code": run["exit"], "rss_kb": run["maxrss_kb"],
         "status": None, "counters": {}, "history": [],
         "cl": float("nan"), "cd": float("nan")}
    for line in out:
        if line.startswith("status: "):
            r["status"] = line.split()[1]
            r["counters"]["relaunches"] = int(
                line.split("relaunches=")[1].rstrip(")"))
        elif line.startswith("resil.transport:"):
            for kv in line.split()[1:]:
                k, v = kv.split("=")
                r["counters"][k] = int(v)
    if os.path.isfile(history_path):
        with open(history_path) as f:
            for line in f:
                parts = line.split()
                if parts[0] in ("CL", "CD"):
                    r[parts[0].lower()] = float(parts[1])
                else:
                    r["history"].append(float(parts[0]))
    return r


def serial_reference():
    """Serial in-process solve of the launch's case."""
    lines = harness(["serial", "--cycles", str(LAUNCH_CYCLES)])
    return next(l for l in lines if l["kind"] == "serial")


def check_launch(ledger, rng, r, ref=None):
    """Checks of one launch; `ref` (the serial solve) for full launches."""
    ledger.check("launch_ok", checks.launch_ok(r["code"], r["status"]),
                 checks.launch_ok(r["code"], "failed"))
    dirty = dict(r["counters"])
    dirty[rng.choice(("timeout", "retransmit", "peer_lost"))] = rng.randint(1, 3)
    ledger.check("transport_clean", checks.transport_clean(r["counters"]),
                 checks.transport_clean(dirty))
    if ref is None:
        return
    h, cl, cd = r["history"], r["cl"], r["cd"]
    want = (ref["history"], ref["cl"], ref["cd"])
    off_residual = h[:-1] + [h[-1] * (1 + rng.uniform(1e-4, 1e-2))] if h else h
    off_cl = cl + rng.choice((-1, 1)) * rng.uniform(1e-5, 1e-3)
    ledger.check("launch_matches_serial",
                 checks.launch_matches(h, cl, cd, *want),
                 checks.launch_matches(off_residual, cl, cd, *want)
                 or checks.launch_matches(h, off_cl, cd, *want))
    ledger.check("forces_finite", checks.forces_finite([cl, cd]),
                 checks.forces_finite([cl, float("inf")]))


# --- Traced run: per-layer metrics -------------------------------------------

def jsonl_level_ms(path, prefix, out):
    """Median per-cycle exclusive level time from the convergence JSONL."""
    per_level = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            for lv in rec.get("levels", []):
                per_level.setdefault(lv["level"], []).append(lv["seconds"])
    for level, secs in sorted(per_level.items()):
        out[f"{prefix}.L{level}"] = 1e3 * median(secs)


def comm_metrics(trace_path, out):
    code, text = run_cmd([binary("columbia_report"), "comm", "--json",
                             trace_path])
    if code != 0:
        raise BenchError("columbia_report comm failed")
    comm = json.loads(text)["runs"][0]["comm"]
    waits = {lv["level"]: lv["wait_s"] for lv in comm["levels"]}
    for level in range(3):
        out[f"comm.wait_ms.L{level}"] = 1e3 * waits.get(level, 0.0)
    out["comm.late_sender_ms"] = 1e3 * comm["late_sender_s"]
    out["comm.critical_path_ms.L0"] = 1e3 * sum(
        g["critical_path_s"] for g in comm["groups"] if g["level"] == 0)


def overhead(ratios, out):
    """Tracing overhead from traced/untraced time ratios, with its spread."""
    q = statistics.quantiles(ratios, n=4)
    out["obs.overhead_pct"] = 100.0 * (median(ratios) - 1.0)
    out["obs.overhead_iqr_pct"] = 100.0 * (q[2] - q[0])


def traced(workload, ledger, rng, workdir):
    out = {}
    lines = harness(["layers", "--workload", workload, "--workdir", workdir])
    prov = next(l for l in lines if l["kind"] == "provenance")
    for l in lines:
        if l["kind"] == "layers":
            out.update({k: v for k, v in l.items() if k not in ("kind", "case")})
        elif l["kind"] == "histories":
            name = l["case"]
            base = l["untraced"]
            for other in ("traced", "other_threads"):
                ledger.check(f"{name}_{other}_identical",
                             checks.identical(l[other], base),
                             checks.identical(flipped(l[other], rng), base))
            ledger.check(f"{name}_reached_3_orders",
                         checks.reached_orders(base, l["cap"]),
                         checks.reached_orders(stalled(base, rng), l["cap"]))
            short = name.split("_")[0]
            out[f"baseline.{short}_solve_1t_s"] = l["solve_1t_s"]
            out[f"baseline.{short}_solve_2t_s"] = l["solve_2t_s"]
        elif l["kind"] == "pool":
            busy = l["busy_ms"]
            for t, b in enumerate(busy):
                out[f"pool.busy_ms.t{t}"] = b
            out["pool.imbalance"] = max(busy) / (sum(busy) / len(busy))
            out["pool.chunks"] = l["chunks"]
        elif l["kind"] == "overhead":
            overhead(l["ratio"], out)
    jsonl_level_ms(os.path.join(workdir, "nsu3d_wing.jsonl"), "nsu3d.level_ms", out)
    jsonl_level_ms(os.path.join(workdir, "cart3d_sphere.jsonl"), "cart3d.level_ms",
                   out)

    xchg_path = os.path.join(workdir, "xchg.json")
    harness(["xchg", "--backend", LAUNCH_BACKEND, "--out", xchg_path])
    with open(xchg_path) as f:
        out.update({k: v for k, v in json.load(f).items() if k != "kind"})

    launch_layers(ledger, rng, workdir, out)
    return prov, out


def launch_layers(ledger, rng, workdir, out):
    """The 2-rank launch as a user runs it: a zero-cycle launch, then
    alternating untraced and traced 100-cycle launches. Every launch is
    checked (exit status, clean transport; full launches also against the
    serial solve); the last traced one feeds columbia_report comm."""
    ref = serial_reference()
    trace_path = os.path.join(workdir, "launch_trace.json")
    zero = launch(workdir, 0)
    check_launch(ledger, rng, zero)
    plain, ratios = [], []
    for _ in range(LAUNCH_PAIRS):
        r = launch(workdir, LAUNCH_CYCLES)
        check_launch(ledger, rng, r, ref)
        t = launch(workdir, LAUNCH_CYCLES, ["--trace", trace_path])
        check_launch(ledger, rng, t, ref)
        plain.append(r["wall"])
        ratios.append((t["wall"] - zero["wall"]) / (r["wall"] - zero["wall"]))
    comm_metrics(trace_path, out)
    cycles = len(r["history"]) - 1
    out["launch.setup_s"] = zero["wall"]
    out["launch.solve_s"] = median(plain)
    out["launch.cycle_ms"] = 1e3 * (median(plain) - zero["wall"]) / max(cycles, 1)
    out["launch.peak_rss_mb"] = r["rss_kb"] / 1024.0
    out["launch.speedup_2r"] = ref["solve_s"] / (median(plain) - zero["wall"])
    q = statistics.quantiles(ratios, n=4)
    out["obs.launch_overhead_pct"] = 100.0 * (median(ratios) - 1.0)
    out["obs.launch_overhead_iqr_pct"] = 100.0 * (q[2] - q[0])
    out["transport.retransmits"] = t["counters"].get("retransmit", -1)
    out["transport.timeouts"] = t["counters"].get("timeout", -1)
    out["baseline.launch_serial_s"] = ref["solve_s"]
    out["perf.model_speedup_2r"] = ref["model_speedup_2r"]


# --- Main ----------------------------------------------------------------------

def per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(THREADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    workdir = os.path.join(ROOT, ".bench_build", "runs", str(os.getpid()))
    try:
        build()
        os.makedirs(workdir, exist_ok=True)
        ledger = checks.Ledger()
        rng = random.Random(args.seed)
        if args.trace:
            prov, values = traced(args.workload, ledger, rng, workdir)
            units = per_layer_units()
            missing = [n for n in units if n not in values]
            if missing:
                raise BenchError(f"traced run lacks {missing}")
            metrics = {n: metric(values[n], u) for n, u in units.items()}
        else:
            prov, metrics = in_process(args.workload, args.seed, args.seconds,
                                       ledger, rng)
        provenance(prov, args.workload, THREADS[args.workload])
    except BenchError as e:
        log(f"solvebench: {e}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if ledger.failures:
        log(f"failed checks: {sorted(set(ledger.failures))}")
    if ledger.anti_missed:
        log(f"checks that accepted a perturbed result: "
            f"{sorted(set(ledger.anti_missed))}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {ledger.attempted}, failed = {ledger.failed}")
    print(json.dumps({"correct": ledger.correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
