#!/usr/bin/env python3
"""End-to-end benchmark of the Bundler simulator (see bench/e2e/README.md).

Builds bench/e2e in Release, runs every repetition in a fresh bundler_bench
process, interleaves the workloads round-robin and prints every metric by
name with its unit, median, quartiles and sample count.

  python3 bench/e2e/run.py [--seed N] [--reps N] [--workloads a,b] [--out FILE]
  python3 bench/e2e/run.py --traced       only the traced pass
  python3 bench/e2e/run.py --smoke        every workload at 1/10 duration, once
  python3 bench/e2e/run.py --calibrate    one run per seed for 10 seeds; writes
                                          bench/e2e/baseline.json and the bounds
                                          in BENCHMARK.json
  python3 bench/e2e/run.py compare BASE.json CHANGE.json

One workload for a fixed time, printing a JSON summary as the last line:

  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
BASELINE_JSON = os.path.join(HERE, "baseline.json")

WORKLOADS = ("dumbbell_sfq", "dumbbell_status_quo", "cdn_edge_managed", "fat_tree_sharded")
SHARDED = "fat_tree_sharded"  # the one workload run on ShardRunner workers
RESULT_SCHEMA = "bundler-e2e-result/1"
REP_TIMEOUT_S = 170
TIMED_BUDGET_S = 170  # a timed run stops starting repetitions past this
MIN_TIMED_REPS = 3
SMOKE_SCALE = 0.1
CALIBRATE_SEEDS = 10
MAX_BOUND = 0.25

# End-to-end metrics reported here besides the ones BENCHMARK.json lists.
# The FCT percentiles are simulated behaviour: identical for a given seed, so
# their bounds apply to same-seed comparisons. Across seeds they swing by up
# to 0.41 of their median on the near-saturated dumbbell pair, too much for
# a cross-seed bound. failed_frac reads 0 when nothing fails; any increase
# is a regression.
BEHAVIOUR_METRICS = (
    {"name": "fct_p50_ms", "unit": "sim_ms", "better": "lower", "bound": 0.02},
    {"name": "fct_p99_ms", "unit": "sim_ms", "better": "lower", "bound": 0.05},
    {"name": "failed_frac", "unit": "fraction", "better": "lower", "bound": 0.0},
)
# Calibration never sets a bound below these shares of the median.
FLOORS = {"setup_s": 0.10, "run_s": 0.10, "cpu_s": 0.10, "peak_rss_mb": 0.03}
# A worse setup_s must also exceed this many seconds to count.
ABS_SLACK = {"setup_s": 0.005}

# Per-layer metrics that only exist in this tool's output, not in
# BENCHMARK.json: they describe the input or the host, not work an
# optimisation could remove.
EXTRA_PER_LAYER = (
    {"name": "transport.flows", "unit": "count", "better": "higher"},
    {"name": "sim.effective_cores", "unit": "cores", "better": "higher"},
)


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def e2e_metrics(spec):
    return list(spec["end_to_end"]) + list(BEHAVIOUR_METRICS)


def per_layer_metrics(spec):
    return list(spec["per_layer"]) + list(EXTRA_PER_LAYER)


# --- statistics ------------------------------------------------------------

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def summarize(values, unit, better):
    q1, med, q3 = quartiles(values)
    return {"unit": unit, "better": better, "median": med, "q1": q1, "q3": q3,
            "n": len(values), "samples": list(values)}


def spread(summary):
    med = summary["median"]
    return (summary["q3"] - summary["q1"]) / abs(med) if med else 0.0


def verdict(base, change, better, bound, abs_slack=0.0):
    """Classifies CHANGE against BASE samples, paired in run order.

    `worse`: the median worsened by more than the bound (and abs_slack).
    `better`: the change wins at least 9 in 10 of the pairs and the medians
    differ by more than the base's quartile distance. `unresolved`: the base's
    own spread exceeds the bound (and its quartile distance abs_slack) and
    not every change run beats every base run. Otherwise `unchanged`.
    """
    bq1, bmed, bq3 = quartiles(base)
    cmed = quartiles(change)[1]
    sign = 1.0 if better == "lower" else -1.0
    gap = sign * (cmed - bmed)  # > 0 means the change is worse
    scale = abs(bmed)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    if scale and (bq3 - bq1) / scale > bound and bq3 - bq1 > abs_slack:
        beats_all = max(sign * c for c in change) < min(sign * b for b in base)
        return "better" if beats_all else "unresolved"
    if gap > max(bound * scale, abs_slack):
        return "worse"
    if gap < 0 and wins >= 0.9 * len(pairs) and -gap > bq3 - bq1:
        return "better"
    return "unchanged"


# --- building and running the harness ----------------------------------------

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(d if os.path.isabs(d) else os.path.join(ROOT, d), "e2e")


def build():
    """Builds bundler_bench (Release) and returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die(f"{ROOT} holds no repository source tree; bench/e2e builds the "
            "simulator from a full checkout")
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "--target", "bundler_bench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "bundler_bench")


def run_harness(args, timeout=REP_TIMEOUT_S):
    """Runs the harness once; returns its JSON or {"error": ...}."""
    try:
        p = subprocess.run(args, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if p.returncode != 0:
        return {"error": f"exit {p.returncode}: {p.stderr.strip()[-300:]}"}
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"error": "unparseable harness output"}


def run_rep(binary, workload, seed, scale=1.0, traced=False, workers=None,
            timeout=REP_TIMEOUT_S):
    args = [binary, "--workload", workload, "--seed", str(seed), "--scale", str(scale)]
    if workers is not None:
        args += ["--workers", str(workers)]
    if traced:
        trace_dir = os.path.join(build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        args += ["--trace", "--trace-out", os.path.join(trace_dir, workload + ".jsonl")]
    rep = run_harness(args, timeout)
    rep.setdefault("workload", workload)
    rep.setdefault("seed", seed)
    tag = "traced" if traced else f"w{workers}" if workers else "rep"
    status = rep["error"] if "error" in rep else f"run_s={rep['run_s']:.3f}"
    print(f"  {workload:20s} seed {seed:<4d} {tag:6s} {status}", file=sys.stderr)
    return rep


def host_info(binary):
    info = run_harness([binary, "--info"])
    if "error" in info:
        die("host probe failed: " + info["error"])
    return info


def traced_round(binary, workload, seed, scale, timeout=REP_TIMEOUT_S):
    """One traced repetition plus the untraced runs it is judged against.

    The sharded workload is traced on one worker, so its span self-times add
    up to wall time; its one-worker untraced run is the overhead baseline and
    the numerator of sim.shard_speedup.
    """
    rnd = {"base": run_rep(binary, workload, seed, scale, timeout=timeout)}
    workers = None
    if workload == SHARDED:
        workers = 1
        rnd["w1"] = run_rep(binary, workload, seed, scale, workers=1, timeout=timeout)
    rnd["traced"] = run_rep(binary, workload, seed, scale, traced=True, workers=workers,
                            timeout=timeout)
    return rnd


# --- checks and derived metrics -------------------------------------------------

def ok(rep):
    return "error" not in rep


def self_time_table(traced):
    """Per-layer self time of one traced repetition, and whether the rows of
    the run phase add up to sim.run within 1%."""
    coarse = {c["name"]: c["dur_s"] for c in traced["coarse_spans"]}
    ss, rs = traced["setup_spans"], traced["run_spans"]
    enq, deq = rs["qdisc.enqueue"], rs["qdisc.dequeue"]
    rows = [
        ("topo", "setup", None, coarse["topo.build"]),
        ("app", "setup", None, coarse["app.arm"] - ss["toplevel_s"]),
        ("transport", "setup", ss["transport.flow_create"]["calls"],
         ss["transport.flow_create"]["self_s"]),
        ("bundler", "run", rs["bundler.ingress"]["calls"], rs["bundler.ingress"]["self_s"]),
        ("qdisc", "run", enq["calls"] + deq["calls"], enq["self_s"] + deq["self_s"]),
        ("transport", "run", rs["transport.flow_create"]["calls"],
         rs["transport.flow_create"]["self_s"]),
        ("unattributed", "run", None, coarse["sim.run"] - rs["toplevel_s"]),
        ("metrics", "extract", None, coarse["metrics.extract"]),
        ("obs", "serialize", None, coarse.get("obs.serialize", 0.0)),
    ]
    table = [{"layer": l, "phase": p, "calls": c, "self_s": s} for l, p, c, s in rows]
    run_sum = sum(r["self_s"] for r in table if r["phase"] == "run")
    return table, abs(run_sum - coarse["sim.run"]) <= 0.01 * coarse["sim.run"]


def check_reps(untraced, rounds):
    """Failure reasons per repetition: harness errors and output checks, a
    digest that differs from the untraced runs of the same seed, and a traced
    self-time table that does not add up. Returns (attempted, failures)."""
    reference = {}
    for rep in untraced + [r["base"] for r in rounds]:
        if ok(rep):
            reference.setdefault(rep["seed"], []).append(rep["digest"])
    reference = {s: max(set(d), key=d.count) for s, d in reference.items()}

    failures = []

    def judge(rep, kind):
        if not ok(rep):
            failures.append(f"{kind} seed {rep['seed']}: {rep['error']}")
            return
        for c in rep["checks"]:
            failures.append(f"{kind} seed {rep['seed']}: {c}")
        want = reference.get(rep["seed"])
        if want is not None and rep["digest"] != want:
            failures.append(f"{kind} seed {rep['seed']}: digest {rep['digest']} != {want}")

    attempted = 0
    for rep in untraced:
        attempted += 1
        judge(rep, "untraced")
    for rnd in rounds:
        for kind, rep in rnd.items():
            attempted += 1
            judge(rep, kind)
            if kind == "traced" and ok(rep) and not self_time_table(rep)[1]:
                failures.append(f"traced seed {rep['seed']}: self times miss sim.run by > 1%")
    return attempted, failures


def round_per_layer(rnd, w4_run_s):
    """Timing-derived per-layer metrics of one traced round."""
    tr = rnd["traced"]
    coarse = {c["name"]: c["dur_s"] for c in tr["coarse_spans"]}
    ss, rs = tr["setup_spans"], tr["run_spans"]

    def ns_per_call(*aggs):
        calls = sum(a["calls"] for a in aggs)
        return sum(a["total_s"] for a in aggs) / calls * 1e9 if calls else 0.0

    baseline = rnd["w1"] if "w1" in rnd else rnd["base"]
    return {
        "topo.build_s": coarse["topo.build"],
        "app.arm_s": coarse["app.arm"],
        "transport.flow_create_ns": ns_per_call(ss["transport.flow_create"],
                                                rs["transport.flow_create"]),
        "bundler.ingress_ns": ns_per_call(rs["bundler.ingress"]),
        "qdisc.enq_ns": ns_per_call(rs["qdisc.enqueue"]),
        "qdisc.deq_ns": ns_per_call(rs["qdisc.dequeue"]),
        "metrics.extract_s": coarse["metrics.extract"],
        "obs.serialize_s": coarse["obs.serialize"],
        "obs.records_per_event": tr["counts"]["obs.records_per_event"],
        "obs.trace_overhead_frac": tr["run_s"] / baseline["run_s"] - 1.0,
        "sim.unattributed_s": coarse["sim.run"] - rs["toplevel_s"],
        "sim.shard_speedup": rnd["w1"]["run_s"] / w4_run_s if "w1" in rnd else 0.0,
    }


def per_layer(spec, untraced, rounds, host):
    """Per-layer values: counts and rates from the untraced repetitions,
    times from the traced rounds (medians over repetitions and rounds)."""
    good = [r for r in untraced + [rnd["base"] for rnd in rounds] if ok(r)]
    values = {}
    for name in good[0]["counts"] if good else ():
        if name != "obs.records_per_event":  # untraced runs record nothing
            values[name] = statistics.median(r["counts"][name] for r in good)
    values["sim.shard_cpu_per_wall"] = (
        statistics.median(r["run_cpu_s"] / r["run_s"] for r in good) if good else 0.0)
    w4 = statistics.median(r["run_s"] for r in good) if good else 0.0
    timed = [round_per_layer(rnd, w4) for rnd in rounds
             if all(ok(r) for r in rnd.values())]
    for name in timed[0] if timed else ():
        values[name] = statistics.median(t[name] for t in timed)
    values["sim.effective_cores"] = host["effective_cores"]
    out = {}
    for m in per_layer_metrics(spec):
        v = values.get(m["name"])
        out[m["name"]] = {"unit": m["unit"], "better": m["better"],
                          "value": float(v) if v is not None else None}
    speedup = out.get("sim.shard_speedup")
    if speedup is not None and any("w1" in rnd for rnd in rounds):
        speedup["status"] = "measured" if host["effective_cores"] >= 2 else "unmeasurable"
    return out


def workload_result(spec, untraced, rounds, host):
    attempted, failures = check_reps(untraced, rounds)
    e2e_reps = [r for r in (untraced or [rnd["base"] for rnd in rounds]) if ok(r)]
    end_to_end = {}
    for m in e2e_metrics(spec):
        if m["name"] == "failed_frac":
            vals = [len(failures) / attempted] if attempted else [1.0]
        else:
            vals = [r[m["name"]] for r in e2e_reps]
        if vals:
            end_to_end[m["name"]] = summarize(vals, m["unit"], m["better"])
    traced = [rnd["traced"] for rnd in rounds if ok(rnd["traced"])]
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "digests": sorted({r["digest"] for r in e2e_reps}),
        "end_to_end": end_to_end,
        "per_layer": per_layer(spec, untraced, rounds, host) if rounds else {},
        "self_time": self_time_table(traced[0])[0] if traced else [],
    }


# --- result files ------------------------------------------------------------

def validate_result(doc):
    """Schema problems of a result file (empty when it is well formed)."""
    problems = []

    def number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    if not isinstance(doc, dict) or doc.get("schema") != RESULT_SCHEMA:
        return [f"schema is not {RESULT_SCHEMA}"]
    host = doc.get("host")
    if not isinstance(host, dict):
        problems.append("host record missing")
    else:
        for key, kind in (("nproc", int), ("effective_cores", (int, float)),
                          ("compiler", str), ("build_type", str)):
            if not isinstance(host.get(key), kind):
                problems.append(f"host.{key} missing or mistyped")
    if not isinstance(doc.get("seed"), int):
        problems.append("seed missing")
    workloads = doc.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        return problems + ["no workloads"]
    for w, res in workloads.items():
        if not isinstance(res.get("attempted"), int) or res["attempted"] < 1:
            problems.append(f"{w}: attempted must be a positive integer")
        if not isinstance(res.get("failed"), int):
            problems.append(f"{w}: failed must be an integer")
        e2e = res.get("end_to_end")
        if not isinstance(e2e, dict) or not e2e:
            problems.append(f"{w}: end_to_end missing")
            continue
        for name, m in e2e.items():
            if m.get("better") not in ("lower", "higher") or not isinstance(m.get("unit"), str):
                problems.append(f"{w}.{name}: unit/better missing")
            if not all(number(m.get(k)) for k in ("median", "q1", "q3")):
                problems.append(f"{w}.{name}: median/q1/q3 must be numbers")
            samples = m.get("samples")
            if (not isinstance(m.get("n"), int) or not isinstance(samples, list)
                    or len(samples) != m["n"] or not all(number(s) for s in samples)):
                problems.append(f"{w}.{name}: n must count the numeric samples")
        for name, m in res.get("per_layer", {}).items():
            if not isinstance(m, dict) or not (m.get("value") is None or number(m["value"])):
                problems.append(f"{w}.{name}: per-layer value must be a number or null")
    return problems


def load_result(path):
    with open(path) as f:
        doc = json.load(f)
    problems = validate_result(doc)
    if problems:
        die(f"{path} is not a result file: " + "; ".join(problems[:5]))
    return doc


def summary_line(attempted, failed, metrics):
    """The one-line JSON a timed run ends with: {name: (value, unit)}."""
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}


# --- printing ----------------------------------------------------------------

def fmt(v):
    if v is None:
        return "n/a"
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_result(doc):
    h = doc["host"]
    print(f"host: nproc {h['nproc']}, effective cores {h['effective_cores']:.2f}, "
          f"{h['compiler']}, {h['build_type']}; seed {doc['seed']}")
    print(f"\n{'workload':22s}{'metric':14s}{'unit':10s}{'median':>12s}{'q1':>12s}"
          f"{'q3':>12s}{'n':>4s}")
    for w, res in doc["workloads"].items():
        for name, m in res["end_to_end"].items():
            print(f"{w:22s}{name:14s}{m['unit']:10s}{fmt(m['median']):>12s}"
                  f"{fmt(m['q1']):>12s}{fmt(m['q3']):>12s}{m['n']:>4d}")
    for w, res in doc["workloads"].items():
        for f in res["failures"]:
            print(f"FAILED {w}: {f}")
        if res["per_layer"]:
            print(f"\n{w}: per-layer")
            for name, m in res["per_layer"].items():
                status = f"  ({m['status']})" if "status" in m else ""
                print(f"  {name:28s}{fmt(m['value']):>14s} {m['unit']}{status}")
        if res["self_time"]:
            total = sum(r["self_s"] for r in res["self_time"] if r["phase"] == "run")
            print(f"\n{w}: self time (traced; run rows sum to sim.run = {total:.4f} s)")
            for r in res["self_time"]:
                share = f"{r['self_s'] / total:6.1%}" if r["phase"] == "run" and total else ""
                print(f"  {r['layer']:14s}{r['phase']:10s}{fmt(r['calls']):>12s}"
                      f"{r['self_s']:12.5f} s {share}")


# --- modes -------------------------------------------------------------------

def full_run(args):
    spec = load_spec()
    workloads = [w for w in args.workloads.split(",") if w]
    for w in workloads:
        if w not in WORKLOADS:
            die(f"unknown workload {w}; choose from {', '.join(WORKLOADS)}")
    binary = build()
    host = host_info(binary)
    scale = SMOKE_SCALE if args.smoke else 1.0
    reps = 0 if (args.traced or args.smoke) else args.reps
    untraced = {w: [] for w in workloads}
    for _ in range(reps):
        for w in workloads:
            untraced[w].append(run_rep(binary, w, args.seed, scale))
    rounds = {w: [traced_round(binary, w, args.seed, scale)] for w in workloads}
    doc = {"schema": RESULT_SCHEMA, "host": host, "seed": args.seed, "reps": reps,
           "scale": scale,
           "workloads": {w: workload_result(spec, untraced[w], rounds[w], host)
                         for w in workloads}}
    out = args.out or os.path.join(build_dir(), "smoke.json" if args.smoke else "result.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(doc, f, indent=1)
    print_result(doc)
    print(f"\nwrote {out}")
    return 1 if any(res["failed"] for res in doc["workloads"].values()) else 0


def format_spec(spec):
    """BENCHMARK.json text: one line per workload and metric entry."""
    fields = []
    for key, value in spec.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            entries = ",\n".join("    " + json.dumps(e) for e in value)
            fields.append(f"  {json.dumps(key)}: [\n{entries}\n  ]")
        else:
            fields.append(f"  {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


def calibrate(args):
    """One untraced run per seed for CALIBRATE_SEEDS seeds, interleaved. The
    spread therefore covers seed-to-seed workload variation as well as
    machine noise. Writes baseline.json and sets each BENCHMARK.json bound to
    three times the largest spread over workloads, at least its floor and at
    most MAX_BOUND; setup_s gets the largest bound of all."""
    spec = load_spec()
    binary = build()
    host = host_info(binary)
    seeds = list(range(args.seed, args.seed + CALIBRATE_SEEDS))
    untraced = {w: [] for w in WORKLOADS}
    for seed in seeds:
        for w in WORKLOADS:
            untraced[w].append(run_rep(binary, w, seed))
    results = {w: workload_result(spec, untraced[w], [], host) for w in WORKLOADS}
    baseline = {"schema": "bundler-e2e-baseline/1", "host": host, "seeds": seeds,
                "workloads": {}}
    for w, res in results.items():
        baseline["workloads"][w] = {
            name: {k: m[k] for k in ("unit", "median", "q1", "q3", "n")} | {"spread": spread(m)}
            for name, m in res["end_to_end"].items()}
        for f in res["failures"]:
            print(f"FAILED {w}: {f}")
    bounds = {}
    for m in spec["end_to_end"]:
        worst = max(spread(res["end_to_end"][m["name"]]) for res in results.values())
        bounds[m["name"]] = min(MAX_BOUND, max(FLOORS.get(m["name"], 0.0), 3.0 * worst))
    bounds["setup_s"] = max(bounds.values())
    for m in spec["end_to_end"]:
        m["bound"] = round(bounds[m["name"]], 3)
    baseline["bounds"] = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    with open(BASELINE_JSON, "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")
    with open(BENCHMARK_JSON, "w") as f:
        f.write(format_spec(spec))
    print(f"{'workload':22s}{'metric':14s}{'median':>12s}{'q1':>12s}{'q3':>12s}{'spread':>9s}")
    for w, ms in baseline["workloads"].items():
        for name, m in ms.items():
            print(f"{w:22s}{name:14s}{fmt(m['median']):>12s}{fmt(m['q1']):>12s}"
                  f"{fmt(m['q3']):>12s}{m['spread']:9.4f}")
    print("bounds: " + ", ".join(f"{k} {v}" for k, v in baseline["bounds"].items()))
    print(f"wrote {BASELINE_JSON} and the bounds in {BENCHMARK_JSON}")
    return 1 if any(res["failed"] for res in results.values()) else 0


def timed_run(args):
    """One workload, repeated for --seconds; the last stdout line is a
    one-line JSON summary. --trace 1 repeats traced rounds and reports the
    per-layer metrics, --trace 0 untraced repetitions and the end-to-end
    metrics BENCHMARK.json lists."""
    spec = load_spec()
    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload}; choose from {', '.join(WORKLOADS)}")
    if args.seconds is None or args.seconds <= 0:
        die("--workload needs --seconds S")
    binary = build()
    host = host_info(binary) if args.trace else None
    start = time.monotonic()
    untraced, rounds, longest = [], [], 0.0
    need = 1 if args.trace else MIN_TIMED_REPS
    while True:
        elapsed = time.monotonic() - start
        done = len(rounds) if args.trace else len(untraced)
        if done >= 1 and elapsed + longest > TIMED_BUDGET_S:
            break
        if done >= need and elapsed >= args.seconds:
            break
        timeout = max(10.0, REP_TIMEOUT_S - elapsed)
        t0 = time.monotonic()
        if args.trace:
            rounds.append(traced_round(binary, args.workload, args.seed, 1.0, timeout))
        else:
            untraced.append(run_rep(binary, args.workload, args.seed, timeout=timeout))
        longest = max(longest, time.monotonic() - t0)
    res = workload_result(spec, untraced, rounds, host)
    for f in res["failures"]:
        print(f"FAILED {args.workload}: {f}")
    if args.trace:
        wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = {n: (res["per_layer"].get(n, {}).get("value"), u) for n, u in wanted}
    else:
        wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = {n: (res["end_to_end"].get(n, {}).get("median"), u) for n, u in wanted}
    for n, (v, u) in values.items():
        print(f"{args.workload} {n} {fmt(v)} {u}")
    if any(v is None for v, _ in values.values()):
        print(f"{args.workload}: no successful repetition to report", file=sys.stderr)
        return 1
    print(json.dumps(summary_line(res["attempted"], res["failed"], values)))
    return 0


def compare(base_path, change_path):
    base, change = load_result(base_path), load_result(change_path)
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in e2e_metrics(spec)}
    print(f"{'workload':22s}{'metric':14s}{'unit':10s}{'base':>12s}{'change':>12s}"
          f"{'ratio':>9s}{'bound':>7s}  verdict")
    worse = 0
    for w, bres in base["workloads"].items():
        cres = change["workloads"].get(w)
        if cres is None:
            print(f"{w:22s}(missing from {change_path})")
            continue
        for name, bm in bres["end_to_end"].items():
            cm = cres["end_to_end"].get(name)
            if cm is None or name not in bounds:
                continue
            v = verdict(bm["samples"], cm["samples"], bm["better"], bounds[name],
                        ABS_SLACK.get(name, 0.0))
            worse += v == "worse"
            ratio = f"{cm['median'] / bm['median']:.3f}x" if bm["median"] else "n/a"
            print(f"{w:22s}{name:14s}{bm['unit']:10s}{fmt(bm['median']):>12s}"
                  f"{fmt(cm['median']):>12s}{ratio:>9s}{bounds[name]:>7g}  {v}")
    return 1 if worse else 0


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            die("usage: run.py compare BASE.json CHANGE.json")
        return compare(argv[1], argv[2])
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--reps", type=int, default=5, help="untraced repetitions per workload")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--out", help="result file (default: <build dir>/result.json)")
    p.add_argument("--traced", action="store_true", help="run only the traced pass")
    p.add_argument("--smoke", action="store_true", help="1/10 duration, one round each")
    p.add_argument("--calibrate", action="store_true")
    p.add_argument("--workload", help="timed run of one workload")
    p.add_argument("--seconds", type=float, help="timed run length")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.reps < 1:
        die("--seed must be >= 0 and --reps >= 1")
    if args.workload:
        return timed_run(args)
    if args.calibrate:
        return calibrate(args)
    return full_run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
