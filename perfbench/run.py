#!/usr/bin/env python3
"""The tpiin benchmark: one command, two workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a tpiin source tree. The first run builds the
repository (Release) and the benchmark driver into .bench_build/. Each run
generates its inputs with `tpiin gen` and shuffles them by --seed,
measures for about --seconds, checks every output against a reference
computed in-process, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1
they are the per-layer metrics of the traced run (spans go to
.bench_build/runs/<run>/trace.json). The line before it carries every
record with its unit, direction and sample count, the host fingerprint
and the seed. A correctness failure prints the result with
"correct": false and exits 1; any other failure exits 1 without a result.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build", "perfbench")
RUNS = os.path.join(REPO, ".bench_build", "runs")
DRIVER = os.path.join(BUILD, "perfbench_driver")
TPIIN = os.path.join(BUILD, "tpiin", "tools", "tpiin")

# Generator parameters (`tpiin gen --companies --p --seed=GEN_SEED`); the
# tiny sizes are the self-test's. The generator seed is fixed because the
# province's group count swings up to 5x between generator seeds (219k to
# 1.1M groups at p=0.1), which would swamp any change to the program;
# --seed instead shuffles the row order of every CSV table (same network,
# different ids and insertion orders) and orders the serve requests.
GEN_SEED = 7
WORKLOADS = {
    "batch_dense": {"kind": "batch", "companies": 2452, "p": 0.1,
                    "drill_per_s": 16, "pairs_per_s": 0.2,
                    "tiny": {"companies": 300, "p": 0.1}},
    "serve_drilldown": {"kind": "serve", "companies": 2452, "p": 0.02,
                        "drill_per_s": 80, "pairs_per_s": 0.8,
                        "tiny": {"companies": 300, "p": 0.05}},
}
# The serve window sends a fixed number of requests, so every run measures
# the same multiset: drill_per_s x --seconds drill requests and
# pairs_per_s x --seconds export / what-if pairs. The rates are sized so
# that the window takes about half of --seconds (all of it on
# serve_drilldown) on 4 hardware threads.
SERVE_SETUPS = 10     # Daemons per serve_drilldown run, each on its share
                      # of the window.
MIN_PASSES = 2        # Batch passes per block (two blocks a run), at least,
MAX_PASSES = 6        # at most,
PASS_SHARE = 0.5      # both blocks filling this share of --seconds.
TRACE_REPS = 2        # Traced and untraced batch passes per traced run.
TRACE_WINDOW = 0.5    # The traced run's serve window, replayed in-process
                      # too, is this share of the measured run's.
DEADLINE_S = 170      # A run must end within 180 s,
BUILD_DEADLINE_S = 840  # and the one that builds within 900 s.

END_TO_END = {  # name: (unit, better)
    "setup_s": ("s", "lower"),
    "groups_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "drill_p50_ms": ("ms", "lower"),
    "drill_p99_ms": ("ms", "lower"),
    "drill_rps": ("req/s", "higher"),
    "export_p50_ms": ("ms", "lower"),
    "whatif_p50_ms": ("ms", "lower"),
}
SERVE_KINDS = ["explain", "groups", "rescore", "export", "whatif"]
SERVE_CLASSES = ["drill", "export", "whatif"]


class BenchError(Exception):
    pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def threads():
    return len(os.sched_getaffinity(0))


class Runner:
    def __init__(self, deadline):
        self.deadline = deadline

    def call(self, argv, what):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"out of time before {what}")
        started = time.monotonic()
        try:
            proc = subprocess.run(argv, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, cwd=REPO,
                                  timeout=remaining, check=False)
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"{what} timed out") from e
        log(f"{what}: {time.monotonic() - started:.2f} s")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
            raise BenchError(f"{what} exited {proc.returncode}")
        return proc.stdout.decode(errors="replace")


def build(runner):
    if not os.path.isdir(os.path.join(REPO, "src")):
        raise BenchError("no tpiin source tree next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        runner.call(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"], "cmake configure")
    runner.call(["cmake", "--build", BUILD, "-j", str(threads()),
                 "--target", "perfbench_driver", "tpiin"], "build")


def host_fingerprint():
    compiler, build_type = "unknown", "unknown"
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    out = subprocess.run([path, "--version"], capture_output=True,
                                         text=True, check=False).stdout
                    compiler = out.splitlines()[0] if out else path
                elif line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    return {"hw_threads": threads(), "compiler": compiler,
            "build_type": build_type}


def read_json(path):
    with open(path) as f:
        return json.load(f)


def pct(values, q):
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    v = sorted(values)
    return v[max(0, math.ceil(q * len(v)) - 1)]


def median(values):
    return statistics.median(values) if values else 0.0


def driver(runner, sub, what, **kw):
    argv = [DRIVER, sub] + [f"--{k.replace('_', '-')}={v}" for k, v in kw.items()]
    runner.call(argv, what)


def corrupt(digest):
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def export_gate(ref, corrupt_expected):
    """1 if the full `groups` answer the serve plan expects differs from
    susGroup.txt of the in-process BuildTpiin -> Detect path, else 0."""
    susgroup = ref["digests"].split(",")[0]
    if corrupt_expected:
        susgroup = corrupt(susgroup)
    return int(ref["export_digest"] != susgroup)


def corrupt_plan(path):
    with open(path) as f:
        rows = f.read().splitlines()
    out = []
    for row in rows:
        f = row.split("\t")
        if f[0] == "export":
            f[3] = corrupt(f[3])
        out.append("\t".join(f))
    with open(path, "w") as f:
        f.write("\n".join(out) + "\n")


def serve_session(runner, run, snapshot, plan, pairs, setups, trace):
    out = os.path.join(run, "serve.json")
    driver(runner, "serve", "serve session", tpiin=TPIIN, snapshot=snapshot,
           plan=plan, pairs=pairs, setups=setups, threads=threads(),
           trace=trace, work=run, out=out)
    return read_json(out)


def batch_passes(runner, run, data, seconds):
    """Batch passes, one process each (so each has its own peak RSS),
    for `seconds` and at least MIN_PASSES."""
    out = os.path.join(run, "batch.json")
    passes = []
    started = time.monotonic()
    while len(passes) < MIN_PASSES or (
            len(passes) < MAX_PASSES and time.monotonic() - started < seconds):
        driver(runner, "batch", "batch pass", data=data,
               work=os.path.join(run, "batch"), threads=threads(), out=out)
        passes.append(read_json(out))
    return passes


def window(spec, seconds):
    """(drill requests, export / what-if pairs) of a serve window."""
    return (max(20, round(spec["drill_per_s"] * seconds)),
            max(1, round(spec["pairs_per_s"] * seconds)))


def serve_counts(s):
    attempted = sum(int(s.get(f"{c}.attempted", 0)) for c in SERVE_CLASSES)
    failed = sum(int(s.get(f"{c}.failed", 0)) for c in SERVE_CLASSES)
    attempted += len(s["setup_s"])
    failed += int(s["setup_failed"]) + int(s["daemon_errors"])
    return attempted, failed


def serve_metrics(s):
    drill = s.get("drill.total_ms", [])
    window = s["drill.window_s"] or 1.0
    ok = int(s.get("drill.attempted", 0)) - int(s.get("drill.failed", 0))
    return {
        "drill_p50_ms": (median(drill), len(drill)),
        "drill_p99_ms": (pct(drill, 0.99), len(drill)),
        "drill_rps": (ok / window, ok),
        "export_p50_ms": (median(s.get("export.total_ms", [])),
                          len(s.get("export.total_ms", []))),
        "whatif_p50_ms": (median(s.get("whatif.total_ms", [])),
                          len(s.get("whatif.total_ms", []))),
    }


def prepare(runner, args, spec):
    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    run = os.path.join(RUNS, name)
    shutil.rmtree(run, ignore_errors=True)
    os.makedirs(run)
    size = spec["tiny"] if args.tiny else spec
    data = os.path.join(run, "data")
    runner.call([TPIIN, "gen", f"--out={data}", f"--companies={size['companies']}",
                 f"--p={size['p']}", f"--seed={GEN_SEED}"], "tpiin gen")
    driver(runner, "shuffle", "shuffle", data=data, seed=args.seed)
    return run, data


def reference(runner, run, data, seed, drill, serve_snapshot,
              write_snapshot=None):
    kw = dict(data=data, work=os.path.join(run, "ref"), threads=threads(),
              serve_snapshot=serve_snapshot, seed=seed, drill=drill,
              plan=os.path.join(run, "plan.tsv"))
    if write_snapshot:
        kw["write_snapshot"] = write_snapshot
    driver(runner, "reference", "reference", **kw)
    return read_json(os.path.join(run, "ref", "reference.json"))


def measure(runner, args, spec):
    """The untraced run: end-to-end metrics."""
    run, data = prepare(runner, args, spec)
    kind, seconds = spec["kind"], args.seconds
    drill, pairs = window(spec, seconds)
    plan = os.path.join(run, "plan.tsv")
    attempted = failed = 0
    values = {}
    if kind == "batch":
        # Passes run in two blocks, before and after the serve window, so
        # their samples span the run like the window's do.
        passes = batch_passes(runner, run, data, seconds * PASS_SHARE / 2)
        snapshot = passes[-1]["snapshot"]
        ref = reference(runner, run, data, args.seed, drill, snapshot)
        expected = ref["digests"]
        s = serve_session(runner, run, snapshot, plan, pairs, 1, 0)
        passes += batch_passes(runner, run, data, seconds * PASS_SHARE / 2)
        if args.corrupt_expected:
            expected = corrupt(expected)
        attempted += len(passes)
        failed += sum(p["digest"] != expected for p in passes)
        for key in ("setup_s", "groups_s", "peak_rss_mb"):
            values[key] = (median([p[key] for p in passes]), len(passes))
    else:
        snapshot = os.path.join(run, "net.snap")
        ref = reference(runner, run, data, args.seed, drill, snapshot,
                        write_snapshot=snapshot)
        if args.corrupt_expected:
            corrupt_plan(plan)
        s = serve_session(runner, run, snapshot, plan, pairs, SERVE_SETUPS, 0)
        values["setup_s"] = (median(s["setup_s"]), len(s["setup_s"]))
        values["groups_s"] = (median(s["cold_groups_s"]), len(s["cold_groups_s"]))
        values["peak_rss_mb"] = (median(s["peak_rss_mb"]), len(s["peak_rss_mb"]))
    a, f = serve_counts(s)
    attempted, failed = attempted + a + 1, failed + f
    failed += export_gate(ref, args.corrupt_expected)
    values.update(serve_metrics(s))
    records = [{"name": n, "value": values[n][0], "unit": u, "better": b,
                "samples": values[n][1]} for n, (u, b) in END_TO_END.items()]
    records.append({"name": "failed_frac", "value": failed / max(1, attempted),
                    "unit": "fraction", "better": "lower", "samples": attempted})
    return run, attempted, failed, records


def traced(runner, args, spec):
    """The traced run: per-layer metrics."""
    run, data = prepare(runner, args, spec)
    plan = os.path.join(run, "plan.tsv")
    work = os.path.join(run, "layers")
    # Batch passes, untraced and traced alternately, each in its own
    # process as in the measured run; the ratio of their medians is the
    # tracing overhead.
    untraced_s, passes = [], []
    for r in range(TRACE_REPS):
        out = os.path.join(run, "pass.json")
        driver(runner, "batch", "batch pass", data=data, work=work,
               threads=threads(), out=out)
        u = read_json(out)
        untraced_s.append(u["setup_s"] + u["groups_s"])
        driver(runner, "batch", "traced batch pass", data=data, work=work,
               threads=threads(), out=out,
               trace_out=os.path.join(run, f"pass{r}.trace.json"))
        passes.append(read_json(out))
    layers_out = os.path.join(run, "layers.json")
    driver(runner, "layers", "layers probe", data=data, work=work,
           threads=threads(), out=layers_out,
           trace_out=os.path.join(run, "layers.trace.json"))
    lay = read_json(layers_out)
    snapshot = os.path.join(work, "net.snap")
    drill, pairs = window(spec, args.seconds * TRACE_WINDOW)
    ref = reference(runner, run, data, args.seed, drill, snapshot)
    replay_out = os.path.join(run, "replay.json")
    driver(runner, "replay", "serve replay", plan=plan, pairs=pairs,
           serve_snapshot=snapshot, threads=threads(), out=replay_out,
           trace_out=os.path.join(run, "replay.trace.json"))
    rep = read_json(replay_out)
    if len(rep["replay.kind"]) != drill + 2 * pairs:
        raise BenchError("the replay did not send the window's requests")
    s = serve_session(runner, run, snapshot, plan, pairs, 1, 1)
    attempted, failed = serve_counts(s)
    attempted += len(rep["replay.kind"]) + 1
    failed += int(rep["replay.failed"]) + export_gate(ref, args.corrupt_expected)
    # Every pass's reports must equal the in-process ones, per-subTPIIN
    # groups must add up to the detector's, and the sharded path's merged
    # ranking must equal the unsharded one.
    expected = ref["digests"]
    expected_ranked = ref["ranked"]
    if args.corrupt_expected:
        expected, expected_ranked = corrupt(expected), corrupt(expected_ranked)
    failed += sum(p["digest"] != expected for p in passes)
    failed += lay["core.decomposed_groups"] != lay["core.detector_groups"]
    failed += lay["shard.ranked"] != expected_ranked
    attempted += len(passes) + 2
    merge_traces(run, len(passes))

    m = {}  # name: (value, unit, samples)
    for key in ["io.load_csv_s", "io.reports_s", "fusion.build_s",
                "snapshot.write_s", "snapshot.open_s", "core.detect_s",
                "core.score_s", "trace.setup_layers_s", "trace.groups_layers_s"]:
        m[key] = (median([p[key] for p in passes]), "s", len(passes))
    m["trace.setup_s"] = (median([p["setup_s"] for p in passes]), "s", len(passes))
    m["trace.groups_s"] = (median([p["groups_s"] for p in passes]), "s",
                           len(passes))
    for key in ["io.render_groups_s", "fusion.build_s_t1", "core.detect_s_t1",
                "core.segment_s", "core.pattern_s", "core.match_s",
                "core.max_sub_s", "shard.plan_s", "shard.build_s",
                "shard.detect_s", "shard.detect_s_p1", "shard.merge_s"]:
        m[key] = (lay[key], "s", int(lay["reps"]))
    last = passes[-1]
    m["io.load_mb_per_s"] = (last["csv_mb"] / m["io.load_csv_s"][0], "MB/s",
                             len(passes))
    m["io.reports_mb"] = (last["io.reports_mb"], "MB", 1)
    m["snapshot.mb"] = (last["snapshot.mb"], "MB", 1)
    for key in ["fusion.trade_records", "fusion.trading_arcs",
                "fusion.antecedent_nodes", "fusion.antecedent_arcs",
                "core.subtpiins", "core.trails", "core.groups"]:
        m[key] = (last[key], "count", 1)
    m["shard.cross_trades"] = (lay["shard.cross_trades"], "count", 1)
    m["fusion.dedup_ratio"] = (
        last["fusion.trading_arcs"] / max(1, last["fusion.trade_records"]),
        "ratio", 1)
    m["core.groups_per_trail"] = (last["core.groups"] / max(1, last["core.trails"]),
                                  "ratio", 1)
    m["shard.largest_frac"] = (lay["shard.largest_frac"], "fraction", 1)
    m["fusion.parallel_speedup"] = (
        m["fusion.build_s_t1"][0] / m["fusion.build_s"][0], "x", len(passes))
    m["core.parallel_speedup"] = (
        m["core.detect_s_t1"][0] / m["core.detect_s"][0], "x", len(passes))
    m["shard.parallel_speedup"] = (
        lay["shard.detect_s_p1"] / lay["shard.detect_s"], "x", 1)
    traced_s = [p["setup_s"] + p["groups_s"] for p in passes]
    m["trace.overhead_frac"] = (median(traced_s) / median(untraced_s) - 1,
                                "fraction", len(passes))
    for layer in ["io", "fusion", "snapshot", "core", "serve", "shard", "bench"]:
        self_s = sum(d.get(f"{layer}.self_s", 0.0) for d in passes + [lay, rep])
        m[f"{layer}.self_s"] = (self_s, "s", 1)

    # Serve: in-process replay per request kind, socket run per class.
    # Both sent the same window sequence, so a socket sample and the
    # replayed request with its index are the same request.
    per_kind = {k: [] for k in SERVE_KINDS}
    for i, k in enumerate(rep["replay.kind"]):
        per_kind[k].append(i)
    m["serve.parse_us"] = (median(rep["replay.parse_us"]), "us",
                           len(rep["replay.parse_us"]))
    for k, idx in per_kind.items():
        ev = [rep["replay.evaluate_us"][i] for i in idx]
        se = [rep["replay.serialize_us"][i] for i in idx]
        m[f"serve.evaluate_us.{k}"] = (median(ev), "us", len(ev))
        m[f"serve.serialize_us.{k}"] = (median(se), "us", len(se))
    inproc_ms = [(p + e + z) / 1e3 for p, e, z in zip(
        rep["replay.parse_us"], rep["replay.evaluate_us"],
        rep["replay.serialize_us"])]
    hits = access_log_hits(run, s)
    for c in SERVE_CLASSES:
        total = s.get(f"{c}.total_ms", [])
        transport = [t - inproc_ms[int(i)]
                     for t, i in zip(total, s.get(f"{c}.seq", []))]
        m[f"serve.ttfb_ms.{c}"] = (median(s.get(f"{c}.ttfb_ms", [])), "ms",
                                   len(total))
        m[f"serve.response_mb.{c}"] = (median(s.get(f"{c}.bytes", [])) / 1e6,
                                       "MB", len(total))
        m[f"serve.transport_ms.{c}"] = (median(transport), "ms",
                                        len(transport))
        m[f"serve.cache_hit_ratio.{c}"] = (hits.get(c, 0.0), "ratio", len(total))
    mt = lambda n: s.get(f"metrics.tpiin_serve_{n}_total", 0.0)
    bundle = mt("cache_bundle_hit") + mt("cache_bundle_miss")
    sub = mt("cache_hit") + mt("cache_miss")
    m["serve.bundle_hit_ratio"] = (mt("cache_bundle_hit") / bundle if bundle else 0.0,
                                   "ratio", int(bundle))
    m["serve.sub_hit_ratio"] = (mt("cache_hit") / sub if sub else 0.0, "ratio",
                                int(sub))
    m["serve.busy"] = (mt("requests_busy"), "count", 1)
    m["serve.errors"] = (mt("requests_errors"), "count", 1)
    m["serve.degraded"] = (mt("requests_degraded"), "count", 1)
    records = [{"name": n, "value": v, "unit": u, "better": better(n),
                "samples": k} for n, (v, u, k) in sorted(m.items())]
    return run, attempted, failed, records


def better(name):
    if "hit_ratio" in name or name.endswith(("speedup", "mb_per_s")):
        return "higher"
    return "lower"  # Counts of the input are fixed by it and must repeat.


def access_log_hits(run, s):
    """Share of each class's requests the daemon's access log marks as a
    cache hit, joined on the request IDs the responses echo."""
    cls_of = {}
    for c in SERVE_CLASSES:
        for rid in s.get(f"{c}.request_ids", []):
            cls_of[rid] = c
    hit, seen = {}, {}
    path = os.path.join(run, "access.ndjson")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            c = cls_of.get(rec.get("req"))
            if c is None:
                continue
            seen[c] = seen.get(c, 0) + 1
            hit[c] = hit.get(c, 0) + (rec.get("cache") == "hit")
    return {c: hit[c] / seen[c] for c in seen}


def merge_traces(run, passes):
    """One Chrome trace: pid 1 the layer probe, pid 2 the serve replay,
    pid 3 on the traced batch passes."""
    names = ["layers.trace.json", "replay.trace.json"] + [
        f"pass{r}.trace.json" for r in range(passes)]
    events = []
    for pid, name in enumerate(names, start=1):
        for e in read_json(os.path.join(run, name))["traceEvents"]:
            e["pid"] = pid
            events.append(e)
    with open(os.path.join(run, "trace.json"), "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def run_once(args):
    spec = WORKLOADS[args.workload]
    runner = Runner(time.monotonic() + BUILD_DEADLINE_S)
    build(runner)
    runner.deadline = time.monotonic() + DEADLINE_S
    fn = traced if args.trace else measure
    run, attempted, failed, records = fn(runner, args, spec)
    correct = failed == 0
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "host": host_fingerprint(),
              "records": records}
    with open(os.path.join(run, "result.json"), "w") as f:
        json.dump(detail, f, indent=1)
    wanted = set(END_TO_END) if not args.trace else None
    metrics = {r["name"]: {"value": r["value"], "unit": r["unit"]}
               for r in records if wanted is None or r["name"] in wanted}
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    for sub in ("data", "batch", "layers", "ref"):  # The bulky inputs and reports.
        shutil.rmtree(os.path.join(run, sub), ignore_errors=True)
    return 0 if correct else 1


def selftest():
    """Every workload at a tiny size, untraced and traced, must pass; with
    a corrupted expected digest every workload's gate must fail."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            rc, res = invoke(name, trace, [])
            good = rc == 0 and res is not None and res["correct"]
            ok &= good
            log(f"selftest {name} trace={trace}: {'ok' if good else 'FAILED'}")
        for trace in (0, 1):
            rc, res = invoke(name, trace, ["--corrupt-expected"])
            caught = rc != 0 and res is not None and not res["correct"]
            ok &= caught
            log(f"selftest {name} trace={trace} corrupted digest: "
                f"{'gate failed as it must' if caught else 'NOT CAUGHT'}")
    log("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def invoke(name, trace, extra):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", "3", "--seconds", "2", "--trace", str(trace), "--tiny"]
        + extra, stdout=subprocess.PIPE, cwd=REPO, check=False, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test input sizes")
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="flip one expected digest; the gate must fail")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        return run_once(args)
    except (BenchError, OSError, KeyError, ValueError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
