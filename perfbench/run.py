#!/usr/bin/env python3
"""Smart drill-down benchmark: builds the driver, runs one workload, prints
every metric by name with its unit and sample count, and ends with one JSON
line {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload cold-drill --seed 1 --seconds 15 --trace 0

Run it from the repository root. --trace 0 reports the end-to-end metrics
(tracing off); --trace 1 replays a fixed slice of the same seeded scripts
one surface at a time and reports the per-layer metrics. See
perfbench/README.md for the workloads, the metrics and what each layer
metric should move.

Exit status: 0 when every correctness gate passed; 1 when a gate or a
request failed (the JSON line is still printed, with "correct": false);
2 when the benchmark could not run at all (no JSON line).
"""

import argparse
import json
import os
import shutil
import struct
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("cold-drill", "live-append", "sampled-drill")
DRIVER_TIMEOUT_S = 170
# Request kinds of the driver's op log, by OpKind index (driver/bench.h).
OP_KINDS = ("open", "root", "star", "rule", "close", "append", "publish",
            "show")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the driver (and the smartdd library it links)
    from source; a no-op rebuild costs about a second."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench_driver")


def read_ops(path):
    """The driver's op log: (request kind, ms) per timed request."""
    with open(path, "rb") as f:
        data = f.read()
    return [(OP_KINDS[k], ms) for k, ms in struct.iter_unpack("<Bd", data)]


def run_driver(driver, args):
    subprocess.run([driver] + args, check=True, timeout=DRIVER_TIMEOUT_S,
                   stdout=sys.stderr, stderr=sys.stderr)


# --- end-to-end metrics (tracing off) --------------------------------------

def end_to_end(raw):
    """Returns [(name, value, unit, samples, note)] for every end-to-end
    metric. Raises stats.TailRefused if a tail lacks samples beyond it."""
    pops = stats.split_by_click(raw["ops"])

    def p50(kind):
        values = pops.get(kind, [])
        return stats.median(values), len(values)

    rows = [
        ("setup_s", stats.median(raw["setup_s"]), "s", len(raw["setup_s"]),
         "median of set-ups in this run"),
        ("peak_heap_mb", raw["peak_heap_mb"], "MiB", 1,
         "max in-use heap between requests"),
        ("requests_per_s", raw["attempted"] / raw["window_s"], "1/s",
         raw["attempted"], "closed loop, 1 client"),
    ]
    for kind in ("root", "star", "rule"):
        value, n = p50(kind)
        rows.append((kind + "_expand_p50_ms", value, "ms", n, "p50"))
    rules = pops.get("rule", [])
    rows.append(("rule_expand_p90_ms", stats.tail_percentile(rules, 90), "ms",
                 len(rules),
                 "%d beyond" % stats.samples_beyond(len(rules), 90)))
    return rows


def informational(raw):
    """Per-click populations the workload has beyond the bounded metrics
    (appends, publishes, ...), printed but not part of the JSON line."""
    pops = stats.split_by_click(raw["ops"])
    out = []
    for kind, values in pops.items():
        out.append(("%s_p50_ms" % kind, stats.median(values), "ms",
                    len(values), "info"))
    for name, value in sorted(raw["counters"].items()):
        out.append((name, value, "count", 1, "info"))
    return out


# --- per-layer metrics (traced run) ------------------------------------------

def per_layer(raw, workload):
    spans = [dict(zip(("id", "parent", "request", "name", "start", "end"), s))
             for s in raw["spans"]]
    by_id = {s["id"]: s for s in spans}
    c = raw["counters"]
    ms = lambda s: (s["end"] - s["start"]) / 1000.0  # noqa: E731

    def durations(name, pred=lambda s: True):
        return [ms(s) for s in spans if s["name"] == name and pred(s)]

    def by_request(name):
        return {s["request"]: ms(s) for s in spans if s["name"] == name}

    def med(values):
        return stats.median(values) if values else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    selfs = stats.self_times(spans)
    drilldowns = c.get("core.drilldowns", 0)
    lower = "sampling.request" if workload == "sampled-drill" else "core.drilldown"
    explore = by_request("explore.expand")
    lower_ms = by_request(lower)
    explore_self = stats.paired_delta(explore, lower_ms) if explore else 0.0

    # A cache hit of the repeat pass never reaches explore, so its whole
    # Execute is api work.
    execute_self = durations("repeat.execute.hit")
    api_request = by_request("api.request")
    is_click = lambda s: s["request"].split("#")[0] not in (  # noqa: E731
        "open", "close", "append")
    codec = [selfs[s["id"]] / 1000.0 for s in spans
             if s["name"] == "api.request" and is_click(s)]

    def transport(name):
        own = by_request(name)
        return (stats.paired_delta(own, by_request("repeat.request"))
                if own else 0.0)

    publishes = c.get("live.publishes", 0)
    rows = [
        ("core.drilldown_ms", med(durations("core.drilldown")), "ms"),
        ("core.step_ms", med(durations("core.drilldown.step")), "ms"),
        ("core.passes", ratio(c.get("core.passes", 0), drilldowns), "count"),
        ("core.tuple_visits", ratio(c.get("core.tuple_visits", 0), drilldowns),
         "count"),
        ("core.candidates_counted_ratio",
         ratio(c.get("core.candidates_counted", 0),
               c.get("core.candidates_generated", 0)), "ratio"),
        ("core.merge_ms", ratio(c.get("core.merge_ms", 0), drilldowns), "ms"),
        ("explore.expand_self_ms", explore_self, "ms"),
        ("sampling.get_sample_ms", med(durations("sampling.get_sample")), "ms"),
        ("sampling.scans_per_expand",
         ratio(c.get("sampling.scans", 0), c.get("sampling.requests", 0)),
         "count"),
        ("sampling.reuse_ratio",
         ratio(c.get("sampling.reused", 0), c.get("sampling.requests", 0)),
         "ratio"),
        ("sampling.brs_on_sample_ms",
         med(durations("sampling.brs_on_sample") or durations(
             "core.drilldown", lambda s: s["parent"] and
             by_id[s["parent"]]["name"] == "sampling.request")), "ms"),
        ("cache.hit_ratio",
         ratio(c.get("cache.hits", 0),
               c.get("cache.hits", 0) + c.get("cache.misses", 0)), "ratio"),
        ("cache.hits", c.get("cache.hits", 0), "count"),
        ("cache.misses", c.get("cache.misses", 0), "count"),
        ("cache.evictions", c.get("cache.evictions", 0), "count"),
        ("cache.singleflight_waits", c.get("cache.singleflight_waits", 0),
         "count"),
        ("cache.bytes", c.get("cache.bytes", 0), "bytes"),
        ("api.execute_self_ms", med(execute_self), "ms"),
        ("api.codec_ms", med(codec), "ms"),
        ("api.open_ms", med([v for r, v in api_request.items()
                             if r.startswith("open#")]), "ms"),
        ("api.close_ms", med([v for r, v in api_request.items()
                              if r.startswith("close#")]), "ms"),
        ("live.append_us", med(durations("live.append")) * 1000.0, "us"),
        ("live.publish_ms", med(durations("live.publish")), "ms"),
        ("live.version_engine_ms", med(durations("live.version_engine")),
         "ms"),
        ("live.versions_alive", c.get("live.versions_alive", 0), "count"),
        ("live.bytes_per_version",
         ratio(c.get("live.version_bytes_sum", 0), publishes), "bytes"),
        ("live.wal_bytes_per_row", c.get("live.wal_bytes_per_row", 0),
         "bytes"),
        ("storage.csv_load_ms", med(durations("storage.csv_load")), "ms"),
        ("storage.table_bytes", c.get("storage.table_bytes", 0), "bytes"),
        ("net.http_overhead_ms", transport("net.request"), "ms"),
        ("cluster.rpc_hop_ms", transport("cluster.request"), "ms"),
        ("trace.overhead_ratio",
         ratio(c.get("trace.traced_wall_s", 0),
               c.get("trace.untraced_wall_s", 0)), "ratio"),
    ]
    return [(name, value, unit, None, "") for name, value, unit in rows]


def print_table(title, rows):
    print(title)
    for name, value, unit, n, note in rows:
        samples = "" if n is None else "n=%d" % n
        print("  %-32s %16.6f %-6s %-9s %s" % (name, value, unit, samples,
                                               note))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "api", "service.h")):
        log("perfbench: smartdd sources not found under %s/src" % root)
        return 2
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    work = os.path.join(build_root, "perfbench-work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        driver = build(os.path.join(build_root, "perfbench"))
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--dir", work]
        os.makedirs(work, exist_ok=True)
        run_driver(driver, ["gen"] + common)
        result_path = os.path.join(work, "result.json")
        run_driver(driver, ["run"] + common + [
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--out", result_path])
        with open(result_path) as f:
            raw = json.load(f)
        raw["ops"] = read_ops(result_path + ".ops")
        if args.trace:
            rows = per_layer(raw, args.workload)
        else:
            rows = end_to_end(raw)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("perfbench %s" % json.dumps(raw["context"], sort_keys=True))
    print_table("metrics (%s, trace=%d):" % (args.workload, args.trace), rows)
    if not args.trace:
        print_table("populations and counters (not bounded):",
                    informational(raw))
    failures = raw["gate_failures"]
    print("gates: %d checked, %d failed%s" % (
        raw["gates_checked"], len(failures),
        "".join("\n  FAILED %s: %s" % (n, d) for n, d in failures)))
    failed = raw["failed"] + len(failures)
    result = {
        "correct": failed == 0,
        "attempted": max(1, raw["attempted"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _, _ in rows},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
