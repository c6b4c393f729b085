"""NeaTS-on-Spark benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload {codec,ingest,query} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout that holds ``src/repro``.  The last line
of standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; with ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones (see ``perfbench/README.md``).  The line
before it records the run environment.  Spans of a traced run are written
to ``.perfbench/traces/`` at exit.  Every process the run starts (the JVM,
``pyspark.daemon`` and its workers, the reference-loop processes) has ended
before the result is printed;
if one has not, the run kills it and exits with code 3 and no result.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

import codecload
import common
import hygiene
import sparkload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "ops_ok_pct": "%",
    "compress_mb_per_s": "MB/s",
    "decompress_mb_per_s": "MB/s",
    "access_mb_per_s": "MB/s",
    "ratio_pct": "%",
    "ingest_mb_per_s": "MB/s",
    "store_ratio_pct": "%",
    "short_range_p50_ms": "ms",
    "full_scan_p50_ms": "ms",
    "lookup_p50_ms": "ms",
}

#: per-layer metrics of the traced run: name -> unit
PER_LAYER = {
    "convex.stabber_adds_per_point": "count",
    "convex.accept_pct": "%",
    "convex.add_s_per_mb": "s/MB",
    "convex.solve_s_per_mb": "s/MB",
    "models.try_extend_s_per_mb": "s/MB",
    "models.params_s_per_mb": "s/MB",
    "partition.self_s_per_mb": "s/MB",
    "partition.pairs": "count",
    "partition.predicted_vs_actual_bits_pct": "%",
    "neats.compress_self_s_per_mb": "s/MB",
    "neats.encode_s_per_mb": "s/MB",
    "neats.to_bytes_ms": "ms",
    "neats.fragments_per_kpoint": "count",
    **{f"neats.bytes.{k}": "B" for k in ("S", "B", "O", "C", "K", "P", "D", "header")},
    "neats.from_bytes_ms": "ms",
    "neats.decompress_ms": "ms",
    "neats.access_us": "us",
    "neats.scan10_us": "us",
    "neats.access_succinct_us": "us",
    "trace.compress_layer_sum_pct": "%",
    "trace.decode_layer_sum_pct": "%",
    "spark.floor_ms": "ms",
    "sparkio.encode_tasks": "count",
    "sparkio.encode_parallelism": "x",
    "sparkio.short_range_tasks": "count",
    "sparkio.full_scan_tasks": "count",
    "sparkio.lookup_tasks": "count",
    "sparkio.full_scan_codec_share_pct": "%",
    "store.write_store_s": "s",
    "store.parquet_files": "count",
    "store.disk_bytes_per_payload_byte": "B/B",
    **{f"query.{op}_{m}": u for op in ("short_range", "full_scan", "lookup")
       for m, u in (("tail_ms", "ms"), ("tail_pctl", "%"), ("samples", "count"))},
    "query.repeated_payload_pct": "%",
    "host.steal_pct": "%",
    "host.ref_ms": "ms",
    "trace.overhead_pct": "%",
}

WORKLOADS = ("codec", "ingest", "query")


def _spark_env(work: str, k: int) -> None:
    """Point Spark at the checkout's sources and keep its files in ``work``.
    Set before pyspark launches the JVM, which reads them at start."""
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    src = os.path.join(ROOT, "src")
    os.environ["SPARK_MASTER"] = f"local[{k}]"
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["SPARK_LOCAL_DIRS"] = os.path.join(work, "spark-local")
    os.environ["TMPDIR"] = tmp
    # every JVM, spark-submit's launcher too: temporary files in ``work``,
    # no performance-counter file under /tmp
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program sources at {os.path.join(ROOT, 'src', 'repro')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    hygiene.become_subreaper()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the finally blocks

    spark = args.workload != "codec"
    k = min(2, os.cpu_count() or 1) if spark else None
    work = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    out: dict = {}
    host = common.HostClock()
    try:
        if spark:
            _spark_env(work, k)
        cpu0 = common.cpu_times()
        if args.workload == "codec":
            tally = codecload.run(args.seed, args.seconds, bool(args.trace), host, out)
        else:
            fn = sparkload.run_ingest if args.workload == "ingest" else sparkload.run_query
            with sparkload.reference_pool() as pool:
                tally = fn(args.seed, args.seconds, bool(args.trace), k, work, host, pool, out)
        steal = common.steal_pct(cpu0, common.cpu_times())
    finally:
        try:
            if spark:
                sparkload.stop_jvm()
        finally:
            shutil.rmtree(work, ignore_errors=True)
            left = hygiene.end_descendants()
    if left:
        return 3
    common.log("all started processes have ended")

    env = common.environment(args.seed, k)
    env["host.steal_pct"] = steal
    env["host.ref_ms"] = host.ref_ms()
    # Spark timings before host scaling (README "Host scaling"), and the factor
    env["unscaled"] = out.get("raw", {})
    if args.trace:
        layers = out["layers"]
        layers["host.steal_pct"] = steal
        layers["host.ref_ms"] = host.ref_ms()
        layers["trace.overhead_pct"] = out["trace_overhead_pct"]
        unknown = set(layers) - set(PER_LAYER)
        if unknown:
            raise KeyError(f"unlisted per-layer metrics {sorted(unknown)}")
        # a layer this workload does not run reads 0: no time, no work there
        env["layers_not_run"] = sorted(set(PER_LAYER) - set(layers))
        traces = os.path.join(ROOT, ".perfbench", "traces")
        os.makedirs(traces, exist_ok=True)
        path = os.path.join(traces, f"{args.workload}-seed{args.seed}-{int(time.time())}.json")
        out["tracer"].dump(path)
        env["trace_file"] = os.path.relpath(path, ROOT)
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        out["ops_ok_pct"] = tally.ok_pct
        metrics = {name: {"value": float(out[name]), "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
