"""The ``ingest`` and ``query`` workloads: NeaTS behind Spark and Parquet.

Both drive Spark from this single driver process with one client, in a
closed loop: the next operation starts when the previous one returned.
The session comes from ``repro.runner.get_spark`` (``SPARK_MASTER`` is set
to ``local[k]`` by ``run.py``); no codec parameter or Spark setting is
changed here.  The program's functions are called through their modules
(``spark_codec.compress_to_blocks``, ``store.write_store``), so the wrappers
a traced run installs there record spans.
"""
from __future__ import annotations

import os
import subprocess
import time
from contextlib import contextmanager
from multiprocessing import get_context

import numpy as np
import pandas as pd

from codecload import codec_item, codec_layer_metrics, compress_mb_per_s, probe_block, replay
from common import BLOCK, MB, MIX, REF_NOMINAL_S, HostClock, Run, load_blocks, log, median, read_metrics, tail
from spans import SPARK_LAYERS, Tracer

#: Seconds of idle before a reference loop in the measured loop, so that it
#: runs with no Spark job in flight and the JVM and workers have settled.
SETTLE_S = 0.2
#: Rounds of reference loops per quiet probe (one alone jitters by 10-30 %).
PROBES = 3
#: Points of the untimed warm-up ingest in set-up (spawns the workers).
WARM_POINTS = 512
#: query: distinct series per dataset (blocks each) and the replication
#: factor R of the store; (R - 1) / R of the payload rows repeat a payload.
QUERY_SERIES_BLOCKS = 2
QUERY_REPLICAS = 32
LOOKUP_KEYS = 64
#: query: in-process compress passes over the store's distinct blocks
COMPRESS_PASSES = 2
#: ingest: distinct series generated per dataset; op j uses series j mod this
INGEST_SERIES = 4


def start_session():
    from repro.runner import get_spark

    spark = get_spark("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_jvm() -> None:
    """Stop the active session and the JVM behind it, and wait for the JVM."""
    from pyspark import SparkContext
    from pyspark.sql import SparkSession

    gateway = SparkContext._gateway
    if gateway is None:
        return
    try:
        active = SparkSession.getActiveSession()
        if active is not None:
            active.stop()
    finally:  # an interrupted call can leave the gateway unusable: stop the JVM anyway
        proc = getattr(gateway, "proc", None)
        gateway.shutdown()
        if proc is not None:
            proc.stdin.close()  # the gateway server exits when its stdin closes
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        SparkContext._gateway = None
        SparkContext._jvm = None


def arith_loop(_=None) -> float:
    """Seconds of a fixed integer-arithmetic loop: the reference work of the
    Spark probes (see :func:`quiet_probe`)."""
    t0 = time.perf_counter()
    s = 0
    for i in range(50_000):
        s += i * i % 7
    return time.perf_counter() - t0


@contextmanager
def reference_pool():
    """One idle process per CPU for the all-core reference loops, forked
    before the JVM starts; terminated and reaped on exit."""
    pool = get_context("fork").Pool(os.cpu_count() or 1)
    try:
        yield pool
    finally:
        pool.terminate()
        pool.join()


def quiet_probe(pool) -> float:
    """:func:`arith_loop` on every CPU at once, after ``SETTLE_S`` of idle
    with no Spark job in flight: the median over ``PROBES`` rounds of the
    mean loop time.  A Spark job runs on several CPUs (JVM threads and
    Python workers), so its speed follows a loop run on all CPUs more
    closely than one on the driver's CPU alone.  Measured on the 4-core
    host: over 20 s windows of a 4-minute query loop the window medians
    spread by 13 %, 5.5 % scaled by this probe and 13 % (short range) / 7 %
    (full scan) by the single-CPU loop; over ten runs of each workload while
    the host drifted, it cut the spread of ``short_range_p50_ms`` from 39 %
    to 14 % and of ``ingest_mb_per_s`` from 15 % to 4.3 %.  The codec's
    reference (``common.ref_loop``) run on all CPUs did worse here (five
    runs: 8 % -> 12 % and 7 % -> 21 %)."""
    time.sleep(SETTLE_S)
    n = os.cpu_count() or 1
    return median([sum(pool.map(arith_loop, range(n), chunksize=1)) / n for _ in range(PROBES)])


def cold_setup(pool, build) -> tuple[object, float, float]:
    """Launch the JVM and a new session, spawn the workers and run
    ``build(spark)``: the set-up of a Spark workload, timed once per run
    because only a cold one pays the JVM launch and worker spawn (13 s of
    its 20 s on the 4-core host, too long to repeat within a run).  Returns
    the session, the raw seconds and the reference loops run just before,
    when no JVM was alive to disturb them."""
    before = quiet_probe(pool)
    t0 = time.perf_counter()
    spark = start_session()
    build(spark)
    dt = time.perf_counter() - t0
    log(f"cold set-up: {dt:.2f} s")
    return spark, dt, before


def run_factor(probes: list[float]) -> float:
    """Host factor of a Spark run: ``REF_NOMINAL_S`` over the median of the
    run's quiet reference loops (``cold_setup``'s and ``quiet_probe``'s);
    the set-up is scaled by it too.
    Loops run right after a job would also time the JVM's and workers'
    after-job work, which is the program's, not the host's."""
    return REF_NOMINAL_S / median(probes)


def floor_probe(spark) -> float:
    """Seconds of a 1-row ``mapInPandas`` round trip: Spark's per-job floor."""
    def identity(batches):
        yield from batches

    t0 = time.perf_counter()
    spark.range(1).mapInPandas(identity, "id long").collect()
    return time.perf_counter() - t0


def parquet_files(path: str) -> list[str]:
    return [os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs if f.endswith(".parquet")]


def disk_bytes(path: str) -> int:
    return sum(os.path.getsize(f) for f in parquet_files(path))


def tasks_of_group(sc, group: str) -> list[list[int]]:
    """Completed tasks per stage, per job of a job group (public status API)."""
    st = sc.statusTracker()
    out = []
    for job in sorted(st.getJobIdsForGroup(group)):
        info = st.getJobInfo(job)
        stages = sorted(info.stageIds) if info else []
        out.append([getattr(st.getStageInfo(s), "numCompletedTasks", 0) for s in stages])
    return out


def _frame(spark, values: np.ndarray):
    return spark.createDataFrame(pd.DataFrame({"idx": np.arange(len(values), dtype=np.int64), "y": values}))


# -- ingest ------------------------------------------------------------------------
#
# Why this workload: it is the only one where the encoder's Spark task
# parallelism and the Parquet write matter.  Each operation runs
# ``compress_to_blocks`` + ``write_store`` on one series of 2*k blocks, so it
# loads the fitter, Algorithm 1 and the encoder inside Spark's Python
# workers, the shuffle that groups rows into blocks, and the Parquet store.
# It bypasses the decoder: the store is read back and every payload decoded
# against the input only after the timed loop.

def run_ingest(seed: int, seconds: float, trace: bool, k: int, work: str, host: HostClock, pool,
               out: dict) -> Run:
    from repro.sparkio import codec as spark_codec, rowgroup_store as store

    tally = Run()
    per_series = 2 * k
    series = {ds: load_blocks(ds, INGEST_SERIES * per_series, seed) for ds in MIX}
    n = per_series * BLOCK

    def values_of(ds, j):
        s = j % INGEST_SERIES
        return series[ds][s * n:(s + 1) * n]

    def ingest(spark, values, path):
        store.write_store(spark_codec.compress_to_blocks(_frame(spark, values), block_size=BLOCK), path)

    def verify(blocks: pd.DataFrame, values: np.ndarray) -> bool:
        blocks = blocks.sort_values("start_idx")
        if blocks["n"].sum() != len(values) or blocks["start_idx"].tolist() != list(range(0, len(values), BLOCK)):
            return False
        return all(np.array_equal(spark_codec.decode_block(r.payload, r.codec, r.n),
                                  values[r.start_idx:r.start_idx + r.n])
                   for r in blocks.itertuples())

    warm_path, warm_values = os.path.join(work, "warm"), values_of(MIX[0], 0)[:WARM_POINTS]

    def warm(spark):  # one untimed ingest: spawns the workers, pays the imports
        ingest(spark, warm_values, warm_path)
        tally.check(verify(store.read_blocks(spark, warm_path).toPandas(), warm_values))

    spark, setup_raw, setup_probe = cold_setup(pool, warm)
    sc = spark.sparkContext
    tracer = Tracer() if trace else None
    root = os.path.join(work, "ingest")
    ops = []  # (op id, ds, round, seconds, traced)
    floors, write_s, groups, probes = [], [], [], [setup_probe]
    t_end = time.perf_counter() + seconds
    rnd = 0
    min_rounds = 2 if trace else 1  # a traced run needs a traced round (odd)
    while rnd < min_rounds or time.perf_counter() < t_end:
        on = trace and rnd % 2 == 1
        for ds in MIX:
            if rnd >= min_rounds and time.perf_counter() >= t_end:
                break
            op = len(ops)
            values = values_of(ds, rnd)
            path = os.path.join(root, f"op={op}")
            if trace:
                sc.setJobGroup(f"ingest-{op}", "ingest")
            probes.append(quiet_probe(pool))
            if on:
                with tracer.installed(SPARK_LAYERS), tracer.span("ingest.op"):
                    t0 = time.perf_counter()
                    ingest(spark, values, path)
                    dt = time.perf_counter() - t0
                groups.append(f"ingest-{op}")
                sc.setJobGroup("aux", "outside the measured operations")
                # the Parquet write alone, from blocks already encoded
                cached = store.read_blocks(spark, path).cache()
                cached.count()
                t0 = time.perf_counter()
                store.write_store(cached, os.path.join(work, "rewrite"))
                write_s.append(time.perf_counter() - t0)
                cached.unpersist()
                floors.append(floor_probe(spark))
            else:
                t0 = time.perf_counter()
                ingest(spark, values, path)
                dt = time.perf_counter() - t0
            ops.append((op, ds, rnd, dt, on))
        rnd += 1
    host_k = run_factor(probes)
    log(f"ingest loop: {len(ops)} operations, host factor {host_k:.3f}")
    out["setup_s"] = host_k * setup_raw
    out["raw"] = {"setup_s": setup_raw, "host_factor": host_k}

    # verification, outside the timed loop: read back, decode every payload
    stored = store.read_blocks(spark, root).toPandas()
    if trace:
        time.sleep(1.0)  # let the status listener catch up with the last jobs
        encode_tasks = [tasks_of_group(sc, g)[-1][-1] for g in groups]
    # the in-process codec runs after the JVM stopped: its threads would compete
    stop_jvm()
    rng = np.random.default_rng(seed)
    reads = []
    payload_bytes = {}
    for op, ds, r, *_ in ops:
        blocks = stored[stored["op"] == op].sort_values("start_idx")
        values = values_of(ds, r)
        if not tally.check(verify(blocks, values)):
            log(f"WRONG ANSWER ingest {ds} series {r}: the stored blocks do not decode to it")
        payload_bytes[op] = int(blocks["payload"].map(len).sum())
        for b, row in enumerate(blocks.itertuples()):
            rec, ok = probe_block(ds, (r, b), values[row.start_idx:row.start_idx + row.n], bytes(row.payload),
                                  rng, host)
            tally.check(ok)
            reads.append(rec)

    def op_s(sel):  # sum over the mix of the per-dataset median op seconds
        by_ds: dict[str, list[float]] = {}
        for _, ds, _, dt, *_ in sel:
            by_ds.setdefault(ds, []).append(dt)
        return sum(median(v) for v in by_ds.values())

    first = [o for o in ops if o[2] == 0]
    raw0 = len(first) * 8 * n
    if trace:
        # serial codec seconds of the first round: its blocks encoded in
        # process, untraced, by the function the Spark task calls
        serial = 0.0
        for _, ds, r, *_ in first:
            values = values_of(ds, r)
            for j in range(per_series):
                t0 = time.perf_counter()
                spark_codec.encode_block(values[j * BLOCK:(j + 1) * BLOCK], "neats")
                serial += time.perf_counter() - t0
        items, payloads = replay([(ds, values_of(ds, 0)[:BLOCK]) for ds in MIX], seed, host, tracer, tally)
        plain = [o for o in ops if not o[4]]
        traced = [o for o in ops if o[4]]
        layers = codec_layer_metrics(tracer, items, payloads)
        layers.update({
            "spark.floor_ms": 1e3 * host_k * median(floors),
            "sparkio.encode_tasks": median(encode_tasks),
            "sparkio.encode_parallelism": serial / op_s(first),
            "store.write_store_s": median(write_s),
            "store.parquet_files": median([len(parquet_files(os.path.join(root, f"op={o[0]}"))) for o in ops]),
            "store.disk_bytes_per_payload_byte": sum(disk_bytes(os.path.join(root, f"op={o[0]}")) for o in ops)
            / sum(payload_bytes.values()),
        })
        out["layers"] = layers
        out["trace_overhead_pct"] = 100.0 * (op_s(traced) / op_s(plain) - 1.0)
        out["tracer"] = tracer
        return tally
    ingest_raw = len(MIX) * 8 * n / op_s(ops) / MB
    out["raw"]["ingest_mb_per_s"] = ingest_raw
    out.update(read_metrics(reads))
    out.update({
        "ingest_mb_per_s": ingest_raw / host_k,
        # the encoder runs inside the write action: one number for both
        "compress_mb_per_s": ingest_raw / host_k,
        "ratio_pct": 100.0 * sum(payload_bytes[o[0]] for o in first) / raw0,
        "store_ratio_pct": 100.0 * sum(disk_bytes(os.path.join(root, f"op={o[0]}")) for o in first) / raw0,
    })
    return tally


# -- query -------------------------------------------------------------------------
#
# Why this workload: it runs no fitter in the timed region.  Operations go
# round-robin over three types that separate the Spark layers: a 10-point
# range inside one block (Spark's per-job floor + Parquet pruning +
# ``range_query``), a full scan (whole-block decode of every payload in
# ``decompress_blocks``) and a batch point lookup (the shuffle join of
# ``random_access`` + in-block ``access``).  The store repeats a few distinct
# payloads R times, so (R - 1) / R of the payload rows are repeats: a
# payload-keyed cache would profit here and not on ``codec``/``ingest``.

def run_query(seed: int, seconds: float, trace: bool, k: int, work: str, host: HostClock, pool,
              out: dict) -> Run:
    from pyspark.sql import functions as F

    from repro.sparkio import codec as spark_codec, rowgroup_store as store

    tally = Run()
    parts = [load_blocks(ds, QUERY_SERIES_BLOCKS, seed) for ds in MIX]
    base = np.concatenate(parts)
    n_base, blocks_base = len(base), len(base) // BLOCK
    total = n_base * QUERY_REPLICAS
    base_path, store_path = os.path.join(work, "base"), os.path.join(work, "store")

    def summary(df):
        return list(df.agg(F.count("*"), F.sum("y"), F.min("y"), F.max("y")).collect()[0])

    def truth(idx: np.ndarray):
        v = base[idx % n_base]
        return [len(v), int(v.sum()), int(v.min()), int(v.max())]

    full_truth = [total, QUERY_REPLICAS * int(base.sum()), int(base.min()), int(base.max())]
    rng = np.random.default_rng(seed)

    def short_range(spark):
        lo = int(rng.integers(0, total // BLOCK)) * BLOCK + int(rng.integers(0, BLOCK - 10))
        t0 = time.perf_counter()
        got = summary(store.scan_range(spark, store_path, lo, lo + 10))
        dt = time.perf_counter() - t0
        return dt, got == truth(np.arange(lo, lo + 10))

    def full_scan(spark):
        t0 = time.perf_counter()
        got = summary(spark_codec.decompress_blocks(store.read_blocks(spark, store_path)))
        dt = time.perf_counter() - t0
        return dt, got == full_truth

    def lookup(spark):
        keys = np.sort(rng.choice(total, LOOKUP_KEYS, replace=False)).astype(np.int64)
        t0 = time.perf_counter()
        kdf = spark.createDataFrame(pd.DataFrame({"idx": keys}))
        rows = store.point_lookup(spark, store_path, kdf, block_size=BLOCK).collect()
        dt = time.perf_counter() - t0
        got = sorted((r["idx"], r["y"]) for r in rows)
        return dt, got == list(zip(keys.tolist(), base[keys % n_base].tolist()))

    op_types = {"short_range": short_range, "full_scan": full_scan, "lookup": lookup}

    def build(spark):  # spawn the workers, then compress the distinct series once and replicate them
        floor_probe(spark)
        store.write_store(spark_codec.compress_to_blocks(_frame(spark, base), block_size=BLOCK), base_path)
        reps = spark.range(QUERY_REPLICAS).withColumnRenamed("id", "r")
        store.write_store(
            store.read_blocks(spark, base_path).crossJoin(reps).select(
                (F.col("block_id") + F.col("r") * blocks_base).alias("block_id"),
                (F.col("start_idx") + F.col("r") * n_base).alias("start_idx"),
                "n", "codec", "payload"),
            store_path)

    spark, setup_raw, setup_probe = cold_setup(pool, build)
    for fn in op_types.values():  # one untimed operation of each type
        tally.check(fn(spark)[1])

    distinct = store.read_blocks(spark, base_path).toPandas().sort_values("start_idx")
    sc = spark.sparkContext
    tracer = Tracer() if trace else None
    samples = {name: [] for name in op_types}  # (seconds, traced)
    groups = {name: [] for name in op_types}
    floors, probes = [], [setup_probe]
    t_end = time.perf_counter() + seconds
    rnd = 0
    while rnd < 2 or time.perf_counter() < t_end:
        on = trace and rnd % 2 == 1
        probes.append(quiet_probe(pool))
        for name, fn in op_types.items():
            if rnd >= 2 and time.perf_counter() >= t_end:
                break
            if trace:
                group = f"{name}-{rnd}"
                sc.setJobGroup(group, name)
                if on:
                    groups[name].append(group)
            if on:
                with tracer.installed(SPARK_LAYERS), tracer.span(f"query.{name}"):
                    dt, ok = fn(spark)
            else:
                dt, ok = fn(spark)
            if not tally.check(ok):
                log(f"WRONG ANSWER query {name}, round {rnd}")
            samples[name].append((dt, on))
        if on:
            sc.setJobGroup("aux", "outside the measured operations")
            floors.append(floor_probe(spark))
        rnd += 1
    host_k = run_factor(probes)
    log(f"query loop: {sum(map(len, samples.values()))} operations, host factor {host_k:.3f}")
    out["setup_s"] = host_k * setup_raw
    out["raw"] = {"setup_s": setup_raw, "host_factor": host_k}

    if trace:
        time.sleep(1.0)  # let the status listener catch up with the last jobs
        tasks = {name: median([sum(sum(stages) for stages in tasks_of_group(sc, g)) for g in groups[name]])
                 for name in op_types}
    stop_jvm()  # the in-process codec runs alone: Spark's threads would compete
    # the in-process codec on the store's distinct blocks: the write path
    # this loop does not run, and the serial decode time of the store; a
    # recompressed payload must equal the stored one
    items = []
    for p in range(COMPRESS_PASSES):
        for row in distinct.itertuples():
            ds = MIX[row.start_idx // (QUERY_SERIES_BLOCKS * BLOCK)]
            b = (row.start_idx // BLOCK) % QUERY_SERIES_BLOCKS
            rec, ok, payload = codec_item(ds, (p, b), base[row.start_idx:row.start_idx + row.n], rng, host)
            tally.check(ok and payload == bytes(row.payload))
            items.append(rec)
    payload_total = QUERY_REPLICAS * int(distinct["payload"].map(len).sum())

    def p50(name, traced=None):  # raw seconds
        return median([dt for dt, on in samples[name] if traced is None or on == traced])

    if trace:
        traced, payloads = replay(
            [(MIX[row.start_idx // (QUERY_SERIES_BLOCKS * BLOCK)], base[row.start_idx:row.start_idx + row.n])
             for row in distinct.itertuples()], seed, host, tracer, tally)
        layers = codec_layer_metrics(tracer, traced, payloads)
        # serial decode seconds of every block of the store: R times each distinct one
        per_block: dict = {}
        for i in items:
            per_block.setdefault((i["ds"], i["round"][1]), []).append((i["from_bytes"] + i["decompress"]) / i["k"])
        decode_all = QUERY_REPLICAS * sum(median(v) for v in per_block.values())
        layers.update({
            "spark.floor_ms": 1e3 * host_k * median(floors),
            "store.parquet_files": float(len(parquet_files(store_path))),
            "store.disk_bytes_per_payload_byte": disk_bytes(store_path) / payload_total,
            "sparkio.full_scan_codec_share_pct": 100.0 * decode_all / p50("full_scan", False),
            "query.repeated_payload_pct": 100.0 * (QUERY_REPLICAS - 1) / QUERY_REPLICAS,
        })
        for name in op_types:
            layers[f"sparkio.{name}_tasks"] = tasks[name]
            value, pct, count = tail([host_k * dt for dt, _ in samples[name]])
            layers[f"query.{name}_tail_ms"] = 1e3 * value
            layers[f"query.{name}_tail_pctl"] = pct
            layers[f"query.{name}_samples"] = float(count)
        out["layers"] = layers
        out["trace_overhead_pct"] = 100.0 * (
            sum(p50(name, True) for name in op_types) / sum(p50(name, False) for name in op_types) - 1.0)
        out["tracer"] = tracer
        return tally
    out["raw"].update({f"{name}_p50_ms": 1e3 * p50(name) for name in op_types})
    compress = compress_mb_per_s(items)
    out.update({f"{name}_p50_ms": 1e3 * host_k * p50(name) for name in op_types})
    out.update({
        # no ingest in this loop: the in-process encode of the distinct blocks
        "ingest_mb_per_s": compress,
        "compress_mb_per_s": compress,
        # the read path through Spark: the whole store decoded by a full
        # scan, 8 B per key of a batch lookup
        "decompress_mb_per_s": 8 * total / (host_k * p50("full_scan")) / MB,
        "access_mb_per_s": 8 * LOOKUP_KEYS / (host_k * p50("lookup")) / MB,
        "ratio_pct": 100.0 * payload_total / QUERY_REPLICAS / (8 * n_base),
        "store_ratio_pct": 100.0 * disk_bytes(store_path) / (8 * total),
    })
    return tally
