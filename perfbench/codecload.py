"""The ``codec`` workload and the in-process codec probe the others reuse.

Why this workload: it isolates the Theorem 1 fitter (``core.convex``,
``core.models``), Algorithm 1 (``core.partition``), the NeaTS encoder and
decoder (``core.neats`` over ``core.bitstream``/``eliasfano``/``wavelet``)
from Spark's per-job floor (~0.3 s), so a codec change shows at full size.
It loads those layers only: one process, no Spark, no ``sparkio`` code, so
a Spark-side change must show no change here.  Items are distinct blocks,
so no payload repeats (a payload-keyed cache gets no hits).
"""
from __future__ import annotations

import struct
import time
from contextlib import nullcontext

import numpy as np

from common import BLOCK, MB, MIX, HostClock, Run, load_blocks, log, median, read_metrics
from spans import CODEC_LAYERS, Tracer

#: Blocks generated per dataset; round r compresses block r mod N_BLOCKS.
N_BLOCKS = 16
#: Rounds every run completes, whatever ``--seconds`` says; ``ratio_pct``
#: is taken over these rounds so it depends on the seed only.
MIN_ROUNDS = 4
#: Points of the untimed warm-up item in set-up (pays imports and first calls).
WARM_POINTS = 512
DECODES = 9    # decodes per block; the item records their median
ACCESSES = 256  # random accesses per block (one batch lookup)
SCANS = 64      # 10-point scans per block
SETUPS = 3


def _section(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def probe_block(ds: str, rnd, values: np.ndarray, payload: bytes, rng, host: HostClock,
                tracer: Tracer | None = None) -> tuple[dict, bool]:
    """Decode ``payload`` in process and answer an access batch and 10-point
    scans from it; every answer is checked against ``values``.  Times are
    in reference-host seconds (see ``HostClock``)."""
    from repro.core.neats import NeaTS

    n = len(values)
    clock = time.perf_counter
    ks = rng.integers(0, n, ACCESSES)
    starts = rng.integers(0, n - 10, SCANS)
    before = host.probe()
    from_bytes, decompress = [], []
    for _ in range(DECODES):
        with _section(tracer, "item.decode"):
            t0 = clock()
            obj = NeaTS.from_bytes(payload)
            t1 = clock()
            out = obj.decompress()
            t2 = clock()
        from_bytes.append(t1 - t0)
        decompress.append(t2 - t1)
    with _section(tracer, "item.access"):
        t3 = clock()
        ys = [obj.access(int(k)) for k in ks]
        t4 = clock()
    with _section(tracer, "item.scan10"):
        t5 = clock()
        scans = [obj.scan(int(s), int(s) + 10) for s in starts]
        t6 = clock()
    k = host.factor(before)
    answers = [("decompress()", out, values)]
    answers += [(f"access({i})", y, values[i]) for i, y in zip(ks.tolist(), ys)]
    answers += [(f"scan({s}, {s + 10})", sc, values[s:s + 10]) for s, sc in zip(starts.tolist(), scans)]
    if tracer is not None:  # Algorithm 3 over the succinct structures: a control
        with tracer.span("item.succinct"):
            answers += [(f"access_succinct({i})", obj.access_succinct(i), values[i]) for i in ks[:16].tolist()]
    wrong = [(what, got, want) for what, got, want in answers if not np.array_equal(got, want)]
    ok = not wrong
    for what, got, want in wrong[:3]:  # name the wrong answers on standard error
        log(f"WRONG ANSWER {ds} item {rnd}: {what} gave {got}, the input holds {want}")
    return {
        "ds": ds, "round": rnd, "raw": 8 * n, "payload": len(payload), "k": k,
        "from_bytes": k * median(from_bytes), "decompress": k * median(decompress),
        "access": k * (t4 - t3) / ACCESSES, "lookup": k * (t4 - t3), "scan10": k * (t6 - t5) / SCANS,
    }, ok


def codec_item(ds: str, rnd, values: np.ndarray, rng, host: HostClock,
               tracer: Tracer | None = None) -> tuple[dict, bool, bytes]:
    """One item: ``NeaTS.compress(...).to_bytes()``, then the probe."""
    from repro.core.neats import NeaTS

    before = host.probe()
    with _section(tracer, "item.compress"):
        t0 = time.perf_counter()
        payload = NeaTS.compress(values).to_bytes()
        t_compress = time.perf_counter() - t0
    k = host.factor(before)
    rec, ok = probe_block(ds, rnd, values, payload, rng, host, tracer)
    rec["compress"] = k * t_compress
    return rec, ok, payload


def compress_mb_per_s(items: list[dict]) -> float:
    by_ds: dict[str, list[dict]] = {}
    for it in items:
        by_ds.setdefault(it["ds"], []).append(it)
    raw = sum(v[0]["raw"] for v in by_ds.values())
    return raw / sum(median([i["compress"] for i in v]) for v in by_ds.values()) / MB


# -- per-layer numbers from a trace ------------------------------------------

def payload_components(blob: bytes) -> dict[str, int]:
    """Bytes of each part of a NeaTS payload (layout of ``NeaTS.to_bytes``):
    S, B, O, C, K, P, D with their own length fields, and the header
    (magic, n/shift/m, flags, terminator and anything unaccounted)."""
    parts = dict.fromkeys("SBOCKPD", 0)
    off = 4 + 20 + 1

    def packed() -> int:
        nonlocal off
        n_words = struct.unpack_from("<iiq", blob, off)[2]
        size = 16 + 8 * n_words
        off += size
        return size

    def elias_fano() -> int:
        nonlocal off
        _, _, _, n_low, n_up = struct.unpack_from("<qqiqq", blob, off)
        size = 36 + 8 * (n_low + n_up)
        off += size
        return size

    parts["B"] = packed()
    parts["D"] = packed()
    parts["S"] = elias_fano()
    parts["O"] = elias_fano()
    parts["K"] = packed()
    (cbits,) = struct.unpack_from("<q", blob, off)
    parts["C"] = 8 + 8 * max(1, (cbits + 63) // 64)
    off += parts["C"]
    from repro.core.models import FAMILIES  # kind ids index this list

    while True:
        (kind_id,) = struct.unpack_from("<i", blob, off)
        if kind_id == -1:
            break
        (cnt,) = struct.unpack_from("<i", blob, off + 4)
        size = 8 + 8 * cnt * FAMILIES[kind_id].n_params
        parts["P"] += size
        off += size
    parts["header"] = len(blob) - sum(parts.values())
    return parts


def predicted_bits(pieces) -> int:
    """Algorithm 1's weight of the chosen path: per fragment the corrections
    at the eps width plus the parameters and ``FRAGMENT_OVERHEAD_BITS``."""
    from repro.core.bitstream import bits_for_signed
    from repro.core.models import family_by_kind
    from repro.core.partition import FRAGMENT_OVERHEAD_BITS

    return sum(
        len(p) * (bits_for_signed(p.eps) if p.eps > 0 else 0)
        + family_by_kind(p.kind).param_bits + FRAGMENT_OVERHEAD_BITS
        for p in pieces
    )


def _child_durations(tracer: Tracer, name: str, parent_name: str) -> list[float]:
    parents = {s[0] for s in tracer.spans if s[2] == parent_name}
    return [t1 - t0 for _, p, n, t0, t1 in tracer.spans if n == name and p in parents]


def codec_layer_metrics(tracer: Tracer, items: list[dict], payloads: list[bytes]) -> dict[str, float]:
    """Per-layer metrics of the codec from the traced items and payloads."""
    lt = tracer.layer_times()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "true_calls": 0}

    def get(name):
        return lt.get(name, zero)

    def per_call_us(name):
        rec = get(name)
        return 1e6 * rec["total_s"] / max(rec["calls"], 1)

    def layer_sum_pct(item_span):
        """Share of the item spans' time that their layers' self times cover."""
        total = sum(tracer.durations(item_span))
        return 100.0 * (total - lt[item_span]["self_s"]) / total

    raw_mb = sum(i["raw"] for i in items) / MB
    points = sum(i["raw"] for i in items) / 8
    calls = tracer.returns["partition.optimal_partition"]
    adds = get("convex.add")
    comps = [payload_components(b) for b in payloads]
    return {
        "convex.stabber_adds_per_point": adds["calls"] / points,
        "convex.accept_pct": 100.0 * adds["true_calls"] / max(adds["calls"], 1),
        "convex.add_s_per_mb": adds["self_s"] / raw_mb,
        "convex.solve_s_per_mb": get("convex.solve")["self_s"] / raw_mb,
        "models.try_extend_s_per_mb": get("models.try_extend")["self_s"] / raw_mb,
        "models.params_s_per_mb": get("models.params")["self_s"] / raw_mb,
        "partition.self_s_per_mb": get("partition.optimal_partition")["self_s"] / raw_mb,
        "partition.pairs": float(np.mean([len(args[1]) * len(args[2]) for args, _, _ in calls])),
        "partition.predicted_vs_actual_bits_pct":
            100.0 * sum(predicted_bits(out) for _, _, out in calls) / (8 * sum(map(len, payloads))),
        "neats.compress_self_s_per_mb": get("neats.compress")["self_s"] / raw_mb,
        "neats.encode_s_per_mb": get("neats.encode")["self_s"] / raw_mb,
        "neats.to_bytes_ms": 1e3 * median(tracer.durations("neats.to_bytes")),
        "neats.fragments_per_kpoint": 1e3 * sum(len(out) for _, _, out in calls) / points,
        **{f"neats.bytes.{k}": float(np.mean([c[k] for c in comps]))
           for k in ("S", "B", "O", "C", "K", "P", "D", "header")},
        "neats.from_bytes_ms": 1e3 * median(tracer.durations("neats.from_bytes")),
        "neats.decompress_ms": 1e3 * median(tracer.durations("neats.decompress")),
        "neats.access_us": per_call_us("neats.access"),
        "neats.scan10_us": 1e6 * median(_child_durations(tracer, "neats.scan", "item.scan10")),
        "neats.access_succinct_us": per_call_us("neats.access_succinct"),
        "trace.compress_layer_sum_pct": layer_sum_pct("item.compress"),
        "trace.decode_layer_sum_pct": layer_sum_pct("item.decode"),
    }


def replay(blocks, seed: int, host: HostClock, tracer: Tracer, tally: Run) -> tuple[list[dict], list[bytes]]:
    """Compress and probe ``[(ds, values)]`` in process under ``tracer``:
    the codec-layer numbers of a workload whose codec runs in Spark workers.
    Every answer is checked into ``tally``."""
    rng = np.random.default_rng(seed)
    items, payloads = [], []
    with tracer.installed(CODEC_LAYERS, keep_returns=("partition.optimal_partition",)):
        for rnd, (ds, values) in enumerate(blocks):
            rec, ok, payload = codec_item(ds, rnd, values, rng, host, tracer)
            tally.check(ok)
            items.append(rec)
            payloads.append(payload)
    return items, payloads


# -- the workload --------------------------------------------------------------

def _setup(seed: int, host: HostClock) -> dict[str, np.ndarray]:
    """Generate the inputs and warm the codec with one untimed item."""
    series = {ds: load_blocks(ds, N_BLOCKS, seed) for ds in MIX}
    codec_item(MIX[0], -1, series[MIX[0]][:WARM_POINTS], np.random.default_rng(seed), host)
    return series


def run(seed: int, seconds: float, trace: bool, host: HostClock, out: dict) -> Run:
    tally = Run()
    setups = []
    for _ in range(SETUPS):
        before = host.probe()
        t0 = time.perf_counter()
        series = _setup(seed, host)
        setups.append((time.perf_counter() - t0) * host.factor(before))
    rng = np.random.default_rng(seed)
    tracer = Tracer() if trace else None
    traced_items, plain_items, traced_payloads = [], [], []
    rnd = 0
    t_end = time.perf_counter() + seconds
    while rnd < MIN_ROUNDS or time.perf_counter() < t_end:
        b = rnd % N_BLOCKS
        on = trace and rnd % 2 == 1  # traced run: odd rounds traced
        ctx = tracer.installed(CODEC_LAYERS, keep_returns=("partition.optimal_partition",)) if on else nullcontext()
        with ctx:
            for ds in MIX:
                values = series[ds][b * BLOCK:(b + 1) * BLOCK]
                rec, ok, payload = codec_item(ds, rnd, values, rng, host, tracer if on else None)
                tally.check(ok)
                (traced_items if on else plain_items).append(rec)
                if on:
                    traced_payloads.append(payload)
        rnd += 1
    log(f"codec loop: {rnd} rounds of {len(MIX)} items")
    out["setup_s"] = median(setups)
    if trace:
        out["layers"] = codec_layer_metrics(tracer, traced_items, traced_payloads)

        def item_s(items):
            by_ds: dict[str, list[float]] = {}
            for i in items:
                by_ds.setdefault(i["ds"], []).append(i["compress"] + i["from_bytes"] + i["decompress"])
            return sum(median(v) for v in by_ds.values())

        out["trace_overhead_pct"] = 100.0 * (item_s(traced_items) / item_s(plain_items) - 1.0)
        out["tracer"] = tracer
        return tally
    first = [i for i in plain_items if i["round"] < MIN_ROUNDS]
    ratio = 100.0 * sum(i["payload"] for i in first) / sum(i["raw"] for i in first)
    compress = compress_mb_per_s(plain_items)
    out.update(read_metrics(plain_items))
    out.update({
        "compress_mb_per_s": compress,
        # no Spark and no Parquet on this path: ingest is the encode
        "ingest_mb_per_s": compress,
        "ratio_pct": ratio,
        "store_ratio_pct": ratio,
    })
    return tally
