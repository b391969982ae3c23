"""Statistics, checks and metric assembly for the wlansim benchmark.

The C++ load generator (wlbench) measures and writes a raw report: samples,
counters, table rows and span records. This module turns that into the
named metrics of BENCHMARK.json and checks the outputs that are checked
here rather than in wlbench (the waterfall against its reference
curve). Pure functions only, so test_harness.py can pin them down.
"""

import hashlib
import json
import math
import os
import re
import subprocess

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Standard percentiles, highest last; a timing is reported at the highest
# one that still has at least MIN_BEYOND samples above it.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10

# A latency percentile that lands on a refused or wrong request is
# infinite; JSON has no infinity, so such a value is printed as this
# sentinel (the run is then also reported as incorrect).
UNBOUNDED = 1e300

# Waterfall check: z of the Wilson intervals (4.0 ~ 6e-5 two-sided).
CHECK_Z = 4.0

# Single-point waterfall check: a point fails when the chance of a BER at
# least that far beyond the reference's interval is below GROSS_P, taken
# over every 8-packet boundary up to the 512-packet cap where an adaptive
# point may stop (STOP_POINTS).
GROSS_P = 1e-6
STOP_POINTS = 64


# --- order statistics ------------------------------------------------------

def rank_index(n, p):
    """0-based nearest-rank index of the p-th percentile of n samples."""
    if n <= 0:
        raise ValueError("no samples")
    # Rounded before the ceiling so 99.9 % of 10000 is rank 9990, not 9991.
    return max(0, math.ceil(round(p * n / 100.0, 9)) - 1)


def beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile position."""
    return n - (rank_index(n, p) + 1)


def percentile(values, p):
    """Nearest-rank percentile; infinite values (refused requests) sort
    last, so they count as missing any limit."""
    ordered = sorted(values)
    return ordered[rank_index(len(ordered), p)]


def highest_percentile(n):
    """Highest standard percentile with >= MIN_BEYOND samples beyond it,
    or None when even the median has fewer."""
    best = None
    for p in PERCENTILES:
        if beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def median(values):
    return percentile(values, 50.0)


def timing_summary(values):
    """(median, tail percentile or None, tail value or None, n)."""
    n = len(values)
    tail = highest_percentile(n)
    return (median(values), tail,
            None if tail is None else percentile(values, tail), n)


def failed_frac(attempted, failed):
    """Failed share of attempted operations. wlbench counts a refused
    or wrong request as attempted and failed, and records its latency as
    infinite, so it also misses any latency limit."""
    if attempted <= 0:
        raise ValueError("nothing attempted")
    return failed / attempted


# --- waterfall check --------------------------------------------------------

def wilson(errors, trials, z):
    """(low, high) Wilson score interval; trials may be fractional."""
    if trials <= 0:
        return (0.0, 1.0)
    p = errors / trials
    z2 = z * z
    den = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / den
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / den
    return (max(0.0, center - half), min(1.0, center + half))


def packet_interval(ber, packets, z=CHECK_Z):
    """Wilson interval for a BER measured over `packets` packets, with the
    packet as the trial. Each packet's bit-error fraction lies in [0, 1],
    so its variance is at most ber * (1 - ber): the interval holds however
    the bit errors cluster inside packets (a lost or mis-timed packet
    carries hundreds of them, which makes bits far from independent)."""
    return wilson(ber * packets, packets, z)


def kl_divergence(a, m):
    """Kullback-Leibler divergence of Bernoulli(a) from Bernoulli(m)."""
    def term(x, y):
        if x == 0.0:
            return 0.0
        return math.inf if y == 0.0 else x * math.log(x / y)
    return term(a, m) + term(1.0 - a, 1.0 - m)


def tail_bound(ber, packets, ref_ber):
    """Upper bound on the chance that `packets` packets, each with a
    bit-error fraction in [0, 1] of mean ref_ber, average to a BER at
    least as far from ref_ber as `ber` (Hoeffding's Chernoff bound,
    exp(-n KL)). Unlike a Wilson interval it holds at a few packets when
    the BER comes from rare packets with hundreds of errors each."""
    if packets <= 0 or ber == ref_ber:
        return 1.0
    return math.exp(-packets * kl_divergence(ber, ref_ber))


def pool_by_snr(rows):
    """{snr: (packets, bits, bit_errors)} summed over every row."""
    pooled = {}
    for r in rows:
        p, b, e = pooled.get(r["snr_db"], (0, 0, 0))
        pooled[r["snr_db"]] = (p + r["packets"], b + r["bits"], e + r["bit_errors"])
    return pooled


def check_waterfall(rows, reference, z=CHECK_Z):
    """Check a run's waterfalls against the reference curve. Returns
    (attempted, failures), one message per failed check.

    The main test pools packets and bit errors per SNR over all of the
    run's waterfalls (at least nine, so at least 72 packets even where
    every point stops at its first 8-packet boundary): the pooled
    point's interval must overlap the reference's interval at the same
    SNR, and no pooled point's interval may lie wholly above the previous
    (lower-SNR) one's. Each point of each waterfall is also checked on its
    own, which catches only gross failures at a few packets a point: it
    fails when even the Chernoff bound to the nearer end of the
    reference's interval, times the STOP_POINTS places the point could
    have stopped, is below GROSS_P. (A Wilson interval is no test at 8
    packets: one packet with half its bits wrong, which the link decodes
    now and then at 11-13 dB, puts 8 packets' Wilson interval wholly
    above the reference's.)"""
    by_snr = {p["snr_db"]: p for p in reference["points"]}
    failures = []

    def misses(ber, packets, ref):
        lo, hi = packet_interval(ber, packets, z)
        rlo, rhi = packet_interval(ref["ber"], ref["packets"], z)
        return (hi < rlo or lo > rhi), lo, hi, rlo, rhi

    for r in rows:
        ref = by_snr.get(r["snr_db"])
        if ref is None or not r["bits"]:
            failures.append("waterfall rep %d: no reference or no bits at %g dB"
                            % (r["rep"], r["snr_db"]))
            continue
        ber = r["bit_errors"] / r["bits"]
        rlo, rhi = packet_interval(ref["ber"], ref["packets"], z)
        nearest = min(max(ber, rlo), rhi)
        chance = STOP_POINTS * tail_bound(ber, r["packets"], nearest)
        if chance < GROSS_P:
            failures.append("waterfall rep %d: BER %.3g at %g dB over %d packets, chance "
                            "<= %.3g beside reference [%.3g, %.3g]"
                            % (r["rep"], ber, r["snr_db"], r["packets"], chance, rlo, rhi))

    prev_hi = None
    pooled = pool_by_snr(rows)
    for snr in sorted(pooled):
        packets, bits, errors = pooled[snr]
        ref = by_snr.get(snr)
        if ref is None or not bits:
            failures.append("waterfall pooled: no reference or no bits at %g dB" % snr)
            prev_hi = None
            continue
        ber = errors / bits
        miss, lo, hi, rlo, rhi = misses(ber, packets, ref)
        if miss:
            failures.append("waterfall pooled: BER %.3g at %g dB over %d packets, interval "
                            "[%.3g, %.3g] misses reference [%.3g, %.3g]"
                            % (ber, snr, packets, lo, hi, rlo, rhi))
        elif prev_hi is not None and lo > prev_hi:
            failures.append("waterfall pooled: BER rises at %g dB" % snr)
        prev_hi = hi
    return len(rows) + len(pooled), failures


def engine_ci_misses(rows, reference):
    """Points whose own reported interval (BER x (1 +- ber_ci_rel), the
    engine's bitwise Wilson CI) excludes the reference BER. Informational:
    at 95 % a correct interval misses about one point in twenty."""
    by_snr = {p["snr_db"]: p for p in reference["points"]}
    misses = 0
    for r in rows:
        ref = by_snr.get(r["snr_db"])
        if ref is None or not r["bits"] or not math.isfinite(r["ber_ci_rel"]):
            continue
        ber = r["bit_errors"] / r["bits"]
        if abs(ber - ref["ber"]) > ber * r["ber_ci_rel"]:
            misses += 1
    return misses


def build_reference(rows, rule):
    """Reference curve: the BER pooled over independent fixed-budget
    waterfalls (one row per seed and point)."""
    by_snr = {}
    for r in rows:
        by_snr.setdefault(r["snr_db"], []).append(r)
    points = []
    for snr, rs in sorted(by_snr.items()):
        bits = sum(r["bits"] for r in rs)
        errs = sum(r["bit_errors"] for r in rs)
        points.append({"snr_db": snr, "ber": errs / bits, "bits": bits, "bit_errors": errs,
                       "packets": sum(r["packets"] for r in rs)})
    return {"link": "core::default_link_config() (24 Mbps, 200-byte PSDU)",
            "rule": rule, "seeds": len({r["rep"] for r in rows}), "points": points}


# --- spans ------------------------------------------------------------------

def self_times(spans):
    """{span id: self ns}: duration minus the union of its children."""
    kids = {}
    for s in spans:
        if s["parent"]:
            kids.setdefault(s["parent"], []).append((s["t0_ns"], s["t1_ns"]))
    out = {}
    for s in spans:
        t0, t1 = s["t0_ns"], s["t1_ns"]
        covered, end = 0, t0
        for a, b in sorted(kids.get(s["id"], [])):
            a, b = max(a, end), min(b, t1)
            if b > a:
                covered += b - a
                end = b
        out[s["id"]] = (t1 - t0) - covered
    return out


def span_table(spans):
    """{name: {"calls", "total_ns", "self_ns", "work"}}."""
    selfs = self_times(spans)
    table = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "total_ns": 0, "self_ns": 0, "work": 0.0})
        row["calls"] += 1
        row["total_ns"] += s["t1_ns"] - s["t0_ns"]
        row["self_ns"] += selfs[s["id"]]
        row["work"] += s["work"]
    return table


# --- metrics ----------------------------------------------------------------

def end_to_end(report):
    """{metric: value} of every end-to-end metric from a raw report.
    Raises ValueError when the warm reads are too few for p99."""
    s = report["samples"]
    if (highest_percentile(len(s["warm_ms"])) or 0.0) < 99.0:
        raise ValueError("warm_p99_ms needs >= 1000 warm reads, got %d" % len(s["warm_ms"]))
    return {
        "setup_s": median(s["setup_s"]),
        "peak_rss_mb": max(s["peak_rss_mb"]),
        "waterfall_s": median(s["waterfall_s"]),
        "realtime_factor": sum(s["waterfall_sim_s"]) / sum(s["waterfall_s"]),
        "stations_per_s": sum(s["drop_stations"]) / sum(s["drop_s"]),
        "warm_p50_ms": percentile(s["warm_ms"], 50.0),
        "warm_p99_ms": percentile(s["warm_ms"], 99.0),
        "cold_p50_s": median(s["cold_s"]),
        "service_req_per_s": s["service_requests"][0] / s["service_wall_s"][0],
        "graph_packets_per_s": len(s["graph_packet_s"]) / sum(s["graph_packet_s"]),
        "cosim_packets_per_s": len(s["cosim_packet_s"]) / sum(s["cosim_packet_s"]),
    }


def per_layer(report, spans):
    """{metric: value} of every per-layer metric from a traced run."""
    t = span_table(spans)
    s, c = report["samples"], report["counters"]

    def per_work(name, scale):
        return t[name]["self_ns"] / t[name]["work"] * scale

    def per_call(name, scale):
        return t[name]["self_ns"] / t[name]["calls"] * scale

    packet_ns = per_call("core.packet", 1.0)
    chain = ("phy.tx", "dsp.fir_interp", "channel.awgn", "rf.frontend", "phy.rx")
    n = c["nproc"]
    return {
        "dsp.fft64_ns": per_work("dsp.fft64", 1.0),
        "dsp.resample_ns_per_sample":
            (t["dsp.upsample"]["self_ns"] + t["dsp.downsample"]["self_ns"]) / t["dsp.upsample"]["work"],
        "dsp.gaussian_ns": per_work("dsp.gaussian", 1.0),
        "channel.awgn_ns_per_sample": per_work("channel.awgn", 1.0),
        "rf.frontend_ns_per_sample": per_work("rf.frontend", 1.0),
        "rf.lanes_ns_per_sample": per_work("rf.lanes", 1.0),
        "phy80211a.tx_us_per_packet": per_call("phy.tx", 1e-3),
        "phy80211a.sync_us_per_packet": per_call("phy.sync", 1e-3),
        "phy80211a.rx_us_per_packet": per_call("phy.rx", 1e-3),
        "phy80211a.viterbi_ns_per_bit": per_work("phy.viterbi", 1.0),
        "core.packet_us": packet_ns * 1e-3,
        "core.wave_us_per_packet": per_work("core.wave", 1e-3),
        "core.packets": median(s["core.packets"]),
        "core.scaling_eff": s["scaling_t1_s"][0] / (n * s["scaling_tN_s"][0]),
        "core.dedup_us_per_query": per_work("core.dedup", 1e-3),
        "sim.store_load_us": per_work("sim.store_load", 1e-3),
        "sim.store_save_us": per_work("sim.store_save", 1e-3),
        "sim.curve_query_ns": per_work("sim.curve_query", 1.0),
        "sim.lookup_hit_ratio": c["lookup_hits"] / c["lookups"],
        "sim.graph_packet_us": per_call("sim.graph_packet", 1e-3),
        "sim.cosim_ns_per_sample": per_work("sim.cosim_rf", 1.0),
        "sim.cosim_analog_steps_per_sample": c["cosim_analog_steps"] / c["cosim_samples"],
        "sim.link_setup_ms": s["link_first_ms"][0] - median(s["link_steady_ms"]),
        "scenario.step_ms": median(s["scenario.step_ms"]),
        "scenario.geometry_share":
            (s["geometry_drop_s"][0] - s["geometry_dedup_s"][0]) / s["geometry_drop_s"][0],
        "scenario.distinct_ratio": c["drop_distinct"] / c["drop_queries"],
        "service.handle_line_us": median(s["handle_line_us"]),
        "service.wire_us": median(s["wire_us"]),
        "service.codec_us": per_call("service.codec", 1e-3),
        "service.hol_wait_ms": median(s["warm_overlap_ms"]) - median(s["warm_idle_ms"]),
        "service.jobs_per_batch": c["svc_jobs"] / c["svc_batches"],
        "service.checkpoint_save_ms": per_work("service.checkpoint_save", 1e-6),
        "trace.closure": sum(per_call(k, 1.0) for k in chain) / packet_ns,
        "trace.overhead": s["trace_unit_traced_s"][0] / s["trace_unit_untraced_s"][0],
    }


def validate(metrics, declared):
    """Emitted metric names must be exactly the declared list, each a
    valid name. Returns a list of problems (empty = fine)."""
    problems = []
    names = [d["name"] for d in declared]
    for k in metrics:
        if not NAME_RE.match(k):
            problems.append("bad metric name %r" % k)
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        problems.append("metric names differ from BENCHMARK.json: missing %s, extra %s"
                        % (missing, extra))
    return problems


def finite_or_sentinel(v):
    return v if math.isfinite(v) else UNBOUNDED


# --- machine fingerprint ----------------------------------------------------

def _read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return ""


def cpu_model():
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def cache_sizes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = []
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return "unknown"
    for e in entries:
        if not e.startswith("index"):
            continue
        level = _read(os.path.join(base, e, "level"))
        kind = _read(os.path.join(base, e, "type"))
        size = _read(os.path.join(base, e, "size"))
        tag = "L%s%s" % (level, {"Data": "d", "Instruction": "i"}.get(kind, ""))
        out.append("%s:%s" % (tag, size))
    return " ".join(out) or "unknown"


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest(root, dirs=("src", "perfbench")):
    """sha256 over the benchmark's and the library's sources, so a result
    names its code even where no git metadata exists."""
    h = hashlib.sha256()
    for d in dirs:
        for dirpath, dirnames, files in os.walk(os.path.join(root, d)):
            dirnames[:] = sorted(x for x in dirnames if x != "__pycache__")
            for f in sorted(files):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def fingerprint(root, info, nproc):
    """Machine part (must match to compare) and code part (what is being
    compared). `nproc` is the CPU count wlbench sized its load from (its
    affinity mask), so the fingerprint names the machine the load ran on."""
    return {
        "machine": {
            "nproc": nproc,
            "cpu_model": cpu_model(),
            "caches": cache_sizes(),
            "build_type": info.get("build_type", "unknown"),
            "wlansim_native": info.get("wlansim_native", "unknown"),
            "compiler": info.get("compiler", "unknown"),
        },
        "code": {"git_commit": git_commit(root), "source_digest": source_digest(root)},
    }


def comparable(a, b):
    """Two results compare only when their machine fingerprints match."""
    return a["fingerprint"]["machine"] == b["fingerprint"]["machine"]


def load_json(path):
    with open(path) as f:
        return json.load(f)


# Non-finite numbers travel as strings, as in the service protocol.
SPECIAL = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def number(v):
    return SPECIAL[v] if isinstance(v, str) else v


def decode_report(report):
    """wlbench's raw report with its "inf"/"-inf"/"nan" strings decoded."""
    report["samples"] = {k: [number(v) for v in vs] for k, vs in report["samples"].items()}
    report["counters"] = {k: number(v) for k, v in report["counters"].items()}
    report["rows"] = {t: [{k: number(v) for k, v in r.items()} for r in rs]
                      for t, rs in report["rows"].items()}
    return report


def load_report(path):
    return decode_report(load_json(path))
