#!/usr/bin/env python3
"""Gate benchmark results against their committed baselines.

Three schema-1 bench families are understood, dispatched on the "bench"
field (both files must carry the same one):

  campaign_throughput — BENCH_campaign.json, from bench_throughput
  serve_latency       — BENCH_serve.json, from `uavres loadgen`
  fleet               — BENCH_fleet.json, from bench_fleet

Usage:
    compare_bench.py CURRENT.json BASELINE.json [--max-regress 0.20]

Exit codes:
    0 — within tolerance (or comparison skipped, see below)
    1 — regressed more than --max-regress vs the baseline, or a
        structural invariant failed (allocations, dedup, verification)
    2 — bad input (missing file, malformed JSON, wrong schema)

Comparison policy:
    Throughput numbers are only meaningful on comparable hardware. The two
    files record their environment (hardware_concurrency, threads, missions,
    durations); when the environments differ the script prints a notice and
    exits 0 instead of failing the build on an apples-to-oranges comparison.
    The zero-allocation steady-state check is environment-independent and
    is always enforced.

    The detector-enabled step measurement ("step_latency_detector", newer
    builds still) carries two gates: its steady state must be allocation-free
    (always enforced), and its overhead over the plain flight loop must stay
    under --max-detector-overhead percent (enforced whenever the block is
    present — the overhead is a ratio of two same-process measurements, so it
    is meaningful even on unmatched hardware).
"""

import argparse
import json
import sys


KNOWN_BENCHES = {"campaign_throughput", "serve_latency", "fleet"}

# The fleet engine's headline thread scaling (all threads vs one) needs cores
# to show; below this many hardware threads the gate degenerates to the
# structural check (byte-identical records), mirroring the
# environment-mismatch policy of the throughput gates.
FLEET_SPEEDUP_MIN_CORES = 8
FLEET_SPEEDUP_FLOOR = 5.0


def load(path: str) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"compare_bench: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if doc.get("bench") not in KNOWN_BENCHES or doc.get("schema") != 1:
        print(f"compare_bench: {path} is not a schema-1 bench file "
              f"(known: {', '.join(sorted(KNOWN_BENCHES))})", file=sys.stderr)
        sys.exit(2)
    return doc


def compare_serve(cur: dict, base: dict, max_regress: float) -> int:
    """Gate `uavres loadgen` output (BENCH_serve.json).

    Structural invariants are environment-independent and always enforced:
    the latency quantiles and the dedup hit rate must be present, every
    request must have completed, and any byte-identity verification the run
    performed must have zero mismatches. The p99 latency itself is only
    compared when the recorded environments match.
    """
    lat = cur.get("latency_ms", {})
    for field in ("p50", "p99"):
        if not isinstance(lat.get(field), (int, float)):
            print(f"compare_bench: FAIL — latency_ms.{field} missing")
            return 1
    dedup = cur.get("dedup", {})
    if not isinstance(dedup.get("hit_rate"), (int, float)):
        print("compare_bench: FAIL — dedup.hit_rate missing")
        return 1
    reqs = cur.get("requests", {})
    if reqs.get("ok", 0) <= 0:
        print("compare_bench: FAIL — no request completed successfully")
        return 1
    verified = cur.get("verified")
    if verified is not None and verified.get("mismatches", 0) != 0:
        print(f"compare_bench: FAIL — {verified.get('mismatches')} served "
              f"result(s) differ from the offline campaign")
        return 1
    print(f"serve: ok={reqs.get('ok')} overloaded={reqs.get('overloaded', 0)} "
          f"p50={lat['p50']:.1f}ms p99={lat['p99']:.1f}ms "
          f"dedup_hit_rate={dedup['hit_rate']:.3f}")

    if cur.get("environment", {}) != base.get("environment", {}):
        print("compare_bench: environments differ, skipping latency comparison")
        print(f"  current : {cur.get('environment', {})}")
        print(f"  baseline: {base.get('environment', {})}")
        print("  (structural serve invariants still passed)")
        return 0

    base_p99 = base.get("latency_ms", {}).get("p99", 0.0)
    if base_p99 > 0.0:
        change = (lat["p99"] - base_p99) / base_p99
        print(f"p99 latency: current {lat['p99']:.1f}ms vs baseline "
              f"{base_p99:.1f}ms ({change:+.1%})")
        if change > max_regress:
            print(f"compare_bench: FAIL — p99 latency regressed more than "
                  f"{max_regress:.0%}")
            return 1
    base_hit = base.get("dedup", {}).get("hit_rate", 0.0)
    if base_hit > 0.0 and dedup["hit_rate"] <= 0.0:
        print("compare_bench: FAIL — dedup hit rate fell to zero "
              f"(baseline {base_hit:.3f})")
        return 1
    print("compare_bench: OK")
    return 0


def compare_fleet(cur: dict, base: dict, max_regress: float) -> int:
    """Gate bench_fleet output (BENCH_fleet.json).

    The structural invariant is environment-independent and always
    enforced: the all-threads fleet run must reproduce the one-thread run's
    record byte for byte (fleet.oracle_ok).

    The >=5x drone-steps/sec thread scaling (all threads over one) is the
    engine's multi-core headline: it is enforced only when the measuring
    machine actually has the cores (hardware_concurrency >=
    FLEET_SPEEDUP_MIN_CORES); a small runner can only demonstrate the
    oracle, not the scaling.
    Absolute throughputs are compared against the baseline only on matching
    environments, like the campaign gates.
    """
    fleet = cur.get("fleet", {})
    if fleet.get("oracle_ok") is not True:
        print("compare_bench: FAIL — fleet record differs from the one-thread run")
        return 1
    speedup = fleet.get("speedup", 0.0)
    cores = cur.get("environment", {}).get("hardware_concurrency", 0)
    print(f"fleet: thread scaling {speedup:.2f}x over one thread at "
          f"{cur.get('environment', {}).get('drones', '?')} drones "
          f"({cores} hw threads), oracle MATCH")
    if cores >= FLEET_SPEEDUP_MIN_CORES:
        if speedup < FLEET_SPEEDUP_FLOOR:
            print(f"compare_bench: FAIL — fleet thread scaling {speedup:.2f}x below "
                  f"the {FLEET_SPEEDUP_FLOOR:.0f}x floor on a {cores}-thread "
                  f"machine")
            return 1
    else:
        print(f"compare_bench: {cores} hardware thread(s) < "
              f"{FLEET_SPEEDUP_MIN_CORES}, skipping the "
              f"{FLEET_SPEEDUP_FLOOR:.0f}x thread-scaling gate "
              "(structural oracle gate still passed)")

    if cur.get("environment", {}) != base.get("environment", {}):
        print("compare_bench: environments differ, skipping throughput comparison")
        print(f"  current : {cur.get('environment', {})}")
        print(f"  baseline: {base.get('environment', {})}")
        return 0

    cur_v = fleet.get("fleet_steps_per_sec", 0.0)
    base_v = base.get("fleet", {}).get("fleet_steps_per_sec", 0.0)
    if base_v > 0.0:
        change = (cur_v - base_v) / base_v
        print(f"fleet_steps_per_sec: current {cur_v:.0f} vs baseline {base_v:.0f} "
              f"({change:+.1%})")
        if change < -max_regress:
            print(f"compare_bench: FAIL — fleet_steps_per_sec regressed more than "
                  f"{max_regress:.0%}")
            return 1
    print("compare_bench: OK")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("current")
    ap.add_argument("baseline")
    ap.add_argument("--max-regress", type=float, default=0.20,
                    help="maximum tolerated fractional runs/sec drop (default 0.20)")
    ap.add_argument("--max-detector-overhead", type=float, default=25.0,
                    help="maximum tolerated detector-enabled step overhead in "
                         "percent over the plain flight loop (default 25)")
    args = ap.parse_args()

    cur = load(args.current)
    base = load(args.baseline)
    if cur.get("bench") != base.get("bench"):
        print(f"compare_bench: bench kinds differ ({cur.get('bench')} vs "
              f"{base.get('bench')})", file=sys.stderr)
        return 2
    if cur.get("bench") == "serve_latency":
        return compare_serve(cur, base, args.max_regress)
    if cur.get("bench") == "fleet":
        return compare_fleet(cur, base, args.max_regress)

    # Environment-independent gates first: the cruise hot path must stay
    # allocation-free.
    steady = cur.get("steady_state", {})
    if steady.get("heap_allocs", 0) != 0:
        print(f"compare_bench: FAIL — steady state performed "
              f"{steady.get('heap_allocs')} heap allocations (expected 0)")
        return 1
    detector = cur.get("step_latency_detector")
    if detector is not None:
        if detector.get("heap_allocs", 0) != 0:
            print(f"compare_bench: FAIL — detector-enabled steady state performed "
                  f"{detector.get('heap_allocs')} heap allocations (expected 0)")
            return 1
        overhead = detector.get("overhead_pct", 0.0)
        print(f"detector overhead: {overhead:+.1f}% "
              f"(limit {args.max_detector_overhead:.0f}%)")
        if overhead > args.max_detector_overhead:
            print(f"compare_bench: FAIL — detector step overhead exceeds "
                  f"{args.max_detector_overhead:.0f}%")
            return 1

    cur_env, base_env = cur.get("environment", {}), base.get("environment", {})
    if cur_env != base_env:
        print("compare_bench: environments differ, skipping throughput comparison")
        print(f"  current : {cur_env}")
        print(f"  baseline: {base_env}")
        print("  (steady-state zero-allocation check still passed)")
        return 0

    cur_rps = cur.get("campaign", {}).get("runs_per_sec", 0.0)
    base_rps = base.get("campaign", {}).get("runs_per_sec", 0.0)
    if base_rps <= 0.0:
        print("compare_bench: baseline has no runs_per_sec, skipping")
        return 0

    change = (cur_rps - base_rps) / base_rps
    print(f"runs/sec: current {cur_rps:.3f} vs baseline {base_rps:.3f} "
          f"({change:+.1%})")
    if change < -args.max_regress:
        print(f"compare_bench: FAIL — throughput regressed more than "
              f"{args.max_regress:.0%}")
        return 1

    print("compare_bench: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
