#!/usr/bin/env python3
"""CI perf gate over serving-bench JSON.

Compares a fresh bench run against its checked-in baseline at reference
offered loads. Four report shapes are understood, detected from the JSON
itself:

  * bench_serve_latency_vs_load (baseline bench/baseline_serve.json):
    gates p99 latency per curve — sweep 1's per-die-count queueing knee,
    sweep 2's per-scheduler warmth curves (warmth off and on), sweep 3's
    per-max_coalesce coalescing curves, and sweep 4's pipeline on/off
    curves. Sweep 4 also carries a baseline-free pin: the pipelined p99 at
    rho ~ 1.1 must beat serial by >= 5% on the weight-stream-heavy
    scenario.
  * bench_serve_slo_vs_cost (top-level "fleets" key; baseline
    bench/baseline_slo.json): gates SLO attainment per fleet mix — an
    absolute drop beyond --slo-threshold fails — plus the same relative
    p99 check per fleet.
  * bench_fig19_cache_policy_ablation (top-level "workloads" key; baseline
    bench/baseline_cache.json): gates every policy's replayed hit rate per
    workload — an absolute drop beyond --hit-threshold fails — plus the
    oracle's own hit rate (the denominator must not silently sink). Each
    (workload, policy) cell's engine `cycles` and `dram_mb` are gated too:
    a relative rise beyond --threshold fails. A hit rate is a fetch count
    over a replayed trace; cycles and DRAM bytes are what the cost model
    charges, so a policy cannot pass on one while regressing the other.
  * bench_serve_throughput (top-level "scenarios" key; baseline
    bench/baseline_throughput.json): gates the simulator's own wall-clock
    events/sec per scenario — a relative drop beyond --threshold fails.
    The baseline is a conservative floor, not a measured median (see the
    comment in that file); a checksum mismatch is a warning, not a
    failure, because trace generation rounds through libm.

The serving simulator is fully deterministic in modeled cycles (no
wall-clock anywhere), so for the modeled-metric reports any drift is a
real modeling/perf change, not noise; the thresholds only leave headroom
for cross-libm rounding in the Poisson trace generator. The throughput
report is the one wall-clock gate — only run it on like builds (Release,
no sanitizers). Exits non-zero on any regression. An improvement beyond
the threshold passes but is reported so the baseline can be refreshed:

  ./build/bench_serve_latency_vs_load --requests=24 --scale=0.03 \
      --json=bench/baseline_serve.json
  ./build/bench_serve_slo_vs_cost --requests=64 --scale=0.03 \
      --json=bench/baseline_slo.json
  ./build/bench_fig19_cache_policy_ablation --scale=0.03 \
      --json=bench/baseline_cache.json
  ./build/bench_serve_throughput --requests=1000000 --scale=0.03
      # then floor the measured events/sec into bench/baseline_throughput.json
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"check_bench: cannot read {path}: {e}")


def point_at_rho(points, rho):
    """The curve point closest to the reference load."""
    return min(points, key=lambda p: abs(p["rho"] - rho))


def curves_of(report):
    """(label, points) for every gated curve in a bench JSON."""
    if "fleets" in report:
        for fleet in report["fleets"]:
            yield f"fleet {fleet['mix']}", fleet["points"]
        return
    for curve in report.get("curves", []):
        yield f"{curve['dies']} die(s)", curve["points"]
    for curve in report.get("warmth", {}).get("curves", []):
        yield (f"warmth {curve['scheduler']} {'on' if curve['warmth'] else 'off'}",
               curve["points"])
    for curve in report.get("batching", {}).get("curves", []):
        yield f"max_coalesce {curve['max_coalesce']}", curve["points"]
    for curve in report.get("pipeline", {}).get("curves", []):
        yield f"pipeline {'on' if curve['pipeline'] else 'off'}", curve["points"]


def check_pipeline_win(report, rho=1.1, min_improvement=0.05):
    """Pin the pipelining payoff: on the weight-stream-heavy sweep the
    two-track timeline's p99 past the knee must beat serial service by at
    least `min_improvement`. This compares the on/off curves within the
    current run (no baseline involved), so the pin survives baseline
    refreshes — a modeling change that quietly erodes the overlap fails
    here even if both curves move together."""
    curves = {c["pipeline"]: c["points"]
              for c in report.get("pipeline", {}).get("curves", [])}
    if set(curves) != {True, False}:
        sys.exit("check_bench: pipeline sweep must carry exactly one on and "
                 "one off curve")
    off = point_at_rho(curves[False], rho)
    on = point_at_rho(curves[True], rho)
    if off["rho"] != on["rho"]:
        sys.exit("check_bench: pipeline on/off curves sampled different loads")
    win = (off["p99_latency_cycles"] - on["p99_latency_cycles"]) \
        / off["p99_latency_cycles"]
    verdict = "OK" if win >= min_improvement else "REGRESSION"
    print(f"pipeline win pin at rho ~ {off['rho']} (need >= "
          f"{min_improvement:.0%} p99 improvement over serial):")
    print(f"  serial p99 {off['p99_latency_cycles']:>10} cycles, pipelined "
          f"{on['p99_latency_cycles']:>10} cycles ({win:+.1%}) {verdict}")
    return [] if win >= min_improvement else [f"pipeline win @ rho {off['rho']}"]


def check_cache(current, baseline, hit_threshold, threshold):
    """Gate the cache-policy ablation: absolute hit-rate drops per
    (workload, policy) cell and per workload oracle, and relative rises in
    each cell's engine cycles and DRAM MB."""
    for key in ["scale", "seed", "feature_width", "associativity"]:
        if current.get(key) != baseline.get(key):
            sys.exit(
                f"check_bench: parameter mismatch on '{key}': current "
                f"{current.get(key)!r} vs baseline {baseline.get(key)!r} — "
                "regenerate the baseline with the CI bench arguments")

    cur_workloads = {w["dataset"]: w for w in current["workloads"]}
    base_workloads = {w["dataset"]: w for w in baseline.get("workloads", [])}
    if set(cur_workloads) != set(base_workloads):
        sys.exit(f"check_bench: workload sets differ (current "
                 f"{sorted(cur_workloads)} vs baseline {sorted(base_workloads)}) "
                 "— refresh the baseline so every workload stays gated")

    regressions = []
    improvements = []
    print(f"gate on replayed hit rates (threshold {hit_threshold:.1%} absolute) "
          f"and engine cycles / DRAM MB (threshold {threshold:.0%} relative):")
    for name in sorted(cur_workloads):
        cur_w, base_w = cur_workloads[name], base_workloads[name]
        cur_rates = {p["policy"]: p["hit_rate"] for p in cur_w["policies"]}
        base_rates = {p["policy"]: p["hit_rate"] for p in base_w["policies"]}
        cur_rates["belady-oracle (denominator)"] = cur_w["oracle"]["hit_rate"]
        base_rates["belady-oracle (denominator)"] = base_w["oracle"]["hit_rate"]
        if set(cur_rates) != set(base_rates):
            sys.exit(f"check_bench: policy sets differ on {name} (current "
                     f"{sorted(cur_rates)} vs baseline {sorted(base_rates)}) "
                     "— refresh the baseline so every policy stays gated")
        for policy in sorted(cur_rates):
            cur, base = cur_rates[policy], base_rates[policy]
            drop = base - cur
            verdict = "OK"
            tag = f"{name}/{policy}"
            if drop > hit_threshold:
                verdict = "REGRESSION"
                regressions.append(tag)
            elif drop < -hit_threshold:
                verdict = "improved"
                improvements.append(tag)
            print(f"  {name:>4} {policy:>30}: baseline {base:7.4f}, current "
                  f"{cur:7.4f} ({-drop:+.4f} absolute) {verdict}")
        base_cells = {p["policy"]: p for p in base_w["policies"]}
        for cell in cur_w["policies"]:
            policy = cell["policy"]
            for metric in ["cycles", "dram_mb"]:
                cur, base = cell[metric], base_cells[policy][metric]
                delta = (cur - base) / base if base else 0.0
                verdict = "OK"
                tag = f"{name}/{policy} {metric}"
                if delta > threshold:
                    verdict = "REGRESSION"
                    regressions.append(tag)
                elif delta < -threshold:
                    verdict = "improved"
                    improvements.append(tag)
                print(f"  {name:>4} {policy:>22} {metric:>7}: baseline {base:>12}, "
                      f"current {cur:>12} ({delta:+.1%}) {verdict}")

    if improvements:
        print(f"note: {len(improvements)} cell(s) improved past the threshold — "
              "consider refreshing the baseline")
    if regressions:
        print(f"FAIL: regressed on: {', '.join(regressions)}")
        return 1
    print("perf gate passed")
    return 0


def check_throughput(current, baseline, threshold):
    """Gate the simulator's wall-clock events/sec per scenario against the
    conservative floor in the baseline."""
    for key in ["requests", "scale", "seed"]:
        if current.get(key) != baseline.get(key):
            sys.exit(
                f"check_bench: parameter mismatch on '{key}': current "
                f"{current.get(key)!r} vs baseline {baseline.get(key)!r} — "
                "regenerate the baseline with the CI bench arguments")

    cur_scenarios = {s["name"]: s for s in current["scenarios"]}
    base_scenarios = {s["name"]: s for s in baseline.get("scenarios", [])}
    if set(cur_scenarios) != set(base_scenarios):
        sys.exit(f"check_bench: scenario sets differ (current "
                 f"{sorted(cur_scenarios)} vs baseline {sorted(base_scenarios)}) "
                 "— refresh the baseline so every scenario stays gated")

    regressions = []
    improvements = []
    print(f"gate on wall-clock events/sec (threshold {threshold:.0%} relative "
          "to the baseline floor):")
    for name in sorted(cur_scenarios):
        cur_s, base_s = cur_scenarios[name], base_scenarios[name]
        cur, base = cur_s["events_per_sec"], base_s["events_per_sec"]
        delta = (cur - base) / base if base else 0.0
        verdict = "OK"
        if delta < -threshold:
            verdict = "REGRESSION"
            regressions.append(f"{name} events/sec")
        elif delta > threshold:
            # Expected against a floored baseline; listed so an intentional
            # perf win can tighten the floor.
            verdict = "above floor"
            improvements.append(f"{name} events/sec")
        print(f"  {name:>26}: floor {base:>12.0f}, current {cur:>12.0f} "
              f"({delta:+.1%}) {verdict}")
        if cur_s.get("checksum") != base_s.get("checksum"):
            # Advisory only: the modeled run changed (or libm rounded a trace
            # differently) — the modeled-metric gates decide pass/fail.
            print(f"  {name:>26}: note — record checksum moved "
                  f"({base_s.get('checksum')} -> {cur_s.get('checksum')}); "
                  "the modeled run differs from the baseline machine's")

    if improvements:
        print(f"note: {len(improvements)} scenario(s) well above the floor — "
              "consider tightening the baseline")
    if regressions:
        print(f"FAIL: regressed on: {', '.join(regressions)}")
        return 1
    print("perf gate passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="JSON emitted by this run's bench")
    parser.add_argument("baseline", help="checked-in baseline JSON")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max tolerated relative regression of p99 latency, "
                             "cache-ablation cycles and DRAM MB, and throughput "
                             "events/sec (default 0.10)")
    parser.add_argument("--slo-threshold", type=float, default=0.02,
                        help="max tolerated absolute SLO-attainment drop for "
                             "fleet reports (default 0.02)")
    parser.add_argument("--hit-threshold", type=float, default=0.02,
                        help="max tolerated absolute hit-rate drop for cache "
                             "ablation reports (default 0.02)")
    parser.add_argument("--rho", type=float, nargs="+", default=None,
                        help="reference offered loads: one below the queueing "
                             "knee and one past it (default: 0.8 1.25, or "
                             "0.8 1.1 for fleet reports)")
    args = parser.parse_args()

    current = load(args.current)
    baseline = load(args.baseline)
    if "workloads" in current:
        return check_cache(current, baseline, args.hit_threshold, args.threshold)
    if "scenarios" in current:
        return check_throughput(current, baseline, args.threshold)
    slo_report = "fleets" in current
    rhos = args.rho if args.rho else ([0.8, 1.1] if slo_report else [0.8, 1.25])

    # A comparison is only meaningful over the same trace and contract.
    keys = ["requests", "scale", "seed"]
    if slo_report:
        keys += ["tight_slo_cycles", "loose_slo_cycles"]
    for key in keys:
        if current.get(key) != baseline.get(key):
            sys.exit(
                f"check_bench: parameter mismatch on '{key}': current "
                f"{current.get(key)!r} vs baseline {baseline.get(key)!r} — "
                "regenerate the baseline with the CI bench arguments")

    base_curves = dict(curves_of(baseline))
    cur_labels = [label for label, _ in curves_of(current)]
    missing = [label for label in cur_labels if label not in base_curves]
    dropped = [label for label in base_curves if label not in cur_labels]
    if missing or dropped:
        sys.exit(f"check_bench: curve sets differ (current-only: {missing or '-'}; "
                 f"baseline-only: {dropped or '-'}) — the bench's curve set "
                 "changed; refresh the baseline so every curve stays gated")
    regressions = []
    improvements = []
    for rho in rhos:
        print(f"gate at rho ~ {rho} (p99 threshold {args.threshold:.0%}"
              + (f", attainment threshold {args.slo_threshold:.1%} absolute"
                 if slo_report else "") + "):")
        for label, points in curves_of(current):
            cur_point = point_at_rho(points, rho)
            base_point = point_at_rho(base_curves[label], rho)
            if cur_point["rho"] != base_point["rho"]:
                sys.exit(f"check_bench: {label} matched different loads (current "
                         f"rho {cur_point['rho']} vs baseline rho "
                         f"{base_point['rho']}) — the bench's rho grid changed; "
                         "refresh the baseline")
            cur = cur_point["p99_latency_cycles"]
            base = base_point["p99_latency_cycles"]
            delta = (cur - base) / base if base else 0.0
            verdict = "OK"
            tag = f"{label} p99 @ rho {rho}"
            if delta > args.threshold:
                verdict = "REGRESSION"
                regressions.append(tag)
            elif delta < -args.threshold:
                verdict = "improved"
                improvements.append(tag)
            print(f"  {label:>20}: baseline p99 {base:>10} cycles, current "
                  f"{cur:>10} cycles ({delta:+.1%}) {verdict}")
            if not slo_report:
                continue
            cur_att = cur_point["slo_attainment"]
            base_att = base_point["slo_attainment"]
            drop = base_att - cur_att
            verdict = "OK"
            tag = f"{label} attainment @ rho {rho}"
            if drop > args.slo_threshold:
                verdict = "REGRESSION"
                regressions.append(tag)
            elif drop < -args.slo_threshold:
                verdict = "improved"
                improvements.append(tag)
            print(f"  {label:>20}: baseline attainment {base_att:>7.1%}, current "
                  f"{cur_att:>7.1%} ({-drop:+.1%} absolute) {verdict}")

    if "pipeline" in current:
        regressions += check_pipeline_win(current)

    if improvements:
        print(f"note: {len(improvements)} curve(s) improved past the threshold — "
              "consider refreshing the baseline")
    if regressions:
        print(f"FAIL: regressed on: {', '.join(regressions)}")
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
