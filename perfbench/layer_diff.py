#!/usr/bin/env python3
"""Compares two traced benchmark runs layer by layer.

    python3 perfbench/layer_diff.py BASE.json NEW.json

The inputs are the trace files `run.py --trace 1` writes to
.bench_build/traces/<workload>-seed<seed>.json. Prints each layer's self
time and share of the replay, the per-unit costs (us per expansion, per
graph, per candidate pair and per question, ns per posting) and every
counter with its delta. Every seed does the same work, so on two
paper3_serial runs the work counters must repeat exactly; a difference is
a behaviour change, reported as DRIFT, and makes the exit status 1.
"""

import json
import sys

# Counters that repeat exactly between paper3_serial runs.
EXACT_ON_SERIAL = (
    "grouping.searches", "grouping.expansions", "grouping.cache_hits",
    "pipeline.questions", "pipeline.backend_calls", "replace.pairs",
    "replace.edits", "graph.graphs", "graph.labels", "index.postings",
)


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def value(run, name):
    return run["per_layer"].get(name, {}).get("value", 0.0)


def ratio(numerator, denominator, scale=1.0):
    return numerator * scale / denominator if denominator else 0.0


def unit_costs(run):
    return {
        "grouping us/expansion": value(run, "grouping.us_per_expansion"),
        "graph us/graph": ratio(value(run, "graph.build_ms"),
                                value(run, "graph.graphs"), 1e3),
        "index ns/posting": ratio(value(run, "index.build_ms"),
                                  value(run, "index.postings"), 1e6),
        "replace us/pair": ratio(value(run, "replace.candidates_ms"),
                                 value(run, "replace.pairs"), 1e3),
        "pipeline us/question": ratio(value(run, "pipeline.verify_ms"),
                                      value(run, "pipeline.questions"), 1e3),
    }


def delta(base, new):
    if base == 0:
        return "" if new == 0 else "   new"
    return f"{(new - base) / base * 100:+7.1f}%"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    for label, run in (("base", base), ("new", new)):
        record = run["run_record"]
        print(f"{label}: {record['workload']} seed {record['seed']} "
              f"commit {record['commit'][:12]} "
              f"calibration {record['calibration_cpu_ms']:.1f} ms CPU "
              f"replay {run['replay_ms']:.1f} ms "
              f"trace overhead {run['overhead']['overhead_cpu_s']:.3f} s CPU")

    print(f"\n{'layer':12s} {'base ms':>11s} {'new ms':>11s} {'delta':>9s} "
          f"{'base share':>10s} {'new share':>10s}")
    for layer in sorted(set(base["layers"]) | set(new["layers"])):
        b = base["layers"].get(layer, {"self_ms": 0.0, "share": 0.0})
        n = new["layers"].get(layer, {"self_ms": 0.0, "share": 0.0})
        print(f"{layer:12s} {b['self_ms']:11.2f} {n['self_ms']:11.2f} "
              f"{delta(b['self_ms'], n['self_ms']):>9s} "
              f"{b['share']:10.4f} {n['share']:10.4f}")

    print(f"\n{'per-unit cost':22s} {'base':>11s} {'new':>11s} {'delta':>9s}")
    base_costs, new_costs = unit_costs(base), unit_costs(new)
    for name, b in base_costs.items():
        n = new_costs[name]
        print(f"{name:22s} {b:11.4f} {n:11.4f} {delta(b, n):>9s}")

    exact = (base["run_record"]["workload"] == new["run_record"]["workload"]
             == "paper3_serial")
    drift = []
    print(f"\n{'metric':32s} {'unit':>6s} {'base':>14s} {'new':>14s} "
          f"{'delta':>9s}")
    names = list(base["per_layer"])
    names += [name for name in new["per_layer"] if name not in names]
    for name in names:
        b, n = value(base, name), value(new, name)
        unit = (base["per_layer"].get(name) or new["per_layer"][name])["unit"]
        mark = ""
        if exact and name in EXACT_ON_SERIAL and b != n:
            mark = "  DRIFT"
            drift.append(name)
        shown = "14.0f" if unit in ("count", "bytes") else "14.6g"
        print(f"{name:32s} {unit:>6s} {b:{shown}} {n:{shown}} "
              f"{delta(b, n):>9s}{mark}")
    if drift:
        print(f"\nwork counters drifted ({', '.join(drift)}): a behaviour "
              "change, not noise")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
