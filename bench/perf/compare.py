#!/usr/bin/env python3
"""Regression gate over two perf_simcore reports.

    python3 bench/perf/compare.py BASE.jsonl NEW.jsonl [--bounds BENCHMARK.json]

BASE and NEW are files written by `perf_simcore --out FILE` (one JSON line per
run; the last untraced line of a workload wins). Every workload in BASE must
have a run in NEW with the same config, and every end-to-end metric that
BENCHMARK.json names must be in both. The simulated outcome (cycles, events,
packets, pct_peak, fault and reliability counts, search winner) depends only
on the config, so it must be identical. Each host-time median is compared
with the BASE median against that metric's bound.

Exit codes: 0 all within bounds, 1 a metric regressed or a simulated value
changed, 2 a workload or metric is missing, a config differs (an
--shape/--bytes override counts), or an input file is malformed.
"""
import argparse
import json
import sys


def load_runs(path):
    runs = {}
    with open(path) as f:
        for number, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                run = json.loads(line)
                if not run["config"]["trace"]:
                    runs[run["workload"]] = run
            except (ValueError, KeyError, TypeError) as error:
                raise ValueError(f"{path}:{number}: not a perf_simcore report ({error})")
    return runs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--bounds", default="BENCHMARK.json")
    args = parser.parse_args()

    try:
        with open(args.bounds) as f:
            metrics = json.load(f)["end_to_end"]
        base = load_runs(args.base)
        new = load_runs(args.new)
    except (OSError, ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not base:
        print(f"error: {args.base} holds no untraced run", file=sys.stderr)
        return 2

    problems = []
    regressions = []
    for workload, old in sorted(base.items()):
        cur = new.get(workload)
        if cur is None:
            problems.append(f"{workload}: missing from {args.new}")
            continue
        if cur["config"] != old["config"]:
            problems.append(f"{workload}: config differs: {old['config']} vs {cur['config']}")
            continue
        if cur.get("host") != old.get("host"):
            print(f"note: {workload}: host differs: {old.get('host')} vs {cur.get('host')}")
        if "simulated" not in old or "simulated" not in cur:
            problems.append(f"{workload}: simulated outcome missing")
            continue
        for field, was in old["simulated"].items():
            now = cur["simulated"].get(field)
            if now != was:
                print(f"{workload:18s} {field:14s} {was} -> {now} CHANGED (simulated)")
                regressions.append(f"{workload} {field}")
        for metric in metrics:
            name = metric["name"]
            if name not in old["metrics"] or name not in cur["metrics"]:
                problems.append(f"{workload}: metric {name} missing")
                continue
            if name in old["simulated"]:
                continue  # held to exact equality above
            was = old["metrics"][name]["median"]
            now = cur["metrics"][name]["median"]
            bound = metric["bound"]
            if metric["better"] == "lower":
                worse = now > was * (1.0 + bound)
            else:
                worse = now < was * (1.0 - bound)
            change = (now - was) / was if was else 0.0
            verdict = "REGRESSED" if worse else "ok"
            print(f"{workload:18s} {name:14s} {was:14.6g} -> {now:14.6g} "
                  f"({change:+.1%}, bound {bound:.0%}) {verdict}")
            if worse:
                regressions.append(f"{workload} {name}")

    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if problems:
        return 2
    if regressions:
        print(f"{len(regressions)} regressed or changed: {', '.join(regressions)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
