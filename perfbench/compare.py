#!/usr/bin/env python3
"""Collect two sets of benchmark runs side by side and compare them.

No network and no third-party packages.

Collect two sets from two checkouts (for example the parent commit and
the change, each a plain copy of the repository). For every workload and
seed it runs both sides back to back, and alternates which side runs
first from one seed to the next, so host speed drifting during the
collection falls on both sets alike. Every run lasts the run_seconds of
this checkout's BENCHMARK.json. Each side builds into its own
.bench_build directory. One JSON line per run is appended to each file:

    python3 perfbench/compare.py collect ../parent ../change runs-old.jsonl runs-new.jsonl --seeds 1-10

Check one set's run-to-run spread against the bounds in BENCHMARK.json
(interquartile range over median, flagged above a third of the bound):

    python3 perfbench/compare.py spread runs-old.jsonl

Compare two sets, per workload and metric: each set's median and
quartiles, the share of seed-paired runs the new set wins (ties count
for neither side), and a regression flag when the new median is worse
than the old one by more than the metric's bound. A metric whose old
spread exceeds its bound is reported as unresolved rather than
unchanged. Metrics are never 0 or negative: a median that is gets
the metric refused as invalid, not compared:

    python3 perfbench/compare.py compare runs-old.jsonl runs-new.jsonl
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = m
    for m in spec["per_layer"]:
        metrics[m["name"]] = m
    return spec, metrics


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(checkout, workload, seed, seconds, trace):
    """Runs one side's benchmark once; returns its result or None."""
    checkout = os.path.abspath(checkout)
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        command = json.load(f)["command"]
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        print("%s: %s seed %d: exit %d" % (checkout, workload, seed, out.returncode), file=sys.stderr)
        return None
    return json.loads(lines[-1])


def collect(args):
    spec, _ = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    sides = [("old", args.old_checkout, args.old_file), ("new", args.new_checkout, args.new_file)]
    for w in workloads:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            for label, checkout, path in (sides if i % 2 == 0 else sides[::-1]):
                result = run_once(checkout, w, seed, spec["run_seconds"], args.trace)
                if result is None:
                    continue
                rec = {"workload": w, "seed": seed, "trace": args.trace, "result": result}
                with open(path, "a") as f:
                    f.write(json.dumps(rec) + "\n")
                print("%s %s seed %d: %s" % (label, w, seed, " ".join(
                    "%s=%.6g" % (k, v["value"]) for k, v in sorted(result["metrics"].items()))))


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(args):
    _, metrics = load_spec()
    bad = 0
    for w, recs in sorted(load_runs(args.file).items()):
        failed = sum(r["result"]["failed"] for r in recs)
        attempted = sum(r["result"]["attempted"] for r in recs)
        print("%s: %d runs, fail_ratio %.6f" % (w, len(recs), failed / max(attempted, 1)))
        names = sorted(recs[0]["result"]["metrics"])
        for name in names:
            vals = [r["result"]["metrics"][name]["value"] for r in recs]
            q1, med, q3 = quartiles(vals)
            if med <= 0:
                print("  %-28s median %-14.6g INVALID: a metric must be positive" % (name, med))
                bad += 1
                continue
            share = (q3 - q1) / med
            bound = metrics.get(name, {}).get("bound")
            flag = ""
            if bound is not None and not share <= bound / 3:
                flag = "  ABOVE bound/3 (%.4f)" % (bound / 3)
                bad += 1
            print("  %-28s median %-14.6g IQR/median %.4f%s" % (name, med, share, flag))
    return 1 if bad else 0


def compare(args):
    _, metrics = load_spec()
    old, new = load_runs(args.old), load_runs(args.new)
    regressions = 0
    for w in sorted(set(old) & set(new)):
        print("%s (%d old runs, %d new runs)" % (w, len(old[w]), len(new[w])))
        # Pair runs by seed; sets made with different seeds pair in
        # file order.
        old_by_seed = {r["seed"]: r for r in old[w]}
        if not any(r["seed"] in old_by_seed for r in new[w]):
            old_by_seed = {r["seed"]: o for r, o in zip(new[w], old[w])}
        names = sorted(set(old[w][0]["result"]["metrics"]) & set(new[w][0]["result"]["metrics"]))
        for name in names:
            meta = metrics.get(name, {})
            lower = meta.get("better", "lower") == "lower"
            ov = [r["result"]["metrics"][name]["value"] for r in old[w]]
            nv = [r["result"]["metrics"][name]["value"] for r in new[w]]
            o1, om, o3 = quartiles(ov)
            n1, nm, n3 = quartiles(nv)
            if om <= 0 or nm <= 0:
                print("  %-28s old %.6g  new %.6g  INVALID: a metric must be positive" % (name, om, nm))
                regressions += 1
                continue
            wins = pairs = 0
            for r in new[w]:
                o = old_by_seed.get(r["seed"])
                if o is None:
                    continue
                a, b = o["result"]["metrics"][name]["value"], r["result"]["metrics"][name]["value"]
                pairs += 1
                if (b < a) if lower else (b > a):
                    wins += 1
            change = (nm - om) / om
            worse = change if lower else -change
            flag = ""
            bound = meta.get("bound")
            if bound is not None:
                if (o3 - o1) / om > bound:
                    flag = "unresolved (old spread above bound)"
                elif worse > bound:
                    flag = "REGRESSION (bound %.2f)" % bound
                    regressions += 1
            print("  %-28s old %.6g [%.6g, %.6g]  new %.6g [%.6g, %.6g]  change %+.2f%%  wins %d/%d  %s" % (
                name, om, o1, o3, nm, n1, n3, change * 100, wins, pairs, flag))
    return 1 if regressions else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run two checkouts side by side and append their results")
    c.add_argument("old_checkout")
    c.add_argument("new_checkout")
    c.add_argument("old_file")
    c.add_argument("new_file")
    c.add_argument("--workloads", default="")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", type=int, default=0)
    s = sub.add_parser("spread", help="run-to-run spread of one set")
    s.add_argument("file")
    p = sub.add_parser("compare", help="compare two sets")
    p.add_argument("old")
    p.add_argument("new")
    args = ap.parse_args()
    if args.cmd == "collect":
        collect(args)
        return 0
    if args.cmd == "spread":
        return spread(args)
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
