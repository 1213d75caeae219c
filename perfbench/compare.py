"""Summarise one result set, or compare two, under the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE.jsonl              # spreads of one set
    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl # verdicts, CHANGE vs BASE

A result set is the JSON-lines file that ``run.py --record`` (or ``sweep.py``)
appends to. For every workload and end-to-end metric this prints each side's
median and quartiles over its untraced runs, the spread (interquartile range
over the median) and, with two sets, a verdict:

* ``unresolved``: a side's spread is wider than the metric's bound, unless
  every run of CHANGE reads better (``better``) or worse (``worse``) than
  every run of BASE;
* ``worse``: CHANGE's median is worse than BASE's by more than the bound;
* ``better``: CHANGE's median is better by more than BASE's own spread and
  CHANGE wins at least nine tenths of the runs paired by seed;
* ``same``: none of the above.

Traced runs are listed afterwards as per-layer medians.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def by_seed(records, workload, metric):
    """seed -> value of an end-to-end metric over the untraced runs."""
    return {r["seed"]: r["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and r["trace"] == 0}


def verdict(base, change, bound, lower_is_better):
    """Verdict of CHANGE against BASE; both map seed -> value."""
    sign = 1.0 if lower_is_better else -1.0
    a, b = list(base.values()), list(change.values())
    if spread(a) > bound or spread(b) > bound:
        if max(sign * x for x in b) < min(sign * y for y in a):
            return "better"
        if min(sign * x for x in b) > max(sign * y for y in a):
            return "worse"
        return "unresolved"
    worse_share = sign * (statistics.median(b) - statistics.median(a)) / abs(statistics.median(a))
    if worse_share > bound:
        return "worse"
    paired = [s for s in base if s in change]
    wins = sum(sign * change[s] < sign * base[s] for s in paired)
    if -worse_share > spread(a) and paired and wins >= 0.9 * len(paired):
        return "better"
    return "same"


def _fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:12.6g} [{q1:.6g}, {q3:.6g}]"


def end_to_end_table(spec, sides, out):
    names = [w["name"] for w in spec["workloads"]]
    header = f"{'workload':<10} {'metric':<12} {'bound':>5}"
    for label, _ in sides:
        header += f" | {label + ': n  median [q1, q3]  spread':<48}"
    if len(sides) == 2:
        header += " | change  verdict"
    print(header, file=out)
    for workload in names:
        for metric in spec["end_to_end"]:
            columns = [by_seed(records, workload, metric["name"]) for _, records in sides]
            if not all(columns):
                continue
            line = f"{workload:<10} {metric['name']:<12} {metric['bound']:>5}"
            for column in columns:
                values = list(column.values())
                line += f" | {len(values):>2} {_fmt(values):<36} {spread(values):7.3f}"
            if len(columns) == 2:
                a, b = (statistics.median(c.values()) for c in columns)
                lower = metric["better"] == "lower"
                line += (f" | {(b - a) / abs(a):+7.1%}  "
                         f"{verdict(columns[0], columns[1], metric['bound'], lower)}")
            print(line, file=out)


def layer_table(spec, sides, out):
    """Per-layer medians over traced runs, one column per workload and side."""
    names = [m["name"] for m in spec["per_layer"]]
    columns = []
    for workload in (w["name"] for w in spec["workloads"]):
        for label, records in sides:
            traced = [r for r in records if r["workload"] == workload and r["trace"] == 1]
            if traced:
                head = workload if len(sides) == 1 else f"{workload}:{label}"
                columns.append((f"{head} ({len(traced)})", {
                    name: statistics.median(r["metrics"][name]["value"] for r in traced)
                    for name in names}))
    if not columns:
        return
    print("\nper-layer medians over traced runs (count), per dataset pass", file=out)
    print(f"  {'metric':<42}" + "".join(f"{head:>20}" for head, _ in columns), file=out)
    for name in names:
        print(f"  {name:<42}" + "".join(f"{col[name]:>20.6g}" for _, col in columns), file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change", nargs="?")
    args = parser.parse_args(argv)
    spec = load_spec()
    sides = [("base", load_records(args.base))]
    if args.change:
        sides.append(("change", load_records(args.change)))
    end_to_end_table(spec, sides, sys.stdout)
    layer_table(spec, sides, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
