#!/usr/bin/env python3
"""Read benchmark results and traces.

    python3 perfbench/report.py compare OLD.json NEW.json
        Compare two saved results (<build>/results/*.json) metric by metric.
        Refuses (exit 2) when their machine fingerprints differ.

    python3 perfbench/report.py spans TRACE.jsonl [--top N]
        Per-span-name table of a traced run (<build>/traces/*.jsonl):
        calls, total and self time, and work done.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402


def compare(old_path, new_path):
    old, new = harness.load_json(old_path), harness.load_json(new_path)
    if not harness.comparable(old, new):
        a, b = old["fingerprint"]["machine"], new["fingerprint"]["machine"]
        diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        print("refusing to compare: machine fingerprints differ in %s" % ", ".join(diff),
              file=sys.stderr)
        for k in diff:
            print("  %s: %r vs %r" % (k, a.get(k), b.get(k)), file=sys.stderr)
        return 2
    print("old: %s seed %s, code %s" % (old["workload"], old["seed"], old["fingerprint"]["code"]))
    print("new: %s seed %s, code %s" % (new["workload"], new["seed"], new["fingerprint"]["code"]))
    for k in sorted(set(old["metrics"]) | set(new["metrics"])):
        a, b = old["metrics"].get(k), new["metrics"].get(k)
        if a is None or b is None:
            print("  %-34s only in %s" % (k, "old" if b is None else "new"))
            continue
        delta = (b["value"] - a["value"]) / a["value"] if a["value"] else float("nan")
        print("  %-34s %12.6g -> %12.6g %s  (%+.1f%%)"
              % (k, a["value"], b["value"], a["unit"], 100.0 * delta))
    return 0


def spans(path, top):
    with open(path) as f:
        records = [json.loads(line) for line in f]
    table = harness.span_table(records)
    roots = sum(s["t1_ns"] - s["t0_ns"] for s in records if not s["parent"])
    print("%-28s %8s %12s %12s %7s %14s" % ("span", "calls", "total ms", "self ms", "self %",
                                          "work"))
    rows = sorted(table.items(), key=lambda kv: -kv[1]["self_ns"])
    for name, r in rows[:top]:
        print("%-28s %8d %12.3f %12.3f %6.1f%% %14.6g"
              % (name, r["calls"], r["total_ns"] * 1e-6, r["self_ns"] * 1e-6,
                 100.0 * r["self_ns"] / roots if roots else 0.0, r["work"]))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("compare")
    c.add_argument("old")
    c.add_argument("new")
    s = sub.add_parser("spans")
    s.add_argument("trace")
    s.add_argument("--top", type=int, default=40)
    a = ap.parse_args()
    if a.cmd == "compare":
        return compare(a.old, a.new)
    return spans(a.trace, a.top)


if __name__ == "__main__":
    sys.exit(main())
