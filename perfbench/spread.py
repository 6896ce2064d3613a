#!/usr/bin/env python3
"""Summarise repeated benchmark runs: per metric, the median, the first
and third quartiles and their distance as a share of the median.

    python3 perfbench/spread.py RESULTS.jsonl [MORE.jsonl ...]

Each input line is one result line printed by run.py (other lines are
skipped). Quartiles are statistics.quantiles(values, n=4).
"""

import json
import statistics
import sys


def main():
    values = {}
    runs = failed = 0
    for path in sys.argv[1:]:
        with open(path) as f:
            for line in f:
                try:
                    result = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(result, dict) or "metrics" not in result:
                    continue
                runs += 1
                failed += result["failed"]
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
    print(f"{runs} runs, {failed} failed operations")
    print(f"{'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:36} {med:14.6g} {q1:14.6g} {q3:14.6g} {share:8.2%}")


if __name__ == "__main__":
    main()
