"""Summarizes repeated benchmark runs against the bounds in BENCHMARK.json.

    python3 perfbench/steadiness.py RUNS.jsonl [SECOND.jsonl]

Each line of a runs file is {"workload": ..., "seed": ..., "result": <the
benchmark's last output line>}; README.md shows the loop that writes them.
For every workload and end-to-end metric it prints the median and quartiles
(Python's statistics.quantiles(n=4)), the spread (Q3 - Q1) / median next to
the bound, and, given a second file, how far the second median moved the
worse way. It exits 1 when a spread other than setup_s's exceeds a third of
its bound or a median moved worse by more than its bound.
"""
import json
import os
import statistics
import sys


def runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def values(rs, workload, metric):
    return [r["result"]["metrics"][metric]["value"] for r in rs if r["workload"] == workload]


def main(args):
    if len(args) not in (1, 2):
        sys.exit(__doc__)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    first = runs(args[0])
    second = runs(args[1]) if len(args) == 2 else None
    ok = True
    for wl in [w["name"] for w in bench["workloads"]]:
        n = len(values(first, wl, "setup_s"))
        if n == 0:
            continue
        head = "| metric | median | Q1 | Q3 | spread | bound | spread/bound |"
        rule = "|---|---|---|---|---|---|---|"
        if second is not None:
            head += " 2nd median | moved worse |"
            rule += "---|---|"
        print(f"\n### {wl} ({n} runs)\n\n{head}\n{rule}")
        for m in bench["end_to_end"]:
            v = values(first, wl, m["name"])
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / abs(med) if med else 0.0
            mark = ""
            if m["name"] != "setup_s" and spread > m["bound"] / 3:
                mark, ok = " !", False
            row = (f"| {m['name']} ({m['unit']}) | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                   f"{100 * spread:.2f}% | {100 * m['bound']:.0f}% | {spread / m['bound']:.2f}{mark} |")
            if second is not None:
                med2 = statistics.median(values(second, wl, m["name"]))
                worse = (med2 - med) / abs(med) if med else 0.0
                if m["better"] == "higher":
                    worse = -worse
                mark = ""
                if worse > m["bound"]:
                    mark, ok = " !", False
                row += f" {med2:.6g} | {100 * worse:+.2f}%{mark} |"
            print(row)
        clean = sum(1 for r in first if r["workload"] == wl and r["result"]["correct"] and r["result"]["failed"] == 0)
        print(f"\ncorrect with no failed op: {clean} of {n} runs")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
