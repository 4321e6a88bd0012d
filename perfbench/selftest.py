#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py --exe PATH/perfbench.exe --benchmark BENCHMARK.json

For every workload named in BENCHMARK.json it runs perfbench.exe at the
tiny scale, untraced and traced, and asserts that the run passes its
output checks and emits exactly the metrics BENCHMARK.json lists, each
with its unit. The tail percentile the executable uses must be the one
the workload's "why" names. Two tampered runs must then fail: a broken
bank total, and a traced fingerprint that no longer matches the
untraced one. Exits 1 with a message on the first violation.
"""

import argparse
import json
import os
import re
import subprocess
import sys


def run(exe, workload, trace, tamper=None):
    cmd = [exe, "--workload", workload, "--seed", "1", "--seconds", "0",
           "--trace", str(trace), "--scale", "tiny"]
    if tamper:
        cmd += ["--tamper", tamper]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    if not lines:
        sys.exit("selftest: %s printed nothing (exit %d): %s"
                 % (" ".join(cmd), p.returncode, p.stderr))
    return p.returncode, p.stdout, json.loads(lines[-1])


def expect(cond, what):
    if not cond:
        sys.exit("selftest: FAILED: " + what)


def check_metrics(workload, result, spec, kind):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    expect(set(got) == set(want),
           "%s %s metrics differ from BENCHMARK.json: missing %s, extra %s"
           % (workload, kind, sorted(set(want) - set(got)),
              sorted(set(got) - set(want))))
    for name, unit in want.items():
        expect(got[name] == unit, "%s %s has unit %s, BENCHMARK.json says %s"
               % (workload, name, got[name], unit))
        value = result["metrics"][name]["value"]
        expect(isinstance(value, (int, float)),
               "%s %s value %r is not a number" % (workload, name, value))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--exe", required=True)
    ap.add_argument("--benchmark", required=True)
    args = ap.parse_args()
    exe = os.path.abspath(args.exe)
    with open(args.benchmark) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, out, result = run(exe, name, trace)
            expect(code == 0, "%s --trace %d exited %d" % (name, trace, code))
            expect(result["correct"] is True, "%s --trace %d not correct" % (name, trace))
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   "%s --trace %d attempted %d failed %d"
                   % (name, trace, result["attempted"], result["failed"]))
            check_metrics(name, result, bench[kind], kind)
        pct = re.search(r"tail (p[0-9.]+) ", out)
        expect(pct is not None and ("tail %s " % pct.group(1)) in w["why"],
               "%s: tail percentile %s is not the one its why names"
               % (name, pct.group(1) if pct else "?"))
    for workload, trace, tamper in (("bank-checked", 0, "bank-total"),
                                    ("hashtable-bare", 1, "fingerprint")):
        code, _, result = run(exe, workload, trace, tamper)
        expect(code != 0, "tampered %s (%s) exited 0" % (workload, tamper))
        expect(result["correct"] is False and result["failed"] == result["attempted"],
               "tampered %s (%s) was not marked failed" % (workload, tamper))
    print("perfbench selftest: ok")


if __name__ == "__main__":
    main()
