#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload named in BENCHMARK.json it checks that:

- every end-to-end metric (--trace 0) and every per-layer metric
  (--trace 1) that BENCHMARK.json names is printed, with its unit, and
  the run is correct;
- a planted wrong expected value makes the correctness check fail;
- a different seed changes the generated ops but not the metric names.

Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(command, workload, seed, trace, extra=()):
    args = command + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny", *extra,
    ]
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    digest = next((l.split()[-1] for l in lines if l.startswith("# inputs digest")), None)
    return out.returncode, result, digest, out.stderr


def expect(ok, what):
    if not ok:
        sys.exit(f"FAIL: {what}")
    print(f"ok: {what}")


def check_metrics(result, wanted, what):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    expect(got == want, f"{what} prints exactly the metrics of BENCHMARK.json, with their units"
           + ("" if got == want else f" (got {got}, want {want})"))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    command = bench["command"]
    for w in bench["workloads"]:
        name = w["name"]
        code, result, digest, err = run(command, name, 1, 0)
        expect(code == 0 and result and result["correct"] and result["failed"] == 0,
               f"{name}: tiny run is correct" + ("" if code == 0 else f"\n{err[-3000:]}"))
        check_metrics(result, bench["end_to_end"], f"{name} --trace 0")

        code, traced, _, err = run(command, name, 1, 1)
        expect(code == 0 and traced and traced["correct"],
               f"{name}: tiny traced run is correct" + ("" if code == 0 else f"\n{err[-3000:]}"))
        check_metrics(traced, bench["per_layer"], f"{name} --trace 1")

        code, other, other_digest, _ = run(command, name, 2, 0)
        expect(code == 0 and other and other_digest and other_digest != digest,
               f"{name}: seed 2 generates other ops ({digest} vs {other_digest})")
        expect(set(other["metrics"]) == set(result["metrics"]),
               f"{name}: seed 2 prints the same metric names")

        code, planted, _, _ = run(command, name, 1, 0, ["--plant-wrong-expected"])
        expect(code != 0 and planted and not planted["correct"] and planted["failed"] > 0,
               f"{name}: a planted wrong expected value fails the correctness check")
    print("self-test passed")


if __name__ == "__main__":
    main()
