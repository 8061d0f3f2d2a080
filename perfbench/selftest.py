#!/usr/bin/env python3
"""Self-test of the campaign benchmark.

    python3 perfbench/selftest.py

1. A tiny run (--tiny: a few trials per cell) of every workload, untraced
   and traced: each must pass its output check and print exactly the
   metric names and units BENCHMARK.json lists for that mode.
2. A tiny run with one deliberately corrupted expected trial must fail the
   output check: nonzero exit and no result line.
3. A directory holding only BENCHMARK.json and perfbench/ must make the
   benchmark exit nonzero without a result line.

Exits 0 when every case holds. Scratch files go under .bench_build/selftest.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1",
         *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def main() -> int:
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for wl in SPEC["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            name = f"{wl['name']} --trace {trace}"
            code, lines, err = run(["--workload", wl["name"], "--trace",
                                    trace, "--tiny"])
            if code != 0 or not lines:
                expect(False, f"{name}: exit {code}\n{err[-2000:]}")
                continue
            result = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(result["correct"] is True and result["attempted"] >= 1
                   and got == want,
                   f"{name}: metric names and units match BENCHMARK.json")

    wl = SPEC["workloads"][0]["name"]
    code, lines, _ = run(["--workload", wl, "--trace", "0", "--tiny",
                          "--corrupt-expected"])
    expect(code != 0 and not lines,
           f"{wl} with a corrupted expected trial fails the output check")

    bare = ROOT / ".bench_build" / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = run(["--workload", wl, "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and not lines,
           "a directory without the sources exits nonzero, no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
