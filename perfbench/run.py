#!/usr/bin/env python3
"""Campaign benchmark: builds perfbench_campaign and runs one workload.

    python3 perfbench/run.py --workload ckpt-heavy-n16 --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout. The benchmark program
(perfbench/campaign_bench.cpp) and the ppsim library it links are built
from source into .bench_build/perfbench. Checkpoint and frame files live
in a per-run temporary directory under .bench_build/tmp that is removed
at exit; the span file of a traced run (--trace 1) is kept under
.bench_build/spans.

The metric table goes to stderr. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer ones with
--trace 1. A failed output check exits nonzero without that line.

--tiny (a few trials per cell) and --corrupt-expected (one deliberately
wrong expected trial) exist for perfbench/selftest.py.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding `path`, from /proc/self/mounts."""
    best, kind = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/self/mounts", encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mnt = parts[1].replace("\\040", " ")
                inside = target == mnt or target.startswith(
                    mnt.rstrip("/") + "/")
                if inside and len(mnt) > len(best):
                    best, kind = mnt, parts[2]
    except OSError:
        pass
    return kind


def build() -> Path:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("run.py: the ppsim sources (CMakeLists.txt, src/) are not "
                 "beside perfbench/; nothing to build")
    out = BUILD / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "perfbench_campaign"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")
    # Write back the build's output, and whatever an earlier run left dirty,
    # so that it does not compete with the checkpoint fsyncs this run times.
    os.sync()
    return out / "perfbench_campaign"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt-expected", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD / "tmp"))
    try:
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--tmp", str(tmp),
               "--fs-type", fs_type(tmp)]
        if args.trace == "1":
            spans = BUILD / "spans"
            spans.mkdir(parents=True, exist_ok=True)
            cmd += ["--spans",
                    str(spans / f"{args.workload}-seed{args.seed}.ndjson")]
        if args.tiny:
            cmd.append("--tiny")
        if args.corrupt_expected:
            cmd.append("--corrupt-expected")
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"run.py: perfbench_campaign exceeded {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"run.py: perfbench_campaign exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if not isinstance(result, dict) or set(result) != {
                "correct", "attempted", "failed", "metrics"}:
            print("run.py: perfbench_campaign printed no result object",
                  file=sys.stderr)
            return 1
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
