#!/usr/bin/env python3
"""Build the benchmark binary from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The binary is built with cargo into
$CARGO_TARGET_DIR (default `.bench_build`).  Before the result the script
prints a `# host` line stamping the run with the host (`nproc`, CPU
model), the seed and the exact command; the binary's last line, one JSON
object, is the result.  Traced runs also write their span record to
`<target dir>/perfbench-spans/<workload>-seed<n>.tsv`.
"""

import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The repository crates the benchmark builds against (path dependencies).
CRATES = ["types", "frames", "edf", "netsim", "core", "traffic"]
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    missing = [c for c in CRATES if not (ROOT / "crates" / c / "Cargo.toml").is_file()]
    if missing:
        fail(f"repository crates missing under {ROOT / 'crates'}: {', '.join(missing)}", 2)

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("cargo build failed", 3)

    command = ["python3", "perfbench/run.py", *sys.argv[1:]]
    stamp = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "command": shlex.join(command),
    }
    print("# host " + json.dumps(stamp), flush=True)

    binary = [str(target / "release" / "perfbench"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = target / "perfbench-spans"
        spans.mkdir(parents=True, exist_ok=True)
        binary += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.tsv")]
    try:
        run = subprocess.run(binary, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
