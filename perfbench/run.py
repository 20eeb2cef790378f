#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Rust package beside this file is built in release mode into
``$CARGO_TARGET_DIR`` (default ``.bench_build``); its binary prints every
metric by name and unit, then one JSON result line as the last line of
standard output. Scratch files (journals, span dumps) go under
``<target dir>/perfbench-data``. A failed build exits non-zero without
printing a result.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(HERE / "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = target / "release" / "perfbench"
    data = target / "perfbench-data"
    run = subprocess.run(
        [str(binary), *sys.argv[1:], "--data-dir", str(data)], env=env
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
