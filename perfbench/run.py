#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

    python3 perfbench/run.py --workload ingest|serve|publish --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the checkout; scratch files go to .bench_out/ and are
removed when the run ends; a traced run leaves its span file in .bench_out/.
Build output goes to stderr, so the last stdout line is the result JSON of
perfbench (see perfbench/README.md).
"""

import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> None:
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--parallel", "4",
         "--target", "perfbench", "perfbench_selftest"],
        check=True, stdout=sys.stderr)


def main() -> int:
    os.chdir(ROOT)
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    args = sys.argv[1:]
    if args == ["--self-test"]:
        return subprocess.call([str(build_dir / "perfbench_selftest")])

    scratch = ROOT / ".bench_out" / f"scratch-{os.getpid()}"
    child = subprocess.Popen(
        [str(build_dir / "perfbench"), *args, "--scratch", str(scratch)])

    def forward(signo, _frame):
        child.send_signal(signo)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        child.kill()
        child.wait()
        code = 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
