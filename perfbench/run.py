#!/usr/bin/env python3
"""Builds and runs the paper-scheduler benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--scale <f>] [--corrupt-checksum <0|1>]

Run it from the repository root.  The benchmark binary is built from the
sources of this checkout into $CARGO_TARGET_DIR (default .bench_build),
which also receives the compiler's temporary files, the serve-durable
state directory and the span files of traced runs.  Build output goes to
stderr; the last line of stdout is the JSON result.  Exits non-zero
without a result when the library sources are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, env=env, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
        stdout=sys.stderr, env=env, check=True)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources not found under src/",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "perfbench")
    return subprocess.run([binary, *sys.argv[1:], "--out-dir", build_dir],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
