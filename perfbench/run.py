#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paced_fleet_30fps --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (Release) into the directory
named by $CARGO_TARGET_DIR, or .bench_build when it is unset; later calls
rebuild only what changed. Build output goes to stderr, so the last line of
stdout stays the benchmark's JSON result. The exit code is the benchmark's.
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("paced_fleet_30fps", "saturate_noisy", "replay_fixture")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def source_stamp(root):
    """The commit when run inside git, else a digest of the library sources."""
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "--short=12", "HEAD"], cwd=root,
            capture_output=True, text=True, check=True).stdout.split()
        if pathlib.Path(top).resolve() == root.resolve():  # not an enclosing repository
            return commit
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:12]


def build(build_dir, targets):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs, "--target", *targets],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness tests instead of a workload")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    root = pathlib.Path.cwd()
    if not (root / "src").is_dir() or not (root / "CMakeLists.txt").is_file():
        return fail(f"{root} is not the repository root (no src/ or CMakeLists.txt)")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        build(build_dir, ["perfbench_selftest"] if args.selftest else ["perfbench"])
    except (OSError, subprocess.CalledProcessError) as error:
        return fail(f"build failed: {error}")

    if args.selftest:
        return subprocess.run([str(build_dir / "perfbench_selftest")]).returncode
    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--commit", source_stamp(root)]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
