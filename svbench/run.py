#!/usr/bin/env python3
"""Build and run the simulator's benchmark.

    python3 svbench/run.py --workload fig4 --seed 1 --seconds 25 --trace 0

Run from the root of a source tree. The script configures and builds
svbench/ with CMake in Release mode (the build compiles the simulator from
src/) under .bench_build/, or under $CARGO_TARGET_DIR when that is set, then
runs the svbench binary with the same arguments, unchanged: the binary
checks them. It prints the result object as the last line of stdout.
README.md beside this file describes the workloads and metrics.
"""
import fcntl
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
JOBS = "3"


def fail(msg):
    print(f"svbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (d if d.is_absolute() else ROOT / d) / "svbench"


def source_rev():
    """Git revision when the tree is a git checkout, plus a digest of the
    sources the binary is built from, so a result names its code exactly."""
    h = hashlib.sha256()
    for top in ("src", "svbench"):
        for f in sorted((ROOT / top).rglob("*")):
            if f.is_file() and f.suffix in (".cpp", ".hpp", ".txt"):
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    rev = "src-sha256:" + h.hexdigest()[:16]
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True)
            rev = "git:" + git.stdout.strip() + " " + rev
        except (OSError, subprocess.SubprocessError):
            pass
    return rev


def run_logged(cmd, log, timeout):
    with open(log, "a") as out:
        try:
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
    if rc != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"build step failed ({rc}): {' '.join(cmd)}")


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        log = bdir / "build.log"
        if not (bdir / "CMakeCache.txt").is_file():
            run_logged(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S)
        run_logged(["cmake", "--build", str(bdir), "--target", "svbench",
                    "-j", JOBS], log, BUILD_TIMEOUT_S)
    return bdir / "svbench"


def run(binary, argv, timeout=RUN_TIMEOUT_S, **kwargs):
    """Run the benchmark binary and wait for it; kill it on timeout."""
    proc = subprocess.Popen([str(binary), "--rev", source_rev(), *argv],
                            cwd=ROOT, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"benchmark run exceeded {timeout} s")
    return proc.returncode, out


def main(argv):
    binary = build()
    rc, _ = run(binary, argv)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
