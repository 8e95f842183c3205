#!/usr/bin/env python3
"""Build and run the forwarding benchmark.

    python3 fwdbench/run.py --workload small_write|ckpt_burst|mixed_rw \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds fwdbench/ (a
CMake package that compiles the runtime from src/) into
$CARGO_TARGET_DIR/fwdbench, default .bench_build/fwdbench, then runs one
measurement. Scratch files go to <build>/work and are removed; the result
of each run and, with --trace 1, a Chrome trace go to <build>/results. The
last line of stdout is the run's JSON result.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "fwdbench"


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    """HEAD of the checkout, or "none" when the checkout is not itself a git
    work tree (an enclosing repository's HEAD would mislabel the run)."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True)
        top, head = out.stdout.split()
        return head if Path(top).resolve() == ROOT else "none"
    except (OSError, ValueError, subprocess.CalledProcessError):
        return "none"


def run_quiet(cmd):
    """Runs a build step, echoing its output to stderr only if it fails."""
    r = subprocess.run(cmd, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-4000:] + r.stderr[-4000:])
        sys.stderr.write(f"fwdbench: build step failed: {' '.join(cmd)}\n")
        sys.exit(3)


def build(bdir: Path) -> Path:
    if not (ROOT / "src" / "rt" / "server.hpp").is_file():
        sys.stderr.write(f"fwdbench: no runtime sources under {ROOT / 'src'}\n")
        sys.exit(2)
    if not (bdir / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", str(bdir), "--target", "fwdbench",
               "-j", str(os.cpu_count() or 1)])
    return bdir / "fwdbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["small_write", "ckpt_burst", "mixed_rw"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(bdir / "work"), "--out-dir", str(bdir / "results"),
           "--commit", commit(), "--src-digest", src_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
