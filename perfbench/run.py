#!/usr/bin/env python3
"""Build and run the NMSL end-to-end benchmark.

    python3 perfbench/run.py --workload spec-cold|svc-mixed|fleet-push \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark program (perfbench/, its
own Go module) and the nmsld daemon are built from source into
.bench_build/, with the Go build cache, temporary files and every run's
scratch state kept there too. The last line of standard output is the
JSON result; the exit status is the benchmark's (0 when every output
check passed). See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomod"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        GOENV="off",
        CGO_ENABLED="0",
    )
    return env


def build(env):
    """Build both binaries; print the compiler's output and return False on failure."""
    for d in (BIN, env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    for out, pkg in (("perfbench", "."), ("nmsld", "nmsl/cmd/nmsld")):
        res = subprocess.run(
            ["go", "build", "-o", os.path.join(BIN, out), pkg],
            cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        if res.returncode != 0:
            sys.stderr.write("perfbench: building %s failed:\n%s" % (pkg, res.stdout))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["spec-cold", "svc-mixed", "fleet-push"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    # A terminated run must still reach the cleanup below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(4))
    env = go_env()
    if not build(env):
        return 2
    cmd = [
        os.path.join(BIN, "perfbench"),
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-workdir", os.path.join(BUILD, "run"),
        "-nmsld", os.path.join(BIN, "nmsld"),
    ]
    # Its own process group, so the daemon and cold-pass children it
    # starts are stopped with it whatever happens.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %ds\n" % RUN_TIMEOUT_S)
        code = 3
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
