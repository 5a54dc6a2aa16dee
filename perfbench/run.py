#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

The Go program in this directory is built from the checkout's sources
into the build directory ($CARGO_TARGET_DIR, default .bench_build), with
the Go build cache kept there too, and then run with the same arguments.
Its last line of standard output is the result JSON. The exit code is the
program's; a failed build exits 1 without printing a result.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT = 170  # seconds; one run must end well within 180


def main():
    build = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    os.makedirs(build, exist_ok=True)
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
