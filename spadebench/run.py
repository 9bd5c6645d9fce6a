#!/usr/bin/env python3
"""Run one workload of the Spade benchmark.

    python3 spadebench/run.py --workload grouped-fd --seed 42 --seconds 8 --trace 0

Run from the root of a checkout. The first run builds the repository and
this benchmark with sbt (offline) and records the run-time classpath; later
runs start the JVM directly. Results are written to spadebench/out/ and the
last line of standard output is the result object. See README.md.
"""
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
RUN_INFO = os.path.join(BENCH, "target", "run-info.txt")
STAMP = os.path.join(BENCH, "target", "build-stamp")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
HEAP = "-Xmx3g"

# What a build depends on: the repository's sources and build, and ours.
SOURCES = ["build.sbt", "project/build.properties", "src/main", "jobs",
           "spadebench/build.sbt", "spadebench/project/build.properties", "spadebench/src/main"]


CHILDREN = []


def stop(signum, _frame):
    """Stop the build or the benchmark JVM with us, and wait for it."""
    for child in CHILDREN:
        child.kill()
        child.wait()
    sys.exit(128 + signum)


def run_child(cmd, timeout, **kwargs):
    """Run `cmd`; returns (exit code or None on timeout, captured stdout)."""
    child = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, **kwargs)
    CHILDREN.append(child)
    try:
        out, _ = child.communicate(timeout=timeout)
        return child.returncode, out
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        return None, None
    finally:
        CHILDREN.remove(child)


def err(msg):
    print(f"[spadebench] {msg}", file=sys.stderr, flush=True)


def source_digest():
    h = hashlib.sha256()
    for rel in SOURCES:
        path = os.path.join(ROOT, rel)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def build(digest):
    """Compile with sbt and record the classpath, unless already built."""
    if os.path.exists(STAMP) and os.path.exists(RUN_INFO):
        with open(STAMP) as fh:
            if fh.read().strip() == digest:
                return True
    env = dict(os.environ, COURSIER_MODE="offline")
    if "-Dsbt.offline=true" not in env.get("SBT_OPTS", ""):
        env["SBT_OPTS"] = (env.get("SBT_OPTS", "") + " -Dsbt.offline=true").strip()
    err("building with sbt (first run in this checkout)")
    try:
        code, _ = run_child(["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
                             "runInfo"], BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdout=sys.stderr)
    except OSError as e:
        err(f"build failed: {e}")
        return False
    if code != 0 or not os.path.exists(RUN_INFO):
        err(f"build failed (exit code {code})")
        return False
    with open(STAMP, "w") as fh:
        fh.write(digest + "\n")
    return True


def main(argv):
    if not (os.path.isfile(os.path.join(ROOT, "build.sbt")) and os.path.isdir(os.path.join(ROOT, "src", "main"))):
        err(f"no Spade sources next to the benchmark in {ROOT}; run it from a full checkout")
        return 2
    digest = source_digest()
    if not build(digest):
        return 1
    classpath, jvm = "", []
    with open(RUN_INFO) as fh:
        for line in fh.read().splitlines():
            key, _, value = line.partition("=")
            if key == "classpath":
                classpath = value
            elif key == "jvm":
                jvm.append(value)
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", *jvm, HEAP, f"-Djava.io.tmpdir={tmp}", "-cp", classpath, "spadebench.Main",
           *argv, "--out", OUT, "--build-id", digest]
    try:
        code, out = run_child(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if code is None:
        err(f"run exceeded {RUN_TIMEOUT_S} s; stopped")
        return 1
    lines = [l for l in out.decode("utf-8", "replace").splitlines() if l.strip()]
    for l in lines[:-1]:
        print(l, file=sys.stderr)
    if code != 0 or not lines:
        err(f"benchmark exited with code {code}")
        return code or 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        err(f"malformed result line: {lines[-1]}")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    start = time.monotonic()
    code = main(sys.argv[1:])
    err(f"exit {code} after {time.monotonic() - start:.1f} s")
    sys.exit(code)
