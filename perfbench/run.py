#!/usr/bin/env python3
"""Builds the HPEZ benchmark from source and runs one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload seq --seed 0 --seconds 25 --trace 0

The first run builds the repository and the benchmark program with sbt,
offline, from the local dependency cache, and records the runtime
classpath. Later runs reuse that build while the sources are unchanged.
The JSON result is the last line of standard output.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
WORK = ROOT / ".bench_build" / "perfbench"
CLASSPATH = BENCH / "target" / "classpath.txt"
STAMP = BENCH / "target" / "build.stamp"
# Sources that go into the build; a change to any of them triggers a rebuild.
SOURCES = ["build.sbt", "project/build.properties", "src/main", "jobs",
           "perfbench/build.sbt", "perfbench/project/build.properties", "perfbench/src/main"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
HEAP = "3g"


def sources_digest():
    h = hashlib.sha256()
    for rel in SOURCES:
        p = ROOT / rel
        files = sorted(f for f in p.rglob("*") if f.is_file()) if p.is_dir() else [p]
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def run(cmd, cwd, env, timeout, stdout=None):
    """Runs `cmd` in its own process group and kills the group on timeout
    or when this script is terminated."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def build():
    digest = sources_digest()
    if (STAMP.exists() and STAMP.read_text() == digest and CLASSPATH.exists()
            and all(Path(p).exists() for p in CLASSPATH.read_text().split(os.pathsep))):
        return
    env = dict(os.environ, COURSIER_MODE="offline")
    opts = ["-Dsbt.offline=true", "-Xmx2g"]
    repos = Path.home() / ".sbt" / "repositories"
    if repos.exists():
        opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    env["SBT_OPTS"] = " ".join(opts)
    # sbt's output goes to stderr so that stdout carries only the result.
    code = run(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "writeClasspath"],
               BENCH, env, BUILD_TIMEOUT_S, stdout=sys.stderr) if shutil.which("sbt") else 127
    if code != 0:
        sys.exit(f"perfbench: build failed with exit code {code}")
    STAMP.write_text(digest)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        sys.exit("perfbench: run from the root of a checkout of the repository (no build.sbt or src/ here)")

    build()
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "tmp").mkdir(parents=True)
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={WORK / 'tmp'}",
           "-cp", CLASSPATH.read_text(), "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--work", str(WORK)]
    code = run(cmd, ROOT, dict(os.environ, SPARK_LOCAL_DIRS=str(WORK / "spark-local")), RUN_TIMEOUT_S)
    shutil.rmtree(WORK, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
