#!/usr/bin/env python3
"""Run the OCTOPUS service benchmark.

    python3 octobench/run.py --workload kim|suggest|explore --seed N \
        --seconds S --trace 0|1

Run it from the repository root (any directory works: paths are resolved
from this file). The first run builds the program and the benchmark with
sbt into `.bench_build/` and `octobench/target/`; later runs reuse that
build while the sources are unchanged. The benchmark JVM's standard output
is passed through; its last line is the result object.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CLASSPATH = os.path.join(BUILD, "classpath.txt")
STAMP = os.path.join(BUILD, "build.stamp")

# The program's own build and sources, which the benchmark compiles.
PROGRAM = ["build.sbt", "project/build.properties", "src/main", "jobs"]
WORKLOADS = ("kim", "suggest", "explore")

# Module opens Spark needs on JDK 17, as in the program's build.sbt.
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5",
]

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"octobench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file the build reads, program first, as sorted relative paths."""
    roots = PROGRAM + ["octobench/build.sbt", "octobench/project/build.properties", "octobench/src"]
    files = []
    for rel in roots:
        path = os.path.join(ROOT, rel)
        if os.path.isfile(path):
            files.append(rel)
        for d, _, names in os.walk(path):
            files += [os.path.relpath(os.path.join(d, n), ROOT) for n in names]
    return sorted(files)


def digest(files):
    h = hashlib.sha256()
    for rel in files:
        h.update(rel.encode() + b"\0")
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def run_child(cmd, cwd, env, timeout, stdout):
    """Run `cmd` in its own process group; kill the group on timeout or
    interrupt and always wait for it to end."""
    p = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, start_new_session=True)
    try:
        return p.wait(timeout=timeout)
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise


def build(src_digest):
    """Compile with sbt and write the runtime classpath, unless a build of
    the same sources is already there."""
    if os.path.exists(STAMP) and os.path.exists(CLASSPATH):
        with open(STAMP) as f:
            if f.read().strip() == src_digest:
                return
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH", 3)
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    repos = os.path.expanduser("~/.sbt/repositories")
    if "SBT_OPTS" not in env and os.path.exists(repos):
        env["SBT_OPTS"] = ("-Dsbt.override.build.repos=true -Dsbt.offline=true "
                           f"-Dsbt.repository.config={repos} -Xmx2g")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", f"-Doctobench.classpathFile={CLASSPATH}",
           "compile", "writeClasspath"]
    try:
        code = run_child(cmd, HERE, env, BUILD_TIMEOUT_S, sys.stderr)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    if code != 0:
        fail(f"build failed with exit code {code}", 3)
    with open(STAMP, "w") as f:
        f.write(src_digest + "\n")


def git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    missing = [p for p in PROGRAM if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail(f"program sources not found next to the benchmark: {', '.join(missing)}")
    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json not found")

    files = source_files()
    src_digest = digest(files)
    build(src_digest)
    with open(CLASSPATH) as f:
        classpath = os.pathsep.join(line.strip() for line in f if line.strip())

    stamp = {"git_commit": git_commit(), "sources_sha256": src_digest}
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java", "-Xmx2g", "-XX:+UseG1GC", f"-Djava.io.tmpdir={tmp}", "-Dfile.encoding=UTF-8"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
           + ["-cp", classpath, "octobench.Main",
              "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--out", BUILD, "--stamp", json.dumps(stamp)])
    started = time.time()
    out_path = os.path.join(BUILD, "stdout.txt")
    with open(out_path, "w") as out_file:
        try:
            env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(BUILD, "spark-local"))
            code = run_child(cmd, ROOT, env, RUN_TIMEOUT_S, out_file)
        except subprocess.TimeoutExpired:
            fail(f"benchmark run exceeded {RUN_TIMEOUT_S} s", 4)
    with open(out_path) as f:
        out = f.read()
    lines = [line for line in out.splitlines() if line.strip()]
    if code != 0 or not lines:
        sys.stdout.write(out)
        fail(f"benchmark exited with code {code}", 4)
    result = json.loads(lines[-1])
    names = expected_metrics(args.trace)
    if list(result["metrics"]) != names:
        sys.stdout.write(out)
        fail(f"metrics {list(result['metrics'])} do not match BENCHMARK.json {names}", 5)
    for line in lines[:-1]:
        print(line)
    print(f"run took {time.time() - started:.1f} s", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
