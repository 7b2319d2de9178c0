#!/usr/bin/env python3
"""RobustPeriod benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call builds the repository's main
sources together with the benchmark's Scala code (perfbench/build.sbt) into
.bench_build/perfbench and records the classpath; later calls reuse it as
long as no source file changed. Each call then runs one workload in a fresh
JVM. The JVM prints a `#` header, summary lines, and as its last line one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

Exits non-zero, without a result line, when the build or the run fails.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_LIMIT_S = 170

# Spark 4 on Java 17 needs these opens; spark-submit adds the same list.
JAVA_OPENS = [
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


_child = None


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def _kill_child():
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()


def _stop(signum, _frame):
    _kill_child()
    sys.exit(128 + signum)


def run_child(cmd, timeout, **kwargs):
    """Run `cmd` in its own process group and return (exit code, stdout).
    The whole group is killed on timeout or when this script is stopped, so
    no build or benchmark process outlives it."""
    global _child
    _child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              start_new_session=True, **kwargs)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_child()
        raise
    return _child.returncode, out


def source_digest():
    """Digest of every file the build compiles, so an edit forces a rebuild."""
    h = hashlib.sha256()
    inputs = [os.path.join(ROOT, "src", "main"), os.path.join(HERE, "src"),
              os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in inputs:
        walk = os.walk(top) if os.path.isdir(top) else [(os.path.dirname(top), [], [os.path.basename(top)])]
        for dirpath, dirnames, filenames in walk:
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                if not os.path.exists(path):
                    continue
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def build():
    """Compile with sbt unless the recorded classpath matches the sources."""
    stamp = os.path.join(BUILD, "classpath.txt")
    digest = source_digest()
    if os.path.exists(stamp):
        with open(stamp) as f:
            recorded, classpath = f.read().split("\n", 1)
        if recorded == digest:
            return classpath.strip()
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        log("no src/main/scala under the current directory; run from the repository root")
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ, COURSIER_MODE=os.environ.get("COURSIER_MODE", "offline"))
    t0 = time.time()
    try:
        code, output = run_child(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
             "compile", "export Runtime/fullClasspath"],
            timeout=840, cwd=HERE, env=env, stderr=subprocess.STDOUT)
    except subprocess.TimeoutExpired:
        log("build exceeded 840 s; killed")
        sys.exit(1)
    if code != 0:
        sys.stderr.write(output[-4000:])
        log(f"build failed (exit {code})")
        sys.exit(code or 1)
    lines = [l for l in output.splitlines() if l and not l.startswith("[")]
    if not lines:
        sys.stderr.write(output[-4000:])
        log("build printed no classpath")
        sys.exit(1)
    classpath = lines[-1].strip()
    with open(stamp, "w") as f:
        f.write(digest + "\n" + classpath + "\n")
    log(f"built in {time.time() - t0:.0f} s")
    return classpath


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)

    classpath = build()
    out = os.path.join(BUILD, "out")
    tmp = os.path.join(out, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java", "-Xms2g", "-Xmx2g", f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}"]
           + JAVA_OPENS
           + ["-cp", classpath, "perfbench.Main",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", args.trace, "--out", out])
    try:
        code, stdout = run_child(cmd, timeout=RUN_LIMIT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_LIMIT_S} s; killed")
        sys.exit(1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        for name in os.listdir(out):
            if name.startswith("spark-"):
                shutil.rmtree(os.path.join(out, name), ignore_errors=True)
    lines = stdout.rstrip("\n").splitlines()
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write("\n".join(lines[-20:]) + "\n")
        log(f"run failed (exit {code})")
        sys.exit(code or 1)
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
