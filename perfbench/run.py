#!/usr/bin/env python3
"""MODis skyline-search benchmark: build from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload house-search --seed 202 --seconds 20 --trace 0

The first run compiles the program and the benchmark with sbt (offline) and
caches the runtime classpath under perfbench/.work; later runs reuse it while
no source or build file has changed. The JVM's last stdout line is the JSON
result. The exit code is non-zero when the build fails, an output check
fails, or the run exceeds its time limit.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 850


def build_inputs():
    """Every file whose change must trigger a rebuild."""
    files = [ROOT / "build.sbt", ROOT / "project" / "build.properties",
             BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for d in (ROOT / "src" / "main", ROOT / "jobs", BENCH / "src"):
        files += sorted(d.rglob("*"))
    return [p for p in files if p.is_file()]


def classpath():
    missing = [p for p in (ROOT / "build.sbt", ROOT / "src" / "main") if not p.exists()]
    if missing:
        sys.exit(f"perfbench: program sources not found: {', '.join(map(str, missing))}")
    digest = hashlib.sha256()
    for p in build_inputs():
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    stamp, cp_file = WORK / "build.sha256", WORK / "classpath.txt"
    if stamp.exists() and cp_file.exists() and stamp.read_text() == digest.hexdigest():
        return cp_file.read_text()

    env = dict(os.environ, COURSIER_MODE="offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = Path.home() / ".sbt" / "repositories"
        if repos.exists():
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    out = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "export perfbench/Runtime/fullClasspath"],
        cwd=BENCH, env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=BUILD_LIMIT_S)
    sys.stderr.write(out.stdout)
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if out.returncode != 0 or not lines or "perfbench" not in lines[-1]:
        sys.exit(f"perfbench: build failed (sbt exit {out.returncode})")
    WORK.mkdir(parents=True, exist_ok=True)
    cp_file.write_text(lines[-1].strip())
    stamp.write_text(digest.hexdigest())
    return lines[-1].strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    cp = classpath()
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = ["java", "-Xmx3g", f"-Djava.io.tmpdir={tmp}",
           f"-Dperfbench.work={WORK}", "-cp", cp, "perfbench.Main",
           "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: run exceeded {RUN_LIMIT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
