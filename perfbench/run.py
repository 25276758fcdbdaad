#!/usr/bin/env python3
"""CEAFF pipeline benchmark: builds the program from source, runs one
workload for a fixed time and prints one JSON result line.

    python3 perfbench/run.py --workload ceaff-zhen-s1 --seed 3 --seconds 30 --trace 0

Run from the repository root. `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer ones (names and units come from BENCHMARK.json).
`--scale X` overrides the workload's benchmark scale (the smoke test uses
it). Build output, reports and Spark scratch space go under .bench_build/.
See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER_MEMORY = "4g"
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170  # the result must be out within 180 s of the start

# JDK module opens that spark-submit injects; Spark needs them under JDK 17.
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    """The Spark distribution's jars; they include the Scala 2.13 compiler."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        home = str(Path(submit).resolve().parent.parent) if submit else None
    jars = Path(home) / "jars" if home else None
    if not jars or not any(jars.glob("scala-compiler-*.jar")):
        fail("no Spark distribution found (set SPARK_HOME)")
    return jars


def sources():
    main = ROOT / "src" / "main" / "scala"
    if not main.is_dir():
        fail(f"program sources not found under {main.relative_to(ROOT)}")
    return sorted(main.rglob("*.scala")) + sorted((HERE / "src").rglob("*.scala"))


def build(jars):
    """Compiles the program and the benchmark into one class directory,
    unless the sources are unchanged since the last build. Returns the
    directory and the sources' digest."""
    srcs = sources()
    h = hashlib.sha256()
    for p in srcs:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    digest = h.hexdigest()[:16]
    classes = BUILD / "classes"
    stamp = BUILD / "classes.digest"
    if classes.is_dir() and stamp.is_file() and stamp.read_text() == digest:
        return classes, digest
    tmp = BUILD / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    print(f"perfbench: compiling {len(srcs)} sources", file=sys.stderr)
    cmd = ["java", "-XX:-UsePerfData", "-Xss8m", "-Xmx2g", "-cp", f"{jars}/*", "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", str(tmp)] + [str(p) for p in srcs]
    if subprocess.run(cmd, cwd=ROOT, timeout=BUILD_TIMEOUT_S).returncode != 0:
        fail("compilation failed")
    shutil.rmtree(classes, ignore_errors=True)
    tmp.rename(classes)
    stamp.write_text(digest)
    return classes, digest


def steal_seconds():
    """CPU time the hypervisor gave to others while this machine wanted it,
    summed over CPUs; None where /proc/stat is unavailable. A run with
    much steal ran on a contended machine."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def reference_failures(ref_entries, report):
    """Ops whose first-pass outputs disagree with a committed reference for
    this seed and scale, or None when no reference covers the run."""
    for entry in ref_entries:
        if entry["seed"] == report["seed"] and entry["scale"] == report["scale"]:
            want, got = entry["outputs"], report["outputs"]
            bad = set()
            for key in set(want) | set(got):
                tol = 1e-9 if ".weight_" in key or key.endswith(".mrr") else 0.0
                if key not in want or key not in got or not abs(want[key] - got[key]) <= tol:
                    bad.add(key.rsplit(".", 1)[0])
            return bad
    return None


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, help="default: Experiments.seedFor(scenario)")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", type=float)
    args = ap.parse_args()

    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_file.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    jars = spark_jars()
    built_at = time.monotonic()
    classes, digest = build(jars)
    budget = RUN_TIMEOUT_S - (time.monotonic() - start)
    if time.monotonic() - built_at > 1:  # this invocation compiled
        budget = max(budget, RUN_TIMEOUT_S)

    cores = len(os.sched_getaffinity(0))
    reports = BUILD / "reports"
    scratch = BUILD / "spark-local"
    reports.mkdir(parents=True, exist_ok=True)
    scratch.mkdir(parents=True, exist_ok=True)
    seed = "default" if args.seed is None else args.seed
    report_file = reports / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    report_file.unlink(missing_ok=True)
    cmd = (["java", "-XX:-UsePerfData", f"-Xmx{DRIVER_MEMORY}", "-Xss8m"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in ADD_OPENS]
           + [f"-Djava.io.tmpdir={scratch}", f"-Dspark.local.dir={scratch}",
              f"-Dspark.sql.warehouse.dir={BUILD / 'warehouse'}",
              "-Dspark.driver.host=127.0.0.1",
              f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}",
              "-cp", f"{classes}{os.pathsep}{jars}/*", "repro.perfbench.Main",
              "--workload", args.workload,
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--cores", str(cores), "--report", str(report_file)]
           + (["--seed", str(args.seed)] if args.seed is not None else [])
           + (["--scale", str(args.scale)] if args.scale is not None else []))
    steal0 = steal_seconds()
    try:
        code = subprocess.run(cmd, cwd=ROOT, timeout=budget,
                              env=dict(os.environ, SPARK_LOCAL_DIRS=str(scratch))).returncode
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {budget:.0f} s")
    if code != 0 or not report_file.is_file():
        fail(f"benchmark JVM exited with code {code}")
    report = json.loads(report_file.read_text())

    attempted, failed = report["attempted"], report["failed"]
    failures = list(report["failures"])
    refs = json.loads((HERE / "reference.json").read_text()).get(args.workload, [])
    bad = reference_failures(refs, report)
    if bad:  # every pass reproduced the first pass's outputs, so each repeats the miss
        failures += [f"'{op}' disagrees with reference.json" for op in sorted(bad)]
        failed = min(attempted, failed + len(bad) * len(report["passes"]))
    for f in failures:
        print(f"perfbench: FAILED {f}", file=sys.stderr)

    missing = [m["name"] for m in wanted if m["name"] not in report["metrics"]]
    if missing:
        fail(f"report lacks metrics {missing}")
    steal = steal_seconds()
    settings = dict(report["settings"], driver_memory=DRIVER_MEMORY, sources=digest,
                    cpu_steal_s=None if steal is None else round(steal - steal0, 2),
                    seed=report["seed"], scale=report["scale"],
                    reference="matched" if bad == set() else
                    ("none for this seed" if bad is None else "MISMATCH"))
    print("# settings " + json.dumps(settings, sort_keys=True))
    print("# sizes " + json.dumps(report["sizes"], sort_keys=True))
    print("# outputs " + json.dumps(report["outputs"], sort_keys=True))
    print(f"# report {report_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": report["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
