#!/usr/bin/env python3
"""Benchmark of the Typer and Tectorwise engines, the counter model and the
result oracle.

Run from the repository root:

    python3 perfbench/run.py --heap 3g --workload tpch-exec --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --smoke

A run builds the engines and the benchmark's own code from source with sbt (once
per source state), starts one JVM with an explicit heap, and runs one
workload in it. The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
of BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
Every metric is also printed by name with its unit above that line. The full
result (run conditions, every sample with n/p10/p50/p90, failures) and, for
traced runs, the spans go to `.bench_build/perfbench/`.

`--smoke` runs every workload once at a tiny scale factor, traced and
untraced, and checks that the printed metric names match BENCHMARK.json and
perfbench/layers.json.

Exit codes: 0 all results correct; 1 a result was wrong or a query failed;
2 the run could not be made (missing sources, build or JVM failure);
3 the metrics printed do not match BENCHMARK.json.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
JVM_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800

# Spark needs these JDK internals opened (the list spark-submit passes).
ADD_OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
]


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def sources():
    files = sorted(glob.glob(os.path.join(ROOT, "src", "main", "scala", "**", "*.scala"), recursive=True))
    files += sorted(glob.glob(os.path.join(BENCH, "src", "**", "*.scala"), recursive=True))
    files += [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    return files


def digest(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail(2, "Spark jars not found: set SPARK_HOME")
    return home


def run_killable(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the whole group on timeout."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        return None
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise


def build():
    """Compile with sbt unless the sources are unchanged; returns the classpath."""
    files = sources()
    missing = [f for f in files if not os.path.isfile(f)]
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")) or missing:
        fail(2, "engine sources not found: run from a full checkout of the repository")
    stamp = digest(files)
    stamp_file = os.path.join(OUT, "build.stamp")
    cp_file = os.path.join(OUT, "classpath.txt")
    if os.path.isfile(stamp_file) and os.path.isfile(cp_file):
        with open(stamp_file) as fh, open(cp_file) as cf:
            cp = cf.read().strip()
            if fh.read().strip() == stamp and all(os.path.exists(p) for p in cp.split(os.pathsep)):
                return cp, stamp
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ, SPARK_HOME=spark_home())
    opts = env.get("SBT_OPTS", "")
    if "sbt.override.build.repos" not in opts and os.path.isfile(os.path.expanduser("~/.sbt/repositories")):
        opts += " -Dsbt.override.build.repos=true"
    env["SBT_OPTS"] = opts.strip()
    log = os.path.join(OUT, "build.log")
    print("perfbench: building with sbt ...", file=sys.stderr)
    with open(log, "w") as fh:
        rc = run_killable(["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
                           "compile", "export Runtime/fullClasspath"],
                          BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdout=fh, stderr=subprocess.STDOUT)
    with open(log) as fh:
        lines = fh.read().splitlines()
    if rc != 0 or not lines:
        sys.stderr.write("\n".join(lines[-30:]) + "\n")
        fail(2, f"build failed (exit {rc}); see {log}")
    cp = lines[-1].strip()
    with open(cp_file, "w") as fh:
        fh.write(cp)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return cp, stamp


def commit_id(stamp):
    rev = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.SubprocessError):
            pass
    return f"git:{rev} src:{stamp[:16]}"


def run_jvm(cp, commit, heap, workload, seed, seconds, trace, tiny):
    tag = f"{workload}-seed{seed}-trace{trace}{'-tiny' if tiny else ''}"
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(os.path.join(OUT, "logs"), exist_ok=True)
    result = os.path.join(OUT, "results", tag + ".json")
    spans = os.path.join(OUT, "spans", tag + ".jsonl")
    if os.path.exists(result):
        os.remove(result)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, f"-Xms{heap}", f"-Xmx{heap}", "-XX:+UseParallelGC",
           f"-Djava.io.tmpdir={tmp}", f"-Dspark.local.dir={tmp}"]
    cmd += [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in ADD_OPENS]
    cmd += ["-cp", cp, "perfbench.Main", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--out", result, "--spans", spans,
            "--commit", commit, "--tiny", "1" if tiny else "0"]
    log = os.path.join(OUT, "logs", tag + ".log")
    with open(log, "w") as fh:
        rc = run_killable(cmd, JVM_TIMEOUT_S, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
    if rc not in (0, 1) or not os.path.isfile(result):
        with open(log) as fh:
            sys.stderr.write("".join(fh.readlines()[-40:]))
        fail(2, f"{workload} run failed (exit {rc}); see {log}")
    with open(result) as fh:
        return json.load(fh)


def select(spec, result, trace):
    """The metrics BENCHMARK.json asks for, checked against what the run printed."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    out, problems = {}, []
    for m in wanted:
        name = m["name"]
        if name not in got:
            problems.append(f"missing metric {name}")
        elif got[name]["unit"] != m["unit"]:
            problems.append(f"{name}: unit {got[name]['unit']} != {m['unit']}")
        else:
            out[name] = {"value": got[name]["value"], "unit": m["unit"]}
    return out, problems


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail(2, "BENCHMARK.json not found at the repository root")
    with open(path) as fh:
        return json.load(fh)


def smoke(spec, cp, commit, heap):
    with open(os.path.join(BENCH, "layers.json")) as fh:
        layers = json.load(fh)
    problems = []
    if sorted(layers) != sorted(m["name"] for m in spec["per_layer"]):
        problems.append("perfbench/layers.json and BENCHMARK.json list different per-layer metrics")
    for w in spec["workloads"]:
        for trace in (0, 1):
            t0 = time.time()
            result = run_jvm(cp, commit, heap, w["name"], 1, 1, trace, tiny=True)
            _, p = select(spec, result, trace)
            if result["failed"]:
                p.append(f"{result['failed']} failed checks: {result['failures'][:5]}")
            problems += [f"{w['name']} trace={trace}: {x}" for x in p]
            print(f"smoke {w['name']} trace={trace}: {'ok' if not p else 'FAILED'} "
                  f"({time.time() - t0:.0f} s, {len(result['metrics'])} metrics)")
    for p in problems:
        print(p)
    sys.exit(3 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--heap", default="3g", help="JVM heap (-Xms and -Xmx)")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    cp, stamp = build()
    commit = commit_id(stamp)
    if args.smoke:
        smoke(spec, cp, commit, args.heap)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(2, f"--workload must be one of {names}")

    result = run_jvm(cp, commit, args.heap, args.workload, args.seed, args.seconds, args.trace, tiny=False)
    metrics, problems = select(spec, result, args.trace)
    for k, v in result["conditions"].items():
        print(f"# {k}: {v}")
    for name, s in result["series"].items():
        print(f"# samples {name}: n={s['n']} p10={s['p10']:.6g} p50={s['p50']:.6g} p90={s['p90']:.6g}")
    if result["unstable_cells"]:
        print(f"# Prof cells whose counters differ between passes: {' '.join(result['unstable_cells'])}")
    for name, v in metrics.items():
        print(f"{name} = {v['value']:.6g} {v['unit']}")
    if result["failed"]:
        print(f"# failed checks: {result['failures']}")
    if problems:
        fail(3, "; ".join(problems))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if result["failed"] == 0 else 1)


if __name__ == "__main__":
    main()
