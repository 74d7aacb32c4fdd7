#!/usr/bin/env python3
"""PPQ benchmark launcher.

Builds the repository's main sources together with the benchmark (sbt, in
this directory), then runs one workload in a fresh JVM and prints the result
as one JSON object on the last line of standard output:

    python3 ppqbench/run.py --workload porto-build --seed 1 --seconds 10 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones.
`--selftest` runs the determinism self-test instead (see NOTE.md).
Run it from the root of a checkout; outputs go to ppqbench/results/.
"""
import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
MAIN_SOURCES = os.path.join(ROOT, "src", "main", "scala")
CLASSES = os.path.join(BENCH, "target", "scala-2.13", "classes")
STAMP = os.path.join(BENCH, "target", "ppqbench.stamp")
RESULTS = os.path.join(BENCH, "results")

SEQUENTIAL = ["porto-build", "porto-query", "geolife-stream"]
WORKLOADS = SEQUENTIAL + ["spark-porto"]

# Noise controls: a fixed heap and one named collector. Full GCs are
# requested by the benchmark between timed windows only.
JVM_FLAGS = ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-Xss8m"]
# The sequential workloads compile in the foreground (-Xbatch): a method is
# compiled at the same point of the run in every JVM. In four same-seed
# porto-build JVMs the median pass took 2.0-2.8 s without it, 2.1-2.2 s with
# it. Spark generates classes on every job and keeps background compilation.
SEQUENTIAL_FLAGS = ["-Xbatch"]

RUN_LIMIT_S = 175


def fail(msg, code=1):
    print(f"ppqbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    files = []
    for base in (MAIN_SOURCES, os.path.join(BENCH, "src")):
        files += glob.glob(os.path.join(base, "**", "*.scala"), recursive=True)
    files += [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    return sorted(files)


def source_digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("SPARK_HOME must name a Spark distribution (its jars/ directory is the classpath)")
    return os.path.join(home, "jars")


def build():
    """Compiles with sbt unless the classes match the current sources."""
    if not os.path.isdir(os.path.join(MAIN_SOURCES, "repro")):
        fail(f"no program sources under {os.path.relpath(MAIN_SOURCES, ROOT)}; run from a full checkout", 2)
    digest = source_digest()
    if os.path.isdir(CLASSES) and os.path.exists(STAMP) and open(STAMP).read().strip() == digest:
        return digest, False
    spark_jars()
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false", "clean", "compile"]
    try:
        r = subprocess.run(cmd, cwd=BENCH, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except FileNotFoundError:
        fail("sbt is not on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail(f"build failed (sbt exit {r.returncode})")
    with open(STAMP, "w") as fh:
        fh.write(digest + "\n")
    return digest, True


def classpath(workload):
    jars = spark_jars()
    if workload == "spark-porto":
        return CLASSES + os.pathsep + os.path.join(jars, "*")
    # Sequential workloads see only the Scala library: no Spark class can load.
    lib = sorted(glob.glob(os.path.join(jars, "scala-library-*.jar")))
    if not lib:
        fail("no scala-library jar in SPARK_HOME/jars")
    return CLASSES + os.pathsep + lib[-1]


def commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return r.stdout.strip() or None if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def run_jvm(workload, seed, seconds, trace, limit_s):
    """Runs one workload in its own JVM; returns the parsed result object."""
    out = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}")
    os.makedirs(out, exist_ok=True)
    flags = JVM_FLAGS + [f"-Djava.io.tmpdir={out}"]
    if workload == "spark-porto":
        flags += [f"-Dlog4j2.configurationFile={os.path.join(BENCH, 'log4j2.properties')}"]
    else:
        flags += SEQUENTIAL_FLAGS
    cmd = (["java"] + flags + ["-cp", classpath(workload), "ppqbench.Main",
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", out])
    log = os.path.join(out, "jvm.log")
    with open(log, "w") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            stdout, _ = proc.communicate(timeout=limit_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"{workload} did not finish within {limit_s:.0f} s (JVM log: {os.path.relpath(log, ROOT)})")
    lines = [l for l in stdout.splitlines() if l.startswith("PPQBENCH_RESULT ")]
    if proc.returncode != 0 or not lines:
        with open(log) as fh:
            sys.stderr.write(fh.read()[-4000:])
        sys.stderr.write(stdout[-4000:])
        fail(f"{workload} JVM exited with {proc.returncode} and no result")
    res = json.loads(lines[-1][len("PPQBENCH_RESULT "):])
    res["flags"] = flags
    return res


def manifest_metrics(trace):
    """The metrics BENCHMARK.json names for this mode, as {name: unit}."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            m = json.load(fh)
    except (OSError, ValueError) as e:
        fail(f"cannot read {os.path.relpath(path, ROOT)}: {e}")
    return {x["name"]: x["unit"] for x in m["per_layer" if trace else "end_to_end"]}


def select_metrics(res, trace):
    """Splits the JVM's metrics into the manifest's (all of them, each in its
    unit) and the rest. A per-layer metric of a layer the workload does not
    run is reported as 0 and listed under `not_exercised`."""
    want = manifest_metrics(trace)
    got = res["metrics"]
    out, missing = {}, []
    for name, unit in want.items():
        if name in got:
            if got[name]["unit"] != unit:
                fail(f"metric {name} has unit {got[name]['unit']}, the manifest says {unit}")
            out[name] = got[name]
        elif trace:
            out[name] = {"value": 0.0, "unit": unit}
            missing.append(name)
        else:
            fail(f"workload {res['workload']} did not report end-to-end metric {name}")
    extra = {k: v for k, v in got.items() if k not in want}
    return out, extra, missing


def one_run(args):
    start = time.monotonic()
    digest, built = build()
    # A run that had to build may take longer; otherwise the whole run,
    # build check included, ends within RUN_LIMIT_S.
    limit = RUN_LIMIT_S if built else RUN_LIMIT_S - (time.monotonic() - start)
    res = run_jvm(args.workload, args.seed, args.seconds, args.trace, limit)
    res["workload"] = args.workload
    metrics, extra, not_exercised = select_metrics(res, args.trace)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": commit(), "source_sha256": digest, "nproc": len(os.sched_getaffinity(0)),
        "jvm": res["jvm"], "inputs": res["inputs"], "samples": res["samples"], "notes": res["notes"],
        "failures": res["failures"], "extra_metrics": extra, "not_exercised": not_exercised,
    }
    full = dict(provenance, correct=res["correct"], attempted=res["attempted"], failed=res["failed"],
                metrics=metrics)
    with open(os.path.join(RESULTS, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"), "w") as fh:
        json.dump(full, fh, indent=1)
    print("provenance " + json.dumps(provenance))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))


# Counts that must repeat exactly for a fixed seed: (trace, metric).
DETERMINISTIC = [
    (0, "summary_bytes_per_point"), (0, "mae_m"),
    (1, "core.codebook.codewords"), (1, "core.codebook.new_word_ratio"),
    (1, "core.frontend.partitions_per_step"), (1, "core.cqc.bits_per_point"),
    (1, "query.candidates_per_strq"), (1, "query.refine_hit_ratio"),
    (1, "index.tpi.periods"), (1, "index.tpi.rebuilds"), (1, "index.tpi.insertions"),
    (1, "index.tpi.bytes_per_point"), (1, "spark.group_skew"),
]


def selftest(args):
    """Same seed twice must give identical counts; a second seed must pass
    every correctness check."""
    build()
    ok = True
    workloads = [args.workload] if args.workload else WORKLOADS
    for w in workloads:
        runs = {(t, r): run_jvm(w, args.seed, args.seconds, t, RUN_LIMIT_S) for t in (0, 1) for r in (0, 1)}
        other = run_jvm(w, args.seed + 1, args.seconds, 0, RUN_LIMIT_S)
        for (t, r), res in list(runs.items()) + [((0, "other-seed"), other)]:
            if not res["correct"]:
                ok = False
                print(f"FAIL {w} trace={t} run={r}: {res['failed']} of {res['attempted']} failed {res['failures']}")
        for t, m in DETERMINISTIC:
            a, b = runs[(t, 0)]["metrics"].get(m), runs[(t, 1)]["metrics"].get(m)
            if a is None and b is None:
                continue
            same = a is not None and b is not None and a["value"] == b["value"]
            ok &= same
            print(f"{'ok  ' if same else 'FAIL'} {w} {m}: {a and a['value']} vs {b and b['value']}")
    print(json.dumps({"selftest": "pass" if ok else "fail"}))
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    os.makedirs(RESULTS, exist_ok=True)
    if args.selftest:
        selftest(args)
    elif not args.workload:
        p.error("--workload is required")
    else:
        one_run(args)


if __name__ == "__main__":
    main()
