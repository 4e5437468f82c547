#!/usr/bin/env python3
"""Build and run the profiling-pipeline benchmark; repeat it; compare results.

Run from the root of a checkout:

  python3 perfbench/run.py --workload speculate --seed 1 --seconds 10 --trace 0
      Builds perfbench/ (a Go module of its own that uses the repository's
      packages through a replace directive) into .bench_build/ and runs it.
      The last line of standard output is the JSON result.

  python3 perfbench/run.py repeat --out DIR [--workloads a,b] [--seeds 1-10]
                                  [--seconds S] [--trace 0|1]
      Runs the benchmark once per workload and seed and saves each run's
      output under DIR (<workload>-seed<N>-trace<T>.json holds the result
      line, .log the whole output).

  python3 perfbench/run.py compare DIR_A [DIR_B]
      Reports each metric's median and quartiles per workload and its
      spread (interquartile range over median) against the metric's bound
      in BENCHMARK.json. Given two sets, also reports whether set B's
      median is worse than set A's by more than the bound; exits 1 if any
      metric with a bound disagrees.

Everything the build writes stays under .bench_build/ in the checkout.
"""

import glob
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "perfbench")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_env(root):
    env = dict(os.environ)
    build = os.path.join(root, BUILD_DIR)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOENV="off",
        # The go command keeps telemetry counters under the user config
        # directory; point it into the build directory.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def build(root):
    if not os.path.isfile(os.path.join(root, "go.mod")):
        fail("no go.mod at %s: run from the root of a checkout of the repository" % root)
    if not os.path.isfile(os.path.join(root, "perfbench", "go.mod")):
        fail("perfbench/go.mod missing")
    go = shutil.which("go")
    if go is None and os.environ.get("GOROOT"):
        go = os.path.join(os.environ["GOROOT"], "bin", "go")
    if go is None or not os.path.exists(go):
        fail("no go toolchain on PATH")
    os.makedirs(os.path.join(root, BUILD_DIR), exist_ok=True)
    out = os.path.abspath(os.path.join(root, BINARY))
    res = subprocess.run(
        [go, "build", "-buildvcs=false", "-o", out, "."],
        cwd=os.path.join(root, "perfbench"),
        env=build_env(root),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        fail("build failed", 1)
    return out


def run_one(argv):
    root = os.getcwd()
    binary = build(root)
    sys.stdout.flush()
    # The benchmark replaces this process, so nothing is left running.
    os.execv(binary, [binary] + argv)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def flag(argv, name, default):
    if name in argv:
        i = argv.index(name)
        return argv[i + 1]
    return default


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def repeat(argv):
    spec = load_benchmark()
    out = flag(argv, "--out", None)
    if out is None:
        fail("repeat needs --out DIR")
    names = [w["name"] for w in spec["workloads"]]
    workloads = flag(argv, "--workloads", ",".join(names)).split(",")
    seeds = parse_seeds(flag(argv, "--seeds", "1-10"))
    seconds = flag(argv, "--seconds", str(spec["run_seconds"]))
    trace = flag(argv, "--trace", "0")
    os.makedirs(out, exist_ok=True)
    for seed in seeds:
        for w in workloads:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed), "--seconds", seconds, "--trace", trace]
            res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            base = os.path.join(out, "%s-seed%d-trace%s" % (w, seed, trace))
            with open(base + ".log", "w") as f:
                f.write(res.stdout)
            lines = res.stdout.strip().splitlines()
            last = lines[-1] if lines else ""
            status = "exit %d" % res.returncode
            if res.returncode == 0 and last.startswith("{"):
                with open(base + ".json", "w") as f:
                    f.write(last + "\n")
                status = "ok"
            print("%-10s seed %-3d %s" % (w, seed, status), flush=True)


def load_set(d):
    """Returns {workload: {trace: [result, ...]}} for the result files in d."""
    out = {}
    for path in sorted(glob.glob(os.path.join(d, "*.json"))):
        m = re.match(r"(.+)-seed\d+-trace(\d)\.json$", os.path.basename(path))
        if not m:
            continue
        with open(path) as f:
            res = json.load(f)
        out.setdefault(m.group(1), {}).setdefault(m.group(2), []).append(res)
    return out


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("nan")
    return med, q1, q3, spread


def compare(argv):
    if not argv:
        fail("compare needs one or two result directories")
    spec = load_benchmark()
    defs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [load_set(d) for d in argv[:2]]
    ok = True
    workloads = [w["name"] for w in spec["workloads"]]
    for w in workloads:
        for trace in ("0", "1"):
            runs = [s.get(w, {}).get(trace, []) for s in sets]
            if not any(runs):
                continue
            names = sorted({n for rs in runs for r in rs for n in r["metrics"]}, key=list(defs).index)
            print("\n%s (trace %s): %s runs" % (w, trace, " vs ".join(str(len(r)) for r in runs)))
            for name in names:
                d = defs[name]
                bound = d.get("bound")
                cols = []
                meds = []
                for rs in runs:
                    vals = [r["metrics"][name]["value"] for r in rs if name in r["metrics"]]
                    if not vals:
                        cols.append("%44s" % "-")
                        meds.append(None)
                        continue
                    med, q1, q3, spread = stats(vals)
                    meds.append(med)
                    cols.append("%12.6g [%11.6g %11.6g] %5.1f%%" % (med, q1, q3, 100 * spread))
                    if bound is not None and name != "setup_s" and spread > bound:
                        ok = False
                verdict = ""
                if bound is not None:
                    verdict = "bound %4.0f%%" % (100 * bound)
                    if len(meds) == 2 and None not in meds and meds[0]:
                        worse = (meds[1] - meds[0]) / abs(meds[0])
                        if d["better"] == "higher":
                            worse = -worse
                        agree = worse <= bound
                        ok = ok and agree
                        verdict += "  B worse by %+6.2f%% %s" % (100 * worse, "agree" if agree else "DISAGREE")
                print("  %-24s %-7s %s  %s" % (name, d["unit"], "  |  ".join(cols), verdict))
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "repeat":
        repeat(argv[1:])
    elif argv and argv[0] == "compare":
        sys.exit(compare(argv[1:]))
    else:
        run_one(argv)


if __name__ == "__main__":
    main()
