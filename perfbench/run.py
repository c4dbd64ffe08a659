#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark, or compares two sets of runs.

Run one workload (from the root of the repository):

    python3 perfbench/run.py --workload compile --seed 1 --seconds 10 --trace 0

`--trace 0` prints the end-to-end metrics. `--trace 1` first makes the
same untraced run, then the traced run, and prints the per-layer metrics
together with the traced and untraced end-to-end figures and the
tracing overhead. The last line of standard output is the result JSON.
`--save DIR` also writes the result (and the workload's detail line) to
`DIR/<workload>-s<seed>-t<trace>.json`.

Compare two sets of saved runs, one row per workload and metric:

    python3 perfbench/run.py compare OLD_DIR NEW_DIR
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
E2E = ["setup_s", "peak_rss_mib", "ok_ratio", "rate_per_cpu_s", "op_cpu_p50_ms", "op_cpu_p90_ms"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds both binaries; returns the directory that holds them."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Cargo's progress goes to standard error so the result stays last on
    # standard output.
    done = subprocess.run(cmd, stdout=sys.stderr, env=env)
    if done.returncode != 0:
        fail(f"build failed ({done.returncode})")
    return os.path.join(target, "release")


def run_binary(bindir, traced, args):
    exe = os.path.join(bindir, "perfbench-traced" if traced else "perfbench")
    try:
        done = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(exe)} did not finish in {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{os.path.basename(exe)} exited with {done.returncode}")
    result = json.loads(lines[-1])
    detail = {}
    for line in lines[:-1]:
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
    return result, detail


def metric(value, unit):
    return {"value": value, "unit": unit}


def with_overhead(untraced, traced):
    """Merges an untraced and a traced run of the same workload and seed."""
    out = dict(traced["metrics"])
    u = untraced["metrics"]
    for name in E2E:
        out[f"untraced.{name}"] = u[name]
    rate_u, rate_t = u["rate_per_cpu_s"]["value"], out["traced.rate_per_cpu_s"]["value"]
    p50_u, p50_t = u["op_cpu_p50_ms"]["value"], out["traced.op_cpu_p50_ms"]["value"]
    # Share of throughput lost to tracing, and latency added by it.
    out["trace.overhead_rate_ratio"] = metric(1.0 - rate_t / rate_u if rate_u else 0.0, "ratio")
    out["trace.overhead_op_p50_ratio"] = metric(p50_t / p50_u - 1.0 if p50_u else 0.0, "ratio")
    return {
        "correct": untraced["correct"] and traced["correct"],
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "metrics": out,
    }


def parse_run_args(argv):
    opts = {"--workload": None, "--seed": "1", "--seconds": "10", "--trace": "0", "--save": None}
    it = iter(argv)
    for a in it:
        if a not in opts:
            fail(f"unknown option {a}")
        v = next(it, None)
        if v is None:
            fail(f"{a} needs a value")
        opts[a] = v
    if opts["--trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1")
    if opts["--workload"] is None:
        fail("--workload is required")
    return opts


def run(argv):
    opts = parse_run_args(argv)
    bindir = build()
    out_dir = os.path.join(HERE, "runs")
    args = ["--workload", opts["--workload"], "--seed", opts["--seed"],
            "--seconds", opts["--seconds"], "--out", out_dir]
    untraced, detail = run_binary(bindir, False, args + ["--trace", "0"])
    result = untraced
    if opts["--trace"] == "1":
        traced, _ = run_binary(bindir, True, args + ["--trace", "1"])
        result = with_overhead(untraced, traced)
    print("detail " + json.dumps(detail))
    if opts["--save"]:
        os.makedirs(opts["--save"], exist_ok=True)
        name = f"{opts['--workload']}-s{opts['--seed']}-t{opts['--trace']}.json"
        with open(os.path.join(opts["--save"], name), "w") as f:
            json.dump({"workload": opts["--workload"], "seed": int(opts["--seed"]),
                       "trace": int(opts["--trace"]), "result": result, "detail": detail}, f)
    print(json.dumps(result))
    return 0


def load_runs(d):
    runs = {}
    for name in sorted(os.listdir(d)):
        if name.endswith(".json"):
            with open(os.path.join(d, name)) as f:
                r = json.load(f)
            runs.setdefault((r["workload"], r["trace"]), []).append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(old, new, better, bound, pairs):
    """improved / unchanged / worse / unresolved, by the rules in README.md."""
    q1a, meda, q3a = quartiles(old)
    q1b, medb, q3b = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (medb - meda) / meda if meda else 0.0
    spread_a = (q3a - q1a) / meda if meda else 0.0
    spread_b = (q3b - q1b) / medb if medb else 0.0
    all_better = all(sign * (b - a) < 0 for a in old for b in new)
    all_worse = all(sign * (b - a) > 0 for a in old for b in new)
    if max(spread_a, spread_b) > bound:
        return "improved" if all_better else "worse" if all_worse else "unresolved"
    if worse_by > bound:
        return "worse"
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    if -worse_by > spread_a and pairs and wins >= 0.9 * len(pairs):
        return "improved"
    return "unchanged"


def compare(old_dir, new_dir):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    old, new = load_runs(old_dir), load_runs(new_dir)
    print(f"{'workload':<9} {'metric':<34} {'old median [q1, q3]':<34} "
          f"{'new median [q1, q3]':<34} {'delta':>8}  verdict")
    for (workload, trace) in sorted(set(old) & set(new)):
        a_runs, b_runs = old[(workload, trace)], new[(workload, trace)]
        by_seed_a = {r["seed"]: r["result"]["metrics"] for r in a_runs}
        by_seed_b = {r["seed"]: r["result"]["metrics"] for r in b_runs}
        names = sorted(set(a_runs[0]["result"]["metrics"]) & set(b_runs[0]["result"]["metrics"]))
        if trace == 0:
            names = [n for n in E2E if n in names]
        for name in names:
            a = [r["result"]["metrics"][name]["value"] for r in a_runs]
            b = [r["result"]["metrics"][name]["value"] for r in b_runs]
            pairs = [(by_seed_a[s][name]["value"], by_seed_b[s][name]["value"])
                     for s in sorted(set(by_seed_a) & set(by_seed_b))]
            q1a, meda, q3a = quartiles(a)
            q1b, medb, q3b = quartiles(b)
            delta = (medb - meda) / meda * 100 if meda else 0.0
            if trace == 0 and name in e2e:
                v = verdict(a, b, e2e[name]["better"], e2e[name]["bound"], pairs)
            else:
                # Per-layer rows carry no verdict; a count either repeats
                # exactly seed by seed or it does not.
                same = all(x == y for x, y in pairs)
                v = "layer, exact" if same and pairs else "layer"
            print(f"{workload:<9} {name:<34} {meda:>11.4g} [{q1a:.4g}, {q3a:.4g}]".ljust(80)
                  + f"{medb:>11.4g} [{q1b:.4g}, {q3b:.4g}]".ljust(34)
                  + f" {delta:>+7.1f}%  {v}")
    return 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            fail("usage: run.py compare OLD_DIR NEW_DIR")
        return compare(argv[1], argv[2])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
