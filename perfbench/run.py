#!/usr/bin/env python3
"""Repository benchmark: build the simulator from source and run one
workload, or report every end-to-end metric of every workload.

  python3 perfbench/run.py --workload chase-mcf --seed 3 --seconds 30 --trace 0
  python3 perfbench/run.py --report --seconds 3  # all workloads + check
  python3 perfbench/run.py --record            # re-record reference digests

--trace 0 runs the end-to-end batch (perfbench_run); --trace 1 runs the
traced per-layer replay (perfbench_trace). The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See
perfbench/README.md for what is measured and why.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ["resident-hmmer", "chase-mcf", "writemix-mix2"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    """Configure once, then bring `target` up to date; path of the binary."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(bdir, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "--target", target,
                      "-j", "2"])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
            if proc.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(bdir, target)


def load_reference():
    if not os.path.exists(REFERENCE):
        return {"default_seed": 1, "heldout_seed": 20171, "digests": {}}
    with open(REFERENCE) as f:
        return json.load(f)


def check_args(ref, workload, seed):
    """--check-seed/--expect for a run at `seed` (the batch seed when it
    has recorded digests, else the default seed)."""
    recorded = ref["digests"].get(workload, {})
    check_seed = str(seed) if str(seed) in recorded else str(
        ref["default_seed"])
    expect = recorded.get(check_seed)
    if not expect:
        return []
    pairs = ",".join(f"{k}={v}" for k, v in sorted(expect.items()))
    return ["--check-seed", check_seed, "--expect", pairs]


def run_child(cmd, echo=True):
    """Run a benchmark binary; its stdout lines, or exit on failure."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out: " + " ".join(cmd))
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        sys.exit(f"perfbench: {os.path.basename(cmd[0])} exited with "
                 f"{proc.returncode}")
    return lines


def parse_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    return result


def run_workload(workload, seed, seconds, trace):
    if trace:
        binary = build("perfbench_trace")
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        extra = ["--spans-dir", spans]
    else:
        binary = build("perfbench_run")
        extra = check_args(load_reference(), workload, seed)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)] + extra
    lines = run_child(cmd)
    parse_result(lines[-1])
    print(lines[-1])


def digests_of(lines):
    """{scheme: digest} of pair 0 from perfbench_run's run lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) > 4 and parts[:2] == ["#", "run"] and \
                parts[3:5] == ["pair", "0"]:
            out[parts[2]] = parts[parts.index("digest") + 1]
    return out


def record():
    binary = build("perfbench_run")
    ref = load_reference()
    ref["digests"] = {}
    for workload in WORKLOADS:
        ref["digests"][workload] = {}
        for seed in (ref["default_seed"], ref["heldout_seed"]):
            lines = run_child([binary, "--workload", workload, "--seed",
                               str(seed), "--seconds", "0.1"], echo=False)
            ref["digests"][workload][str(seed)] = digests_of(lines)
            print(f"recorded {workload} seed {seed}: "
                  f"{ref['digests'][workload][str(seed)]}")
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=2, sort_keys=True)
        f.write("\n")


PAPER = {"rrm_ipc_gain": "paper geomean 1.62",
         "rrm_lifetime_ratio": "paper 0.60"}


def report(seconds):
    """Every end-to-end metric of every workload, with the output check
    at the default seed and at the held-out seed."""
    binary = build("perfbench_run")
    ref = load_reference()
    attempted = failed = 0
    for workload in WORKLOADS:
        for seed in (ref["default_seed"], ref["heldout_seed"]):
            cmd = [binary, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds)]
            result = parse_result(run_child(
                cmd + check_args(ref, workload, seed), echo=False)[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            print(f"{workload}  seed {seed}  correct {result['correct']}  "
                  f"failed {result['failed']} of {result['attempted']}")
            for name, m in result["metrics"].items():
                note = PAPER.get(name, "")
                print(f"    {name:22s} {m['value']:14.6g} {m['unit']:9s} "
                      f"{note}")
    print(f"failed_frac {failed / attempted:.4f} of {attempted} runs "
          "attempted (digests checked against perfbench/reference.json)")
    return 0 if failed == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true")
    p.add_argument("--record", action="store_true")
    args = p.parse_args()
    if args.record:
        record()
        return 0
    if args.report:
        return report(args.seconds)
    if not args.workload:
        p.error("--workload is required")
    run_workload(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
