#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the `perfbench` package in this
directory (release profile, offline) into `$CARGO_TARGET_DIR`, or into
`perfbench/target` when that is unset, then runs the binary with every
`RSCHED_*` variable removed from its environment, so each knob keeps its
default. What was removed is printed on the `# env:` line together with the
git commit and `nproc`.

The binary's output is passed through. Its last line is the JSON result,
checked here against BENCHMARK.json: exactly the keys `correct`,
`attempted`, `failed` and `metrics`, and exactly the registered metrics of
the mode. Exit codes: 0 when the run was correct, 1 when an output was
wrong, 2 on a usage error, 3 when the build failed, 4 when the result line
is malformed, 5 on a timeout.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_group(cmd, env, timeout, **kwargs):
    """Run `cmd` in its own process group; on timeout kill the whole group
    and wait for it, so no process outlives the benchmark."""
    proc = subprocess.Popen(cmd, env=env, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def git_commit():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def registered(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Return a reason the result line breaks the contract, or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "the last line is not JSON"
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return "the result must have exactly the keys " + ", ".join(sorted(RESULT_KEYS))
    attempted, failed = result["attempted"], result["failed"]
    if not (isinstance(attempted, int) and isinstance(failed, int) and attempted >= 1):
        return "attempted and failed must be whole numbers, attempted at least 1"
    want = registered(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        return "metrics differ from BENCHMARK.json: %s" % sorted(set(got.items()) ^ set(want.items()))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    env = dict(os.environ)
    knobs = {k: env.pop(k) for k in sorted(env) if k.startswith("RSCHED_")}
    print("# env: " + json.dumps({
        "rsched_vars_removed": knobs,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
    }), flush=True)

    target = env.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        code, _ = run_group(build, env, BUILD_TIMEOUT_S, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 5
    except OSError as e:
        print("perfbench: cannot run cargo: %s" % e, file=sys.stderr)
        return 3
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    exe = os.path.join(target, "release", "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        code, out = run_group(cmd, env, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 5
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    if code == 2:
        return 2
    problem = check_result(lines[-1], args.trace == "1")
    if problem:
        print(lines[-1])
        print("# INVALID RESULT: " + problem)
        return 4
    print(lines[-1], flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
