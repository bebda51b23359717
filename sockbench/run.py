#!/usr/bin/env python3
"""Build and run the socket-level mbTLS benchmark (see README.md).

    python3 sockbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark and the repository's libraries from source into .bench_build/.
The last line of stdout is the JSON result. With --trace 1 the workload runs
twice with the same seed, untraced and then traced: the traced pass gives the
per-layer metrics and its spans file, and the pair gives the tracing overhead.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(os.getcwd(), ".bench_build")
BINARY = os.path.join(BUILD, "sockbench")
DEADLINE_S = 170  # every pass of one invocation ends within this

# End-to-end metrics whose traced/untraced ratio is reported as overhead.
OVERHEAD_OF = ["handshake_p50_ms", "client_cpu_ms_per_handshake",
               "mbox_cpu_us_per_echo", "relay_goodput_gbps"]


def build():
    """Configure (a no-op when cached) and build; build logs go to stderr."""
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "sockbench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def commit():
    """The git commit when there is one, else a digest of the sources built."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def run_pass(args, traced, stamp_commit, deadline):
    """Run the binary once; echo its report lines and return (result, lines)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if traced else "0",
           "--commit", stamp_commit]
    if traced:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.csv")]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    prefix = "traced: " if traced else ("untraced: " if args.trace else "")
    for line in lines[:-1]:
        print(prefix + line)
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"sockbench exited with code {proc.returncode}")
    return json.loads(lines[-1]), lines


def tagged(lines, tag):
    """The JSON object on the report line that starts with `tag`."""
    return next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith(tag + " "))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        raise SystemExit(f"sockbench: build failed: {e}")
    stamp_commit = commit()
    deadline = time.monotonic() + DEADLINE_S

    try:
        if not args.trace:
            result, _ = run_pass(args, False, stamp_commit, deadline)
        else:
            plain, plain_lines = run_pass(args, False, stamp_commit, deadline)
            result, lines = run_pass(args, True, stamp_commit, deadline)
            untraced = dict(plain["metrics"], **tagged(plain_lines, "latency"))
            for name, metric in tagged(plain_lines, "latency").items():
                result["metrics"][f"latency.{name}"] = metric
            traced_e2e = tagged(lines, "traced_e2e")
            for name in OVERHEAD_OF:
                result["metrics"][f"trace.overhead.{name}"] = {
                    "value": traced_e2e[name]["value"] / untraced[name]["value"] - 1,
                    "unit": "fraction"}
            result["correct"] = result["correct"] and plain["correct"]
            result["attempted"] += plain["attempted"]
            result["failed"] += plain["failed"]
    except subprocess.TimeoutExpired:
        raise SystemExit(f"sockbench: run exceeded {DEADLINE_S} s")
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
