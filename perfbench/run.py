#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload q1-steady --seed 1 --seconds 15 \
        --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build); spans and the checkpoint WAL go to .bench_out. The last line
of stdout is the result object; the lines before it print every metric with
its unit and base. Build output goes to stderr.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 2)],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def arg(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv[:-1] else default


def e2e_lines(text):
    """Maps metric name -> value for the 'e2e' lines of a run's output."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "e2e":
            out[parts[1]] = float(parts[2])
    return out


def main(argv):
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    out_dir = os.path.join(ROOT, ".bench_out")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(out_dir, exist_ok=True)
    try:
        proc = subprocess.run([binary] + argv + ["--out-dir", out_dir],
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 and (not lines or not lines[-1].startswith("{")):
        sys.stdout.write(proc.stdout)
        return proc.returncode
    body, result = lines[:-1], lines[-1]
    print("\n".join(body))

    # Tracing overhead: this traced run's end-to-end lines against the
    # untraced run of the same workload and seed, when one ran here before.
    key = f"{arg(argv, '--workload', '')}-{arg(argv, '--seed', '')}"
    cache = os.path.join(out_dir, f"e2e-{key}.json")
    mine = e2e_lines(proc.stdout)
    if arg(argv, "--trace", "0") == "0":
        with open(cache, "w") as f:
            json.dump(mine, f)
    elif os.path.exists(cache):
        with open(cache) as f:
            untraced = json.load(f)
        print(f"# tracing overhead (traced - untraced run of {key}):")
        for name, value in mine.items():
            base = untraced.get(name)
            if base:
                print(f"#   {name:<20} {base:14.4f} -> {value:14.4f} "
                      f"({(value - base) / base * 100:+.1f}%)")
    else:
        print(f"# tracing overhead: no untraced run of {key} in {out_dir}; "
              "run it with --trace 0 first to compare")
    print(result)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
