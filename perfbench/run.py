#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <tpcb-ipa|tatp-read|churn-2t|all> \
        --seed <n> --seconds <n> --trace <0|1>

Builds `perfbench` (a Cargo package of its own that depends on the
repository's crates by path) into $CARGO_TARGET_DIR, default
`.bench_build`, then runs it from the repository root. The last line of
standard output is the JSON result of the run. `--workload all` runs every
workload in turn and exits non-zero if any of them fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tpcb-ipa", "tatp-read", "churn-2t"]


def build(env):
    manifest = os.path.join(HERE, "Cargo.toml")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    return done.returncode


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "crates", "workloads", "Cargo.toml")):
        print("perfbench: the repository's crates are not next to the benchmark", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    rc = build(env)
    if rc != 0:
        print(f"perfbench: build failed ({rc})", file=sys.stderr)
        return rc
    binary = os.path.join(target, "release", "perfbench")

    if "--workload" in argv and argv[argv.index("--workload") + 1 :][:1] == ["all"]:
        i = argv.index("--workload")
        rest = argv[:i] + argv[i + 2 :]
        worst = 0
        for workload in WORKLOADS:
            done = subprocess.run([binary, "--workload", workload] + rest, cwd=ROOT)
            worst = worst or done.returncode
        return worst
    return subprocess.run([binary] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
