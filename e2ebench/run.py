#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out f.jsonl]
    python3 e2ebench/run.py compare <old.jsonl> <new.jsonl> [--allow-host-mismatch]
    python3 e2ebench/run.py test          # the benchmark's own tests

Builds the release `lt-node` daemon from the repository workspace and the
`e2ebench` harness from this directory into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs the harness with the given arguments. Build
output goes to stderr; the harness's last stdout line is the JSON result.
Exits 2 without a result when the sources needed to build are missing.
"""

import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402


def cargo(args, env):
    """Run cargo offline with its output on stderr; True on success."""
    proc = subprocess.run(
        ["cargo"] + args + ["--release", "--offline", "--quiet"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return proc.returncode == 0


def python_tests():
    """The comparison's unit tests; True when they pass."""
    suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
    return unittest.TextTestRunner(stream=sys.stderr).run(suite).wasSuccessful()


def main():
    if sys.argv[1:2] == ["compare"]:
        return compare.main(sys.argv[2:], os.path.join(ROOT, "BENCHMARK.json"))
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    env["LT_NODE_BIN"] = os.path.join(target, "release", "lt-node")
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("e2ebench: no repository workspace next to the benchmark", file=sys.stderr)
        return 2
    if not cargo(["build", "-p", "lt-net", "--bin", "lt-node"], env):
        print("e2ebench: building lt-node failed", file=sys.stderr)
        return 2
    if sys.argv[1:2] == ["test"]:
        ok = cargo(["test", "--manifest-path", manifest] + sys.argv[2:], env)
        return 0 if python_tests() and ok else 1
    if not cargo(["build", "--manifest-path", manifest], env):
        print("e2ebench: building the harness failed", file=sys.stderr)
        return 2
    harness = os.path.join(target, "release", "e2ebench")
    return subprocess.run([harness] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
