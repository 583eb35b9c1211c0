#!/usr/bin/env python3
"""Builds the benchmark and the daemon from source, then runs one measurement.

Run from the repository root:

    python3 calbench/run.py --workload table1-dense --seed 1 --seconds 30 --trace 0

Workloads: table1-dense, reduce-10k, serve-mixed.  The last line of standard
output is the JSON result; build output and progress go to standard error.
Builds land in $CARGO_TARGET_DIR (default: .bench_build at the root); stores
and traces in .bench_out at the root.

The repository's `[profile.release]` settings are forwarded to the benchmark's
own build, so both are compiled alike.  Exit codes: 0 all operations correct,
1 some operation failed, 2 the benchmark could not run.
"""

import os
import signal
import subprocess
import sys
import tomllib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"calbench: {message}", file=sys.stderr)
    sys.exit(2)


def profile_flags():
    """`--config` flags that repeat the root manifest's release profile."""
    with open(os.path.join(ROOT, "Cargo.toml"), "rb") as f:
        manifest = tomllib.load(f)
    flags = []

    def walk(prefix, table):
        for key, value in table.items():
            path = f"{prefix}.{key}" if key.isidentifier() else f'{prefix}."{key}"'
            if isinstance(value, dict):
                walk(path, value)
            elif isinstance(value, bool):
                flags.extend(["--config", f"{path}={str(value).lower()}"])
            elif isinstance(value, (int, float)):
                flags.extend(["--config", f"{path}={value}"])
            else:
                flags.extend(["--config", f'{path}="{value}"'])

    walk("profile.release", manifest.get("profile", {}).get("release", {}))
    return flags


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail("no Cargo.toml at the repository root; nothing to build")
    commands = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "ds-serve", "--bin", "ds-serve",
         "-p", "ds-passivity-suite", "--bin", "ds-trace"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"), *profile_flags()],
    ]
    for command in commands:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(command)}")


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.join(ROOT, target)
    build(env)
    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "calbench"), *sys.argv[1:],
        "--serve-bin", os.path.join(release, "ds-serve"),
        "--trace-bin", os.path.join(release, "ds-trace"),
        "--root", ROOT,
        "--out-dir", os.path.join(ROOT, ".bench_out"),
    ]
    # Own process group, so a daemon left behind by a crash is stopped too.
    child = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        code = child.wait(timeout=170)
    except subprocess.TimeoutExpired:
        code = 2
        print("calbench: run exceeded 170 s", file=sys.stderr)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
