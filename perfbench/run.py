#!/usr/bin/env python3
"""Build the gsgcn benchmark from source and run one workload.

    python3 perfbench/run.py --workload <resident|bf16> \
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the `gsgcn-perfbench` package
(release, offline; `CARGO_TARGET_DIR` or `.bench_build`), then runs the
workload in its own process. The last line of standard output is the
result object `{"correct", "attempted", "failed", "metrics"}`; the line
before it is the full record with provenance. The exit code is non-zero
when the build fails, a run fails or an output check fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 172
# Sources whose content identifies the build when there is no git metadata.
SOURCE_DIRS = ["crates", "src", "perfbench"]
SOURCE_FILES = ["Cargo.toml", "Cargo.lock", ".cargo/config.toml"]


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def commit_id():
    """The git commit, or a hash of the source tree when not a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for base, dirs, files in os.walk(os.path.join(ROOT, d)):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.join(base, f) for f in sorted(files)]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def run_group(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} timed out after {timeout} s")
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["resident", "bf16"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    for need in ["Cargo.toml", "crates", os.path.join("perfbench", "Cargo.toml")]:
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} is missing: run from a full source checkout")

    # Configuration comes from the flags alone, never from GSGCN_* variables.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GSGCN_")}
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    work = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work, exist_ok=True)
    env["TMPDIR"] = work

    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"),
    ]
    try:
        code = run_group(build, BUILD_TIMEOUT_S, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if code != 0:
        fail(f"build failed with exit code {code}")

    exe = os.path.join(target, "release", "gsgcn-perfbench")
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--commit", commit_id(),
        "--work", work,
    ]
    sys.stdout.flush()
    code = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env)
    sys.exit(code)


if __name__ == "__main__":
    main()
