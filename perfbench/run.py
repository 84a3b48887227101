#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload replan --seed 1 --seconds 40 --trace 0

Every argument is passed on to the program (see main.go for the list).
The build cache, the binary and traced runs' span files live under
.bench_build/ at the repository root, so a run reads and writes nothing
outside the checkout. The program's last line of standard output is the
JSON result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        GOPROXY="off",
        GOFLAGS="",
    )
    return env


def source_revision():
    """The git commit when there is one, else a hash of the Go sources."""
    head = os.path.join(ROOT, ".git")
    if os.path.isdir(head):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def option(args, name):
    for i, a in enumerate(args):
        if a in ("-" + name, "--" + name) and i + 1 < len(args):
            return args[i + 1]
        for prefix in ("-" + name + "=", "--" + name + "="):
            if a.startswith(prefix):
                return a[len(prefix):]
    return None


def main():
    args = sys.argv[1:]
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env(),
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: building perfbench failed", file=sys.stderr)
        return 1
    extra = ["-commit", source_revision()]
    if option(args, "trace") == "1":
        name = "spans-%s-%s.json" % (option(args, "workload"), option(args, "seed"))
        extra += ["-trace-out", os.path.join(BUILD, name)]
    return subprocess.run([binary] + args + extra, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
