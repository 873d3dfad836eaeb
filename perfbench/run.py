#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload kv-read --seed 1 --seconds 20 --trace 0

Builds the Go program in perfbench/ (its own module, which uses the
repository's packages through a local replace) into .bench_build/ at
the checkout root, with the Go build cache kept there as well, then
runs it from the checkout root with the given arguments. Artifacts go
to perfbench/out/. When the build fails, for example outside a full
checkout, it exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return built.returncode
    os.chdir(root)
    sys.stdout.flush()
    os.execv(binary, [binary, "--out", os.path.join(here, "out")] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
