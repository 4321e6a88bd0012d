#!/usr/bin/env python3
"""Build the perfbench executable from this checkout's sources, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload bank-checked --seed 1 --seconds 20 --trace 0

All arguments go to perfbench.exe (see perfbench.ml). Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result.
The exit code is the build's when the build fails, else the
benchmark's.

dune is taken from PATH, else from the active opam switch
($OPAM_SWITCH_PREFIX, else $OPAMSWITCH or any switch under $OPAMROOT,
default ~/.opam), so the build also works from a shell whose PATH
lacks the opam environment. The directory dune is found in is put at
the front of the build's PATH, so that dune finds the OCaml compilers
of the same switch.
"""

import glob
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    dirs = []
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix:
        dirs.append(os.path.join(prefix, "bin"))
    root = os.environ.get("OPAMROOT") or os.path.expanduser(os.path.join("~", ".opam"))
    switch = os.environ.get("OPAMSWITCH")
    if switch:
        dirs.append(os.path.join(root, switch, "bin"))
    dirs += sorted(glob.glob(os.path.join(root, "*", "bin")))
    for d in dirs:
        cand = os.path.join(d, "dune")
        if os.path.isfile(cand) and os.access(cand, os.X_OK):
            return cand
    return None


def main():
    if not os.path.isfile("dune-project"):
        print("perfbench: no dune-project here; run from the repository root",
              file=sys.stderr)
        return 2
    dune = find_dune()
    if dune is None:
        print("perfbench: dune not found on PATH or in an opam switch",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--cache=disabled", "./perfbench/perfbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
