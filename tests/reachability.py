#!/usr/bin/env python3
"""Lists the src/ library functions that no shipped binary contains.

    python3 tests/reachability.py [--build-dir DIR] [--jobs N]

The shipped binaries are the examples (examples/CMakeLists.txt), the table
drivers registered with pts_add_bench (bench/CMakeLists.txt) and perfbench.
The script configures its own build directory (default: build-reach/ at the
repository root) with -O1 -fno-inline -ffunction-sections and links with
-Wl,--gc-sections, so every function body is its own section, stays out of
line, and vanishes from a binary that never calls it. It then prints every
function defined in a src/ library archive (nm text symbols in namespace pts)
that none of those binaries defines.

Without -fno-inline the listing is wrong: a function that the optimiser
inlined into all its callers leaves no symbol behind and reads as unreached.

Names are compared without their parameter lists, so a name counts as reached
when any overload of it is. A name may stay unreached only when it appears in
tests/reachability_allow.txt, one `name | reason` per line; the exit status is
1 when any unreached name is missing from that file. Allowlist entries that
are reached, or no longer exist, are reported but do not fail the run.

A full run builds the tree twice (the program and perfbench) and takes a few
minutes on 4 cores; it is not part of the ctest suite for that reason.
"""

import argparse
import glob
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(ROOT, "tests", "reachability_allow.txt")
FLAGS = "-O1 -fno-inline -ffunction-sections -DNDEBUG"
LINK_FLAGS = "-Wl,--gc-sections"
TEXT_TYPES = {"T", "t", "W", "w"}


def run(cmd, **kwargs):
    print("+ " + " ".join(cmd), file=sys.stderr)
    subprocess.run(cmd, check=True, stdout=sys.stderr, **kwargs)


def configure_and_build(source, build, targets, jobs):
    run(["cmake", "-S", source, "-B", build,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
         "-DCMAKE_CXX_FLAGS_RELWITHDEBINFO=" + FLAGS,
         "-DCMAKE_EXE_LINKER_FLAGS=" + LINK_FLAGS,
         # -O1 -fno-inline sees different code than the shipped build, so a
         # warning here says nothing about the program; do not stop on one.
         "-DPTS_WERROR=OFF"])
    run(["cmake", "--build", build, "-j", str(jobs), "--target", *targets])


def shipped_targets():
    """Returns (example targets, bench driver targets) named by the CMake files."""
    with open(os.path.join(ROOT, "examples", "CMakeLists.txt")) as f:
        text = f.read()
    examples = re.findall(r"pts_add_example\((\w+)\)", text)
    examples += re.findall(r"add_executable\((\w+)\s", text)
    with open(os.path.join(ROOT, "bench", "CMakeLists.txt")) as f:
        benches = re.findall(r"pts_add_bench\((\w+)\)", f.read())
    return examples, benches


def text_symbols(paths):
    """Demangled, parameter-free names of the text symbols defined in paths."""
    mangled = set()
    for path in paths:
        out = subprocess.run(["nm", "--defined-only", path], check=True,
                             capture_output=True, text=True).stdout
        for line in out.splitlines():
            fields = line.split()
            if len(fields) == 3 and fields[1] in TEXT_TYPES:
                mangled.add(fields[2])
    ordered = sorted(mangled)
    out = subprocess.run(["c++filt", "-p"], input="\n".join(ordered), check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for name in out.splitlines():
        name = re.sub(r" \[clone [^\]]*\]", "", name)
        # Local lambdas and types are reported through their enclosing function.
        if not name.startswith("pts::") or "{lambda" in name or "{unnamed" in name:
            continue
        names.add(name)
    return names


def read_allowlist():
    allowed = {}
    with open(ALLOWLIST) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, sep, reason = (part.strip() for part in line.partition("|"))
            if not sep or not name or not reason:
                sys.exit(f"{ALLOWLIST}:{number}: expected `name | reason`")
            allowed[name] = reason
    return allowed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=os.path.join(ROOT, "build-reach"))
    parser.add_argument("--jobs", type=int, default=4)
    args = parser.parse_args()

    examples, benches = shipped_targets()
    build = os.path.abspath(args.build_dir)
    configure_and_build(ROOT, build, examples + benches, args.jobs)
    perf_build = os.path.join(build, "perfbench")
    configure_and_build(os.path.join(ROOT, "perfbench"), perf_build, ["perfbench"],
                        args.jobs)

    # pts_cluster_bin's binary is pts_cluster (its OUTPUT_NAME).
    binaries = [os.path.join(build, "examples", name.removesuffix("_bin"))
                for name in examples]
    binaries += [os.path.join(build, "bench", name) for name in benches]
    binaries.append(os.path.join(perf_build, "perfbench"))
    archives = sorted(glob.glob(os.path.join(build, "src", "*", "libpts_*.a")))

    defined = text_symbols(archives)
    reached = text_symbols(binaries)
    unreached = sorted(defined - reached)
    allowed = read_allowlist()

    print(f"{len(binaries)} binaries, {len(archives)} libraries, "
          f"{len(defined)} functions, {len(unreached)} unreached")
    missing = [name for name in unreached if name not in allowed]
    for name in unreached:
        print(f"  {'allowed ' if name in allowed else 'UNREACHED'} {name}")
    for name in sorted(set(allowed) - set(unreached)):
        print(f"  stale allowlist entry (reached or gone): {name}")
    if missing:
        print(f"{len(missing)} unreached function(s) are not in {ALLOWLIST}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
