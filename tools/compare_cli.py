"""Compare `cmarr analyze` output between two source trees.

Runs every job of the benchmark workloads (bench/workloads.py) from two
`src` directories, at each seed given, with and without `--json`, and
reports every difference in stdout, stderr or exit code.  Each deletion
input (a `-del` job) is also run with `--stability --orbits`: its file
keeps the base's `weyl` header but is not stable under it, so the Weyl
layer is compared on unstable inputs too.  The input files come from
`workloads.emit_inputs`, run once per seed with the first tree's cmarr, so
both trees read the same bytes.  A fixed list of runs (FIXED), failing
ones and `--free` runs whose witnesses no workload reaches, is compared
too, and each must exit with its listed code.  Standard library only.

    python3 tools/compare_cli.py OLD_SRC NEW_SRC [--seeds 1 2]

Exits 0 when every run matches, 1 when any differs.
"""

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

UNSTABLE = ["--stability", "--orbits"]

NON_UTF8 = b"dim 2\nh 1 0\n\x7fELF\xd0\xff\n"

# NO_CHAIN3 of tests/test_freeness.py: the search ends with no chain
NO_CHAIN3 = (b"dim 3\nh 2 -1 0\nh 0 1 0\nh 1 1 0\nh 1 1 -1\nh 1 -1 0\n"
             b"h 1 -2 0\nh 1 0 2\n")

# Fixed runs: (name, input, whether it goes on stdin, flags, exit code).
# The input is the file's bytes, None for a path that does not exist, or
# the id of the free-search job whose file (first seed) is read.  The
# workloads' verdicts give the witnesses chain, poincare_residual and
# budget only; the runs that exit 0 give rank<=2 and no_chain.
FIXED = [
    ("malformed", b"dim 2\nh 1 x\n", False, ["--poincare"], 1),
    ("missing", None, False, ["--poincare"], 1),
    ("non-utf8", NON_UTF8, False, ["--poincare"], 1),
    ("non-utf8-stdin", NON_UTF8, True, ["--poincare"], 1),
    ("no-layout", b"dim 2\nh 1 0\nh 0 1\n", False, ["--e-count"], 2),
    ("unstable-e-count", "G8-del1", False, ["--e-count"], 2),
    ("misfit-layout", b"dim 3\nweyl S3\nh 1 0 0\nh 0 1 0\n", False,
     ["--stability"], 1),
    ("zero-block-layout", b"dim 2\nweyl S0xS3\nh 1 0\nh 0 1\n", False,
     ["--stability"], 1),
    ("strict-unknown", "G8", False,
     ["--free", "--budget", "1", "--strict"], 3),
    ("rank-2-free", b"dim 2\nh 1 0\nh 0 1\nh 1 1\n", False, ["--free"], 0),
    ("no-chain-free", NO_CHAIN3, False, ["--free"], 0),
]


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(src).resolve())
    # the stdin error handler of the POSIX locale, so that a tree which
    # decodes stdin with it, not as strict UTF-8, shows
    env["PYTHONIOENCODING"] = "utf-8:surrogateescape"
    return env


def analyze(src, path, flags, stdin=False):
    """(exit code, stdout, stderr) of one `cmarr analyze` run, reading the
    file at path by name, or on stdin as "-"."""
    with open(path if stdin else os.devnull, "rb") as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "cmarr.cli", "analyze",
             "-" if stdin else path] + flags,
            env=child_env(src), stdin=fh, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def differences(old, new):
    """Lines describing how two (exit code, stdout, stderr) results differ."""
    lines = []
    if old[0] != new[0]:
        lines.append("exit code %d -> %d" % (old[0], new[0]))
    for name, a, b in (("stdout", old[1], new[1]),
                       ("stderr", old[2], new[2])):
        if a != b:
            lines += difflib.unified_diff(
                a.splitlines(), b.splitlines(), "old " + name,
                "new " + name, lineterm="")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = ap.parse_args(argv)
    # emit_inputs imports cmarr: this process takes it from the first tree
    sys.path.insert(0, str(Path(args.old_src).resolve()))
    runs = differing = 0

    def compare(title, path, flags, stdin=False, code=None):
        nonlocal runs, differing
        for mode in ([], ["--json"]):
            runs += 1
            argv = flags + mode
            old = analyze(args.old_src, path, argv, stdin)
            new = analyze(args.new_src, path, argv, stdin)
            diff = differences(old, new)
            if code is not None and new[0] != code:
                diff.insert(0, "exit code %d, not %d" % (new[0], code))
            if diff:
                differing += 1
                print("== %s: %s" % (title, " ".join(argv)))
                print("\n".join(diff))

    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for workload in sorted(workloads.WORKLOADS):
                texts = workloads.emit_inputs(workload, seed)
                for job_id, _, _, flags in workloads.WORKLOADS[workload]:
                    path = os.path.join(tmp, job_id + ".arr")
                    with open(path, "w") as fh:
                        fh.write(texts[job_id])
                    title = "%s %s seed %d" % (workload, job_id, seed)
                    compare(title, path, flags)
                    if "-del" in job_id:
                        compare(title, path, UNSTABLE)
        jobs = workloads.emit_inputs("free-search", args.seeds[0])
        for name, data, stdin, flags, code in FIXED:
            path = os.path.join(tmp, name + ".arr")
            if isinstance(data, str):
                data = jobs[data].encode()
            if data is not None:
                with open(path, "wb") as fh:
                    fh.write(data)
            compare("fixed run " + name, path, flags, stdin, code)
    print("%d runs compared, %d differ" % (runs, differing))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
