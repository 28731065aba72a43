"""Compare `cmarr analyze` output between two source trees.

Runs every job of the benchmark workloads (bench/workloads.py) from two
`src` directories, at each seed given, with and without `--json`, and
reports every difference in stdout, stderr or exit code.  Each deletion
input (a `-del` job) is also run with `--stability --orbits`: its file
keeps the base's `weyl` header but is not stable under it, so the Weyl
layer is compared on unstable inputs too.  The input files come from
`workloads.emit_inputs`, run once per seed with the first tree's cmarr, so
both trees read the same bytes.  Standard library only.

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


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(src).resolve())
    return env


def analyze(src, path, flags):
    """(exit code, stdout, stderr) of one `cmarr analyze` run."""
    proc = subprocess.run(
        [sys.executable, "-m", "cmarr.cli", "analyze", path] + flags,
        env=child_env(src), capture_output=True, text=True)
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
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for workload in sorted(workloads.WORKLOADS):
                texts = workloads.emit_inputs(workload, seed)
                for job_id, _, _, flags in workloads.WORKLOADS[workload]:
                    path = os.path.join(tmp, job_id + ".arr")
                    with open(path, "w") as fh:
                        fh.write(texts[job_id])
                    runs_of_job = [flags]
                    if "-del" in job_id:
                        runs_of_job.append(UNSTABLE)
                    for run_flags in runs_of_job:
                        for mode in ([], ["--json"]):
                            runs += 1
                            argv = run_flags + mode
                            diff = differences(
                                analyze(args.old_src, path, argv),
                                analyze(args.new_src, path, argv))
                            if diff:
                                differing += 1
                                print("== %s %s seed %d: %s" % (
                                    workload, job_id, seed, " ".join(argv)))
                                print("\n".join(diff))
    print("%d runs compared, %d differ" % (runs, differing))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
