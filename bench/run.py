"""The cmarr benchmark: `cmarr analyze` over seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: one client, closed loop.  Each job of the workload runs as a
fresh `python -m cmarr.cli analyze FILE FLAGS --json` process, one after
another, with the checkout's src/ first on PYTHONPATH; a fresh process is
what a user pays, and it keeps cmarr's module-level caches from carrying
over between jobs.  A pass runs every job once; a run repeats passes until
--seconds have gone by (at least one pass).

Set-up (timed as setup_s, median of SETUP_REPS repetitions, each a fresh
process): import cmarr, build the base arrangements, apply the seed and
write the .arr files.  Every repetition must write the same bytes.

Every job's JSON output is checked (bench/checks.py); a nonzero exit or a
failed check counts the job as failed.  With --trace 1 one more pass
replays each job in a fresh process with spans at the layer boundaries
(bench/trace_job.py) and the per-layer metrics are printed instead of the
end-to-end ones.  Per-run details, run metadata included, go to
bench/out/results/; spans go to bench/out/trace/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The benchmark exits 2 without it
when it cannot measure the checkout's own cmarr.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 7
# No new pass starts once a run has taken RUN_LIMIT_S, and every child is
# killed at RUN_DEADLINE_S, so that a run ends inside three minutes even
# when the program hangs.
RUN_LIMIT_S = 100
RUN_DEADLINE_S = 170
# Allowed float error when summing span self times against the job span.
TRACE_TOLERANCE_S = 1e-3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Refused(Exception):
    """The benchmark cannot measure this checkout; no result is printed."""


def inside(path, root):
    return Path(path).resolve().is_relative_to(root.resolve())


def metadata(workload, seed, trace):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "cmarr").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "loadavg_start": list(os.getloadavg()),
        "reference_loop_s_start": reference_loop_s(),
        "time_start": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def reference_loop_s():
    """Median time of a fixed pure-Python loop: how fast the machine is now.

    Kept in the run metadata so that a time can be read against the state
    of a shared machine; it enters no metric.
    """
    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Run:
    """One benchmark run of one workload under one seed."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.work = OUT / "work" / workload
        self.inputs = self.work / "inputs"
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.work.mkdir(parents=True, exist_ok=True)

    def child(self, argv, name):
        """Run argv to its end; (exit code, stdout bytes, wall s, rusage).

        Standard error goes to work/NAME.err.  The child is killed when the
        run's deadline passes.
        """
        with open(self.work / (name + ".err"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                    stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - t0), proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                proc.stdout.close()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, wall, usage

    def failure(self, job_id, what, name):
        tail = (self.work / (name + ".err")).read_text(errors="replace")
        return "%s/%s: %s: %s" % (self.workload, job_id, what, tail[-2000:])

    def check(self, job, output):
        """Failed checks on one job's report, given as a dict or JSON bytes."""
        try:
            report = json.loads(output) if isinstance(output, bytes) \
                else output
            return checks.check_report(self.workload, job, report)
        except (ValueError, TypeError, AttributeError, KeyError,
                IndexError) as e:
            return ["%s/%s: malformed report: %r"
                    % (self.workload, job[0], e)]

    def set_up(self):
        """Time SETUP_REPS set-ups; returns (times, set-up report)."""
        shutil.rmtree(self.inputs, ignore_errors=True)
        argv = [sys.executable, str(HERE / "setup_inputs.py"),
                "--workload", self.workload, "--seed", str(self.seed),
                "--out", str(self.inputs)]
        times, first = [], None
        for _ in range(SETUP_REPS):
            rc, out, wall, _ = self.child(argv, "setup")
            if rc != 0:
                raise Refused(self.failure("setup", "exit %d" % rc, "setup"))
            info = json.loads(out)
            if first is not None and info != first:
                raise Refused("set-up wrote different bytes for one seed")
            first = info
            times.append(wall)
        if not inside(first["cmarr_file"], SRC):
            raise Refused("imported cmarr from %s, outside %s"
                          % (first["cmarr_file"], SRC))
        return times, first

    def run_pass(self):
        jobs = []
        for job in workloads.WORKLOADS[self.workload]:
            job_id, _, _, flags = job
            argv = [sys.executable, "-m", "cmarr.cli", "analyze",
                    str(self.inputs / (job_id + ".arr"))] + flags + ["--json"]
            rc, out, wall, usage = self.child(argv, job_id)
            if rc != 0:
                errs = [self.failure(job_id, "exit %d" % rc, job_id)]
            else:
                errs = self.check(job, out)
            jobs.append({"job": job_id, "wall_s": wall, "exit": rc,
                         "max_rss_mb": usage.ru_maxrss / 1024.0,
                         "cpu_s": usage.ru_utime + usage.ru_stime,
                         "errors": errs})
        return jobs

    def traced_pass(self):
        """Replay each job in a fresh traced process; (jobs, summed metrics)."""
        tdir = OUT / "trace" / self.workload
        shutil.rmtree(tdir, ignore_errors=True)
        tdir.mkdir(parents=True)
        jobs, totals = [], {}
        for job in workloads.WORKLOADS[self.workload]:
            job_id, _, _, flags = job
            prefix = tdir / job_id
            argv = [sys.executable, str(HERE / "trace_job.py"), str(prefix),
                    str(self.inputs / (job_id + ".arr"))] + flags
            rc, _, wall, _ = self.child(argv, job_id + ".trace")
            entry = {"job": job_id, "exit": rc, "wall_s": wall}
            jobs.append(entry)
            if rc != 0:
                entry["errors"] = [self.failure(
                    job_id, "traced replay exit %d" % rc, job_id + ".trace")]
                continue
            with open(str(prefix) + ".json") as fh:
                res = json.load(fh)
            if not inside(res["cmarr_file"], SRC):
                raise Refused("traced replay imported cmarr from %s"
                              % res["cmarr_file"])
            errs = self.check(job, res["report"])
            chk = res["check"]
            if not chk["nested"] or \
                    abs(chk["unaccounted_s"]) > TRACE_TOLERANCE_S:
                errs.append("%s/%s: spans do not account for the job: %r"
                            % (self.workload, job_id, chk))
            # the traced wall time leaves out writing the spans; what is
            # left outside the job span is start-up, imports and wrapping
            wall -= res["post_s"]
            entry.update(errors=errs, wall_s=wall, check=chk,
                         outside_job_span_s=wall - chk["root_s"],
                         metrics=res["metrics"])
            for k, v in res["metrics"].items():
                totals[k] = totals.get(k, 0) + v
        return jobs, totals

    def layer_errors(self, metrics):
        """The workload must stress its layers and leave bypassed ones at 0."""
        errs = []
        for name in workloads.STRESSES[self.workload]:
            if not metrics.get(name):
                errs.append("%s: %s is 0 on the layer it stresses"
                            % (self.workload, name))
        for prefix in workloads.BYPASSES[self.workload]:
            for name, value in metrics.items():
                if name.startswith(prefix) and value:
                    errs.append("%s: %s = %r on a bypassed layer"
                                % (self.workload, name, value))
        return errs


def child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def measure(workload, seed, seconds, trace):
    meta = metadata(workload, seed, trace)
    print("meta " + json.dumps(meta), flush=True)
    run = Run(workload, seed)
    setup_times, setup_info = run.set_up()
    print("cmarr " + setup_info["cmarr_file"], flush=True)

    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run.run_pass())
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds or elapsed >= RUN_LIMIT_S:
            break
    jobs = [j for p in passes for j in p]
    pass_walls = [sum(j["wall_s"] for j in p) for p in passes]
    traced_jobs, layer, run_errors = [], {}, []
    if trace:
        traced_jobs, layer = run.traced_pass()
        layer["cli.cpu_s"] = sum(j["cpu_s"] for j in passes[-1])
        layer["trace.overhead_s"] = (sum(j["wall_s"] for j in traced_jobs)
                                     - statistics.median(pass_walls))
        run_errors = run.layer_errors(layer)
    all_jobs = jobs + traced_jobs
    errors = [e for j in all_jobs for e in j.get("errors", [])] + run_errors

    end_to_end = {
        "wall_s": statistics.median(pass_walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": max(j["max_rss_mb"] for j in jobs),
    }
    if trace:
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in sorted(layer.items())}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end.items()}
    # a traced run also attempts the layer check
    result = {
        "correct": not errors,
        "attempted": len(all_jobs) + trace,
        "failed": (sum(1 for j in all_jobs if j.get("errors"))
                   + (1 if run_errors else 0)),
        "metrics": metrics,
    }
    detail = {
        "meta": meta,
        "cmarr_file": setup_info["cmarr_file"],
        "input_sha256": setup_info["files"],
        "setup_s": setup_times,
        "pass_wall_s": pass_walls,
        "wall_s_quartiles": quartiles(pass_walls),
        "end_to_end": end_to_end,
        "error_rate": result["failed"] / result["attempted"],
        "errors": errors,
        "passes": passes,
        "traced": traced_jobs,
        "per_layer": layer,
        "loadavg_end": list(os.getloadavg()),
        "reference_loop_s_end": reference_loop_s(),
    }
    rdir = OUT / "results"
    rdir.mkdir(parents=True, exist_ok=True)
    with open(rdir / ("%s-seed%d-trace%d.json" % (workload, seed, trace)),
              "w") as fh:
        json.dump(detail, fh, indent=1)

    for e in errors:
        print("error: " + e, flush=True)
    q = detail["wall_s_quartiles"]
    print("wall_s = %.4f s (median of %d passes; quartiles %.4f %.4f)"
          % (end_to_end["wall_s"], len(pass_walls), q[0], q[2]))
    print("setup_s = %.4f s (median of %d set-ups)"
          % (end_to_end["setup_s"], len(setup_times)))
    print("peak_rss_mb = %.1f MB" % end_to_end["peak_rss_mb"])
    print("error_rate = %d/%d = %g (ratio)"
          % (result["failed"], result["attempted"], detail["error_rate"]))
    return result


def unit_of(name):
    if name.endswith("_s") or name == "symmetry.s":
        return "s"
    return "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "cmarr" / "__init__.py").is_file():
        print("error: no cmarr sources under %s" % SRC, file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except Refused as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
