"""Replay one `cmarr analyze` job in-process with spans at layer boundaries.

The wrappers sit on the module attributes through which one cmarr module
calls another (for example cmarr.freeness.build_lattice and
cmarr.lattice.rref), plus a module's own global where it calls itself
(cmarr.osalg.circuits from nbc_basis).  cmarr's code is not changed.  Each
span records its name, the module whose attribute it wraps (its site),
start, end and parent span.  Spans stay in memory until the job ends and are
then written to PREFIX.spans; the per-layer metrics, the trace consistency
check and the job's report go to PREFIX.json.

    python3 bench/trace_job.py PREFIX FILE [analyze flags...]
"""

import importlib
import json
import os
import sys
import threading
import time
from array import array

# (module, attribute, span name).  The span name is the callee's layer and
# function; the module is the caller side, recorded as the span's site.
WRAPS = [
    ("cli", "parse_arrangement_with_warnings", "arrfile.parse"),
    ("cli", "build_lattice", "lattice.build_lattice"),
    ("freeness", "build_lattice", "lattice.build_lattice"),
    ("freeness", "essentialize", "lattice.essentialize"),
    ("lattice", "rref", "exactlin.rref"),
    ("osalg", "rref", "exactlin.rref"),
    ("exactlin", "rref", "exactlin.rref"),
    ("lattice", "in_row_span", "exactlin.in_row_span"),
    ("lattice", "common_kernel", "exactlin.common_kernel"),
    ("freeness", "common_kernel", "exactlin.common_kernel"),
    ("lattice", "rank_of", "exactlin.rank_of"),
    ("lattice", "span_coordinates", "exactlin.span_coordinates"),
    ("freeness", "restrict_covectors_to", "exactlin.restrict_covectors_to"),
    ("cli", "admissible_primes", "lattice.admissible_primes"),
    ("cli", "char_poly_finite_field", "lattice.char_poly_finite_field"),
    ("lattice", "bad_primes", "lattice.bad_primes"),
    ("cli", "complement_count", "lattice.complement_count"),
    ("lattice", "complement_count", "lattice.complement_count"),
    ("lattice", "lagrange_interpolate", "intpoly.lagrange_interpolate"),
    ("intpoly", "lagrange_interpolate", "intpoly.lagrange_interpolate"),
    ("cli", "_counts_parallel", "cli._counts_parallel"),
    ("cli", "_interpolate_counts", "cli._interpolate_counts"),
    ("cli", "nbc_basis", "osalg.nbc_basis"),
    ("osalg", "circuits", "osalg.circuits"),
    ("cli", "inductive_freeness", "freeness.inductive_freeness"),
    ("freeness", "restriction", "freeness.restriction"),
    ("cli", "is_stable", "symmetry.is_stable"),
    ("cli", "hyperplane_orbits", "symmetry.hyperplane_orbits"),
    ("cli", "contains_subarrangement", "symmetry.contains_subarrangement"),
    ("cli", "terminalization_count", "symmetry.terminalization_count"),
    ("cli", "gen_coxeter_namikawa", "generators.gen_coxeter_namikawa"),
]


class Tracer:
    """Spans in flat arrays, indexed by span id in order of start."""

    def __init__(self):
        self.labels = []  # "name@site" per label id
        self.label_ids = {}
        self.label = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self.circuit_keys = set()
        self.root_n = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._local.stack = self._main_stack

    def label_id(self, name, site):
        key = "%s@%s" % (name, site)
        if key not in self.label_ids:
            self.label_ids[key] = len(self.labels)
            self.labels.append(key)
        return self.label_ids[key]

    def call(self, label, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # a worker thread: its first span belongs to whatever span the
            # main thread has open, the one that handed out the work
            stack = self._local.stack = []
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else -1)
        with self._lock:
            sid = len(self.start)
            self.label.append(label)
            self.parent.append(parent)
            self.end.append(-1.0)
            self.start.append(time.perf_counter())
        stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[sid] = time.perf_counter()
            stack.pop()

    def wrap(self, module, attr, name, site):
        fn = getattr(module, attr)
        label = self.label_id(name, site)
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            out = self.call(label, fn, args, kwargs)
            if hook is not None:
                hook(self, args, out)
            return out

        setattr(module, attr, traced)

    def count(self, key, by=1):
        # hooks also run on cli's worker threads
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + by

    def self_times(self):
        """Per span: duration minus the union of its children's intervals.

        Children of one parent are visited in start order, so the union is
        a running merge.  Overlap (children of one parent running at once
        on several threads) is returned separately.
        """
        n = len(self.start)
        covered = [0.0] * n
        reach = [float("-inf")] * n
        child_sum = [0.0] * n
        nested = True
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                continue
            s, e = self.start[i], self.end[i]
            if s < self.start[p] or e > self.end[p]:
                nested = False
            child_sum[p] += e - s
            if e > reach[p]:
                covered[p] += e - max(s, reach[p])
                reach[p] = e
        self_t = [self.end[i] - self.start[i] - covered[i] for i in range(n)]
        overlap = sum(child_sum) - sum(covered)
        return self_t, overlap, nested


def _count_lattice(tr, args, lat):
    tr.count("lattice.flats", len(lat.flats))
    if len(args[0].hyperplanes) == tr.root_n:
        tr.count("lattice.root_builds")


def _count_circuits(tr, args, cs):
    tr.count("osalg.circuits", len(cs))
    tr.circuit_keys.add((args[0].dim, args[0].hyperplanes))


def _count_points(tr, args, _):
    d = args[0].dim
    if d >= 2:
        tr.count("lattice.points", args[1] ** (d - 1))


def _count_verdict(tr, args, v):
    tr.count("freeness.nodes", v.nodes_used)
    tr.count({"InductivelyFree": "freeness.free", "NotFree": "freeness.notfree",
              "Unknown": "freeness.unknown"}[v.status])


_HOOKS = {
    "lattice.build_lattice": _count_lattice,
    "osalg.circuits": _count_circuits,
    "osalg.nbc_basis": lambda tr, args, b: tr.count("osalg.nbc_sets", b.total),
    "lattice.complement_count": _count_points,
    "freeness.inductive_freeness": _count_verdict,
}


def layer_metrics(tr, self_t):
    """The per-layer metrics of one job, from its spans and counters."""
    calls, incl, own = {}, {}, {}
    for i in range(len(tr.start)):
        key = tr.labels[tr.label[i]]
        calls[key] = calls.get(key, 0) + 1
        incl[key] = incl.get(key, 0.0) + tr.end[i] - tr.start[i]
        own[key] = own.get(key, 0.0) + self_t[i]

    def total(table, name, site=None):
        return sum(v for k, v in table.items()
                   if k.split("@")[0] == name
                   and (site is None or k.split("@")[1] == site))

    def layer_self(prefix):
        return sum(v for k, v in own.items() if k.startswith(prefix))

    c = tr.counters
    circ_calls = total(calls, "osalg.circuits")
    return {
        "exactlin.rref_calls": total(calls, "exactlin.rref"),
        "exactlin.rref_s": total(own, "exactlin.rref"),
        "exactlin.in_row_span_calls": total(calls, "exactlin.in_row_span"),
        "exactlin.in_row_span_s": total(own, "exactlin.in_row_span"),
        "exactlin.common_kernel_calls": total(calls, "exactlin.common_kernel"),
        "lattice.build_calls": total(calls, "lattice.build_lattice"),
        "lattice.build_s": total(own, "lattice.build_lattice"),
        "lattice.flats": c.get("lattice.flats", 0),
        "lattice.root_builds": c.get("lattice.root_builds", 0),
        "lattice.bad_primes_s": total(incl, "lattice.bad_primes"),
        "lattice.count_calls": total(calls, "lattice.complement_count"),
        "lattice.count_s": total(incl, "lattice.complement_count"),
        "lattice.points": c.get("lattice.points", 0),
        "intpoly.interpolate_calls":
            total(calls, "intpoly.lagrange_interpolate"),
        "intpoly.interpolate_s": total(incl, "intpoly.lagrange_interpolate"),
        "osalg.circuits_calls": circ_calls,
        "osalg.circuits": c.get("osalg.circuits", 0),
        "osalg.circuits_s": total(own, "osalg.circuits"),
        "osalg.nbc_s": total(own, "osalg.nbc_basis"),
        "osalg.nbc_sets": c.get("osalg.nbc_sets", 0),
        "osalg.circuit_cache_hits": circ_calls - len(tr.circuit_keys),
        "freeness.search_s": total(own, "freeness.inductive_freeness"),
        "freeness.nodes": c.get("freeness.nodes", 0),
        "freeness.restriction_calls": total(calls, "freeness.restriction"),
        "freeness.restriction_s": total(incl, "freeness.restriction"),
        "freeness.sub_lattices":
            total(calls, "lattice.build_lattice", "freeness"),
        "freeness.sub_lattice_s":
            total(incl, "lattice.build_lattice", "freeness"),
        "freeness.free": c.get("freeness.free", 0),
        "freeness.notfree": c.get("freeness.notfree", 0),
        "freeness.unknown": c.get("freeness.unknown", 0),
        "symmetry.s": layer_self("symmetry."),
        "arrfile.parse_s": total(own, "arrfile.parse"),
        "cli.self_s": layer_self("cli."),
    }


def main():
    prefix, path, flags = sys.argv[1], sys.argv[2], sys.argv[3:]
    import cmarr.cli as cli
    tr = Tracer()
    for mod, attr, name in WRAPS:
        tr.wrap(importlib.import_module("cmarr." + mod), attr, name, mod)
    job = tr.label_id("cli.job", "bench")

    def job_body():
        with open(path) as fh:
            text = fh.read()
        arr, _ = cli.parse_arrangement_with_warnings(text)
        tr.root_n = len(arr.hyperplanes)
        args = cli.build_parser().parse_args(["analyze", path] + flags
                                             + ["--json"])
        report = cli.run_analyze(arr, args)
        return report, json.dumps(report, indent=2, sort_keys=True)

    report, _ = tr.call(job, job_body, (), {})
    post0 = time.perf_counter()
    self_t, overlap, nested = tr.self_times()
    root_s = tr.end[0] - tr.start[0]
    self_sum = sum(self_t)
    with open(prefix + ".spans", "wb") as fh:
        for arr in (tr.label, tr.parent, tr.start, tr.end):
            arr.tofile(fh)
    result = {
        "cmarr_file": os.path.abspath(cli.__file__),
        "report": report,
        "metrics": layer_metrics(tr, self_t),
        "check": {"spans": len(tr.start), "root_s": root_s,
                  "self_sum_s": self_sum, "overlap_s": overlap,
                  "nested": nested,
                  "unaccounted_s": root_s + overlap - self_sum},
        "span_labels": tr.labels,
        "span_arrays": ["label:H", "parent:l", "start:d", "end:d"],
    }
    result["post_s"] = time.perf_counter() - post0
    with open(prefix + ".json", "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
