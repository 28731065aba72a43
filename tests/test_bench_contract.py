"""The benchmark reads cmarr by name: these checks keep cmarr edits from
breaking it unnoticed.

bench/trace_job.py replaces each (module, attribute) of its WRAPS table on
the cmarr module with a traced wrapper; a name that no longer resolves makes
every traced job of `bench/run.py --trace 1` fail.  bench/workloads.py
passes each job's flags to `cmarr analyze`; a flag the parser no longer
accepts turns the job into a usage error.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import cmarr.cli
import cmarr.freeness
import cmarr.lattice
import cmarr.osalg
from cmarr.cli import build_parser
from cmarr.generators import gen_G8, gen_coxeter_namikawa, gen_wreath

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACE_JOB = BENCH / "trace_job.py"


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_wraps_resolve_on_cmarr():
    trace_job = _load(TRACE_JOB)
    assert trace_job.WRAPS
    missing = [(mod, attr) for mod, attr, _ in trace_job.WRAPS
               if not callable(getattr(importlib.import_module("cmarr." + mod),
                                       attr, None))]
    assert missing == []


def test_workload_flags_parse():
    """Every benchmark job's flags are accepted by `cmarr analyze`, so a CLI
    edit cannot silently turn a benchmark job into a usage error."""
    workloads = _load(BENCH / "workloads.py").WORKLOADS
    assert workloads
    for jobs in workloads.values():
        for job_id, _, _, flags in jobs:
            args = build_parser().parse_args(["analyze", "x.arr", *flags])
            assert args.command == "analyze", job_id


def test_nbc_basis_calls_circuits_through_the_module(monkeypatch):
    """The traced crosscheck counts `osalg.circuits` by wrapping the module
    attribute, and requires `osalg.circuits_calls` > 0; so nbc_basis must
    look circuits up through that attribute, not a bound reference."""
    calls = []
    real = cmarr.osalg.circuits

    def counted(arr, *args, **kwargs):
        calls.append(arr)
        return real(arr, *args, **kwargs)

    monkeypatch.setattr(cmarr.osalg, "circuits", counted)
    arr = gen_G8()
    assert cmarr.osalg.nbc_basis(arr).total == 336
    assert calls == [arr]


def test_point_counts_go_through_the_module(monkeypatch):
    """The traced crosscheck counts `lattice.complement_count` by wrapping
    the attributes cmarr.cli.complement_count and
    cmarr.lattice.complement_count, and requires `lattice.count_calls` > 0;
    so both the --threads path and char_poly_finite_field must look
    complement_count up through those attributes, once per prime."""
    arr = gen_coxeter_namikawa((4,))
    primes = cmarr.lattice.admissible_primes(arr, arr.dim + 2)
    real = cmarr.lattice.complement_count
    for module, run in (
            (cmarr.cli, lambda: cmarr.cli._counts_parallel(arr, primes, 2)),
            (cmarr.lattice,
             lambda: cmarr.lattice.char_poly_finite_field(arr, primes))):
        calls = []

        def counted(a, q):
            calls.append(q)
            return real(a, q)

        monkeypatch.setattr(module, "complement_count", counted)
        run()
        assert sorted(calls) == primes, module.__name__


@pytest.mark.parametrize("make, flags", [
    (gen_G8, ["--os", "--threads", "2", "--stability", "--orbits",
              "--ff-primes", "5"]),
    (gen_G8, ["--poincare", "--os", "--ff-primes", "5"]),
    (lambda: gen_wreath("A3", 4, 2), ["--os", "--os-basis"]),
], ids=["G8-crosscheck", "G8-threads-1", "wreath-A3-2-os-basis"])
def test_each_job_builds_one_lattice(monkeypatch, make, flags):
    """Circuits, nbc sets, bad primes and the Mobius check all read the
    lattice `run_analyze` builds: one `build_lattice` call per job, through
    whichever module makes it."""
    calls = []
    real = cmarr.lattice.build_lattice

    def counted(arr):
        calls.append(arr)
        return real(arr)

    # osalg builds through cmarr.lattice today; raising=False also covers
    # a build_lattice of its own
    for module in (cmarr.cli, cmarr.lattice, cmarr.osalg):
        monkeypatch.setattr(module, "build_lattice", counted, raising=False)
    arr = make()
    args = build_parser().parse_args(["analyze", "x.arr", *flags])
    cmarr.cli.run_analyze(arr, args)
    assert calls == [arr]


def test_analyze_calls_osalg_and_generators_through_cli(monkeypatch):
    """cmarr.cli.nbc_basis and cmarr.cli.inductive_freeness import their
    modules on the first call, and cmarr.cli.gen_coxeter_namikawa is bound
    from symmetry; bench/trace_job.py wraps all three by name, so
    run_analyze must call each through the cli attribute, once per job."""
    calls = []
    for name in ("nbc_basis", "gen_coxeter_namikawa", "inductive_freeness"):
        real = getattr(cmarr.cli, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(cmarr.cli, name, counted)
    args = build_parser().parse_args(["analyze", "x.arr", "--os",
                                      "--stability", "--free"])
    report = cmarr.cli.run_analyze(gen_G8(), args)
    assert sorted(calls) == ["gen_coxeter_namikawa", "inductive_freeness",
                             "nbc_basis"]
    assert report["os"]["total"] == 336
    assert report["stability"]["contains_coxeter"]
    assert report["freeness"]["status"] == "InductivelyFree"


def test_trace_hooks_read_real_results():
    """Each `_HOOKS` entry of bench/trace_job.py reads the arguments and
    result of the cmarr call it follows; run on real ones, it sets its
    counters, so a hook that reads a removed attribute fails here and not
    in every traced job."""
    trace_job = _load(TRACE_JOB)
    arr = gen_G8()
    lat = cmarr.lattice.build_lattice(arr)
    circuits = cmarr.osalg.circuits(arr, lattice=lat)
    basis = cmarr.osalg.nbc_basis(arr, lattice=lat)
    verdict = cmarr.freeness.inductive_freeness(arr, lattice=lat)
    cases = {
        "lattice.build_lattice": ((arr,), lat, {
            "lattice.flats": sum(len(level) for level in lat.masks),
            "lattice.root_builds": 1}),
        "osalg.circuits": ((arr,), circuits,
                           {"osalg.circuits": len(circuits)}),
        "osalg.nbc_basis": ((arr,), basis, {"osalg.nbc_sets": 336}),
        "lattice.complement_count": (
            (arr, 5), cmarr.lattice.complement_count(arr, 5),
            {"lattice.points": 25}),
        "freeness.inductive_freeness": ((arr,), verdict, {
            "freeness.nodes": verdict.nodes_used, "freeness.free": 1}),
    }
    assert set(cases) == set(trace_job._HOOKS)
    for name, (args, result, counters) in cases.items():
        tr = trace_job.Tracer()
        tr.root_n = len(arr.hyperplanes)
        trace_job._HOOKS[name](tr, args, result)
        assert tr.counters == counters, name
