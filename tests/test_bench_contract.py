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

import cmarr.cli
import cmarr.lattice
import cmarr.osalg
from cmarr.cli import build_parser
from cmarr.generators import gen_G8, gen_coxeter_namikawa

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

    def counted(arr):
        calls.append(arr)
        return real(arr)

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
