"""The benchmark's span tracer wraps cmarr attributes by name.

bench/trace_job.py replaces each (module, attribute) of its WRAPS table on
the cmarr module with a traced wrapper; a name that no longer resolves makes
every traced job fail.  This keeps renames and deletions in cmarr from
breaking `bench/run.py --trace 1` unnoticed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACE_JOB = Path(__file__).resolve().parent.parent / "bench" / "trace_job.py"


def test_trace_wraps_resolve_on_cmarr():
    spec = importlib.util.spec_from_file_location("trace_job", TRACE_JOB)
    trace_job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_job)
    assert trace_job.WRAPS
    missing = [(mod, attr) for mod, attr, _ in trace_job.WRAPS
               if not callable(getattr(importlib.import_module("cmarr." + mod),
                                       attr, None))]
    assert missing == []
