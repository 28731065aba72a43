"""Output checks behind the benchmark's error count.

Each check reads one job's `--json` report and compares it with values
known without running cmarr (bench/workloads.py), or with another part of
the same report computed by an independent route.  bench/run.py
never imports cmarr, so a defect in cmarr cannot hide in the checks.
"""

import workloads


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def product_of_linear(exponents):
    """Coefficients of prod (1 + b t), ascending."""
    acc = [1]
    for b in exponents:
        acc = poly_mul(acc, [1, b])
    return acc


def char_poly_from_poincare(poincare, dim):
    """chi(t) = sum_k (-1)^k pi_k t^(dim-k), ascending coefficients."""
    out = [0] * (dim + 1)
    for k, c in enumerate(poincare):
        out[dim - k] = (-1) ** k * c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def check_report(workload, job, report):
    """List of failed checks (empty when the report is correct)."""
    job_id, base, deleted, flags = job
    info = workloads.BASES[base]
    want_p, want_status = workloads.expected(base, deleted)
    want_p = list(want_p)
    n = info["n"] - len(deleted)
    dim = info["dim"]
    errs = []

    def need(ok, what):
        if not ok:
            errs.append("%s/%s: %s" % (workload, job_id, what))

    need(report.get("cardinality") == n, "cardinality %r != %d"
         % (report.get("cardinality"), n))
    need(report.get("dim") == dim and report.get("rank") == dim,
         "dim/rank %r/%r != %d" % (report.get("dim"), report.get("rank"), dim))
    if "--poincare" in flags:
        p = report.get("poincare") or {}
        need(p.get("coeffs") == want_p,
             "poincare %r != known %r" % (p.get("coeffs"), want_p))
        need(p.get("whitney") == want_p, "whitney numbers != poincare")
        exps = p.get("exponents")
        if exps is not None:
            need(product_of_linear(exps) == want_p,
                 "poincare exponents %r do not multiply out" % (exps,))
    if "--os" in flags:
        o = report.get("os") or {}
        need(o.get("graded") == want_p,
             "os.graded %r != whitney %r" % (o.get("graded"), want_p))
        need(o.get("total") == sum(want_p), "os.total != pi(1)")
        if "--os-basis" in flags:
            basis = o.get("basis") or []
            sizes = [len(bucket) for bucket in basis]
            need(sizes == want_p, "nbc basis bucket sizes %r" % (sizes,))
            sets = [tuple(s) for bucket in basis for s in bucket]
            need(len(set(sets)) == len(sets), "repeated nbc set")
            need(all(len(s) == k for k, bucket in enumerate(basis)
                     for s in bucket), "nbc set in the wrong bucket")
            need(all(0 <= i < n for s in sets for i in s),
                 "nbc index out of range")
    if "--ff-primes" in flags:
        ff = report.get("ff") or {}
        k = int(flags[flags.index("--ff-primes") + 1])
        need(len(ff.get("primes", ())) == k, "ff prime count != %d" % k)
        need(ff.get("char_poly") == char_poly_from_poincare(want_p, dim),
             "ff.char_poly %r disagrees with os/whitney" % (ff.get("char_poly"),))
        need(ff.get("agrees_with_mobius") is True, "ff not agreeing")
    if "--free" in flags:
        f = report.get("freeness") or {}
        status = f.get("status")
        budgeted = "--budget" in flags
        if budgeted:
            budget = int(flags[flags.index("--budget") + 1])
            need(f.get("nodes_used", budget + 1) <= budget,
                 "nodes_used over budget")
        else:
            need(status != "Unknown", "Unknown verdict without a budget")
            need(status == want_status,
                 "freeness %r != known %r" % (status, want_status))
        if status == "InductivelyFree":
            exps = f.get("exponents") or []
            need(sum(exps) == n, "freeness exponents sum %d != %d"
                 % (sum(exps), n))
            need(product_of_linear(exps) == want_p,
                 "prod(1+bt) over %r != poincare" % (exps,))
    if "--stability" in flags:
        s = report.get("stability") or {}
        need(s.get("stable") is True, "base arrangement reported unstable")
        need(s.get("contains_coxeter") is True, "coxeter subarrangement lost")
    if "--orbits" in flags:
        orbits = report.get("orbits") or []
        flat = sorted(i for o in orbits for i in o)
        need(flat == list(range(n)), "orbits do not partition 0..n-1")
        need(sorted(len(o) for o in orbits) == list(info["orbits"]),
             "orbit sizes %r" % sorted(len(o) for o in orbits))
    if "--e-count" in flags:
        e = report.get("e_count")
        need(isinstance(e, int) and e * info["weyl_order"] == sum(want_p),
             "e_count %r * |W| != pi(1)" % (e,))
    return errs
