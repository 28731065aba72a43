"""Command-line interface: gen / analyze / audit-table."""

import argparse
import json
import sys

from .arrfile import (emit_arrangement, parse_arrangement_with_warnings,
                      parse_weyl_token)
from .errors import (CmarrError, InconsistentCounts, InputError, InvalidParams,
                     ParseError, StrictUnknown, UnknownGenerator)
from .intpoly import exponents_from_poincare
# _interpolate_counts, complement_count and _counts_parallel go unused, but
# bench/trace_job.WRAPS and test_bench_contract name them (ROADMAP
# direction 1, step 3)
from .lattice import (_interpolate_counts, admissible_primes, build_lattice,
                      characteristic_polynomial, complement_count,
                      char_poly_finite_field, poincare_polynomial)
from .symmetry import (contains_subarrangement, gen_coxeter_namikawa,
                       generator_permutations, hyperplane_orbits, is_stable,
                       terminalization_count)

SCHEMA_VERSION = 1


# osalg and freeness load on the first call of one of these: most jobs
# call neither.  run_analyze calls through them, so a wrapper bound to these
# names sees every call.
def nbc_basis(arr, lattice):
    from . import osalg
    return osalg.nbc_basis(arr, lattice=lattice)


def inductive_freeness(arr, budget, lattice):
    from . import freeness
    if budget is None:  # no --budget: the search's own default
        budget = freeness.DEFAULT_BUDGET
    return freeness.inductive_freeness(arr, budget=budget, lattice=lattice)


def run_generate(name, args):
    """Build the requested arrangement; raises UnknownGenerator/InvalidParams."""
    from .generators import (default_group_order, gen_G4, gen_G8, gen_cyclic,
                             gen_dihedral_even, gen_wreath)
    if name == "cyclic":
        if args.ell is None:
            raise InvalidParams("gen cyclic requires --ell")
        return gen_cyclic(args.ell)
    if name == "wreath":
        if args.g is None:
            raise InvalidParams("gen wreath requires --g")
        if args.n is None:
            raise InvalidParams("gen wreath requires --n")
        order = args.order
        if order is None:
            order = default_group_order(args.g)
        return gen_wreath(args.g, order, args.n)
    if name == "dihedral":
        return gen_dihedral_even()
    if name == "g4":
        return gen_G4()
    if name == "g8":
        return gen_G8()
    if name == "coxeter":
        if args.weyl is None:
            raise InvalidParams("gen coxeter requires --weyl")
        return gen_coxeter_namikawa(parse_weyl_token(args.weyl))
    raise UnknownGenerator("no generator named %r" % name)


def _read_input(path):
    """The text of the file at path, or of stdin for "-", decoded as strict
    UTF-8 either way; raises ParseError when it cannot be read or decoded."""
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        return data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(str(e))


def run_analyze(arr, args):
    """Execute the requested pipeline stages; returns the report dict.

    Raises library errors for math-audit signals and StrictUnknown when
    --strict meets an Unknown freeness verdict, whatever its reason.
    """
    report = {
        "schema_version": SCHEMA_VERSION,
        "label": arr.label,
        "dim": arr.dim,
        "cardinality": len(arr.hyperplanes),
        "rank": arr.rank,
    }
    lat = None

    def lattice():
        nonlocal lat
        if lat is None:
            lat = build_lattice(arr)
        return lat

    if args.poincare or args.e_count:
        p = poincare_polynomial(lattice())
    if args.poincare:
        rep = exponents_from_poincare(p)
        report["poincare"] = {
            "coeffs": list(p.coeffs),
            "text": p.format(),
            "whitney": list(p.coeffs),
            "exponents": list(rep.exponents) if rep.factors_integrally
                         else None,
        }
    if args.os:
        basis = nbc_basis(arr, lattice=lattice())
        report["os"] = {
            "graded": list(basis.sizes),
            "total": basis.total,
        }
        if args.os_basis:
            report["os"]["basis"] = [
                [list(s) for s in bucket] for bucket in basis.sets_by_size]
    if args.free:
        verdict = inductive_freeness(arr, budget=args.budget,
                                     lattice=lattice())
        report["freeness"] = verdict.to_dict()
        if args.strict and verdict.status == "Unknown":
            raise StrictUnknown("freeness verdict Unknown under --strict")
    if args.stability:
        st = is_stable(arr)
        cox = gen_coxeter_namikawa(arr.weyl)
        report["stability"] = {
            "weyl": list(arr.weyl),
            "stable": st.stable,
            "witness": None if st.stable else {
                "generator": [list(p) for p in
                              st.witness_generator.perms],
                "covector": list(st.witness_covector),
            },
            "contains_coxeter": contains_subarrangement(arr, cox),
        }
    if args.orbits:
        orbits = hyperplane_orbits(arr)
        report["orbits"] = [list(o) for o in orbits]
    if args.e_count:
        # e counts terminalizations up to W only where W acts
        generator_permutations(arr)
        report["e_count"] = terminalization_count(p, arr.weyl)
    if args.ff_primes:
        k = max(args.ff_primes, arr.dim + 1)
        if k != args.ff_primes:
            print("warning: raised prime count to dim+1 = %d" % k,
                  file=sys.stderr)
        primes = admissible_primes(arr, k, lattice=lattice())
        # one thread whatever --threads says: the counts hold the GIL
        ff = char_poly_finite_field(arr, primes, lattice=lattice())
        chi = characteristic_polynomial(lattice())
        if ff != chi:
            raise InconsistentCounts(
                "finite-field polynomial %s disagrees with Mobius %s"
                % (ff, chi))
        report["ff"] = {
            "primes": primes,
            "char_poly": list(ff.coeffs),
            "agrees_with_mobius": True,
        }
    return report


def _counts_parallel(arr, primes, threads):
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda q: complement_count(arr, q), primes))


def render_report(report):
    lines = []
    if report.get("label"):
        lines.append("label: %s" % report["label"])
    lines.append("dim: %d" % report["dim"])
    lines.append("cardinality: %d" % report["cardinality"])
    lines.append("rank: %d" % report["rank"])
    if "poincare" in report:
        p = report["poincare"]
        lines.append("poincare: %s" % p["text"])
        lines.append("whitney: %s" % " ".join(str(x) for x in p["whitney"]))
        if p["exponents"] is not None:
            lines.append("exponents: %s"
                         % " ".join(str(b) for b in p["exponents"]))
        else:
            lines.append("exponents: does-not-factor")
    if "os" in report:
        lines.append("os-graded: %s"
                     % " ".join(str(x) for x in report["os"]["graded"]))
        lines.append("os-total: %d" % report["os"]["total"])
        if "basis" in report["os"]:
            for size, bucket in enumerate(report["os"]["basis"]):
                for s in bucket:
                    lines.append("os-basis: {%s}"
                                 % ",".join(str(i) for i in s))
    if "freeness" in report:
        f = report["freeness"]
        lines.append("freeness: %s" % f["status"])
        if f["exponents"]:
            lines.append("freeness-exponents: %s"
                         % " ".join(str(b) for b in f["exponents"]))
        lines.append("freeness-nodes: %d" % f["nodes_used"])
    if "stability" in report:
        s = report["stability"]
        lines.append("stability: %s" % ("stable" if s["stable"]
                                        else "unstable"))
        lines.append("contains-coxeter: %s"
                     % ("true" if s["contains_coxeter"] else "false"))
    if "orbits" in report:
        for o in report["orbits"]:
            lines.append("orbit: %s" % " ".join(str(i) for i in o))
    if "e_count" in report:
        lines.append("e-count: %d" % report["e_count"])
    if "ff" in report:
        lines.append("ff-primes: %s"
                     % " ".join(str(q) for q in report["ff"]["primes"]))
        lines.append("ff-char-poly: %s"
                     % " ".join(str(c) for c in report["ff"]["char_poly"]))
        lines.append("ff-agrees: true")
    return "\n".join(lines) + "\n"


def run_audit_table():
    from .symmetry import audit_table1
    reports = audit_table1()
    return {
        "schema_version": SCHEMA_VERSION,
        "rows": reports,
        "passing": sum(1 for r in reports if r["pass"]),
        "total": len(reports),
    }


def render_audit(report):
    lines = []
    for r in report["rows"]:
        bits = ["degree=%s" % ("pass" if r["check_degree"] else "FAIL"),
                "e=%s" % ("pass" if r["check_e"] else "FAIL")]
        if r["computed_e"] is None:
            bits.append("computed=non-integral")
        else:
            bits.append("computed=%d" % r["computed_e"])
        bits.append("printed=%d" % r["printed_e"])
        if r["check_exponents"] is not None:
            bits.append("exponents=%s"
                        % ("pass" if r["check_exponents"] else "FAIL"))
        status = "PASS" if r["pass"] else "FAIL"
        lines.append("%-4s %s => %s" % (r["group"], " ".join(bits), status))
    lines.append("passing: %d/%d" % (report["passing"], report["total"]))
    return "\n".join(lines) + "\n"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cmarr",
        description="Exact-arithmetic toolkit for Calogero-Moser / Namikawa "
                    "hyperplane arrangements")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="emit an arrangement file")
    g.add_argument("name",
                   help="cyclic | wreath | dihedral | g4 | g8 | coxeter")
    g.add_argument("--ell", type=int, help="cyclic group order")
    g.add_argument("--g", help="root system label for wreath (A1, A2, D4, ...)")
    g.add_argument("--order", type=int, help="Kleinian group order for wreath")
    g.add_argument("--n", type=int, help="symmetric group degree for wreath")
    g.add_argument("--weyl", help="block layout for coxeter, e.g. S4 or S2xS3")

    a = sub.add_parser("analyze", help="analyze an arrangement file")
    a.add_argument("file", help="path to an arrangement file, or - for stdin")
    a.add_argument("--poincare", action="store_true")
    a.add_argument("--os", action="store_true")
    a.add_argument("--os-basis", dest="os_basis", action="store_true")
    a.add_argument("--free", action="store_true")
    a.add_argument("--budget", type=int)
    a.add_argument("--stability", action="store_true")
    a.add_argument("--orbits", action="store_true")
    a.add_argument("--e-count", dest="e_count", action="store_true")
    a.add_argument("--ff-primes", dest="ff_primes", type=int, default=0,
                   metavar="K", help="cross-check chi over K admissible primes")
    a.add_argument("--json", action="store_true")
    a.add_argument("--strict", action="store_true",
                   help="exit 3 when the freeness verdict is Unknown")
    a.add_argument("--threads", type=int, default=1)

    t = sub.add_parser("audit-table", help="audit the bundled reference table")
    t.add_argument("--json", action="store_true")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on a usage error after printing the usage line;
        # 2 is this command's "mathematical audit failed", so a usage error
        # takes the code of bad input
        return InputError.exit_code if e.code else 0
    try:
        if args.command == "gen":
            arr = run_generate(args.name, args)
            sys.stdout.write(emit_arrangement(arr))
            return 0
        if args.command == "analyze":
            for flag, value, least in (("--threads", args.threads, 1),
                                       ("--budget", args.budget, 1),
                                       ("--ff-primes", args.ff_primes, 0)):
                if value is not None and value < least:
                    raise InvalidParams("%s must be at least %d, got %d"
                                        % (flag, least, value))
            arr, warnings = parse_arrangement_with_warnings(
                _read_input(args.file))
            for w in warnings:
                print("warning: %s" % w, file=sys.stderr)
            report = run_analyze(arr, args)
            if args.json:
                sys.stdout.write(json.dumps(report, indent=2,
                                            sort_keys=True) + "\n")
            else:
                sys.stdout.write(render_report(report))
            return 0
        if args.command == "audit-table":
            report = run_audit_table()
            if args.json:
                sys.stdout.write(json.dumps(report, indent=2,
                                            sort_keys=True) + "\n")
            else:
                sys.stdout.write(render_audit(report))
            return 0
    except CmarrError as e:
        if e.exit_code == CmarrError.exit_code:  # name the failed check
            print("error: internal check failed: %s: %s"
                  % (type(e).__name__, e), file=sys.stderr)
        else:
            print("error: %s" % e, file=sys.stderr)
        return e.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
