import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import cmarr.cli as cli_mod
from cmarr import errors
from cmarr.arrfile import (_parse_entry, emit_arrangement, parse_arrangement,
                           parse_arrangement_with_warnings, parse_weyl_token)
from cmarr.cli import main
from cmarr.errors import EmptyBody, InvalidParams, ParseError
from cmarr.exactlin import project_zero_sum
from cmarr.generators import gen_G8
from cmarr.lattice import Arrangement

SRC = Path(__file__).resolve().parent.parent / "src"


def data_text(name):
    return resources.files("cmarr").joinpath("data/%s" % name).read_text()


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# file format


def test_parse_boolean_pair():
    arr = parse_arrangement("dim 2\nh 1 0\nh 0 1\n")
    assert arr.dim == 2 and arr.hyperplanes == ((1, 0), (0, 1))


def test_parse_duplicate_warning():
    arr, warnings = parse_arrangement_with_warnings(
        "dim 2\nh 2 0\nh 1 0\n")
    assert len(arr) == 1
    assert len(warnings) == 1 and "duplicate" in warnings[0]


def test_parse_shipped_g8():
    arr = parse_arrangement(data_text("g8.arr"))
    g8 = gen_G8()
    assert arr.dim == 3 and set(arr.hyperplanes) == set(g8.hyperplanes)
    assert arr.weyl == (4,)


def test_parse_rationals_and_comments():
    arr = parse_arrangement(
        "# header comment\ndim 2  # trailing\nh 1/3 -1/6\n")
    assert arr.hyperplanes == ((2, -1),)


# covector entries as a file may write them: integers with signs, `_`
# separators, leading zeros and non-ASCII decimal digits, a/b, decimals,
# exponents, and junk over the same characters
_ENTRY_TOKENS = st.one_of(
    st.from_regex(r"\A[+-]?\d+(_\d+)*\Z"),
    st.from_regex(r"\A[+-]?0*\d{1,3}/0*\d{1,3}\Z"),
    st.from_regex(r"\A[+-]?\d*\.?\d*([eE][+-]?\d{1,2})?\Z"),
    st.integers().map(str),
    st.fractions().map(str),
    st.text(alphabet="0123456789+-_/.eExj\u0663\uff17\u00b2", max_size=8),
)


def _fraction_or_error(token):
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as e:
        return type(e)


@settings(deadline=None, max_examples=500)
@given(_ENTRY_TOKENS)
def test_entry_parser_reads_what_fraction_reads(token):
    """An entry is read as an int when int() accepts it and as a Fraction
    otherwise; either way its value, or its error, is Fraction(token)'s."""
    want = _fraction_or_error(token)
    try:
        got = _parse_entry(token)
    except (ValueError, ZeroDivisionError) as e:
        got = type(e)
    assert got == want
    assert type(got) in (int, Fraction) or got is want


@settings(deadline=None, max_examples=200)
@given(_ENTRY_TOKENS)
def test_file_entries_read_as_fractions(token):
    assume(token.split() == [token] and "#" not in token)
    text = "dim 2\nh 1 %s\n" % token
    value = _fraction_or_error(token)
    if not isinstance(value, Fraction):
        with pytest.raises(ParseError, match="line 2: bad covector entry"):
            parse_arrangement(text)
    else:
        assert parse_arrangement(text).hyperplanes == \
            Arrangement(2, [(Fraction(1), value)]).hyperplanes


_RATIONAL_FILE = """label rational
dim 5
project-zero-sum blocks=2,3
h 1/2 -1/2 0 0 1/3 T
h 3 0.5 1e1 -2/6 0 F
h 0 0 1 -1 0 T
h -1_0 10 0 0 0 F
h 0 07 0 0 0 T
"""


def test_rational_file_parses_as_with_fractions():
    """The same Arrangement as when every entry is read by Fraction."""
    rows = [line.split()[1:] for line in _RATIONAL_FILE.splitlines()
            if line.startswith("h ")]
    arr, warnings = parse_arrangement_with_warnings(_RATIONAL_FILE)
    assert warnings == ["1 duplicate hyperplane line dropped"]
    assert (arr.label, arr.dim, arr.weyl) == ("rational", 3, (2, 3))
    assert arr.hyperplanes == ((3, 0, -1), (15, 62, 60), (0, 2, 1),
                               (1, 0, 0))
    assert arr.tags == ("T", "F", "T", "F")
    projected = Arrangement(
        3, [project_zero_sum([Fraction(e) for e in row[:-1]], (2, 3))
            for row in rows], tags=[row[-1] for row in rows])
    assert (arr.hyperplanes, arr.tags) == (projected.hyperplanes,
                                           projected.tags)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_arrangement("dim 2\nh 1\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_arrangement("dim 2\nh 0 0\n")
    with pytest.raises(ParseError):
        parse_arrangement("h 1 0\ndim 2\n")
    with pytest.raises(ParseError):
        parse_arrangement("dim 2\nh 1 0 T\nh 0 1\n")  # mixed tagging
    with pytest.raises(EmptyBody):
        parse_arrangement("dim 2\n")


def test_parse_weyl_token():
    assert parse_weyl_token("S2xS3") == (2, 3)
    assert parse_weyl_token("S4") == (4,)
    with pytest.raises(InvalidParams):
        parse_weyl_token("T2")
    # "\u00b2" (superscript two) is a digit that int() rejects; any
    # Unicode decimal digit int() reads
    with pytest.raises(InvalidParams, match="bad weyl factor"):
        parse_weyl_token("S\u00b2")
    assert parse_weyl_token("S\u0663") == (3,)


def test_non_decimal_digits_are_usage_errors(capsys, tmp_path):
    code, out, err = run(capsys, ["gen", "coxeter", "--weyl", "S\u00b2"])
    assert (code, out) == (1, "")
    assert err == "error: bad weyl factor 'S\u00b2'\n"
    path = tmp_path / "dim.arr"
    path.write_text("dim \u00b2\nh 1 0\n")
    code, _, err = run(capsys, ["analyze", str(path), "--poincare"])
    assert (code, err) == (1, "error: line 1: dim needs one integer "
                              "argument\n")


def test_roundtrip_shipped_files():
    for name in ("g8.arr", "g4.arr", "dihedral.arr"):
        arr = parse_arrangement(data_text(name))
        canonical = emit_arrangement(arr)
        again = parse_arrangement(canonical)
        assert again.dim == arr.dim
        assert again.hyperplanes == arr.hyperplanes
        assert again.tags == arr.tags
        assert again.weyl == arr.weyl
        assert again.label == arr.label
        assert emit_arrangement(again) == canonical


# ---------------------------------------------------------------------------
# CLI


def test_gen_then_analyze_poincare(capsys, tmp_path):
    code, out, _ = run(capsys, ["gen", "g8"])
    assert code == 0
    path = tmp_path / "g8.arr"
    path.write_text(out)
    code, out, _ = run(capsys, [
        "analyze", str(path), "--poincare", "--stability", "--e-count"])
    assert code == 0
    assert "exponents: 1 11 13" in out
    assert "stability: stable" in out
    assert "contains-coxeter: true" in out
    assert "e-count: 14" in out


def test_analyze_json_text_agreement(capsys, tmp_path):
    path = tmp_path / "d.arr"
    code, out, _ = run(capsys, ["gen", "dihedral"])
    path.write_text(out)
    flags = ["--poincare", "--os", "--orbits", "--e-count"]
    code, text_out, _ = run(capsys, ["analyze", str(path)] + flags)
    assert code == 0
    code, json_out, _ = run(capsys, ["analyze", str(path)] + flags + ["--json"])
    assert code == 0
    rep = json.loads(json_out)
    assert rep["schema_version"] == 1
    assert rep["poincare"]["coeffs"] == [1, 4, 3]
    assert rep["os"]["graded"] == [1, 4, 3]
    assert rep["e_count"] == 2
    assert rep["orbits"] == [[0], [1], [2, 3]]
    # every number of the JSON form appears in the text form
    assert "poincare: 3t^2 + 4t + 1" in text_out
    assert "os-graded: 1 4 3" in text_out
    assert "e-count: 2" in text_out
    assert "orbit: 2 3" in text_out


def test_analyze_os_basis(capsys, tmp_path):
    path = tmp_path / "d.arr"
    _, out, _ = run(capsys, ["gen", "dihedral"])
    path.write_text(out)
    code, out, _ = run(capsys, ["analyze", str(path), "--os", "--os-basis"])
    assert code == 0
    assert "os-basis: {0,1}" in out


def test_gen_wreath_and_cyclic(capsys):
    code, out, _ = run(capsys, ["gen", "wreath", "--g", "A1", "--order", "2",
                                "--n", "2"])
    assert code == 0
    assert out.count("\nh ") == 4
    code, out, _ = run(capsys, ["gen", "cyclic", "--ell", "2"])
    assert code == 0
    assert out.count("\nh ") == 1


def test_gen_unknown_and_bad_params(capsys):
    code, _, err = run(capsys, ["gen", "nosuch"])
    assert code == 1 and "error" in err
    code, _, err = run(capsys, ["gen", "cyclic", "--ell", "1"])
    assert code == 1
    code, _, err = run(capsys, ["gen", "wreath", "--g", "A2", "--order", "5",
                                "--n", "2"])
    assert code == 1


def test_analyze_parse_error_exit(capsys, tmp_path):
    path = tmp_path / "bad.arr"
    path.write_text("dim 2\nh 1\n")
    code, _, err = run(capsys, ["analyze", str(path), "--poincare"])
    assert code == 1 and "error" in err
    code, _, err = run(capsys, ["analyze", str(tmp_path / "missing.arr")])
    assert code == 1


def test_analyze_math_audit_exit(capsys, tmp_path):
    # e-count without a Weyl layout is a math-audit failure (exit 2)
    path = tmp_path / "plain.arr"
    path.write_text("dim 2\nh 1 0\nh 0 1\n")
    code, _, err = run(capsys, ["analyze", str(path), "--e-count"])
    assert code == 2
    # non-integral quotient is also exit 2
    path2 = tmp_path / "odd.arr"
    path2.write_text("dim 2\nweyl S3\nh 2 1\nh 1 2\nh 1 -1\nh 1 0\n")
    code, _, err = run(capsys, ["analyze", str(path2), "--e-count"])
    assert code == 2 and "error" in err


def test_analyze_strict_unknown_exit(capsys, tmp_path):
    path = tmp_path / "g8.arr"
    _, out, _ = run(capsys, ["gen", "g8"])
    path.write_text(out)
    code, _, err = run(capsys, ["analyze", str(path), "--free",
                                "--budget", "1", "--strict"])
    assert code == 3


@pytest.mark.parametrize("flags", [["--threads", "0"], ["--budget", "0"],
                                   ["--free", "--budget", "-2"],
                                   ["--ff-primes", "-1"]])
def test_analyze_rejects_out_of_range_counts(capsys, tmp_path, flags):
    path = tmp_path / "b.arr"
    path.write_text("dim 2\nh 1 0\nh 0 1\n")
    code, out, err = run(capsys, ["analyze", str(path), "--poincare"] + flags)
    assert code == 1 and out == ""
    assert err.startswith("error: %s must be at least" % flags[-2])


def test_analyze_zero_projected_covector_exit(capsys, tmp_path):
    # (1, 1, 1) lies on the zero-sum block's normal and projects to zero
    path = tmp_path / "z.arr"
    path.write_text("dim 3\nproject-zero-sum blocks=3\nh 1 1 1\nh 1 0 0\n")
    code, out, err = run(capsys, ["analyze", str(path), "--poincare"])
    assert code == 1 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("error, exit_code", [
    (errors.ZeroCovector, 1), (errors.DimensionMismatch, 1),
    (errors.IndexOutOfRange, 1), (errors.MalformedPolynomial, 4),
    (errors.FlatNotInLattice, 4), (errors.MobiusSignViolation, 4),
    (errors.InexactDivision, 4), (errors.ExponentMismatch, 4),
    (errors.GeneratorInvariant, 4)])
def test_library_errors_map_to_exit_codes(capsys, tmp_path, monkeypatch,
                                          error, exit_code):
    def failing(arr):
        raise error("injected")

    monkeypatch.setattr(cli_mod, "build_lattice", failing)
    path = tmp_path / "b.arr"
    path.write_text("dim 2\nh 1 0\nh 0 1\n")
    code, out, err = run(capsys, ["analyze", str(path), "--poincare"])
    assert code == exit_code and out == ""
    assert err.startswith("error: ") and "injected" in err


def test_analyze_poincare_free_builds_root_lattice_once(capsys, tmp_path,
                                                       monkeypatch):
    import cmarr.freeness as free_mod
    real = cli_mod.build_lattice
    n = len(gen_G8())
    root_builds = []  # restrictions, the only other builds, are smaller

    def counting(arr):
        if len(arr) == n:
            root_builds.append(arr)
        return real(arr)

    monkeypatch.setattr(cli_mod, "build_lattice", counting)
    monkeypatch.setattr(free_mod, "build_lattice", counting)
    path = tmp_path / "g8.arr"
    path.write_text(emit_arrangement(gen_G8()))
    code, out, _ = run(capsys, ["analyze", str(path), "--poincare", "--free"])
    assert code == 0
    assert "freeness: InductivelyFree" in out
    assert len(root_builds) == 1


def test_analyze_ff_threads_agree(capsys, tmp_path):
    path = tmp_path / "g4.arr"
    _, out, _ = run(capsys, ["gen", "g4"])
    path.write_text(out)
    outputs = []
    for threads in ("1", "2"):
        code, out, _ = run(capsys, ["analyze", str(path), "--ff-primes", "4",
                                    "--threads", threads])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert "ff-agrees: true" in outputs[0]


# gen arguments and --ff-primes (dim + 2) of each stored cross-check report
CROSSCHECK_GOLDEN = {
    "G8": (["g8"], "5"),
    "coxeter-S3xS4": (["coxeter", "--weyl", "S3xS4"], "7"),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(CROSSCHECK_GOLDEN))
def test_analyze_crosscheck_golden(capsys, tmp_path, name, threads):
    """The full JSON report of a cross-check run (nbc sets, dim + 2
    finite-field primes, stability, orbits) is byte-identical to the one
    stored in tests/data, with and without the thread pool."""
    gen_args, primes = CROSSCHECK_GOLDEN[name]
    _, out, _ = run(capsys, ["gen"] + gen_args)
    path = tmp_path / "a.arr"
    path.write_text(out)
    code, out, err = run(capsys, [
        "analyze", str(path), "--os", "--ff-primes", primes, "--stability",
        "--orbits", "--threads", threads, "--json"])
    assert code == 0 and err == ""
    golden = (Path(__file__).resolve().parent / "data"
              / ("crosscheck_%s.json" % name)).read_text()
    assert out == golden


GEN_GOLDEN = json.loads((Path(__file__).resolve().parent / "data"
                         / "gen_golden.json").read_text())


@pytest.mark.parametrize("name", sorted(GEN_GOLDEN))
def test_gen_golden(capsys, name):
    """`cmarr gen` writes the bytes stored in tests/data/gen_golden.json,
    the D/E wreath families included."""
    case = GEN_GOLDEN[name]
    assert run(capsys, ["gen"] + case["args"]) == (0, case["stdout"], "")


def test_audit_table_cli(capsys):
    code, out, _ = run(capsys, ["audit-table"])
    assert code == 0
    assert "passing: 13/15" in out
    assert "G9" in out and "computed=314" in out
    code, out, _ = run(capsys, ["audit-table", "--json"])
    rep = json.loads(out)
    assert rep["passing"] == 13 and rep["total"] == 15


def test_deterministic_output(capsys, tmp_path):
    path = tmp_path / "g4.arr"
    _, out, _ = run(capsys, ["gen", "g4"])
    path.write_text(out)
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, ["analyze", str(path), "--poincare",
                                    "--os", "--free", "--orbits"])
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_parse_zero_projected_covector_names_its_line():
    with pytest.raises(ParseError) as exc:
        parse_arrangement("dim 3\nproject-zero-sum blocks=3\nh 1 1 1\n")
    assert exc.value.line == 3


@pytest.mark.parametrize("flags", [["--threads", "x"], ["--nosuch"]],
                         ids=["non-integer", "unknown-flag"])
def test_analyze_usage_errors_exit_1(capsys, tmp_path, flags):
    # argparse's own exit code 2 would read as a failed mathematical audit
    path = tmp_path / "b.arr"
    path.write_text("dim 2\nh 1 0\nh 0 1\n")
    code, out, err = run(capsys, ["analyze", str(path)] + flags)
    assert code == 1 and out == ""
    assert err.startswith("usage: cmarr") and "error: " in err


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, ["analyze", "--help"])
    assert code == 0 and out.startswith("usage: cmarr analyze")


# Modules a fresh `import cmarr.cli` must not load: only the unused
# _counts_parallel imports concurrent.futures, only table1_rows (in
# generators, which the CLI imports on the first call that needs it) reads
# a bundled file through importlib.resources, and the rest come with
# dataclasses or typing.
UNLOADED_BY_CLI_IMPORT = ("concurrent.futures", "dataclasses", "inspect",
                          "ast", "typing", "importlib.resources")

# Modules only some `cmarr analyze` stages need: osalg for --os, generators
# for --stability, and fractions, with the decimal and numbers it imports,
# for a rational entry in the input file (--ff-primes interpolates in the
# integers).
STAGE_MODULES = ("cmarr.osalg", "cmarr.generators", "fractions", "decimal",
                 "numbers")


def _loaded_after(statement, modules, imported="cmarr.cli"):
    """The names in `modules` that `import <imported>` followed by
    `statement` leaves in sys.modules of a fresh interpreter."""
    # -S: modules that site's .pth files preload would hide an import
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, %s\n%s\nprint(' '.join(m for m in %r "
            "if m in sys.modules), file=sys.stderr)"
            % (imported, statement, modules))
    return subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=60).stderr.split()


def test_cli_import_leaves_thread_pool_unloaded():
    assert _loaded_after("", UNLOADED_BY_CLI_IMPORT) == []


def test_package_import_loads_no_submodule():
    submodules = tuple("cmarr." + p.stem
                       for p in sorted((SRC / "cmarr").glob("*.py"))
                       if p.stem != "__init__")
    assert "cmarr.lattice" in submodules
    assert _loaded_after("", submodules, imported="cmarr") == []


def _g8_job(tmp_path, flags):
    path = tmp_path / "g8.arr"
    path.write_text(emit_arrangement(gen_G8()))
    assert "weyl S4" in path.read_text()
    return "assert cmarr.cli.main(%r) == 0" % (["analyze", str(path)]
                                               + flags,)


def test_poincare_free_job_leaves_other_stages_unloaded(tmp_path):
    job = _g8_job(tmp_path, ["--poincare", "--free", "--json"])
    assert _loaded_after(job, STAGE_MODULES) == []


def test_os_stability_ff_job_loads_its_stages(tmp_path):
    job = _g8_job(tmp_path, ["--os", "--stability", "--ff-primes", "5"])
    assert _loaded_after(job, STAGE_MODULES) == ["cmarr.osalg",
                                                 "cmarr.generators"]


def test_symmetry_import_leaves_freeness_unloaded():
    assert _loaded_after("", ("cmarr.freeness",),
                         imported="cmarr.symmetry") == []


def test_threads_job_leaves_thread_pool_unloaded(tmp_path):
    """--threads 2 counts points in the one thread, as --threads 1 does."""
    path = tmp_path / "g8.arr"
    path.write_text(emit_arrangement(gen_G8()))
    job = ("assert cmarr.cli.main(['analyze', %r, '--threads', '2', "
           "'--ff-primes', '5', '--json']) == 0" % str(path))
    assert _loaded_after(job, ("concurrent.futures",)) == []
