import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import logvf.derlog as derlog
from logvf.cli import main
from logvf.errors import CertificateFailure, LogvfError, PreconditionViolated
from logvf.poly import Polynomial, poly_parse
from logvf import report as rp

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_text_mode(capsys):
    code, out, _ = run(capsys, "analyze", "--vars", "x,y",
                       "--poly", "x^2+y^3")
    assert code == 0
    assert "free: True" in out
    assert "solvable: True" in out
    assert "s: 1" in out and "r: 1" in out


def test_analyze_json_schema_and_roundtrip(capsys):
    code, out, _ = run(capsys, "analyze", "--vars", "x,y",
                       "--poly", "x^2+y^3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["free"]["free"] is True
    assert data["formal"]["weights"] == [["1/2", "1/3"]]
    assert data["formal"]["cor16"] == [True]
    assert json.loads(json.dumps(data)) == data


def test_analyze_report_is_deterministic():
    f = poly_parse("x*y*(x+y)*(x*z+y)", ("x", "y", "z"))
    a = rp.analyze(f)
    b = rp.analyze(f)
    a.pop("timings")
    b.pop("timings")
    assert a == b


def test_analyze_embeds_typed_errors(capsys):
    # the quadric cone: rotations make it non-free with a semisimple D_1,
    # and its symmetry eigenvalues are irrational; every stage stays honest
    # and the run still exits 0 with the errors embedded
    code, out, _ = run(capsys, "analyze", "--vars", "x,y,z",
                       "--poly", "x^2+y^2+z^2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["formal"]["error"] == "NonRationalEigenvalues"
    assert data["free"]["free"] is False
    assert data["lie"]["dimension"] == 4
    assert data["lie"]["solvable"] is False
    assert data["lie"]["derived_series"] == [4, 3, 3]
    assert data["cech"]["error"] == "NotFree"


def test_analyze_product_splits_for_formal(capsys):
    code, out, _ = run(capsys, "analyze", "--vars", "x,y,z",
                       "--poly", "x^2+y^3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["product"]["is_product"] is True
    assert data["split"]["performed"] is True
    assert data["split"]["dropped"] == ["z"]
    assert data["formal"]["s"] == 1 and data["formal"]["r"] == 1


def test_analyze_factors_block(capsys):
    code, out, _ = run(capsys, "analyze", "--vars", "x,y",
                       "--poly", "x^2*y", "--factors", "x;y", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["factors"]["multiplicities"] == [2, 1]


def test_constant_factor_is_refused_promptly(capsys):
    # a constant divides any number of times; counting its multiplicity
    # never ended before it was refused
    argv = ["normalize", "--vars", "x,y", "--poly", "x^2+y^3",
            "--factors", "3"]
    fresh = subprocess.run([sys.executable, "-m", "logvf.cli", *argv],
                           capture_output=True, text=True, timeout=20,
                           env={**os.environ, "PYTHONPATH": str(SRC)})
    assert fresh.returncode == 0
    assert fresh.stdout == ("normalize: PreconditionViolated: a supplied "
                            "factor is a nonzero constant\n")
    assert run(capsys, *argv) == (0, fresh.stdout, fresh.stderr)


def test_analyze_embeds_constant_and_zero_factor_refusals():
    script = ("import json\n"
              "from logvf.poly import poly_parse\n"
              "from logvf.report import analyze\n"
              "V = ('x', 'y')\n"
              "for c in ('2', '0'):\n"
              "    report = analyze(poly_parse('x*y', V), factors=["
              "poly_parse('x', V), poly_parse(c, V)])\n"
              "    print(json.dumps(report['factors']))\n")
    fresh = subprocess.run([sys.executable, "-c", script],
                           capture_output=True, text=True, timeout=20,
                           env={**os.environ, "PYTHONPATH": str(SRC)})
    assert fresh.returncode == 0
    assert [json.loads(line) for line in fresh.stdout.splitlines()] == [
        {"error": "PreconditionViolated",
         "detail": "a supplied factor is a nonzero constant"},
        {"error": "PreconditionViolated",
         "detail": "a supplied factor does not divide"}]


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "--vars", "x,y",
                       "--poly", "x^2 + + y")
    assert code == 2
    assert "input error" in err


def test_unknown_variable_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "--vars", "x,y", "--poly", "x+w")
    assert code == 2
    assert "input error" in err


def test_zero_polynomial_is_refused_up_front(capsys):
    code, out, err = run(capsys, "analyze", "--vars", "x,y", "--poly", "0")
    assert code == 2
    assert out == ""
    assert err.strip() == ("input error: PreconditionViolated: "
                           "the zero polynomial defines no hypersurface")


@pytest.mark.parametrize("command",
                         ["derlog", "free", "euler", "lie", "normalize", "cech"])
def test_zero_polynomial_is_refused_by_every_question(command, capsys):
    code, out, err = run(capsys, command, "--vars", "x,y", "--poly", "0")
    assert code == 2
    assert out == ""
    assert err.strip() == ("input error: PreconditionViolated: "
                           "the zero polynomial defines no hypersurface")


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_euler_off_the_origin_exits_2(fmt, capsys):
    # euler embeds no refusal, unlike lie, normalize and cech: a germ that
    # does not pass through the origin is an input error there
    code, out, err = run(capsys, "euler", "--vars", "x,y", "--poly", "1+x",
                         *fmt)
    assert (code, out) == (2, "")
    assert err.strip() == ("input error: NotAtOrigin: "
                           "the hypersurface does not pass through the origin")


def test_shared_parser_carries_no_state_between_calls(capsys):
    # a deeper lie, a bad flag, then a question whose defaults the first
    # call overrode: each answer must be the one a fresh process gives
    calls = [("lie", "--vars", "x,y", "--poly", "x^2+y^3", "--trunc", "2",
              "--json"),
             ("lie", "--vars", "x,y", "--poly", "x^2+y^3", "--bogus"),
             ("cech", "--vars", "x,y", "--poly", "x*y*(x+y)"),
             ("lie", "--vars", "x,y", "--poly", "x^2+y^3")]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    codes = []
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "logvf.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout,
                                      fresh.stderr)
        codes.append(fresh.returncode)
    assert codes == [0, 2, 0, 0]


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "--vars", "x",
                       "--file", "/nonexistent/f.txt")
    assert code == 2


def test_undecodable_file_exits_2(tmp_path, capsys):
    # a byte that is not UTF-8 is a bad input, not a corpus failure
    bad = tmp_path / "f.txt"
    bad.write_bytes(b"x^2 + y^3\xff\n")
    code, out, err = run(capsys, "derlog", "--vars", "x,y",
                         "--file", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("input error: UnicodeDecodeError: ")


def test_undecodable_corpus_file_exits_2(tmp_path, capsys):
    (tmp_path / "bad.div").write_bytes(b"x,y\nx^2 + y^3\xff\n")
    code, _, err = run(capsys, "corpus", "--dir", str(tmp_path))
    assert code == 2
    assert err.startswith("input error: UnicodeDecodeError: ")


def test_bad_flags_exit_2(capsys):
    assert run(capsys, "analyze", "--vars", "x,y")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_certificate_failure_exits_3(capsys, monkeypatch):
    def boom(f, trunc=None, witness_bound=3, factors=None):
        raise CertificateFailure("forced for the exit-code contract")
    monkeypatch.setattr("logvf.cli.rp.analyze", boom)
    code, _, err = run(capsys, "analyze", "--vars", "x,y", "--poly", "x*y")
    assert code == 3
    assert "certificate failure" in err


def test_derlog_subcommand(capsys):
    code, out, _ = run(capsys, "derlog", "--vars", "x,y",
                       "--poly", "x^2+y^3", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["generators"]) == 2
    assert data["cofactors"] == ["2", "0"]


def test_free_subcommand(capsys):
    code, out, _ = run(capsys, "free", "--vars", "x,y,z",
                       "--poly", "x*y*(x+y)*(x*z+y)", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["free"] is True
    assert data["unit_value"] == "-1"


def test_euler_subcommand(capsys):
    code, out, _ = run(capsys, "euler", "--vars", "x,y,z",
                       "--poly", "z*(x^4+x*y^4+y^5)", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["strong_euler"]["homogeneous"] is True
    assert data["strong_euler"]["field"] == "z*d_z"


def test_series_witnesses_print_their_order(capsys):
    # x^2 + y^3 + y^4 has power series witnesses only: both are known
    # below m^12, and say so in the report and on the command line
    f = poly_parse("x^2 + y^3 + y^4", ("x", "y"))
    report = rp.analyze(f)
    code, out, _ = run(capsys, "euler", "--vars", "x,y",
                       "--poly", "x^2 + y^3 + y^4", "--json")
    assert code == 0
    for blocks in (report, json.loads(out)):
        for key in ("euler", "strong_euler"):
            assert blocks[key]["field"].endswith(" mod m^12")
            assert blocks[key]["exact"] is False


def test_polynomial_witnesses_print_no_order(capsys):
    # the normalize example of README.md, expanded: both witnesses are
    # polynomial fields, exact, with no order printed
    text = "x^2 + 2*x*y^2 + y^4 + y^3"
    report = rp.analyze(poly_parse(text, ("x", "y")))
    code, out, _ = run(capsys, "euler", "--vars", "x,y", "--poly", text,
                       "--json")
    assert code == 0
    for blocks in (report, json.loads(out)):
        for key in ("euler", "strong_euler"):
            assert blocks[key]["homogeneous"] is True
            assert blocks[key]["exact"] is True
            assert " mod m^" not in blocks[key]["field"]
    code, out, _ = run(capsys, "euler", "--vars", "x,y", "--poly", text)
    assert code == 0 and "strong euler: True" in out
    assert " mod m^" not in out


def test_lie_subcommand(capsys):
    code, out, _ = run(
        capsys, "lie", "--vars", "x1,x2,x3,x4", "--poly",
        "3*x2^2*x3^2-6*x1*x3^3-8*x2^3*x4+18*x1*x2*x3*x4-9*x1^2*x4^2",
        "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 4
    assert data["solvable"] is False
    assert data["derived_series"] == [4, 3, 3]
    assert data["center_dimension"] == 1


def test_normalize_subcommand(capsys):
    code, out, _ = run(capsys, "normalize", "--vars", "x,y",
                       "--poly", "(x+y^2)^2 + y^3", "--trunc", "8", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["s"] == 1 and data["r"] == 1
    assert data["weights"] == [["1/2", "1/3"]]
    assert data["change"][0] == "-y^2 + x"


def test_normalize_reports_typed_error(capsys):
    code, out, _ = run(capsys, "normalize", "--vars", "x,y,z",
                       "--poly", "x^2+y^2+z^2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["error"] == "NonRationalEigenvalues"


def test_normalize_refuses_a_truncation_at_the_order(capsys):
    code, out, _ = run(capsys, "normalize", "--vars", "x,y",
                       "--poly", "x^2+y^3", "--trunc", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["error"] == "TruncationTooSmall"
    assert data["detail"] == "need truncation above the order 2 of f"
    code, out, _ = run(capsys, "normalize", "--vars", "x,y",
                       "--poly", "x^2+y^3", "--trunc", "2")
    assert code == 0
    assert out == ("normalize: TruncationTooSmall: need truncation above "
                   "the order 2 of f\n")


def test_cech_subcommand(capsys):
    code, out, _ = run(capsys, "cech", "--vars", "x,y,z",
                       "--poly", "x*y*z", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["witness"] is None
    assert data["bound"] == 3


def test_cech_quartic_bound_5(capsys):
    # the corpus quartic's box at bound 5 is a 3025 x 625 kernel system
    # with 4209 nonzero entries
    quartic = ("3*x2^2*x3^2 - 6*x1*x3^3 - 8*x2^3*x4 + 18*x1*x2*x3*x4"
               " - 9*x1^2*x4^2")
    code, out, _ = run(capsys, "cech", "--vars", "x1,x2,x3,x4",
                       "--poly", quartic, "--witness-bound", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["witness"] is None
    assert data["bound"] == 5


def test_corpus_passes(capsys):
    code, out, _ = run(capsys, "corpus", "--dir", "corpus")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("pass") == 10


def test_corpus_expectation_failure_exits_1(tmp_path, capsys):
    bad = tmp_path / "wrong.div"
    bad.write_text("x,y\nx*y\ns=7\n")
    code, out, _ = run(capsys, "corpus", "--dir", str(tmp_path))
    assert code == 1
    assert "MISMATCH" in out


def test_corpus_missing_dir_exits_2(tmp_path, capsys):
    code, _, _ = run(capsys, "corpus", "--dir", str(tmp_path / "nope"))
    assert code == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(capsys, "corpus", "--dir", str(empty))[0] == 2


def test_div_parser_rules():
    varnames, f, expect = rp.parse_div("x,y\nx^2 + y^3\nfree=true s=1\n")
    assert varnames == ("x", "y")
    assert str(f) == "y^3 + x^2"
    assert expect == {"free": "true", "s": "1"}
    with pytest.raises(LogvfError):
        rp.parse_div("x,y\n")
    with pytest.raises(LogvfError):
        rp.parse_div("x,y\nx*y\nbroken\n")


def test_expectation_comparator_unknown_key():
    f = poly_parse("x*y", ("x", "y"))
    result = rp.analyze(f)
    rows = rp.check_expectations(result, {"made_up": "1"})
    assert rows == [("made_up", "1", "unknown key", False)]


def test_render_text_mentions_stages():
    f = poly_parse("x^2+y^3", ("x", "y"))
    text = rp.render_text(rp.analyze(f))
    for token in ("squarefree", "derlog", "free", "euler", "lie", "formal",
                  "cech", "total time"):
        assert token in text


def _joined(argv):
    """argv with each --poly and --factors value joined as --opt=value,
    the spelling argparse has always read."""
    out = list(argv)
    for opt in ("--poly", "--factors"):
        if opt in out:
            i = out.index(opt)
            out[i:i + 2] = [f"{opt}={out[i + 1]}"]
    return out


@pytest.mark.parametrize("argv", [
    ["free", "--vars", "x,y", "--poly", "-x^3"],
    ["normalize", "--vars", "x,y", "--poly", "x^2*y+y^3",
     "--factors", "-y;x^2+y^2"],
])
def test_a_value_that_starts_with_a_minus_sign_is_read(argv, capsys):
    # argparse took "-x^3" for an option and exited 2
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert run(capsys, *_joined(argv)) == (code, out, err)
    # argparse takes an abbreviated option as the option
    short = [a[:5] if a in ("--poly", "--factors") else a for a in argv]
    assert run(capsys, *short) == (code, out, err)


def test_an_option_after_an_option_that_takes_a_value_is_not_joined(capsys):
    # "--poly --json" is refused as before: a token that starts with "--"
    # is an option, not a polynomial
    code, out, err = run(capsys, "free", "--vars", "x,y", "--poly", "--json")
    assert (code, out) == (2, "")
    assert "expected one argument" in err


def test_analyze_reads_a_polynomial_that_starts_with_a_minus_sign(capsys):
    argv = ["analyze", "--vars", "x,y", "--poly", "-x^2-y^3",
            "--factors", "-x^2-y^3", "--json"]
    reports = []
    for spelling in (argv, _joined(argv)):
        code, out, err = run(capsys, *spelling)
        assert (code, err) == (0, "")
        report = json.loads(out)
        report.pop("timings")
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["f"] == "-y^3 - x^2"
    assert reports[0]["factors"]["multiplicities"] == [1]


def test_bad_factor_exits_2_in_both_subcommands(capsys):
    for command in ("analyze", "normalize"):
        code, out, err = run(capsys, command, "--vars", "x,y",
                             "--poly", "x^2+y^3", "--factors", "x;q")
        assert code == 2, command
        assert out == ""
        assert "input error" in err


@pytest.mark.parametrize("line", ["x,x", "x,,y", "x, ", "x,y z", "x,1y",
                                  "x,y^2", "x,y-1", "x,\u00e9"])
def test_one_variable_list_parser(line, tmp_path, capsys):
    with pytest.raises(LogvfError):
        rp.parse_vars(line)
    with pytest.raises(LogvfError):
        rp.parse_div(f"{line}\nx^2\n")
    (tmp_path / "bad.div").write_text(f"{line}\nx^2\nfree=true\n")
    code, _, err = run(capsys, "corpus", "--dir", str(tmp_path))
    assert code == 2
    assert "input error" in err
    assert run(capsys, "derlog", "--vars", line, "--poly", "x")[0] == 2


def test_a_name_the_parser_cannot_read_is_refused(capsys):
    # "y z" once printed d_y z, which does not parse back
    code, out, err = run(capsys, "derlog", "--vars", "x,y z",
                         "--poly", "x^2+x")
    assert code == 2
    assert out == ""
    assert "bad variable list 'x,y z'" in err
    assert rp.parse_vars(" x_1 , _y,Z9 ") == ("x_1", "_y", "Z9")


@pytest.mark.parametrize("line", ["x,1y", "x,x", "x,y z"])
def test_bad_variable_list_message_is_kept(line, capsys):
    # the parser refuses these names too, but the list is refused first
    code, out, err = run(capsys, "derlog", "--vars", line, "--poly", "x^2+x")
    assert (code, out) == (2, "")
    assert err == f"input error: LogvfError: bad variable list {line!r}\n"


@pytest.mark.parametrize("varnames", [("x", "x"), ("x", "y z"), ("x", "")],
                         ids=["repeated", "space", "empty"])
def test_analyze_refuses_names_the_parser_cannot_read(varnames, monkeypatch):
    # a report over these names would print fields that no parser call
    # reads back, so analyze refuses them before the module is built
    calls = _count_module_builds(monkeypatch)
    f = Polynomial({(2, 0): 1, (0, 3): 1}, varnames)
    with pytest.raises(PreconditionViolated, match="distinct identifiers"):
        rp.analyze(f)
    assert calls == []


def _count_module_builds(monkeypatch):
    """Wrap derlog_generators under every name the package binds it to."""
    calls = []
    original = derlog.derlog_generators

    def counted(f):
        calls.append(f)
        return original(f)
    for name, module in list(sys.modules.items()):
        if (name.startswith("logvf")
                and getattr(module, "derlog_generators", None) is original):
            monkeypatch.setattr(module, "derlog_generators", counted)
    return calls


def test_module_is_built_once_per_request(monkeypatch, capsys):
    calls = _count_module_builds(monkeypatch)
    rp.analyze(poly_parse("x^2+y^3", ("x", "y")))
    assert len(calls) == 1

    del calls[:]
    _, f, _ = rp.parse_div((CORPUS / "09_product_cusp.div").read_text())
    report = rp.analyze(f)
    assert report["split"]["performed"]
    assert [str(g) for g in calls] == [str(f), report["split"]["reduced"]]

    del calls[:]
    assert run(capsys, "cech", "--vars", "x,y", "--poly", "x^2+y^3")[0] == 0
    assert len(calls) == 1

    del calls[:]
    assert run(capsys, "euler", "--vars", "x,y", "--poly", "x^2+y^3")[0] == 0
    assert calls == []


def _cli_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload.pop("schema") == 1
    payload.pop("f")
    return payload


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.div")),
                         ids=lambda p: p.name)
def test_cli_agrees_with_analyze_on_corpus(path, capsys):
    varnames, f, expect = rp.parse_div(path.read_text())
    report = rp.analyze(f)
    assert all(ok for *_, ok in rp.check_expectations(report, expect))
    args = ("--vars", ",".join(varnames), "--poly", str(f))
    assert _cli_json(capsys, "derlog", *args) == report["derlog"]
    assert _cli_json(capsys, "free", *args) == report["free"]
    assert _cli_json(capsys, "euler", *args) == {
        "euler": report["euler"], "strong_euler": report["strong_euler"]}
    if not report["split"]["performed"]:
        lie = _cli_json(capsys, "lie", *args, "--trunc", "1")
        assert lie.pop("trunc", 1) == 1
        assert lie == report["lie"]
        assert _cli_json(capsys, "normalize", *args) == report["formal"]
    cech = _cli_json(capsys, "cech", *args)
    assert (cech.get("witness"), cech.get("bound")) == (
        report["cech"].get("witness"), report["cech"].get("bound"))
    assert cech.get("error") == report["cech"].get("error")
