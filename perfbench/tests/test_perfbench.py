"""Tests of the benchmark itself: python -m pytest perfbench/tests -q"""

import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import gen  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
from logvf import poly_parse  # noqa: E402
from logvf.errors import CertificateFailure  # noqa: E402
from logvf.normalform import default_truncation  # noqa: E402
from logvf.report import check_expectations, parse_div  # noqa: E402


def _corpus():
    entries = []
    for path in sorted((ROOT / "corpus").glob("*.div")):
        varnames, f, expect = parse_div(path.read_text(encoding="utf-8"))
        entries.append(gen.CorpusEntry(varnames, f, expect))
    return entries


def _stream_view(stream, rounds=2):
    return [[(r.family, r.varnames, r.text, r.trunc, r.argv, r.expect)
             for r in stream.next_round()] for _ in range(rounds)]


# -- generator ---------------------------------------------------------------------


def test_fresh_germs_same_seed_same_stream():
    a = _stream_view(gen.FreshGerms(7, poly_parse))
    b = _stream_view(gen.FreshGerms(7, poly_parse))
    c = _stream_view(gen.FreshGerms(8, poly_parse))
    assert a == b
    assert a != c


def test_cli_and_corpus_streams_are_seeded():
    corpus = _corpus()
    assert (_stream_view(gen.CliQuestions(3, corpus))
            == _stream_view(gen.CliQuestions(3, corpus)))
    assert (_stream_view(gen.CorpusReplay(3, corpus))
            == _stream_view(gen.CorpusReplay(3, corpus)))
    assert (_stream_view(gen.CorpusReplay(3, corpus))
            != _stream_view(gen.CorpusReplay(4, corpus)))


def test_fresh_germs_never_repeat_and_cover_every_family():
    stream = gen.FreshGerms(11, poly_parse)
    seen = set()
    families = set()
    texts = []
    for _ in range(4):
        for r in stream.next_round():
            key = (r.varnames, str(r.poly))
            assert key not in seen
            seen.add(key)
            families.add(r.family)
            texts.append(r.text)
            offsets = ((0,) if r.text.startswith("x^6 + y^8 ")
                       else gen.TRUNC_OFFSETS)
            assert r.trunc in {default_truncation(r.poly) + k
                               for k in offsets}
    assert {"bp-curve", "bp-surface", "sqh", "lines", "planes",
            "product-bp-curve", "product-lines", "product-sqh"} <= families
    assert not any("+ -" in t or "- -" in t for t in texts)
    # every semi-quasi-homogeneous cell shows up, the failing ones included
    for a, b, i, j in (gen.SQH_FAST + gen.SQH_MEDIUM
                       + gen.SQH_AT_DEFAULT):
        tail = gen._monomial(("x", "y"), (i, j))
        assert any(t.startswith(f"x^{a} + y^{b} ") and t.endswith(tail)
                   for t in texts)


def test_rounds_keep_the_same_mix():
    corpus = _corpus()
    for make in (lambda s: gen.FreshGerms(s, poly_parse),
                 lambda s: gen.CliQuestions(s, corpus)):
        mixes = []
        for seed in (1, 2):
            stream = make(seed)
            for _ in range(2):
                mixes.append(sorted((r.family, r.argv[0] if r.argv else None)
                                    for r in stream.next_round()))
        assert all(m == mixes[0] for m in mixes)


def test_family_expectations():
    rng = gen.random.Random(0)
    curve = gen.brieskorn_pham(rng, (2, 3))
    assert gen.expectations(curve) == {"free": "true", "euler": "true"}
    assert gen.expectations(gen.with_unused_variable(curve)) == {
        "euler": "true", "product": "true"}
    assert gen.expectations(gen.central_arrangement(rng, 3, 4)) == {
        "euler": "true"}
    assert gen.expectations(
        gen.semi_quasi_homogeneous(rng, gen.SQH_FAST[0])) == {"free": "true"}


# -- failure accounting -----------------------------------------------------------


def _stub_lib(analyze=None, main=None):
    return SimpleNamespace(
        report=SimpleNamespace(analyze=analyze),
        check_expectations=check_expectations,
        cli=SimpleNamespace(main=main),
        errors=SimpleNamespace(CertificateFailure=CertificateFailure))


def _analyze_request(**kw):
    return gen.Request(family="t", varnames=("x",), text="x",
                       poly=poly_parse("x", ("x",)), **kw)


def _cli_request(command="free", expect=None, extra=()):
    return gen.Request(family="t", varnames=("x", "y"), text="x*y",
                       argv=(command, "--vars", "x,y", "--poly", "x*y",
                             "--json") + extra, expect=expect or {})


def _serve(request, lib, deadline_s=5.0):
    with checks.alarm_handler():
        return checks.serve(request, lib, deadline_s)


def test_certificate_failure_is_counted_not_raised():
    def analyze(f, trunc=None):
        raise CertificateFailure("stub")

    outcome = _serve(_analyze_request(), _stub_lib(analyze=analyze))
    assert outcome.status == "certificate" and outcome.failed


def test_cli_exit_codes_and_schema():
    def main_returning(code, text=""):
        def main(argv):
            print(text)
            return code
        return main

    req = _cli_request()
    assert _serve(req, _stub_lib(main=main_returning(3))).status == "certificate"
    assert _serve(req, _stub_lib(main=main_returning(2))).status == "exception"
    assert _serve(req, _stub_lib(
        main=main_returning(0, '{"schema": 2, "free": true}'))).status == "check"
    assert _serve(req, _stub_lib(
        main=main_returning(0, "not json"))).status == "check"
    assert _serve(req, _stub_lib(
        main=main_returning(0, '{"schema": 1, "free": true}'))).status == "ok"


def test_expectation_checks_and_typed_refusals():
    wrong = {"schema": 1, "free": {"free": False}}
    refused = {"schema": 1, "free": {"error": "NotFree", "detail": "stub"}}
    lenient = _analyze_request(expect={"free": "true"})
    strict = _analyze_request(expect={"free": "true"}, strict=True)

    def lib_for(report):
        return _stub_lib(analyze=lambda f, trunc=None: report)

    assert _serve(lenient, lib_for(wrong)).status == "check"
    assert _serve(strict, lib_for(refused)).status == "check"
    # a refusal elsewhere is an answer
    refused_lie = {"schema": 1, "lie": {"error": "ProductInput", "detail": ""}}
    assert _serve(_analyze_request(expect={"solvable": "true"}),
                  lib_for(refused_lie)).status == "ok"
    # but a refusal of the Saito test on a plane curve is wrong, through
    # analyze and through the CLI alike
    assert _serve(lenient, lib_for(refused)).status == "check"
    req = _cli_request("free", {"free": "true"})
    for error in ("WrongCount", "NotLogarithmic"):
        assert _serve(req, _stub_lib(main=lambda argv: print(
            '{"schema": 1, "free": false, "error": "%s", "detail": ""}'
            % error) or 0)).status == "check"
    assert _serve(req, _stub_lib(main=lambda argv: print(
        '{"schema": 1, "free": false}') or 0)).status == "check"
    lie = _cli_request("lie", {"solvable": "true"}, ("--trunc", "1"))
    assert _serve(lie, _stub_lib(main=lambda argv: print(
        '{"schema": 1, "error": "ProductInput", "detail": ""}')
        or 0)).status == "ok"


def test_deadline_interrupts_and_counts():
    def analyze(f, trunc=None):
        time.sleep(2)
        return {"schema": 1}

    start = time.perf_counter()
    outcome = _serve(_analyze_request(), _stub_lib(analyze=analyze),
                     deadline_s=0.05)
    assert outcome.status == "deadline"
    assert time.perf_counter() - start < 1.0


def test_crash_is_an_exception_failure():
    def analyze(f, trunc=None):
        raise ZeroDivisionError("stub")

    assert _serve(_analyze_request(),
                  _stub_lib(analyze=analyze)).status == "exception"


# -- self time ---------------------------------------------------------------------


def test_self_time_subtracts_covered_child_time():
    spans = [
        ["report.analyze", 0.0, 10.0, None, 0],
        ["derlog.minimalize", 1.0, 3.0, 0, 0],
        ["derlog.minimalize", 2.0, 5.0, 0, 0],   # overlaps its sibling
        ["linalg.rref", 7.0, 8.0, 0, 0],
        ["linalg.rank", 2.5, 2.75, 2, 0],        # grandchild of the root
        ["cli.main", 20.0, 21.0, None, 1],
    ]
    assert tr.self_times(spans) == [5.0, 2.0, 2.75, 1.0, 0.25, 1.0]
    assert tr.layer_self_times(spans) == {"report": 5.0, "derlog": 4.75,
                                          "linalg": 1.25, "cli": 1.0}
    # request 0 ran with the host at half the reference speed
    assert tr.layer_self_times(spans, {0: 0.5}) == {
        "report": 2.5, "derlog": 2.375, "linalg": 0.625, "cli": 1.0}


def test_covered_merges_intervals():
    assert tr._covered([]) == 0.0
    assert tr._covered([(0, 1), (0.5, 2), (3, 4)]) == 3.0


# -- host speed --------------------------------------------------------------------


def _fake_speed(probe_times):
    times = iter(probe_times)
    return hostspeed.HostSpeed(clock=lambda: next(times), warmup=0)


def test_host_speed_scales_by_the_probes_around_an_item():
    ref = hostspeed.REFERENCE_S
    # the host halves its speed after item 19: the probes double
    speed = _fake_speed([ref] * 20 + [2 * ref] * 21)
    for _ in range(41):
        speed.probe()
    assert speed.factor(0) == pytest.approx(1.0)
    assert speed.factor(40) == pytest.approx(0.5)
    # an item that took twice as long on the slow host reads the same
    assert speed.adjusted(40, 0.2) == pytest.approx(speed.adjusted(0, 0.1))
    # a single stray probe does not move the median
    speed = _fake_speed([ref] * 5 + [10 * ref] + [ref] * 5)
    for _ in range(11):
        speed.probe()
    assert speed.factor(5) == pytest.approx(1.0)


def test_deadline_follows_the_host_speed():
    ref = hostspeed.REFERENCE_S
    speed = _fake_speed([ref, 2 * ref, 2 * ref])
    speed.probe()
    assert speed.wall(5.0) == pytest.approx(5.0)
    speed.probe()
    speed.probe()
    assert speed.wall(5.0) == pytest.approx(10.0)
    assert speed.reference(10.0) == pytest.approx(5.0)


def test_real_probe_is_timed_with_gc_restored():
    import gc
    assert gc.isenabled()
    assert hostspeed.time_slice() > 0.0
    assert gc.isenabled()


# -- quantiles ---------------------------------------------------------------------


def test_incomplete_beta_known_values():
    assert run._betainc(1, 1, 0.3) == pytest.approx(0.3)
    assert run._betainc(2, 1, 0.3) == pytest.approx(0.09)
    assert run._betainc(5, 5, 0.5) == pytest.approx(0.5)
    assert run._betainc(0.5, 0.5, 0.25) == pytest.approx(1 / 3)
    # I_x(a, b) = 1 - I_{1-x}(b, a), across the continued fraction's switch
    assert (run._betainc(180.9, 20.1, 0.9) + run._betainc(20.1, 180.9, 0.1)
            == pytest.approx(1.0))


def test_harrell_davis_is_a_smooth_quantile():
    assert run.harrell_davis([7.0] * 25, 0.9) == pytest.approx(7.0)
    xs = list(range(101))
    assert run.harrell_davis(xs, 0.5) == pytest.approx(50.0)
    # two equal clusters: the median sits between them, not on either
    clusters = [1.0] * 50 + [3.0] * 50
    assert run.harrell_davis(clusters, 0.5) == pytest.approx(2.0)
    assert 1.0 < run.harrell_davis(clusters + [3.0], 0.5) < 3.0


# -- tracer ------------------------------------------------------------------------


def _snapshot():
    import logvf.normalform as nf
    import logvf.poly as pm
    import logvf.vfield as vf
    state = {(name, attr): value
             for name, mod in tr.package_modules().items()
             for attr, value in vars(mod).items()}
    for cls in (nf.CoordChange, pm.Polynomial, vf.VectorField):
        state.update({(cls.__name__, attr): value
                      for attr, value in vars(cls).items()})
    return state


def test_tracer_rebinds_everywhere_and_restores():
    import logvf.cli as cli
    import logvf.derlog as derlog
    import logvf.normalform as nf
    import logvf.report as report

    before = _snapshot()
    original_make = vars(nf.CoordChange)["make"]
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert report.analyze is not before[("logvf.report", "analyze")]
        assert cli.derlog_generators is derlog.derlog_generators
        assert (cli.derlog_generators
                is not before[("logvf.derlog", "derlog_generators")])
        assert nf.rref is not before[("logvf.normalform", "rref")]
        assert vars(nf.CoordChange)["make"] is not original_make
        report.analyze(poly_parse("x^2 + y^3", ("x", "y")))
    finally:
        tracer.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.counts["report.analyze.calls"] == 1
    assert tracer.counts["derlog.derlog_generators.calls"] >= 1
    assert tracer.counts["poly.mul.terms_out"] > 0
    assert tracer.counts["cech.box_columns"] == 3 ** 2
    roots = [s for s in tracer.spans if s[3] is None]
    assert [s[0] for s in roots] == ["report.analyze"]


def test_traced_counts_repeat_exactly():
    import logvf.report as report

    f = poly_parse("x*y*(x + y)", ("x", "y"))

    def counts_of_one_run():
        tracer = tr.Tracer()
        tracer.install()
        try:
            report.analyze(f, trunc=5)
        finally:
            tracer.restore()
        return tracer.counts

    assert counts_of_one_run() == counts_of_one_run()


def test_rollback_drops_a_request():
    tracer = tr.Tracer()
    wrapped = tracer.span("linalg.rank", lambda: 1)
    wrapped()
    mark = tracer.mark()
    wrapped()
    wrapped()
    tracer.rollback(mark)
    assert len(tracer.spans) == 1
    assert tracer.counts["linalg.rank.calls"] == 1


def test_install_twice_is_refused():
    tracer = tr.Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.restore()


def test_answer_checks_are_not_traced():
    import logvf.cli as cli
    import logvf.errors as errors
    import logvf.report as report

    lib = SimpleNamespace(report=report, cli=cli, errors=errors,
                          check_expectations=report.check_expectations)
    request = gen.Request(family="t", varnames=("x", "y"), text="x*y",
                          poly=poly_parse("x*y", ("x", "y")),
                          expect={"free": "true"})
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert _serve(request, lib).status == "ok"
    finally:
        tracer.restore()
    assert tracer.counts["report.analyze.calls"] == 1
    assert "report.check_expectations.calls" not in tracer.counts
