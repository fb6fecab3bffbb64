"""Command line front end.

Exit codes: 0 ok (typed domain errors are embedded in the output), 1 corpus
expectation failure, 2 input error, 3 internal certificate failure.
"""

import argparse
import json
import os
import sys
from typing import List, Optional, Tuple

from .errors import CertificateFailure, LogvfError
from .poly import Polynomial, poly_parse
from .derlog import Germ, euler_check, require_nonzero, strong_euler_check
# unused; kept for perfbench's test_tracer_rebinds_everywhere_and_restores
from .derlog import derlog_generators  # noqa: F401
from .normalform import factor_structure, formal_structure
from .cech import lct_obstruction_witness
from . import report as rp


def _add_input_args(sub):
    sub.add_argument("--vars", required=True,
                     help="comma-separated variable names, e.g. x,y,z")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--poly", help="polynomial expression")
    group.add_argument("--file", help="path of a file holding the expression")
    sub.add_argument("--json", action="store_true", help="emit JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logvf",
        description="logarithmic vector fields of a hypersurface germ")
    subs = parser.add_subparsers(dest="command", required=True)

    an = subs.add_parser("analyze", help="full pipeline report")
    _add_input_args(an)
    an.add_argument("--trunc", type=int, help="formal truncation order")
    an.add_argument("--witness-bound", type=int, default=3,
                    help="exponent box bound for the obstruction search")
    an.add_argument("--factors", help="semicolon-separated known factors")

    co = subs.add_parser("corpus", help="run the example corpus")
    co.add_argument("--dir", default="corpus", help="directory of .div files")
    co.add_argument("--json", action="store_true", help="emit JSON")

    dl = subs.add_parser("derlog", help="minimal logarithmic generators")
    _add_input_args(dl)

    fr = subs.add_parser("free", help="Saito determinant test")
    _add_input_args(fr)

    eu = subs.add_parser("euler", help="Euler homogeneity witnesses")
    _add_input_args(eu)

    li = subs.add_parser("lie", help="truncated Lie algebra and solvability")
    _add_input_args(li)
    li.add_argument("--trunc", type=int, default=1,
                    help="truncation depth d of D_d")

    no = subs.add_parser("normalize", help="formal structure of the germ")
    _add_input_args(no)
    no.add_argument("--trunc", type=int, help="formal truncation order")
    no.add_argument("--factors", help="semicolon-separated known factors")

    ce = subs.add_parser("cech", help="obstruction witness search")
    _add_input_args(ce)
    ce.add_argument("--witness-bound", type=int, default=3,
                    help="exponent box bound")
    return parser


def _read_input(args) -> Tuple[Polynomial, Optional[List[Polynomial]]]:
    """f and, for the subcommands that take --factors, the parsed factors:
    a bad input exits 2 before any stage runs."""
    varnames = rp.parse_vars(args.vars)
    if args.poly is not None:
        text = args.poly
    else:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    f = poly_parse(text, varnames)
    listed = getattr(args, "factors", None)
    factors = ([poly_parse(t, f.vars) for t in listed.split(";")]
               if listed else None)
    return f, factors


def _emit(payload: dict, as_json: bool, text: str) -> None:
    print(json.dumps(payload, indent=2) if as_json else text)


def _cmd_analyze(args) -> int:
    f, factors = _read_input(args)
    result = rp.analyze(f, trunc=args.trunc,
                        witness_bound=args.witness_bound, factors=factors)
    _emit(result, args.json, rp.render_text(result))
    return 0


def _cmd_corpus(args) -> int:
    directory = args.dir
    if not os.path.isdir(directory):
        print(f"no corpus directory {directory!r}", file=sys.stderr)
        return 2
    names = sorted(n for n in os.listdir(directory) if n.endswith(".div"))
    if not names:
        print(f"no .div files in {directory!r}", file=sys.stderr)
        return 2
    failures = 0
    summary = []
    for name in names:
        with open(os.path.join(directory, name), "r", encoding="utf-8") as fh:
            _, f, expect = rp.parse_div(fh.read())
        result = rp.analyze(f)
        rows = rp.check_expectations(result, expect)
        ok = all(r[3] for r in rows)
        failures += 0 if ok else 1
        summary.append({"file": name, "f": str(f), "pass": ok,
                        "checks": [{"key": k, "expected": w, "got": g,
                                    "ok": o} for k, w, g, o in rows]})
        if not args.json:
            mark = "pass" if ok else "FAIL"
            print(f"{name:24s} {mark}")
            for key, want, got, good in rows:
                flag = "ok" if good else "MISMATCH"
                print(f"    {key} = {got} (expected {want}) {flag}")
    if args.json:
        print(json.dumps({"schema": rp.SCHEMA, "corpus": summary,
                          "failures": failures}, indent=2))
    return 1 if failures else 0


def _derlog(germ: Germ, args, factors):
    block = rp.derlog_block(germ)
    lines = [f"f = {germ.f}"] + [
        f"  {g}   cofactor {c}"
        for g, c in zip(block["generators"], block["cofactors"])]
    return block, "\n".join(lines)


def _free(germ: Germ, args, factors):
    block = rp.free_block(germ)
    return block, (f"free: {block['free']}\n"
                   f"determinant = {block['determinant']}\n"
                   f"unit value at 0: {block['unit_value']}")


def _euler(germ: Germ, args, factors):
    plain = rp.euler_block(germ, euler_check)
    strong = rp.euler_block(germ, strong_euler_check)
    return ({"euler": plain, "strong_euler": strong},
            f"euler: {plain['homogeneous']} (field {plain['field']})\n"
            f"strong euler: {strong['homogeneous']}"
            f" (field {strong['field']})")


def _lie(germ: Germ, args, factors):
    block = {"trunc": args.trunc, **rp.lie_block(germ, args.trunc)}
    return block, (f"D_{args.trunc} dimension {block['dimension']}, "
                   f"solvable: {block['solvable']}, "
                   f"derived series {block['derived_series']}, "
                   f"center dimension {block['center_dimension']}")


def _normalize(germ: Germ, args, factors):
    fs = formal_structure(germ, args.trunc)
    block = rp.formal_summary(fs)
    lines = [f"f = {germ.f}  (truncation {fs.trunc})",
             f"s = {fs.s}, r = {fs.r}, stabilized: {fs.stabilized}"]
    for i, row in enumerate(block["weights"]):
        lines.append(f"  weights[{i}] = ({', '.join(row)})"
                     f"  degree {block['degrees'][i]}")
    for i, row in enumerate(block["eigentable"]):
        lines.append(f"  eigentable[{i}] = ({', '.join(row)})")
    lines.append(f"  unit = {block['unit']}")
    lines.append(f"  change = ({', '.join(block['change'])})")
    if block["cor16"] is not None:
        lines.append(f"  corollary check: {block['cor16']}")
    if factors:
        block["factors"] = rp.factor_summary(
            factor_structure(fs, germ.f, factors))
        lines.append(f"  factor multiplicities: "
                     f"{block['factors']['multiplicities']}")
    return block, "\n".join(lines)


def _cech(germ: Germ, args, factors):
    witness = lct_obstruction_witness(germ, list(germ.module.fields),
                                      args.witness_bound)
    block = {"bound": args.witness_bound,
             "witness": witness.to_json() if witness is not None else None}
    if witness is None:
        return block, (f"no kernel witness within bound {args.witness_bound} "
                       "(proves nothing about the comparison theorem)")
    return block, f"witness: {witness} (necessary condition fails)"


# question: its answer, (germ, args, factors) -> (JSON block, text), and the
# text of a typed domain error embedded in its output; None: the error exits 2
_QUESTIONS = {
    "derlog": (_derlog, None),
    "free": (_free, "free: False ({error}: {detail})"),
    "euler": (_euler, None),
    "lie": (_lie, "lie: {error}: {detail}"),
    "normalize": (_normalize, "normalize: {error}: {detail}"),
    "cech": (_cech, "cech: {error}: {detail}"),
}


def _cmd_question(args) -> int:
    f, factors = _read_input(args)
    require_nonzero(f)     # exits 2, never an embedded refusal
    answer, refusal = _QUESTIONS[args.command]
    try:
        block, text = answer(Germ(f), args, factors)
    except CertificateFailure:
        raise
    except LogvfError as err:
        if refusal is None:
            raise
        block = rp.error_block(err)
        text = refusal.format(**block)
        if args.command == "free":
            block = {"free": False, **block}  # a refused basis is not free
    _emit({"schema": rp.SCHEMA, "f": str(f), **block}, args.json, text)
    return 0


_COMMANDS = {"analyze": _cmd_analyze, "corpus": _cmd_corpus,
             **{name: _cmd_question for name in _QUESTIONS}}


# built on first use and shared: building it costs more than a short
# request, and parse_args keeps no state between calls
_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[List[str]] = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    parser = _PARSER
    # argparse reads a value that starts with one "-" and holds no space,
    # such as --poly -x^3, as an option; joined to its option (or an
    # abbreviation of it), as --poly=-x^3, it is read as the value that
    # every other spelling gives it.  A "--" token stays an option.
    argv = list(sys.argv[1:] if argv is None else argv)
    i = 0
    while i < len(argv) - 1:
        opt, value = argv[i], argv[i + 1]
        if (len(opt) > 2 and opt.startswith("--")
                and any(o.startswith(opt) for o in ("--poly", "--factors"))
                and value.startswith("-") and not value.startswith("--")):
            argv[i:i + 2] = [f"{opt}={value}"]
        i += 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _COMMANDS[args.command](args)
    except CertificateFailure as err:
        print(f"certificate failure: {err}", file=sys.stderr)
        return 3
    except (LogvfError, OSError, UnicodeDecodeError) as err:
        print(f"input error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
