"""Analysis pipeline and JSON-ready reports.

A report is a plain dict of JSON-native values: rationals are strings like
"3/4", fields and polynomials are their canonical text forms.  Each stage
maps a `derlog.Germ`, which builds the module of f once, to its JSON block;
`analyze` runs the `STAGES` table in order through `_run_stage`, which
embeds typed domain errors as {"error": name, "detail": ...} and lets
certificate failures propagate.  The CLI subcommands call the same stages.
"""

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (CertificateFailure, LogvfError, NotFree,
                     PreconditionViolated, ProductInput, WrongCount)
from .poly import Polynomial, _readable_names, as_poly, poly_parse
from .vfield import vf_to_str
from .derlog import (Germ, as_germ, euler_check, koszul_free_check,
                     require_nonzero, saito_free_check, squarefree_check,
                     strong_euler_check)
from .liealg import center_dimension, is_solvable, truncated_lie_algebra
from .normalform import (FormalStructure, constant_field_split,
                         default_truncation, factor_structure,
                         formal_structure, verify_cor16)
from .cech import lct_obstruction_witness

SCHEMA = 1


def frac_str(q) -> str:
    return str(Fraction(q))


def error_block(err: LogvfError) -> dict:
    return {"error": type(err).__name__, "detail": str(err)}


def _run_stage(report: dict, timings: dict, name: str, fn) -> bool:
    """Run one stage into report[name], embedding typed domain errors and
    re-raising certificate failures; True when the stage answered."""
    t0 = time.perf_counter()
    try:
        report[name] = fn()
        answered = True
    except CertificateFailure:
        raise
    except LogvfError as err:
        report[name] = error_block(err)
        answered = False
    timings[name] = round(time.perf_counter() - t0, 6)
    return answered


def formal_summary(fs) -> dict:
    """The JSON block of a FormalStructure; `cor16` is `verify_cor16`'s
    list, read off the structure, or None when it is not free."""
    out = {
        "s": fs.s,
        "r": fs.r,
        "weights": [[frac_str(w) for w in row] for row in fs.weights],
        "degrees": [frac_str(d) for d in fs.degrees],
        "eigentable": [[frac_str(v) for v in row] for row in fs.eigentable],
        "unit": str(as_poly(fs.unit)),
        "change": [str(p) for p in fs.change.images],
        "trunc": fs.trunc,
        "stabilized": fs.stabilized,
        "euler_index": fs.euler_index,
    }
    try:
        out["cor16"] = verify_cor16(fs)
    except NotFree:
        out["cor16"] = None
    return out


def factor_summary(fc) -> dict:
    return {
        "multiplicities": list(fc.multiplicities),
        "residual": str(as_poly(fc.residual)),
        "lambdas": [[frac_str(v) for v in row] for row in fc.lambdas],
        "units": [[str(as_poly(u)) for u in row] for row in fc.units],
    }


# -- stages -------------------------------------------------------------------


def derlog_block(germ: Germ) -> dict:
    return {"generators": [vf_to_str(g) for g in germ.module.fields],
            "cofactors": [str(c) for c in germ.module.cofactors]}


def free_block(germ: Germ) -> dict:
    """Saito's test on the minimal generators; WrongCount unless there are
    exactly n of them."""
    check = saito_free_check(list(germ.module.fields), germ)
    return {
        "free": check.free,
        "determinant": str(check.determinant),
        "unit_value": (frac_str(check.unit_value_at_0)
                       if check.unit_value_at_0 is not None else None),
    }


def euler_block(germ: Germ, check) -> dict:
    """The answer of euler_check or strong_euler_check for f."""
    answer = check(germ.f)
    return {
        "homogeneous": answer.homogeneous,
        "field": (vf_to_str(answer.field) if answer.field is not None
                  else None),
        "exact": answer.exact,
    }


def lie_block(germ: Germ, depth: int) -> dict:
    pres = truncated_lie_algebra(germ.module, depth)
    solvable, series = is_solvable(pres)
    return {
        "dimension": pres.dimension,
        "solvable": solvable,
        "derived_series": series,
        "center_dimension": center_dimension(pres),
        "linear_part_faithful": pres.linear_part_faithful,
    }


@dataclass
class _Request:
    """One analyze call: the germ, its parameters, and what a stage hands on
    to a later one."""

    germ: Germ
    trunc: Optional[int]
    witness_bound: int
    factors: Optional[Sequence[Polynomial]]
    target: Germ        # the germ with its smooth factors split off
    dropped: List[str] = field(default_factory=list)
    free: bool = False
    fs: Optional[FormalStructure] = None    # formal structure of target


def _product(rq: _Request) -> dict:
    prod, wit = rq.germ.product
    return {"is_product": prod,
            "witness": vf_to_str(wit) if wit is not None else None}


def _split(rq: _Request) -> dict:
    """Peel exact smooth factors so the Lie and formal stages get a
    polynomial they accept; without an exact split they see the product."""
    while rq.target.product[0]:
        split = constant_field_split(rq.target.f, rq.target.module.fields)
        if split is None:
            break
        reduced, idx, _change = split
        rq.dropped.append(rq.target.f.vars[idx])
        rq.target = Germ(reduced)
    return {"performed": bool(rq.dropped), "dropped": rq.dropped,
            "reduced": str(rq.target.f) if rq.dropped else None}


def _free(rq: _Request) -> dict:
    try:
        block = free_block(rq.germ)
    except WrongCount:
        return {"free": False, "determinant": None, "unit_value": None,
                "reason": f"{len(rq.germ.module.fields)} minimal generators"}
    rq.free = block["free"]
    return block


def _koszul(rq: _Request) -> Optional[bool]:
    if not rq.free:
        return None
    return koszul_free_check(list(rq.germ.module.fields), rq.germ)


def _formal(rq: _Request) -> dict:
    rq.fs = formal_structure(rq.target, rq.trunc)
    return formal_summary(rq.fs)


def _factors(rq: _Request) -> dict:
    if rq.dropped:
        raise ProductInput("factor analysis needs a non-product f")
    if rq.fs is None:
        raise ProductInput("no formal structure to scale factors by")
    return factor_summary(factor_structure(rq.fs, rq.germ.f,
                                           list(rq.factors)))


def _cech(rq: _Request) -> dict:
    witness = lct_obstruction_witness(rq.germ, list(rq.germ.module.fields),
                                      rq.witness_bound)
    return {"witness": witness.to_json() if witness is not None else None,
            "bound": rq.witness_bound,
            "note": ("a witness refutes the comparison-theorem necessary "
                     "condition; none found only covers the searched box")}


# The stages of analyze in report order: name, block function of the
# request, and what a typed domain error in it does: "embed" it and go on,
# "stop" the report after embedding it, or "raise" it to the caller.
STAGES = (
    ("squarefree", lambda rq: squarefree_check(rq.germ.f)[0], "embed"),
    ("derlog", lambda rq: derlog_block(rq.germ), "stop"),
    ("product", _product, "embed"),
    ("split", _split, "raise"),
    ("free", _free, "embed"),
    ("euler", lambda rq: euler_block(rq.germ, euler_check), "embed"),
    ("strong_euler", lambda rq: euler_block(rq.germ, strong_euler_check),
     "embed"),
    ("koszul", _koszul, "embed"),
    ("lie", lambda rq: lie_block(rq.target, 1), "embed"),
    ("formal", _formal, "embed"),
    ("factors", _factors, "embed"),
    ("cech", _cech, "embed"),
)


def analyze(f: Polynomial, trunc: Optional[int] = None,
            witness_bound: int = 3,
            factors: Optional[Sequence[Polynomial]] = None) -> dict:
    """Full pipeline report for one polynomial.  The zero polynomial, and
    variable names that the printed report could not be parsed back over
    (repeated, or not one identifier each), are refused with
    PreconditionViolated before any stage runs."""
    germ = as_germ(f)
    require_nonzero(germ.f)
    if not _readable_names(germ.f.vars):
        raise PreconditionViolated(f"variable names must be distinct "
                                   f"identifiers, got {germ.f.vars!r}")
    rq = _Request(germ, trunc, witness_bound, factors, germ)
    f = germ.f
    report: dict = {"schema": SCHEMA, "vars": list(f.vars), "f": str(f),
                    "trunc": trunc if trunc is not None
                    else default_truncation(f)}
    timings: dict = {}
    for name, stage, on_error in STAGES:
        if name == "factors" and not factors:
            continue
        if on_error == "raise":
            report[name] = stage(rq)
        elif (not _run_stage(report, timings, name, lambda: stage(rq))
              and on_error == "stop"):
            break
    report["timings"] = timings
    return report


# -- input and corpus files ------------------------------------------------


def parse_vars(text: str) -> Tuple[str, ...]:
    """Comma-separated variable names, none repeated, each one identifier
    as the polynomial parser reads it, so printed output parses back."""
    varnames = tuple(v.strip() for v in text.split(","))
    if not _readable_names(varnames):
        raise LogvfError(f"bad variable list {text!r}")
    return varnames


def parse_div(text: str) -> Tuple[Tuple[str, ...], Polynomial, Dict[str, str]]:
    """A .div file: line 1 variables, line 2 polynomial, optional line 3
    space-separated key=value expectations."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise LogvfError("a .div file needs a variable line and a polynomial")
    varnames = parse_vars(lines[0])
    f = poly_parse(lines[1], varnames)
    expect: Dict[str, str] = {}
    if len(lines) > 2:
        for item in lines[2].split():
            if "=" not in item:
                raise LogvfError(f"bad expectation {item!r}")
            key, _, value = item.partition("=")
            expect[key] = value
    return varnames, f, expect


def _report_get(report: dict, path: Sequence[str]):
    node = report
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    if isinstance(node, dict) and "error" in node:
        return None
    return node


def _norm_field(text: str) -> str:
    return text.replace("_", "").replace(" ", "")

_EXPECT_PATHS = {
    "squarefree": ("squarefree",),
    "product": ("product", "is_product"),
    "free": ("free", "free"),
    "koszul": ("koszul",),
    "euler": ("euler", "homogeneous"),
    "strong_euler": ("strong_euler", "homogeneous"),
    "solvable": ("lie", "solvable"),
    "stabilized": ("formal", "stabilized"),
    "s": ("formal", "s"),
    "r": ("formal", "r"),
    "dim": ("lie", "dimension"),
    "gens": None,  # handled specially
    "euler_field": None,
    "det_unit": ("free", "unit_value"),
}


def check_expectations(report: dict, expect: Dict[str, str]
                       ) -> List[Tuple[str, str, str, bool]]:
    """Compare a report against .div expectations; one row per key."""
    rows = []
    for key, want in sorted(expect.items()):
        if key == "gens":
            gens = _report_get(report, ("derlog", "generators"))
            got = str(len(gens)) if isinstance(gens, list) else "?"
        elif key == "euler_field":
            field = (_report_get(report, ("strong_euler", "field"))
                     or _report_get(report, ("euler", "field")))
            got = _norm_field(field) if field else "none"
            want = _norm_field(want)
        elif key in _EXPECT_PATHS and _EXPECT_PATHS[key] is not None:
            value = _report_get(report, _EXPECT_PATHS[key])
            if isinstance(value, bool):
                got = "true" if value else "false"
            elif value is None:
                got = "none"
            else:
                got = str(value)
        else:
            rows.append((key, want, "unknown key", False))
            continue
        rows.append((key, want, got, got == want))
    return rows


# -- plain-text rendering -----------------------------------------------------


def _fmt_block(name: str, block) -> List[str]:
    if block is None:
        return [f"{name}: skipped"]
    if isinstance(block, dict) and "error" in block:
        return [f"{name}: {block['error']} ({block['detail']})"]
    if isinstance(block, bool):
        return [f"{name}: {'yes' if block else 'no'}"]
    if not isinstance(block, dict):
        return [f"{name}: {block}"]
    lines = [f"{name}:"]
    for key, value in block.items():
        if isinstance(value, list) and value and isinstance(value[0], str):
            value = ", ".join(value)
        lines.append(f"  {key}: {value}")
    return lines


def render_text(report: dict) -> str:
    lines = [f"f = {report['f']}  over ({', '.join(report['vars'])})",
             f"truncation: {report['trunc']}"]
    for name, _stage, _on_error in STAGES:
        if name in report:
            lines.extend(_fmt_block(name, report[name]))
    timings = report.get("timings", {})
    total = sum(timings.values())
    lines.append(f"total time: {total:.3f}s")
    return "\n".join(lines)
