"""Serving one request under a deadline and checking its answer.

Every request ends in exactly one status:

- ``ok``: an answer came back and passed its checks;
- ``certificate``: ``CertificateFailure`` was raised (CLI exit 3);
- ``deadline``: the request overran ``deadline_s`` and was interrupted;
- ``check``: an answer came back but is wrong (expectation mismatch,
  ``schema != 1``, unparsable CLI output);
- ``exception``: any other error escaped, or the CLI exited with 2 (an
  input error on a well-formed input) or another non-zero code.

A typed refusal embedded in an answer (``{"error": ..., "detail": ...}``)
is an answer, not a failure, except in place of ``free`` (see
ALWAYS_STRICT); the frozen corpus lines under ``analyze`` must match key
for key.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

FAILURE_KINDS = ("certificate", "deadline", "check", "exception")


class DeadlineExceeded(BaseException):
    """Raised by the interval timer inside an overrunning request.

    A BaseException, so no ``except Exception`` in the package can swallow
    it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@contextlib.contextmanager
def alarm_handler():
    """Route SIGALRM to DeadlineExceeded for the duration of a run."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def deadline(seconds: float):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass(frozen=True)
class Outcome:
    status: str
    seconds: float
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status != "ok"


# keys of check_expectations that each CLI subcommand's payload can answer
_CLI_KEYS = {
    "derlog": ("gens",),
    "free": ("free", "det_unit"),
    "euler": ("euler", "strong_euler", "euler_field"),
    "lie": ("solvable", "dim"),
    "normalize": ("s", "r", "stabilized"),
    "cech": (),
}

# report block of each check_expectations key not named after its block
_BLOCK_OF = {"gens": "derlog", "det_unit": "free",
             "euler_field": "strong_euler", "solvable": "lie", "dim": "lie",
             "s": "formal", "r": "formal", "stabilized": "formal"}


def _as_report(command: str, payload: dict) -> dict:
    """Reshape a CLI payload into the report layout check_expectations reads."""
    if command == "euler" and "error" not in payload:
        return {"euler": payload["euler"],
                "strong_euler": payload["strong_euler"]}
    block = {"derlog": "derlog", "free": "free", "lie": "lie",
             "normalize": "formal"}.get(command)
    return {block: payload} if block else {}


# Keys a typed refusal never answers.  `free` is checked where the answer
# is known (Saito: every reduced plane curve is free) or frozen in a corpus
# line, and the only refusals of the free stage, WrongCount and
# NotLogarithmic, mean a wrong minimal generating set there.
ALWAYS_STRICT = frozenset({"free"})


def _refused(report: dict, key: str) -> bool:
    block = report.get(_BLOCK_OF.get(key, key))
    return isinstance(block, dict) and "error" in block


def check_report(report: dict, expect: Dict[str, str], strict: bool,
                 check_expectations) -> Optional[str]:
    """None when the report passes, else a one-line reason."""
    if report.get("schema") != 1:
        return f"schema {report.get('schema')!r}"
    rows = check_expectations(report, expect) if expect else []
    for key, want, got, ok in rows:
        if ok or (not strict and key not in ALWAYS_STRICT
                  and _refused(report, key)):
            continue
        return f"{key}: expected {want}, got {got}"
    return None


def _cli_expect(argv: Tuple[str, ...], expect: Dict[str, str]):
    command = argv[0]
    keys = _CLI_KEYS[command]
    if command == "lie" and argv[argv.index("--trunc") + 1] != "1":
        keys = ()  # corpus dimensions and solvability are those of D_1
    return {k: v for k, v in expect.items() if k in keys}


def call(request, lib):
    """The library call itself: a report dict, or (exit code, stdout)."""
    if request.argv is None:
        return lib.report.analyze(request.poly, trunc=request.trunc)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = lib.cli.main(list(request.argv))
    return code, out.getvalue()


def judge(request, answer, lib) -> Tuple[str, str]:
    """Status and detail of a returned answer."""
    check_expectations = lib.check_expectations
    if request.argv is None:
        reason = check_report(answer, request.expect, request.strict,
                              check_expectations)
        return ("check", reason) if reason else ("ok", "")
    code, text = answer
    if code == 3:
        return "certificate", "cli exit 3"
    if code != 0:
        return "exception", f"cli exit {code}"
    try:
        payload = json.loads(text)
    except ValueError as err:
        return "check", f"unparsable output: {err}"
    if payload.get("schema") != 1:
        return "check", f"schema {payload.get('schema')!r}"
    report = dict(_as_report(request.argv[0], payload), schema=1)
    reason = check_report(report, _cli_expect(request.argv, request.expect),
                          request.strict, check_expectations)
    return ("check", reason) if reason else ("ok", "")


def serve(request, lib, deadline_s: float) -> Outcome:
    """Run one request under the deadline; never raises for its failures.

    Latency is the library call alone; checking the answer is not timed.
    Needs alarm_handler() to be active.
    """
    start = time.perf_counter()
    try:
        with deadline(deadline_s):
            answer = call(request, lib)
    except DeadlineExceeded:
        return Outcome("deadline", time.perf_counter() - start,
                       f"over {deadline_s} s")
    except lib.errors.CertificateFailure as err:
        return Outcome("certificate", time.perf_counter() - start, str(err))
    except Exception as err:  # a crash is a measured failure, not a stop
        return Outcome("exception", time.perf_counter() - start,
                       f"{type(err).__name__}: {err}")
    seconds = time.perf_counter() - start
    status, detail = judge(request, answer, lib)
    return Outcome(status, seconds, detail)
