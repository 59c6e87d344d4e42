"""Structured pass/fail records for identity checks and suite runs."""

from __future__ import annotations

import json
from fractions import Fraction

from swb.poly import Poly, RationalFunction
from swb.symbolic import SymbolicNumber

PASS = "pass"
FAIL = "fail"
SKIPPED_BUDGET = "skipped-budget"
UNSUPPORTED = "unsupported"  # the case lies outside the counting engine
ERROR = "error"  # the case raised; the note carries the exception


def render_value(x) -> str:
    """Exact textual rendering: rationals as a/b, never decimals."""
    if isinstance(x, (int, Fraction, Poly, RationalFunction, SymbolicNumber)):
        return str(x)
    if isinstance(x, (tuple, list)):
        return "[" + ", ".join(render_value(v) for v in x) + "]"
    if x is None:
        return ""
    return str(x)


class CaseResult:
    __slots__ = ("kind", "inputs", "status", "lhs", "rhs", "note")

    def __init__(self, kind: str, inputs: dict, status: str, lhs="", rhs="", note=""):
        self.kind = kind
        self.inputs = inputs
        self.status = status
        self.lhs = lhs
        self.rhs = rhs
        self.note = note

    def __eq__(self, other):
        # the class-cache tests compare served results with fresh ones
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    @classmethod
    def check(cls, kind, inputs, lhs, rhs, note=""):
        status = PASS if lhs == rhs else FAIL
        return cls(kind, dict(inputs), status, render_value(lhs), render_value(rhs), note)

    @classmethod
    def of(cls, kind, inputs, passed, lhs="", rhs="", note=""):
        return cls(
            kind,
            dict(inputs),
            PASS if passed else FAIL,
            render_value(lhs),
            render_value(rhs),
            note,
        )

    @classmethod
    def skipped(cls, kind, inputs, note):
        return cls(kind, dict(inputs), SKIPPED_BUDGET, note=note)

    @property
    def passed(self):
        return self.status == PASS


class VerificationReport:
    def __init__(self, suite: str, config: dict | None = None, cases: list | None = None):
        self.suite = suite
        self.config = {} if config is None else config
        self.cases = [] if cases is None else cases

    def add(self, case: CaseResult):
        self.cases.append(case)

    def extend(self, cases):
        self.cases.extend(cases)

    @property
    def summary(self):
        out = {"pass": 0, "fail": 0, "skipped-budget": 0}
        for c in self.cases:
            out[c.status] = out.get(c.status, 0) + 1
        return out

    @property
    def failed(self):
        """A case failed its check or raised."""
        s = self.summary
        return s["fail"] > 0 or s.get(ERROR, 0) > 0

    def to_json(self) -> str:
        payload = {
            "schema": "swb/1",
            "suite": self.suite,
            "config": {k: render_value(v) for k, v in self.config.items()},
            "cases": [
                {
                    "kind": c.kind,
                    "inputs": {k: render_value(v) for k, v in c.inputs.items()},
                    "status": c.status,
                    "lhs": c.lhs,
                    "rhs": c.rhs,
                    "note": c.note,
                }
                for c in self.cases
            ],
            "summary": self.summary,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        for k, v in self.config.items():
            lines.append(f"  {k} = {render_value(v)}")
        for c in self.cases:
            inputs = ", ".join(f"{k}={render_value(v)}" for k, v in c.inputs.items())
            line = f"[{c.status:>14}] {c.kind}({inputs})"
            if c.status == FAIL:
                line += f"  lhs={c.lhs}  rhs={c.rhs}"
            if c.note:
                line += f"  # {c.note}"
            lines.append(line)
        s = self.summary
        line = f"summary: {s['pass']} pass, {s['fail']} fail, {s['skipped-budget']} skipped-budget"
        for status in (UNSUPPORTED, ERROR):
            if s.get(status):
                line += f", {s[status]} {status}"
        lines.append(line)
        return "\n".join(lines)
