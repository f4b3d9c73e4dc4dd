"""The declarative fairness-spec DSL (string form of Figure 1's triplet).

OmniFair's headline contribution is *declarative* fairness specification;
this module gives the triplet ``(grouping, metric, ε)`` a canonical,
parseable string form so that specs can be written on a command line,
stored in configs, and canonicalized for caching::

    parse_spec("SP <= 0.03")                  # sensitive-attribute SP
    parse_spec("SP(race) <= 0.03")            # explicit attribute
    parse_spec("MR(race * sex) <= 0.1")       # intersectional grouping
    parse_spec("FPR <= 0.05 and FNR <= 0.05") # conjunction of clauses
    parse_spec("EO <= 0.05")                  # composite: equalized odds
    parse_spec("PP(race) <= 0.05")            # composite: predictive parity

Grammar (case-insensitive keywords, whitespace-insensitive)::

    spec    := clause ( "and" clause )*
    clause  := METRIC [ "(" attr ( "*" attr )* ")" ] "<=" NUMBER
    METRIC  := SP | MR | FPR | FNR | FOR | FDR | EO | PP | ...aliases
    attr    := identifier resolved against the dataset at bind time

Composites expand into their defining clause pairs (§3.2: equalized odds
= FPR parity ∧ FNR parity; predictive parity = FOR parity ∧ FDR parity).

The result is a :class:`SpecSet` — a list of
:class:`~repro.core.spec.FairnessSpec` with ``to_string()`` (round-trips
through the parser) and ``canonical()`` (order- and format-normalized,
suitable as a cache key).
"""

from __future__ import annotations

import re

from .exceptions import SpecificationError
from .fairness_metrics import METRIC_FACTORIES
from .grouping import by_attributes, by_sensitive_attribute
from .spec import FairnessSpec

__all__ = [
    "parse_spec",
    "SpecSet",
    "DSLParseError",
    "COMPOSITE_METRICS",
]

#: Composite metric names and the built-in clause pairs they expand to.
COMPOSITE_METRICS = {
    "EO": ("FPR", "FNR"),
    "EQODDS": ("FPR", "FNR"),
    "EQUALIZED_ODDS": ("FPR", "FNR"),
    "PP": ("FOR", "FDR"),
    "PRED_PARITY": ("FOR", "FDR"),
    "PREDICTIVE_PARITY": ("FOR", "FDR"),
}


class DSLParseError(SpecificationError):
    """The spec string does not conform to the DSL grammar."""


class SpecSet(list):
    """A parsed list of :class:`FairnessSpec` with string round-tripping.

    Behaves exactly like a list of specs (so it can be handed straight to
    ``Problem``, ``Engine.solve`` or ``fit_fair``), plus:

    * :meth:`to_string` — re-render in the DSL; ``parse_spec`` on the
      result yields an equivalent SpecSet;
    * :meth:`canonical` — normalized form (sorted clauses, ``g``-format
      epsilons) usable as a cache / dedup key.
    """

    def to_string(self):
        """Re-render in the DSL, preserving the original clause order."""
        if not self:
            raise SpecificationError("cannot render an empty SpecSet")
        return " and ".join(spec.to_string() for spec in self)

    def canonical(self):
        """Normalized rendering: sorted clauses, ``g``-format epsilons.

        Reordered conjunctions, reformatted thresholds (``8e-2`` vs
        ``0.08``), and composite aliases (``EO`` vs its FPR∧FNR
        expansion) all canonicalize to the same string — this is the
        cache/dedup key used by the solution cache and the serving
        registry.
        """
        if not self:
            raise SpecificationError("cannot canonicalize an empty SpecSet")
        clauses = sorted(spec.to_string() for spec in self)
        return " and ".join(clauses)

    def __repr__(self):
        try:
            return f"SpecSet({self.to_string()!r})"
        except SpecificationError:
            return f"SpecSet({list.__repr__(self)})"


_TOKEN_RE = re.compile(
    r"""
    (?P<le>    <=|≤                      )
  | (?P<num>   [-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)? )
  | (?P<name>  [A-Za-z_][A-Za-z0-9_]*    )
  | (?P<star>  \*                        )
  | (?P<open>  \(                        )
  | (?P<close> \)                        )
    """,
    re.VERBOSE,
)


def _tokenize(text):
    tokens, pos = [], 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DSLParseError(
                f"unexpected character {text[pos]!r} at position {pos} "
                f"in spec {text!r}"
            )
        kind = m.lastgroup
        tokens.append((kind, m.group()))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def _next(self, expect=None, what=""):
        kind, value = self._peek()
        if kind is None:
            raise DSLParseError(
                f"unexpected end of spec {self.text!r}; expected {what}"
            )
        if expect is not None and kind != expect:
            raise DSLParseError(
                f"expected {what} but found {value!r} in spec {self.text!r}"
            )
        self.i += 1
        return value

    def parse(self):
        specs = SpecSet()
        specs.extend(self._clause())
        while True:
            kind, value = self._peek()
            if kind is None:
                break
            if kind == "name" and value.lower() == "and":
                self.i += 1
                specs.extend(self._clause())
            else:
                raise DSLParseError(
                    f"expected 'and' or end of spec but found {value!r} "
                    f"in spec {self.text!r}"
                )
        return specs

    def _clause(self):
        metric = self._next("name", "a metric name").upper()
        attrs = ()
        if self._peek()[0] == "open":
            self.i += 1
            names = [self._next("name", "an attribute name")]
            while self._peek()[0] == "star":
                self.i += 1
                names.append(self._next("name", "an attribute name"))
            self._next("close", "')'")
            attrs = tuple(names)
        self._next("le", "'<='")
        raw = self._next("num", "a number")
        epsilon = float(raw)

        names = COMPOSITE_METRICS.get(metric, (metric,))
        grouping = by_attributes(*attrs) if attrs else by_sensitive_attribute()
        clause_specs = []
        for name in names:
            if name not in METRIC_FACTORIES:
                raise DSLParseError(
                    f"unknown metric {metric!r} in spec {self.text!r}; "
                    f"built-ins: {sorted(METRIC_FACTORIES)}, composites: "
                    f"{sorted(COMPOSITE_METRICS)}"
                )
            try:
                clause_specs.append(
                    FairnessSpec(name, epsilon, grouping=grouping)
                )
            except SpecificationError as exc:
                raise DSLParseError(
                    f"invalid clause in spec {self.text!r}: {exc}"
                ) from exc
        return clause_specs


def parse_spec(spec):
    """Parse a DSL string (or coerce specs) into a :class:`SpecSet`.

    Accepts a DSL string, a single :class:`FairnessSpec`, or an iterable
    of them (already-parsed input passes through), so callers can be
    agnostic about which form the user supplied.
    """
    if isinstance(spec, SpecSet):
        return spec
    if isinstance(spec, FairnessSpec):
        return SpecSet([spec])
    if isinstance(spec, str):
        if not spec.strip():
            raise DSLParseError("empty spec string")
        return _Parser(spec).parse()
    try:
        specs = list(spec)
    except TypeError:
        raise SpecificationError(
            f"expected a spec string, FairnessSpec, or list of specs; "
            f"got {type(spec).__name__}"
        ) from None
    out = SpecSet()
    for item in specs:
        out.extend(parse_spec(item))
    return out
