"""Canonical JSON serialization for elements, matrices and reports.

The shapes are defined in ``schemas/``: ``element.schema.json`` (elements,
with the shared label, fraction, scalar and term shapes),
``matrix.schema.json`` (an n x n grid of elements, whose algebra and mode
must agree with the matrix's) and one file per subcommand report.

Every report is a dataclass deriving from ``Report``, whose ``to_json`` has
one key per field; a key computed from the fields (a ratio's decimal, a ring
tag, a re-verification flag, a tower's quotient dimensions) is the only
thing a report adds by hand. A new key therefore needs a field and a
property in the report's schema.

Labels are JSON integers (su2, Z, Z/m), integer arrays (product groups,
Heisenberg) or strings (finite:S3). Exact scalars serialize as fraction
strings and round-trip bit-exactly; serialization is canonical (sorted term
order, sorted keys, fixed separators), so serialize(parse(x)) == x
byte-for-byte for canonically formatted exact input.
"""

from __future__ import annotations

import json
from dataclasses import fields
from fractions import Fraction

from .fusion import FusionRing, ring_from_tag
from .polalg import AlgebraElement, MatrixOverPol, PolAlgebra, algebra_for
from .scalars import EXACT, QQi


class SchemaError(ValueError):
    """Input does not match the published JSON schema."""


# -- labels -----------------------------------------------------------------

def label_to_json(ring: FusionRing, u):
    if isinstance(u, tuple):
        return list(u)
    return u


def label_from_json(ring: FusionRing, obj):
    if isinstance(obj, list):
        obj = tuple(obj)
    try:
        return ring.check_label(obj)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


# -- scalars ------------------------------------------------------------------

def scalar_to_json(value):
    if isinstance(value, QQi):
        return {"re": str(value.re), "im": str(value.im)}
    value = complex(value)
    return {"re": value.real, "im": value.imag}


def _scalar_from_json(term: dict, mode: str):
    re, im = term.get("re", 0), term.get("im", 0)
    if mode == EXACT:
        if not isinstance(re, str) or not isinstance(im, str):
            raise SchemaError(
                f"exact coefficients must be fraction strings, got re={re!r} im={im!r}")
        try:
            return QQi(Fraction(re), Fraction(im))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad fraction string: {exc}") from None
    if isinstance(re, str) or isinstance(im, str):
        raise SchemaError("float coefficients must be JSON numbers")
    return complex(float(re), float(im))


# -- elements -----------------------------------------------------------------

def element_to_json(a: AlgebraElement) -> dict:
    terms = []
    for (label, i, j), c in a.terms():
        entry = {"irrep": label_to_json(a.algebra.ring, label), "row": i, "col": j}
        entry.update(scalar_to_json(c))
        terms.append(entry)
    return {"algebra": a.algebra.tag, "mode": a.algebra.mode, "terms": terms}


def element_from_json(obj: dict, algebra: PolAlgebra | None = None) -> AlgebraElement:
    if not isinstance(obj, dict) or "terms" not in obj:
        raise SchemaError("element object must have a 'terms' list")
    if algebra is None:
        if "algebra" not in obj:
            raise SchemaError("element object missing 'algebra' tag")
        algebra = algebra_for(str(obj["algebra"]))
    elif "algebra" in obj and ring_from_tag(str(obj["algebra"])) is not algebra.ring:
        raise SchemaError(
            f"element algebra {obj['algebra']!r} does not match {algebra.tag!r}")
    mode = obj.get("mode", algebra.mode)
    if mode != algebra.mode:
        raise SchemaError(
            f"mode {mode!r} does not match provider mode {algebra.mode!r} of {algebra.tag}")
    if not isinstance(obj["terms"], list):
        raise SchemaError("'terms' must be a list")
    terms = []
    for k, term in enumerate(obj["terms"]):
        if not isinstance(term, dict) or "irrep" not in term:
            raise SchemaError(f"term #{k} is not an object with an 'irrep'")
        label = label_from_json(algebra.ring, term["irrep"])
        row = term.get("row", 1)
        col = term.get("col", 1)
        if type(row) is not int or type(col) is not int:
            raise SchemaError(f"term #{k}: row/col must be integers")
        n = algebra.ring._dim(label)
        if not (1 <= row <= n and 1 <= col <= n):
            raise SchemaError(
                f"term #{k}: index ({row},{col}) out of range for {label!r} (size {n})")
        terms.append(((label, row, col), _scalar_from_json(term, algebra.mode)))
    return AlgebraElement._summed(algebra, terms)


# -- reports -------------------------------------------------------------------

class Report:
    """Base of the report dataclasses: ``to_json`` has one key per field.

    Fractions become strings, tuples lists, elements and scalars their
    schema shapes, and nested reports their own ``to_json``. A computed key
    is added by overriding ``to_json`` as ``{**super().to_json(), key: ...}``.
    """

    def to_json(self) -> dict:
        return {f.name: _value_to_json(getattr(self, f.name)) for f in fields(self)}


_PLAIN = frozenset({int, str, bool, float, type(None)})


def _value_to_json(value):
    if isinstance(value, tuple):
        # windows of thousands of labels are the bulk of a report, so plain
        # items skip the call
        return [v if type(v) in _PLAIN else _value_to_json(v) for v in value]
    if isinstance(value, Report):
        return value.to_json()
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, AlgebraElement):
        return element_to_json(value)
    if isinstance(value, (QQi, complex)):
        return scalar_to_json(value)
    return value


# -- matrices -------------------------------------------------------------------

def matrix_to_json(T: MatrixOverPol) -> dict:
    return {
        "algebra": T.algebra.tag,
        "mode": T.algebra.mode,
        "n": T.n,
        "entries": [[element_to_json(e) for e in row] for row in T.entries],
    }


def matrix_from_json(obj: dict, algebra: PolAlgebra | None = None) -> MatrixOverPol:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise SchemaError("matrix object must have an 'entries' grid")
    if algebra is None:
        if "algebra" not in obj:
            raise SchemaError("matrix object missing 'algebra' tag")
        algebra = algebra_for(str(obj["algebra"]))
    n = obj.get("n", len(obj["entries"]))
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != n \
            or any(not isinstance(row, list) or len(row) != n for row in entries):
        raise SchemaError(f"'entries' must be an {n} x {n} grid")
    rows = [[element_from_json(e, algebra) for e in row] for row in entries]
    return MatrixOverPol(algebra, rows)


def parse_element(obj: dict):
    """Dispatch on the schema: 'entries' means matrix, 'terms' means element."""
    if isinstance(obj, dict) and "entries" in obj:
        return matrix_from_json(obj)
    return element_from_json(obj)


# -- canonical bytes --------------------------------------------------------------

def canonical_dumps(obj) -> str:
    """Canonical JSON: sorted keys, no spaces, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def dump_element(a) -> str:
    if isinstance(a, MatrixOverPol):
        return canonical_dumps(matrix_to_json(a))
    return canonical_dumps(element_to_json(a))


def load_element(text: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    return parse_element(obj)
