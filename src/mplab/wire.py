"""File formats: rational JSON polytopes, flag-point literals, involution tags.

Rationals travel as decimal strings (numerator, denominator) so arbitrary
precision survives JSON.  A polytope is ``{"dim": 1, "vertices": [...]}``
with each vertex a flat [num, den] pair; no other dimension is accepted.

Flag-point literal grammar (EBNF, whitespace ignored):

    point    = pair ";" pair
    pair     = coord "," coord
    coord    = rational [ ("+" | "-") rational "i" ]
    rational = ["-"] digits [ "/" digits ]
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .exactlin import GaussianRational
from .orbits import FlagPoint
from .polytope import RationalPolytope
from .weights import InvolutionSpec, identity_involution, negation_involution


def rational_to_pair(x: Fraction) -> list[str]:
    return [str(x.numerator), str(x.denominator)]


_INTEGER_RE = re.compile(r"-?[0-9]+")


def json_int(value) -> int:
    """A JSON integer or a decimal-integer string; floats and booleans are rejected."""
    if type(value) is int:
        return value
    if isinstance(value, str) and _INTEGER_RE.fullmatch(value):
        return int(value)
    raise ValueError(f"JSON value {json.dumps(value)} is not an integer "
                     "or a decimal-integer string")


def pair_to_rational(pair) -> Fraction:
    """A [num, den] JSON array of exactly two entries; anything else is a ``ValueError``."""
    if type(pair) is not list or len(pair) != 2:
        raise ValueError("a polytope JSON vertex must be a [num, den] array")
    return Fraction(json_int(pair[0]), json_int(pair[1]))


def polytope_to_json(p: RationalPolytope) -> dict:
    return {"dim": 1, "vertices": [rational_to_pair(v) for v in p.vertices]}


def polytope_from_json(obj: dict) -> RationalPolytope:
    """Parse polytope JSON; any malformed input raises ``ValueError``."""
    if not isinstance(obj, dict) or "dim" not in obj or "vertices" not in obj:
        raise ValueError('polytope JSON must be an object with "dim" and "vertices"')
    try:
        dim = json_int(obj["dim"])
        if dim != 1:
            raise ValueError(f"polytope JSON has dim {dim}; only dim 1 is supported")
        if type(obj["vertices"]) is not list:
            raise ValueError('polytope JSON "vertices" must be an array')
        if len(obj["vertices"]) > 2:
            raise ValueError(f"polytope JSON has {len(obj['vertices'])} vertices; "
                             "an interval has at most two")
        verts = tuple(sorted(pair_to_rational(v) for v in obj["vertices"]))
    except ZeroDivisionError:
        raise ValueError("zero denominator in polytope JSON") from None
    if len(verts) == 2 and verts[0] == verts[1]:
        raise ValueError(f"polytope JSON repeats the vertex {verts[0]}")
    return RationalPolytope(verts)


_RATIONAL = r"-?\d+(?:/\d+)?"
_COORD_RE = re.compile(
    rf"^(?P<re>{_RATIONAL})(?:(?P<sign>[+-])(?P<im>{_RATIONAL})i)?$")


def parse_gaussian(text: str) -> GaussianRational:
    match = _COORD_RE.match(text.strip().replace(" ", ""))
    if not match:
        raise ValueError(f"bad coordinate literal {text!r}")
    try:
        re_part, im_part = Fraction(match["re"]), Fraction(match["im"] or 0)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in coordinate literal {text!r}") from None
    if match["sign"] == "-":
        im_part = -im_part
    return GaussianRational.of(re_part, im_part)


def parse_point_literal(text: str) -> FlagPoint:
    """Parse 'a1,c1;a2,c2' with rational or Gaussian-rational coordinates."""
    pairs = text.strip().split(";")
    if len(pairs) != 2:
        raise ValueError("point literal needs exactly two ';'-separated pairs")
    coords = []
    for pair in pairs:
        parts = pair.split(",")
        if len(parts) != 2:
            raise ValueError("each pair needs exactly two ','-separated coordinates")
        coords.extend(parse_gaussian(p) for p in parts)
    return FlagPoint(*coords)


def format_point(x: FlagPoint) -> str:
    return f"{x.a1},{x.c1};{x.a2},{x.c2}"


def parse_gamma(text: str) -> InvolutionSpec:
    """'negation', 'identity', or the JSON matrix literal [[-1]] or [[1]].

    The weight axis has no other lattice-preserving involution, so every
    other literal is a ``ValueError``.
    """
    tag = text.strip()
    if tag == "negation":
        return negation_involution()
    if tag == "identity":
        return identity_involution()
    try:
        rows = json.loads(tag)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: deep nesting
        raise ValueError(f"unknown involution tag {tag!r}") from exc
    if rows not in ([[-1]], [[1]]) or type(rows[0][0]) is not int:
        raise ValueError(f"involution matrix {tag!r} is not [[-1]] or [[1]]")
    return InvolutionSpec(rows[0][0], "matrix")
