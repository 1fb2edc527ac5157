"""Plain-text point set files.

Layout: an optional ``# label: ...`` comment, a header line
``dim=<2|3> kind=<affine|projective> field=<Q|Qw>``, then one point per line
with whitespace-separated coordinates. Rationals are written ``a`` or ``a/b``
with positive b; extension-field scalars are written ``a+b*w`` with rational
parts. ``#`` starts a comment line, blank lines are ignored. Each header key
appears once. Only LF, CR LF and CR end a line; form feed, U+000B,
U+001C-U+001E, U+0085, U+2028 and U+2029 are whitespace within one.

Writing then parsing reproduces the set exactly, label included, and writing
is deterministic, so write -> parse -> write is byte-identical.
"""

from __future__ import annotations

import io
import re
from fractions import Fraction

from .errors import ParseError, UsageError
from .fields import Eisenstein
from .geometry import _COORD_COUNT, Kind, Point, make_point
from .incidence import PointSet

__all__ = ["parse_pointset", "write_pointset", "read_pointset_file"]

_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$", re.ASCII)

_HEADERS = {
    ("2", "affine"): Kind.AFFINE2,
    ("3", "affine"): Kind.AFFINE3,
    ("2", "projective"): Kind.PROJECTIVE2,
}
_HEADER_OF = {kind: header for header, kind in _HEADERS.items()}


def _parse_rational(token: str, lineno: int) -> Fraction:
    if not _RAT_RE.match(token):
        raise ParseError(f"malformed rational {token!r}", lineno)
    if "/" in token:
        num, den = token.split("/")
        if int(den) == 0:
            raise ParseError(f"zero denominator in {token!r}", lineno)
        return Fraction(int(num), int(den))
    return Fraction(int(token))


def _parse_scalar(token: str, lineno: int, field: str):
    if field == "Q":
        if token.endswith("*w"):
            raise ParseError(f"extension-field scalar {token!r} in a field=Q file", lineno)
        return _parse_rational(token, lineno)
    if not token.endswith("*w"):
        return Eisenstein(_parse_rational(token, lineno), 0)
    head = token[:-2]
    cut = max(head.rfind("+"), head.rfind("-"))
    if cut <= 0:
        return Eisenstein(0, _parse_rational(head, lineno))
    return Eisenstein(
        _parse_rational(head[:cut], lineno), _parse_rational(head[cut:], lineno)
    )


def _parse_header(line: str, lineno: int) -> tuple[Kind, str]:
    entries = {}
    for part in line.split():
        if "=" not in part:
            raise ParseError(f"malformed header entry {part!r}", lineno)
        key, _, value = part.partition("=")
        if key in entries:
            raise ParseError(f"repeated header key {key!r}", lineno)
        entries[key] = value
    unknown = set(entries) - {"dim", "kind", "field"}
    if unknown:
        raise ParseError(f"unknown header keys {sorted(unknown)}", lineno)
    missing = {"dim", "kind", "field"} - set(entries)
    if missing:
        raise ParseError(f"header is missing {sorted(missing)}", lineno)
    field = entries["field"]
    if field not in ("Q", "Qw"):
        raise ParseError(f"unknown field tag {field!r} (expected Q or Qw)", lineno)
    kind = _HEADERS.get((entries["dim"], entries["kind"]))
    if kind is None:
        raise ParseError(
            f"unsupported dim={entries['dim']} kind={entries['kind']} combination", lineno
        )
    if field == "Qw" and kind is Kind.AFFINE3:
        raise ParseError("field=Qw is only supported for planar sets", lineno)
    return kind, field


def parse_pointset(text: str) -> PointSet:
    """Parse the text format into a validated point set.

    Every diagnostic carries the 1-based line number it refers to.
    """
    kind: Kind | None = None
    field = "Q"
    label = ""
    points: list[Point] = []
    seen: dict[Point, int] = {}
    lineno = 0
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("label:") and kind is None:
                label = body[len("label:") :].strip()
            continue
        if kind is None:
            kind, field = _parse_header(line, lineno)
            continue
        tokens = line.split()
        want = _COORD_COUNT[kind]
        if len(tokens) != want:
            raise ParseError(
                f"expected {want} coordinates for {kind.value}, got {len(tokens)}", lineno
            )
        coords = [_parse_scalar(tok, lineno, field) for tok in tokens]
        try:
            point = make_point(coords, kind)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
        if point in seen:
            raise ParseError(
                f"duplicate point (same as line {seen[point]})", lineno
            )
        seen[point] = lineno
        points.append(point)
    if kind is None:
        raise ParseError("missing header line 'dim=... kind=... field=...'", max(lineno, 1))
    if not points:
        raise ParseError("no points after the header", lineno)
    return PointSet(points, label=label)


def write_pointset(P: PointSet) -> str:
    """Serialize a point set; inverse of parse_pointset, deterministic."""
    dim, kind = _HEADER_OF[P.kind]
    lines = []
    if P.label:
        lines.append(f"# label: {P.label}")
    lines.append(f"dim={dim} kind={kind} field={P.field_name}")
    for p in P:
        lines.append(" ".join(map(str, p.coords)))
    return "\n".join(lines) + "\n"


def read_pointset_file(path: str) -> PointSet:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    return parse_pointset(text)
