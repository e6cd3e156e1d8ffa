"""File formats: fans and polytopes as JSON, verification reports as CSV,
and SVG rendering of 2D adjoint families.

Rationals travel as "p/q" strings so no binary float ever enters a file.
Emitted forms are canonical (rays sorted lexicographically, cones sorted)
and therefore stable under diffing.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
import warnings
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .fans import Fan
from .linalg import format_frac, frac, primitive_part
from .polytopes import (
    EmptyPolytopeError,
    FacetPresentation,
    adjoint,
    remove_redundant,
    thresholds,
    vertices,
)


class ParseError(ValueError):
    def __init__(self, message, field=None, line=None):
        self.message = message
        self.field = field
        self.line = line
        where = ""
        if field is not None:
            where = f" (field {field!r})"
        if line is not None:
            where += f" (line {line})"
        super().__init__(message + where)


class SvgError(ValueError):
    pass


def _count(value, field):
    if type(value) is not int or value < 0:  # bool is a subclass of int
        raise ParseError("expected a non-negative integer", field=field)
    return value


def _list(value, field):
    if not isinstance(value, list):
        raise ParseError("expected a list", field=field)
    return value


def _int_vectors(value, field):
    out = []
    for item in _list(value, field):
        if not isinstance(item, list) or not all(type(x) is int for x in item):
            raise ParseError(f"malformed vector {item!r}", field=field)
        out.append(tuple(item))
    return out


def _json_object(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(data, dict):
        raise ParseError("expected a JSON object")
    return data


def parse_fan(text: str, lenient: bool = False) -> Fan:
    """Parse a fan file.  Non-primitive rays are rejected, or with
    lenient=True replaced by their primitive part with a warning."""
    data = _json_object(text)
    for key in ("rank", "rays", "max_cones"):
        if key not in data:
            raise ParseError("missing key", field=key)
    rank = _count(data["rank"], "rank")
    rays = _int_vectors(data["rays"], "rays")
    fixed = []
    for r in rays:
        if gcd(*r) == 0:
            raise ParseError(f"zero ray {r}", field="rays")
        if gcd(*r) != 1:
            if not lenient:
                raise ParseError(f"non-primitive ray {r}", field="rays")
            warnings.warn(f"primitivized non-primitive ray {r}", stacklevel=2)
            r = primitive_part(r)
        fixed.append(r)
    try:
        Fan(rank, tuple(fixed), ())  # the rays' own checks, before any cone's
    except ValueError as exc:
        raise ParseError(str(exc), field="rays") from exc
    cones = _int_vectors(data["max_cones"], "max_cones")
    try:
        return Fan(rank, tuple(fixed), tuple(cones))
    except ValueError as exc:
        raise ParseError(str(exc), field="max_cones") from exc


def canonical_fan(fan: Fan) -> Fan:
    order = sorted(range(len(fan.rays)), key=lambda i: fan.rays[i])
    remap = {old: new for new, old in enumerate(order)}
    rays = tuple(fan.rays[i] for i in order)
    cones = tuple(sorted(tuple(sorted(remap[i] for i in c)) for c in fan.max_cones))
    return Fan(fan.rank, rays, cones)


def emit_fan(fan: Fan) -> str:
    """Serialize a fan in canonical form (rays sorted lexicographically)."""
    c = canonical_fan(fan)
    return json.dumps(
        {
            "rank": c.rank,
            "rays": [list(r) for r in c.rays],
            "max_cones": [list(cn) for cn in c.max_cones],
        },
        indent=2,
    ) + "\n"


def parse_polytope(text: str) -> FacetPresentation:
    data = _json_object(text)
    for key in ("dim", "normals", "constants"):
        if key not in data:
            raise ParseError("missing key", field=key)
    dim = _count(data["dim"], "dim")
    normals = _int_vectors(data["normals"], "normals")
    constants = []
    for a in _list(data["constants"], "constants"):
        try:
            constants.append(frac(a) if type(a) in (str, int) else None)
        except (ValueError, ZeroDivisionError):
            constants.append(None)
        if constants[-1] is None:
            raise ParseError(f"malformed rational {a!r}", field="constants")
    try:
        return FacetPresentation(dim, tuple(normals), tuple(constants))
    except ValueError as exc:  # the count is checked before any normal
        field = "constants" if len(constants) != len(normals) else "normals"
        raise ParseError(str(exc), field=field) from exc


def emit_polytope(P: FacetPresentation) -> str:
    order = sorted(range(P.nfacets), key=lambda i: P.normals[i])
    return json.dumps(
        {
            "dim": P.dim,
            "normals": [list(P.normals[i]) for i in order],
            "constants": [format_frac(P.constants[i]) for i in order],
        },
        indent=2,
    ) + "\n"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def emit_report(report) -> str:
    """Verification report as CSV."""
    buf = _stdio.StringIO()
    w = csv.writer(buf)
    w.writerow(["name", "status", "computed", "expected", "match", "global_min", "min_witness"])
    for row in report.rows:
        w.writerow([
            row.name,
            row.status,
            format_frac(row.computed) if row.computed is not None else "",
            format_frac(row.expected) if row.expected is not None else "",
            {True: "yes", False: "NO"}.get(row.match, ""),
            format_frac(row.global_min) if row.global_min is not None else "",
            " ".join(str(i) for i in row.min_witness) if row.min_witness else "",
        ])
    return buf.getvalue()


def report_text(report) -> str:
    lines = []
    for row in report.rows:
        if row.status == "ok":
            mark = "ok " if row.match else "MISMATCH"
            lines.append(
                f"{row.name:>6}: {mark} computed={format_frac(row.computed)} "
                f"expected={format_frac(row.expected)} "
                f"min={format_frac(row.global_min)} at {row.min_witness} [{row.method}]"
            )
        else:
            lines.append(f"{row.name:>6}: {row.status} ({row.reason})")
    lines.append(
        f"verified {report.verified} rows, {report.mismatches} mismatches, "
        f"{report.errors} errors, {report.skipped} skipped"
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

_SCALE = 60


def _svg_num(q: Fraction) -> str:
    # exact decimal with three places, no float involved
    scaled = q * 1000
    n = scaled.numerator // scaled.denominator
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // 1000}.{n % 1000:03d}"


def _ordered_cycle(points: Sequence[tuple[Fraction, Fraction]]):
    """The points by angle about their centroid, counterclockwise from angle 0."""
    cx = sum((p[0] for p in points), Fraction(0)) / len(points)
    cy = sum((p[1] for p in points), Fraction(0)) / len(points)

    def angle(p):
        # inside each open half-plane, -cot = -dx/dy grows with the angle
        dx, dy = p[0] - cx, p[1] - cy
        return (dy < 0 or (dy == 0 and dx <= 0), dy != 0, -dx / dy if dy else 0)

    return sorted(points, key=angle)


def emit_svg(P: FacetPresentation, critical_values: Optional[Sequence] = None) -> str:
    """Nested outlines of the adjoint family P^(s) of a 2D polytope, drawn
    for s = i/6 of the effective threshold (i = 0..5) plus the exact
    critical values (labelled p/q)."""
    if P.dim != 2:
        raise SvgError("only 2-dimensional polytopes are drawn")
    try:
        base = P if P.irredundant else remove_redundant(P)[0]
        th = thresholds(base)
    except EmptyPolytopeError:
        raise SvgError("nothing to draw") from None
    crit = {frac(c) for c in (critical_values or [])} | {th.nef, th.effective}
    family = []  # (s, vertices of P^(s)); never empty, as P^(0) = base is not
    for s in sorted({th.effective * i / 6 for i in range(6)} | crit):
        try:
            family.append((s, vertices(adjoint(base, s), allow_lower_dim=True).vertices))
        except EmptyPolytopeError:
            pass
    xs = [p[0] for _, vs in family for p in vs]
    ys = [p[1] for _, vs in family for p in vs]
    pad = Fraction(1, 2)
    minx, maxx = min(xs) - pad, max(xs) + pad
    miny, maxy = min(ys) - pad, max(ys) + pad

    def xy(p):
        return _svg_num((p[0] - minx) * _SCALE), _svg_num((maxy - p[1]) * _SCALE)

    width, height = xy((maxx, miny))  # the far corner of the box
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    for s, vs in family:
        stroke, swidth = ("#c02020", 2) if s in crit else ("#404040", 1)
        if len(vs) == 1:
            x, y = xy(vs[0])
            out.append(f'<circle cx="{x}" cy="{y}" r="3" fill="{stroke}"/>')
        else:
            pts = " ".join(",".join(xy(p)) for p in _ordered_cycle(vs))
            out.append(
                f'<polygon points="{pts}" fill="none" stroke="{stroke}" stroke-width="{swidth}"/>'
            )
    for s, vs in family:
        if s in crit:
            x, y = xy(vs[0])
            out.append(f'<text x="{x}" y="{y}" font-size="10">s = {format_frac(s)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
