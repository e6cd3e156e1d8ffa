"""The builtin classification table of smooth toric Fano 4-folds, its CSV
dataset format and its batch verification.

Each explicit row carries the primitive ray generators, the primitive
collections where the family has them, a witness surface and the reference
pairing value.  Rows realized as products or projective bundles carry no
vectors: a product/bundle argument already bounds their second Chern
character, so they are tagged rather than recomputed.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from importlib import resources
from typing import Optional

from .fans import (
    Fan,
    ReconstructionError,
    face_fan,
    fan_from_primitive_data,
    primitive_collections,
    validate,
)
from .formats import ParseError
from .intersection import is_2fano, is_fano, surface_cone
from .linalg import Vec, _FrozenRecord, _Record, frac


class TableRow(_FrozenRecord):
    __slots__ = ("name", "rays", "collections", "surface", "expected", "note")

    def __init__(self, name: str, rays: Optional[tuple[Vec, ...]],
                 collections: Optional[tuple[tuple[int, ...], ...]],
                 surface: Optional[tuple[int, int]], expected: Optional[Fraction], note: str = ""):
        self._set(name, rays, collections, surface, expected, note)
        for cell in ("surface", "expected"):  # what an explicit row is verified against
            if rays is not None and getattr(self, cell) is None:
                raise ParseError("rays need this cell", field=cell)
        for c in collections or ():
            if len(set(c)) < 2:
                raise ParseError(f"collection {c} has fewer than two members", field="collections")
            if rays is not None and not all(0 <= i < len(rays) for i in c):
                raise ParseError(f"collection {c} names a ray outside the rays",
                                 field="collections")

    @property
    def explicit(self) -> bool:
        return self.rays is not None


# rows reported to have nef (but not positive) second Chern character
NEF_CH2_NAMES = frozenset(
    ["P4", "B_1", "B_2", "B_3", "B_4", "C_4"]
    + ["D_1", "D_2", "D_3", "D_5", "D_6", "D_8", "D_9", "D_12", "D_13", "D_15"]
    + [f"L_{i}" for i in range(1, 10)]
)


def _parse_vec_list(cell: str, field, line):
    out = []
    for part in cell.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(tuple(int(x) for x in part.split()))
        except ValueError as exc:
            raise ParseError(f"malformed vector {part!r}", field=field, line=line) from exc
    return tuple(out)


def parse_dataset(text: str):
    """Rows of a classification dataset CSV; see the README for columns."""
    reader = csv.DictReader(io.StringIO(text))
    rows, names = [], set()
    for lineno, rec in enumerate(reader, start=2):
        name = (rec.get("name") or "").strip()
        if not name:
            raise ParseError("missing row name", field="name", line=lineno)
        if name in names:
            raise ParseError(f"repeated row name {name!r}", field="name", line=lineno)
        names.add(name)
        rays = _parse_vec_list(rec.get("rays") or "", "rays", lineno)
        colls = _parse_vec_list(rec.get("collections") or "", "collections", lineno)
        surface = _parse_vec_list(rec.get("surface") or "", "surface", lineno)
        if surface and (len(surface) != 1 or len(surface[0]) != 2):
            raise ParseError("surface needs two indices", field="surface", line=lineno)
        expected_cell = (rec.get("expected") or "").strip()
        expected = None
        if expected_cell:
            try:
                expected = frac(expected_cell)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"malformed rational {expected_cell!r}",
                                 field="expected", line=lineno) from exc
        try:
            rows.append(TableRow(
                name=name,
                rays=rays or None,
                collections=colls or None,
                surface=surface[0] if surface else None,
                expected=expected,
                note=(rec.get("note") or "").strip(),
            ))
        except ParseError as exc:
            raise ParseError(exc.message, field=exc.field, line=lineno) from None
    return rows


def load_builtin_table() -> list[TableRow]:
    text = resources.files("toriq.data").joinpath("fano4.csv").read_text()
    return parse_dataset(text)


class RowResult(_Record):
    """One row's verification: ``status`` is "ok", "error" or "skipped" and
    ``method`` "collections" or "hull"."""

    __slots__ = ("name", "status", "method", "reason", "smooth", "complete", "fano", "computed",
                 "expected", "match", "global_min", "min_witness", "two_fano",
                 "collections_roundtrip")

    def __init__(self, name: str, status: str, method: str = "", reason: str = "",
                 smooth: bool = False, complete: bool = False, fano: bool = False,
                 computed: Optional[Fraction] = None, expected: Optional[Fraction] = None,
                 match: Optional[bool] = None, global_min: Optional[Fraction] = None,
                 min_witness: Optional[tuple[int, ...]] = None, two_fano: Optional[bool] = None,
                 collections_roundtrip: Optional[bool] = None):
        self._set(name, status, method, reason, smooth, complete, fano, computed, expected,
                  match, global_min, min_witness, two_fano, collections_roundtrip)


class VerificationReport(_Record):
    __slots__ = ("rows", "nef_checks")

    def __init__(self, rows: Optional[list[RowResult]] = None,
                 nef_checks: Optional[list[RowResult]] = None):
        self._set([] if rows is None else rows, [] if nef_checks is None else nef_checks)

    @property
    def verified(self) -> int:
        return sum(1 for r in self.rows if r.status == "ok")

    @property
    def mismatches(self) -> int:
        return sum(1 for r in self.rows if r.status == "ok" and r.match is False)

    @property
    def errors(self) -> int:
        return sum(1 for r in self.rows if r.status == "error")

    @property
    def skipped(self) -> int:
        return sum(1 for r in self.rows if r.status == "skipped")

    @property
    def ok(self) -> bool:
        return self.errors == 0 and self.mismatches == 0


def reconstruct_fan(row: TableRow) -> tuple[Fan, str]:
    """Fan of a table row: from its primitive collections when given, else
    as the face fan over the convex hull of the rays.  Collections that do
    not rebuild a fan raise ``ReconstructionError`` naming them: they are
    reported, not replaced by the hull."""
    if row.rays is None:
        raise ReconstructionError(f"row {row.name} has no ray data")
    if not row.collections:
        return face_fan(list(row.rays)), "hull"
    try:
        return fan_from_primitive_data(list(row.rays), list(row.collections)), "collections"
    except ReconstructionError as exc:
        raise ReconstructionError(
            f"row {row.name}: collections {tuple(row.collections)} do not rebuild a fan: {exc}"
        ) from exc


def verify_row(row: TableRow) -> RowResult:
    if not row.explicit:
        return RowResult(row.name, "skipped", reason=row.note or "no ray data")
    res = RowResult(row.name, "ok", expected=row.expected)
    try:
        fan, method = reconstruct_fan(row)
        res.method = method
        rep = validate(fan)
        res.smooth = rep.smooth
        res.complete = rep.complete
        if not (rep.smooth and rep.complete):
            res.status = "error"
            res.reason = "fan failed smooth/complete validation"
            return res
        if method == "collections":
            got = {c.members for c in primitive_collections(fan)}
            res.collections_roundtrip = got == {tuple(sorted(c)) for c in row.collections}
        verdict = is_fano(fan)
        res.fano = verdict.is_fano
        if not verdict.is_fano:
            res.status = "error"
            res.reason = f"fan is not Fano (witnesses {verdict.witnesses})"
            return res
        sigma = surface_cone(fan, row.surface)
        scan = is_2fano(fan)
        res.computed = dict(scan.values).get(sigma)
        if res.computed is None:
            raise ValueError(f"{sigma} is not a cone of the fan")
        res.match = res.computed == row.expected
        res.global_min = scan.minimum
        res.min_witness = scan.witness
        res.two_fano = scan.is_two_fano
        if row.expected > 0 and not scan.is_two_fano:
            res.status = "error"
            res.reason = "expected a positive scan"
        if scan.minimum > row.expected:
            res.status = "error"
            res.reason = "scan minimum exceeds the reference value"
    except ValueError as exc:  # keep the batch running, record the row
        res.status = "error"
        res.reason = f"{type(exc).__name__}: {exc}"
    return res


def verify_table(rows: Optional[list[TableRow]] = None) -> VerificationReport:
    """Verify every row: reconstruct, validate, compare the witness-surface
    value exactly, and run the full surface scan.  Rows without ray data
    are skipped with their tag as the reason; failures do not stop the run."""
    if rows is None:
        rows = load_builtin_table()
    report = VerificationReport()
    by_name = {}
    for row in rows:
        res = verify_row(row)
        report.rows.append(res)
        by_name[row.name] = (row, res)
    for name in sorted(NEF_CH2_NAMES):
        if name not in by_name:
            continue
        row, res = by_name[name]
        entry = RowResult(name, "skipped")
        if not row.explicit:
            entry.reason = "nef check skipped: no ray data to rebuild this row"
        elif res.status != "ok":
            entry.reason = f"nef check skipped: row status {res.status}"
        else:
            entry.status = "ok"
            entry.global_min = res.global_min
            entry.min_witness = res.min_witness
            entry.match = res.global_min >= 0
            entry.reason = "minimum over surfaces is nonnegative" if entry.match else "negative surface found"
        report.nef_checks.append(entry)
    return report
