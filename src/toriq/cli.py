"""Command-line interface.

Exit codes: 0 when the requested verdict or artifact was computed, 1 when a
table verification found mismatches or errors, 2 on input errors (bad
files, bad flags, non-general programs without --force).
"""

from __future__ import annotations

import argparse
import csv
import sys

from . import fano_table, formats, intersection, mmp, polytopes
from .fans import MalformedFanError, validate
from .linalg import format_frac, frac


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_fan(path: str, lenient: bool = False):
    return formats.parse_fan(_read(path), lenient=lenient)


def _load_polytope(path: str):
    return formats.parse_polytope(_read(path))


def _cmd_validate(args) -> int:
    fan = _load_fan(args.fan, lenient=args.lenient)
    rep = validate(fan)
    print(f"well_formed: {rep.well_formed}")
    print(f"simplicial:  {rep.simplicial}")
    print(f"smooth:      {rep.smooth}")
    print(f"complete:    {rep.complete}")
    for p in rep.problems:
        print(f"problem: {p}")
    return 0


def _cmd_check_fano(args) -> int:
    fan = _load_fan(args.fan)
    verdict = intersection.is_fano(fan)
    print(f"fano: {verdict.is_fano} (via {verdict.method})")
    for w in verdict.witnesses:
        print(f"witness: {w}")
    return 0


def _cmd_check_2fano(args) -> int:
    fan = _load_fan(args.fan)
    scan = intersection.is_2fano(fan)
    print(f"2-fano: {scan.is_two_fano}")
    print(f"minimum: {format_frac(scan.minimum)} at surface {','.join(map(str, scan.witness))}")
    if scan.nef_but_not_positive:
        print("note: minimum is exactly zero (nef, not positive)")
    if args.report:
        with open(args.report, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["surface", "value"])
            for sigma, val in scan.values:
                w.writerow([" ".join(map(str, sigma)), format_frac(val)])
    return 0


def _cmd_ch2(args) -> int:
    fan = _load_fan(args.fan)
    try:
        sigma = tuple(int(x) for x in args.surface.split(",")) if args.surface else ()
    except ValueError:
        print("--surface expects comma-separated ray indices", file=sys.stderr)
        return 2
    print(format_frac(intersection.ch2_dot_surface(fan, sigma)))
    return 0


def _cmd_run_mmp(args) -> int:
    P = _load_polytope(args.polytope)
    reduced, removed = polytopes.remove_redundant(P)
    if removed:
        print(f"removed redundant inequalities at indices {list(removed)}")
    try:
        trace = mmp.run_mmp_scaling(reduced, force=args.force)
    except mmp.GeneralityError as exc:
        print(f"generality error: {exc}", file=sys.stderr)
        return 2
    except mmp.StepBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if trace.generality_flag:
        print("non-general input; ties broken by lexicographically smallest wall")
    for step in trace.steps:
        print(
            f"lambda = {format_frac(step.lam)}: {step.kind} "
            f"(wall {step.wall_rays}, alpha={step.alpha}, beta={step.beta}, "
            f"rays {len(step.fan_before.rays)} -> {len(step.fan_after.rays)})"
        )
    print(f"effective threshold: {format_frac(trace.effective_threshold)}")
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(_trace_text(trace))
    return 0


def _trace_text(trace) -> str:
    lines = []
    for step in trace.steps:
        lines.append(
            f"lambda={format_frac(step.lam)} kind={step.kind} wall={step.wall_rays} "
            f"alpha={step.alpha} beta={step.beta} lost_face_dim={step.lost_face_dim} "
            f"flagged={step.generality_flag}"
        )
        lines.append(f"  fan_before: {formats.emit_fan(step.fan_before).strip()}")
        lines.append(f"  fan_after: {formats.emit_fan(step.fan_after).strip()}")
    lines.append(f"sigma={format_frac(trace.effective_threshold)}")
    for key, val in sorted(trace.validation.items()):
        lines.append(f"check {key}: {val}")
    return "\n".join(lines) + "\n"


def _cmd_adjoint(args) -> int:
    P = _load_polytope(args.polytope)
    try:
        s = frac(args.s)
    except (ValueError, ZeroDivisionError):
        print("--s expects a rational like 2/5", file=sys.stderr)
        return 2
    if args.allow_redundant:
        Q = polytopes.adjoint(P, s, allow_redundant=True)
    else:
        # certify the presentation first; shifting a redundant list is
        # presentation-dependent and needs the explicit flag
        reduced, removed = polytopes.remove_redundant(P)
        if removed:
            print(
                f"error: inequalities {list(removed)} are redundant; "
                "rerun with --allow-redundant to shift the full list",
                file=sys.stderr,
            )
            return 2
        Q = polytopes.adjoint(reduced, s)
    sys.stdout.write(formats.emit_polytope(Q))
    return 0


def _cmd_thresholds(args) -> int:
    P = _load_polytope(args.polytope)
    reduced, _ = polytopes.remove_redundant(P)
    th = polytopes.thresholds(reduced)
    print(f"nef: {format_frac(th.nef)}")
    print(f"effective: {format_frac(th.effective)}")
    return 0


def _cmd_detect_cayley(args) -> int:
    P = _load_polytope(args.polytope)
    reduced, _ = polytopes.remove_redundant(P)
    dec = polytopes.cayley_mori_detect(reduced)
    if dec is None:
        print("absent")
        return 0
    print(f"cayley sum of {len(dec.bases)} bases over directions {[tuple(map(format_frac, w)) for w in dec.w]}")
    s = polytopes.is_cayley_s(reduced, dec)
    if s is not None:
        print(f"standard-simplex image with s = {s}")
    return 0


def _cmd_verify_table(args) -> int:
    if args.dataset:
        rows = fano_table.parse_dataset(_read(args.dataset))
    else:
        rows = fano_table.load_builtin_table()
    report = fano_table.verify_table(rows)
    sys.stdout.write(formats.report_text(report))
    for entry in report.nef_checks:
        if entry.status == "ok":
            print(f"nef check {entry.name}: min={format_frac(entry.global_min)} ({entry.reason})")
        else:
            print(f"nef check {entry.name}: {entry.reason}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(formats.emit_report(report))
    return 0 if report.ok else 1


def _cmd_plot(args) -> int:
    P = _load_polytope(args.polytope)
    reduced, _ = polytopes.remove_redundant(P)
    critical = None
    try:
        trace = mmp.run_mmp_scaling(reduced, force=True)
        critical = list(trace.critical_values)
    except MalformedFanError:
        raise  # a failed self-check is an error, not a missing trace
    except (ValueError, mmp.StepBudgetError, mmp.GeneralityError):
        pass  # fall back to nef/effective only
    svg = formats.emit_svg(reduced, critical_values=critical)
    with open(args.svg, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {args.svg}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="toriq", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a fan file")
    p.add_argument("fan")
    p.add_argument("--lenient", action="store_true", help="primitivize non-primitive rays")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("check-fano", help="anticanonical positivity")
    p.add_argument("fan")
    p.set_defaults(fn=_cmd_check_fano)

    p = sub.add_parser("check-2fano", help="scan all invariant surfaces")
    p.add_argument("fan")
    p.add_argument("--report", help="write per-surface values as CSV")
    p.set_defaults(fn=_cmd_check_2fano)

    p = sub.add_parser("ch2", help="pair the squared-divisor sum with one surface")
    p.add_argument("fan")
    p.add_argument("--surface", required=True, help="codim-2 cone, e.g. 1,2 ('' on a surface)")
    p.set_defaults(fn=_cmd_ch2)

    p = sub.add_parser("run-mmp", help="run the scaled program on a polytope")
    p.add_argument("polytope")
    p.add_argument("--trace", help="write the full trace to a file")
    p.add_argument("--force", action="store_true", help="tie-break non-general inputs")
    p.set_defaults(fn=_cmd_run_mmp)

    p = sub.add_parser("adjoint", help="shift every facet inward by s")
    p.add_argument("polytope")
    p.add_argument("--s", required=True, help="rational shift, e.g. 2/5")
    p.add_argument("--allow-redundant", action="store_true")
    p.set_defaults(fn=_cmd_adjoint)

    p = sub.add_parser("thresholds", help="nef and effective thresholds")
    p.add_argument("polytope")
    p.set_defaults(fn=_cmd_thresholds)

    p = sub.add_parser("detect-cayley", help="detect a Cayley sum structure")
    p.add_argument("polytope")
    p.set_defaults(fn=_cmd_detect_cayley)

    p = sub.add_parser("verify-table", help="verify the builtin (or given) table")
    p.add_argument("dataset", nargs="?", help="dataset CSV (defaults to builtin)")
    p.add_argument("--report", help="write the report as CSV")
    p.set_defaults(fn=_cmd_verify_table)

    p = sub.add_parser("plot", help="render the 2D adjoint family as SVG")
    p.add_argument("polytope")
    p.add_argument("--svg", required=True)
    p.set_defaults(fn=_cmd_plot)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
