"""Command-line front end.

Subcommands: folner, profile, kernel-dim, zero-divisor, ore-pair, tower,
check-axioms. Reports are JSON (stdout or --out); profiles can also be CSV.
Exit codes: 0 success or certificate, 2 verified negative or exhaustion,
1 error. Exact rationals in flags are "p/q" strings; decimal floats are
rejected where exactness is required.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import cache

from .folner import ExhaustionReport, FolnerCertificate, folner_search, isoperimetric_profile
from .fusion import ball, ball_boundary, check_axioms, ring_from_tag
from .polalg import AlgebraError, MatrixOverPol
from .reldim import DimensionEstimate, _estimate
from .serialize import (SchemaError, canonical_dumps, label_from_json,
                        label_to_json, load_element)
from .solvers import NotFoundReport, OrePair, ZeroDivisorCertificate, ore_pair, zero_divisor_search
from .tower import TowerReport, group_quotient_tower, tower_kernel_dims

OK, NEGATIVE, ERROR = 0, 2, 1


class CliError(Exception):
    pass


def _fraction_flag(text: str) -> Fraction:
    if "." in text:
        raise CliError(f"exact rational required: write p/q, not {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"cannot parse {text!r} as p/q") from None


def _labels_flag(ring, text: str) -> list:
    """A JSON label or JSON list of labels, provider-aware."""
    try:
        val = json.loads(text)
    except json.JSONDecodeError:
        val = text  # bare string label (finite:S3)
    if isinstance(val, list):
        try:
            return [label_from_json(ring, x) for x in val]
        except SchemaError:
            pass  # the whole list is one tuple label
    try:
        return [label_from_json(ring, val)]
    except SchemaError as exc:
        raise CliError(str(exc)) from None


@contextmanager
def _opened(path: str, mode: str = "r", **kwargs):
    """``path`` opened in ``mode``; an OSError is a CliError naming it."""
    try:
        with open(path, mode, **kwargs) as fh:
            yield fh
    except OSError as exc:
        raise CliError(f"cannot {'write' if 'w' in mode else 'read'} {path}: {exc}") from None


def _load_matrix(path: str, ring_tag: str | None) -> MatrixOverPol:
    with _opened(path) as fh:
        obj = load_element(fh.read())
    if not isinstance(obj, MatrixOverPol):
        obj = MatrixOverPol.from_element(obj)
    if ring_tag and ring_from_tag(ring_tag) is not obj.algebra.ring:
        raise CliError(f"--ring {ring_tag} does not match file algebra {obj.algebra.tag}")
    return obj


def _emit(payload: dict, out_path: str | None) -> None:
    text = canonical_dumps(payload)
    if out_path:
        with _opened(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# the payload kind and exit code of each report a subcommand can return
_REPORTS = {
    FolnerCertificate: ("folner_certificate", OK),
    ExhaustionReport: ("exhaustion_report", NEGATIVE),
    DimensionEstimate: ("dimension_estimate", OK),
    ZeroDivisorCertificate: ("zero_divisor_certificate", OK),
    NotFoundReport: ("not_found_report", NEGATIVE),
    OrePair: ("ore_pair", OK),
    TowerReport: ("tower_report", OK),
}


def _emit_report(report, out_path: str | None, **extra) -> int:
    kind, code = _REPORTS[type(report)]
    _emit({"kind": kind, **extra, **report.to_json()}, out_path)
    return code


# -- subcommand runners -----------------------------------------------------

def _run_folner(args) -> int:
    ring = ring_from_tag(args.ring)
    S = _labels_flag(ring, args.S)
    return _emit_report(folner_search(ring, S, _fraction_flag(args.epsilon), args.max_radius),
                        args.out)


def _run_profile(args) -> int:
    ring = ring_from_tag(args.ring)
    S = _labels_flag(ring, args.S)
    rows = isoperimetric_profile(ring, S, args.max_radius)
    payload_rows = [r.to_json() for r in rows]
    if args.csv:
        with _opened(args.csv, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(payload_rows[0]))
            w.writeheader()
            w.writerows(payload_rows)
    _emit({"kind": "isoperimetric_profile", "ring": ring.tag,
           "S": [label_to_json(ring, u) for u in ring.sorted_labels(S)],
           "rows": payload_rows}, args.out)
    return OK


def _run_kernel_dim(args) -> int:
    T = _load_matrix(args.matrix, args.ring)
    if T.is_zero():  # it has no support to decompose the ball against
        raise CliError("restricted multiplication needs a nonzero matrix")
    dec = ball_boundary(T.algebra.ring, T.support(), args.window, side=args.side)
    return _emit_report(_estimate(T, dec), args.out, ring=T.algebra.tag)


def _run_zero_divisor(args) -> int:
    T = _load_matrix(args.element, args.ring)
    if T.n != 1:
        raise CliError("zero-divisor search expects a single element, not a matrix")
    a = T.entries[0][0]
    return _emit_report(zero_divisor_search(a, side=args.side, max_radius=args.max_radius),
                        args.out)


def _run_ore_pair(args) -> int:
    Ta = _load_matrix(args.a, args.ring)
    Ts = _load_matrix(args.s, args.ring)
    if Ta.n != 1 or Ts.n != 1:
        raise CliError("ore-pair expects single elements, not matrices")
    return _emit_report(ore_pair(Ta.entries[0][0], Ts.entries[0][0],
                                 max_radius=args.max_radius, prefer_ore=args.prefer_ore),
                        args.out)


def _run_tower(args) -> int:
    T = _load_matrix(args.matrix, args.ring)
    moduli = [int(m) for m in args.moduli.split(",") if m]
    tower = group_quotient_tower(T.algebra, moduli)
    F = ball(T.algebra.ring, T.support(), args.window)
    return _emit_report(tower_kernel_dims(T, tower, F, side=args.side), args.out)


def _run_check_axioms(args) -> int:
    ring = ring_from_tag(args.ring)
    if args.labels:
        labels = _labels_flag(ring, args.labels)
    elif ring.is_finite:
        labels = ring.irreducibles()
    elif args.generators:
        labels = ball(ring, _labels_flag(ring, args.generators), args.limit)
    elif ring.tag == "su2":  # infinite, but a fixed label range needs no ball
        labels = range(13)
    else:
        raise CliError(
            f"{ring.tag} is infinite: pass --labels or --generators "
            "(axioms are then checked on the radius --limit ball)")
    report = check_axioms(ring, labels)
    _emit({"kind": "axiom_report", **report,
           "failures": [repr(f) for f in report["failures"]]}, args.out)
    return OK if report["ok"] else NEGATIVE


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="folnerlab",
        description="Weighted isoperimetry in fusion rings: Folner certificates, "
                    "certified kernel dimensions, zero-divisor and Ore-pair "
                    "searches, quotient towers.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="write the JSON report here instead of stdout")

    sp = sub.add_parser("folner", help="search for a Folner certificate")
    sp.add_argument("--ring", required=True)
    sp.add_argument("--S", required=True, help="JSON label or list of labels")
    sp.add_argument("--epsilon", required=True, help="exact rational p/q")
    sp.add_argument("--max-radius", type=int, default=64)
    common(sp)
    sp.set_defaults(run=_run_folner)

    sp = sub.add_parser("profile", help="exact isoperimetric profile")
    sp.add_argument("--ring", required=True)
    sp.add_argument("--S", required=True)
    sp.add_argument("--max-radius", type=int, default=32)
    sp.add_argument("--csv", help="also write the profile as CSV")
    common(sp)
    sp.set_defaults(run=_run_profile)

    sp = sub.add_parser("kernel-dim", help="certified kernel-dimension estimate")
    sp.add_argument("--ring")
    sp.add_argument("--matrix", required=True, help="element or matrix JSON file")
    sp.add_argument("--window", type=int, required=True,
                    help="ball radius around the support")
    sp.add_argument("--side", choices=["left", "right"], default="right")
    common(sp)
    sp.set_defaults(run=_run_kernel_dim)

    sp = sub.add_parser("zero-divisor", help="search for a zero-divisor witness")
    sp.add_argument("--ring")
    sp.add_argument("--element", required=True)
    sp.add_argument("--side", choices=["left", "right"], default="left")
    sp.add_argument("--max-radius", type=int, default=8)
    common(sp)
    sp.set_defaults(run=_run_zero_divisor)

    sp = sub.add_parser("ore-pair", help="solve a t = s b constructively")
    sp.add_argument("--ring")
    sp.add_argument("--a", required=True)
    sp.add_argument("--s", required=True)
    sp.add_argument("--max-radius", type=int, default=16)
    sp.add_argument("--prefer-ore", action="store_true",
                    help="scan the whole kernel basis for t != 0 before "
                         "settling for a zero-divisor certificate")
    common(sp)
    sp.set_defaults(run=_run_ore_pair)

    sp = sub.add_parser("tower", help="quotient-tower dimension approximation")
    sp.add_argument("--ring")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--moduli", required=True, help="comma-separated chain, e.g. 3,9,27,81")
    sp.add_argument("--window", type=int, required=True)
    sp.add_argument("--side", choices=["left", "right"], default="right")
    common(sp)
    sp.set_defaults(run=_run_tower)

    sp = sub.add_parser("check-axioms", help="verify the fusion-ring axioms")
    sp.add_argument("--ring", required=True)
    sp.add_argument("--labels", help="explicit JSON label list")
    sp.add_argument("--generators", help="generators for the test ball (infinite rings)")
    sp.add_argument("--limit", type=int, default=3, help="test-ball radius")
    common(sp)
    sp.set_defaults(run=_run_check_axioms)
    return p


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on first use: parsing does not change it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (CliError, SchemaError, AlgebraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
