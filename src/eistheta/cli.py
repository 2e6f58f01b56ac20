"""Command-line front end.

Subcommands cover class/genus enumeration, theta and Eisenstein
expansion dumps, singular-rank inspection, empirical weight-ladder
limits, and the end-to-end fit-and-verify run.  Every report is JSON;
exact rationals are serialized as {"num", "den"} string pairs so no
precision is lost in transit.  Identical configuration and cache state
produce byte-identical output files.

Exit status follows the report verdict: 0 for a passing run, 1 when the
computation succeeded but the verdict is negative (a failed
verification, a flagged limit index), 2 for invalid input or a pipeline
error.  Pipeline errors name their failing stage on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .fourier import dump_qexp, load_qexp, mod_pm_singular_rank
from .eisenstein import WeightSequence, WeightTarget, default_sequence, eisenstein_qexp
from .genus import (
    build_genera,
    cached_genera,
    genera_to_doc,
    write_json_atomic,
)
from .lattice import (
    Mat,
    automorphism_count,
    check_form,
    check_window,
    enumerate_classes,
    level as form_level,
    minkowski_reduce,
)
from .padic import PipelineError, empirical_limit, fit_and_verify, singular_rank_audit
from .theta import genus_theta, theta_series

__all__ = ["main"]


def _emit(doc, out_path):
    if out_path:
        write_json_atomic(doc, out_path)
    else:
        print(json.dumps(doc, indent=2))


def _sequence(args) -> WeightSequence:
    target = WeightTarget(args.p, args.k, args.j)
    if args.b_schedule is None:
        return default_sequence(target, args.m_max)
    b = args.b_schedule.replace(",", " ").split()
    return WeightSequence(target, tuple(map(int, b)))


def parse_matrix_text(text: str) -> Mat:
    parts = [p.strip() for p in text.strip().split(";")]
    if len(parts) < 2:
        raise ValueError("expected `n; row; row; ...`")
    n = int(parts[0])
    if n < 0:  # n = 0 is the zero form, "0;"
        raise ValueError(f"expected a dimension n >= 0, got {n}")
    entries = [int(tok) for chunk in parts[1:] for tok in chunk.split()]
    if len(entries) != n * n:
        raise ValueError(f"expected {n * n} entries, got {len(entries)}")
    M = tuple(tuple(entries[i * n + j] for j in range(n)) for i in range(n))
    return check_form(M)


def _read_form(path):
    with open(path) as fh:
        return parse_matrix_text(fh.read())


# ---------------------------------------------------------------- commands


def cmd_classes(args) -> int:
    reps = enumerate_classes(args.rank, args.level)
    doc = {
        "rank": args.rank,
        "level_divides": args.level,
        "classes": [
            {"twoT": [list(row) for row in rep], "epsilon": automorphism_count(rep)}
            for rep in sorted(reps)
        ],
    }
    _emit(doc, args.out)
    return 0


def cmd_genera(args) -> int:
    genera = cached_genera(args.rank, args.level, cache_dir=args.cache_dir)
    _emit(genera_to_doc(args.rank, args.level, genera), args.out)
    return 0


def cmd_theta(args) -> int:
    twoS = _read_form(args.form)
    if args.genus_average:
        check_window(args.degree, args.bound)  # before the class enumeration
        own = form_level(twoS)
        level = own if args.level is None else args.level
        if level > 0 and level % own:  # build_genera refuses level <= 0
            raise ValueError(f"the form's level {own} does not divide the level {level}")
        genera = build_genera(len(twoS), level)
        rep = minkowski_reduce(twoS)
        match = [g for g in genera if any(c.rep == rep for c in g.classes)]
        if not match:
            raise ValueError("form not found among enumerated classes")
        F, _ = genus_theta(match[0], args.degree, args.bound)
    else:
        F = theta_series(twoS, args.degree, args.bound)
    _emit(dump_qexp(F), args.out)
    return 0


def cmd_eisenstein(args) -> int:
    _emit(dump_qexp(eisenstein_qexp(args.k, args.degree, args.bound)), args.out)
    return 0


def cmd_singular_rank(args) -> int:
    with open(args.expansion) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"expansion dump: {exc}") from None
    F = load_qexp(doc)
    doc = {
        "p": args.p,
        "m": args.m,
        "rank": mod_pm_singular_rank(F, args.p, args.m),
    }
    verdict = 0
    if args.k is not None:
        audit = singular_rank_audit(F, args.k, args.p, args.m)
        doc["audit"] = audit.to_doc()
        verdict = 0 if audit.ok else 1
    _emit(doc, args.out)
    return verdict


def cmd_limit(args) -> int:
    ladder = empirical_limit(_sequence(args), args.degree, args.bound)
    _emit(ladder.to_doc(), args.out)
    return 1 if ladder.flagged else 0


def cmd_verify_main(args) -> int:
    report = fit_and_verify(
        _sequence(args),
        args.degree,
        args.bound,
        exploratory=args.exploratory,
        cache_dir=args.cache_dir,
    )
    _emit(report.to_doc(), args.out)
    return 0 if report.passed else 1


# ------------------------------------------------------------------ parser


def _add_ladder_args(sp):
    sp.add_argument("--p", type=int, required=True, help="odd prime")
    sp.add_argument("--k", type=int, required=True, help="starting weight")
    sp.add_argument("--j", type=int, default=0, choices=(0, 1),
                    help="character component (0 trivial, 1 quadratic)")
    sp.add_argument("--degree", "-n", type=int, default=1)
    sp.add_argument("--bound", "-B", type=int, default=20,
                    help="trace bound of the comparison window")
    schedule = sp.add_mutually_exclusive_group()
    schedule.add_argument("--m-max", type=int, default=2)
    schedule.add_argument("--b-schedule", help="comma-separated exponents b(m)")
    sp.add_argument("--out", help="write the JSON report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="eistheta",
        description="exact theta/Eisenstein expansions and p-adic ladder checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classes", help="enumerate form classes")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--level", type=int, required=True,
                    help="keep classes whose level divides this")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_classes)

    sp = sub.add_parser("genera", help="enumerate classes grouped into genera")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--cache-dir", help="overrides EISTHETA_CACHE_DIR")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_genera)

    sp = sub.add_parser("theta", help="theta expansion of a form file")
    sp.add_argument("--form", required=True,
                    help="text file `n; row; row; ...` with entries of 2S")
    sp.add_argument("--degree", "-n", type=int, default=1)
    sp.add_argument("--bound", "-B", type=int, required=True)
    sp.add_argument("--genus-average", action="store_true",
                    help="dump the genus average containing the form")
    sp.add_argument("--level", type=int,
                    help="level divisor for --genus-average enumeration")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_theta)

    sp = sub.add_parser("eisenstein", help="Eisenstein expansion dump")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--degree", "-n", type=int, default=1)
    sp.add_argument("--bound", "-B", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_eisenstein)

    sp = sub.add_parser("singular-rank",
                        help="mod p^m singular rank of a dumped expansion")
    sp.add_argument("--expansion", required=True, help="expansion dump file")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--k", type=int,
                    help="also audit the weight/rank congruence at this weight")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_singular_rank)

    sp = sub.add_parser("limit", help="empirical weight-ladder limit")
    _add_ladder_args(sp)
    sp.set_defaults(func=cmd_limit)

    sp = sub.add_parser("verify-main",
                        help="fit genus coefficients and verify congruences")
    _add_ladder_args(sp)
    sp.add_argument("--cache-dir", help="overrides EISTHETA_CACHE_DIR")
    sp.add_argument("--exploratory", action="store_true",
                    help="allow p <= 2k+1; the report is labeled exploratory")
    sp.set_defaults(func=cmd_verify_main)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"eistheta {args.command}: failed at stage {exc.stage}: {exc}",
              file=sys.stderr)
        return 2
    except (ValueError, NotImplementedError, OSError) as exc:
        print(f"eistheta {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
