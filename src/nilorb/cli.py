"""Command line front end: one subcommand per pipeline stage.

Output is deterministic for a fixed (arguments, seed) pair: records are
canonically sorted, JSON is emitted with sorted keys and lowest-terms
rationals, and the random e of each record is drawn from a generator keyed
on the seed and its h alone (characteristics.h_rng), so both methods print
the same bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from fractions import Fraction

from .characteristics import RetryBudgetError, classify_nilpotent_g
from .chevalley import build_algebra
from .grading import KacDiagram, check_order, grading_from_kac, nregular_kac_diagram
from .nullcone import check_nregular, classify_orbits, nregular_survey, summarize
from .pisystems import classify_all
from .records import OrbitRecord
from .rootsystem import build_root_system, format_dynkin_type, parse_type
from .weyl import WeylSubgroup, check_root_count, shortest_coset_reps

SCHEMA_VERSION = 1
EXIT_RETRY_BUDGET = 3


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _rational_str(x) -> str:
    return str(Fraction(x))


def _element_json(elt) -> list:
    return [list(t) for t in elt.to_triples()]


def _record_json(r: OrbitRecord) -> dict:
    return {
        "h": _element_json(r.h),
        "e": _element_json(r.e),
        "f": _element_json(r.f),
        "dim": r.dim,
        "wdd": list(r.ambient_wdd.labels),
    }


def _record_text(r: OrbitRecord) -> str:
    h = ",".join(_rational_str(c) for c in r.h.cartan_part())
    e = repr(r.e)
    wdd = "".join(str(d) for d in r.ambient_wdd.labels)
    return f"h=({h})  dim={r.dim}  wdd={wdd}  e={e}"


def _build_rs(args):
    letter, rank = parse_type(args.type)
    check_root_count(letter, rank)
    return build_root_system(letter, rank)


def cmd_roots(args) -> int:
    rs = build_root_system(*parse_type(args.type))
    print(rs.describe())
    return 0


def cmd_cosets(args) -> int:
    rs = _build_rs(args)
    node = args.subsystem_from_extended_minus
    ext = rs.extended_basis()
    if not 0 <= node <= rs.rank:
        raise ValueError(f"node index {node} out of range 0..{rs.rank}")
    gens = [ext[i] for i in range(rs.rank + 1) if i != node]
    basis = rs.subsystem_positive_basis(gens)
    reps = shortest_coset_reps(rs, WeylSubgroup(rs, basis))
    print(len(reps))
    if args.words:
        for w in reps:
            print("".join(f"s{i + 1}" for i in w.word) or "e")
    return 0


def cmd_pisystems(args) -> int:
    rs = _build_rs(args)
    classes = [p for p in classify_all(rs) if p]
    print(f"{len(classes)} classes")
    for p in classes:
        print(f"  {format_dynkin_type(rs.dynkin_type(p))}: {[list(r) for r in p]}")
    return 0


def cmd_wdd(args) -> int:
    rs = _build_rs(args)
    alg = build_algebra(rs)
    chars = classify_nilpotent_g(alg)
    print(f"{len(chars)} nilpotent orbits")
    for wdd, _h in chars:
        print("  " + "".join(str(d) for d in wdd.labels))
    return 0


def cmd_orbits(args) -> int:
    rs = _build_rs(args)
    alg = build_algebra(rs)
    if args.kac is not None:
        try:
            labels = [int(s) for s in args.kac.split(",")]
        except ValueError:
            raise ValueError(f"cannot parse --kac {args.kac!r}; expected comma-separated integers") from None
        kd = KacDiagram.from_labels(rs, labels)
    else:
        kd = nregular_kac_diagram(rs, args.nregular_order)
    grading = grading_from_kac(alg, kd)
    records = classify_orbits(grading, method=args.method, seed=args.seed)
    summary = summarize(grading, records)
    if args.kac is None:
        check_nregular(alg, kd, summary)
    if args.output == "json":
        doc = {
            "algebra": {"type": rs.type_label, "rank": rs.rank},
            "kac": list(kd.labels),
            "m": grading.m,
            "records": [_record_json(r) for r in records],
            "summary": dataclasses.asdict(summary),
            "seed": args.seed,
            "schema": SCHEMA_VERSION,
        }
        print(canonical_json(doc))
    else:
        print(f"algebra {rs.type_label}{rs.rank}  kac={','.join(map(str, kd.labels))}  seed={args.seed}")
        print("grading " + canonical_json(grading.to_json_dict()))
        for r in records:
            print(_record_text(r))
        star = "" if summary.very_nregular else "*"
        print(
            f"{summary.orbit_count} nonzero orbits, {summary.component_count}{star} component(s), "
            f"dim {summary.component_dim}, rank {summary.rank}"
            + (", N-regular" if summary.nregular else "")
        )
    return 0


def cmd_nregular(args) -> int:
    rs = _build_rs(args)
    alg = build_algebra(rs)
    lo, _, hi = args.orders.partition("..")
    try:
        lo, hi = int(lo), int(hi or lo)
    except ValueError:
        raise ValueError(f"cannot parse order range {args.orders!r}; expected e.g. 2..5") from None
    if not 1 <= lo <= hi:
        raise ValueError(f"order range {args.orders!r} is empty or starts below 1")
    check_order(hi)
    for m in range(lo, hi + 1):
        kd, s = nregular_survey(alg, m, method=args.method, seed=args.seed)
        if m == lo:  # only after the first survey, so that a failed one prints no header
            print("order  kac  orbits  components  dim  rank")
        star = "" if s.very_nregular else "*"
        labels = ",".join(map(str, kd.labels))
        print(f"{m}  {labels}  {s.orbit_count}  {s.component_count}{star}  {s.component_dim}  {s.rank}")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--type", required=True, help="simple type, e.g. G2, F4, E8, A3")


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=("auto", "1", "2"), default="auto")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outer", action="store_true", help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilorb",
        description="Nilpotent orbits of inner finite-order gradings of simple Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="dump a root system")
    _add_common(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("cosets", help="count minimal coset representatives")
    _add_common(p)
    p.add_argument(
        "--subsystem-from-extended-minus",
        type=int,
        required=True,
        metavar="NODE",
        help="subgroup basis = extended diagram nodes minus this one (0 = affine node)",
    )
    p.add_argument("--words", action="store_true", help="also print the words")
    p.set_defaults(func=cmd_cosets)

    p = sub.add_parser("pisystems", help="classify pi-systems up to Weyl conjugacy")
    _add_common(p)
    p.set_defaults(func=cmd_pisystems)

    p = sub.add_parser("wdd", help="weighted Dynkin diagrams of the ambient nilpotent orbits")
    _add_common(p)
    p.set_defaults(func=cmd_wdd)

    p = sub.add_parser("orbits", help="list nilpotent orbits of a grading")
    _add_common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--kac", help="comma-separated labels s0,s1,..,sl (node 0 = affine)")
    group.add_argument("--nregular-order", type=int, help="use the N-regular diagram of this order")
    p.add_argument("--output", choices=("text", "json"), default="text")
    _add_run_options(p)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("nregular", help="survey N-regular automorphisms over a range of orders")
    _add_common(p)
    p.add_argument("--orders", required=True, help="order range, e.g. 2..5 or a single order")
    _add_run_options(p)
    p.set_defaults(func=cmd_nregular)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "outer", False):
        print("error: outer automorphisms are not supported", file=sys.stderr)
        return 1
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed early; silence the flush at interpreter exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except RetryBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RETRY_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
