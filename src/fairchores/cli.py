"""Command-line interface.

Subcommands: share, witness, mms, allocate, verify, experiment.  All output
is deterministic given the flags (plus the seed for synthetic experiments);
exact fractions are authoritative, decimals are rendered to 12 places.
Exit codes: 0 success, 1 guarantee violation found by verify, 2 usage or
domain error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .allocator import allocate
from .core import (
    Allocation,
    DomainError,
    ValidationError,
    as_fraction,
    format_decimal,
    format_instance_csv,
    read_instance_csv,
)
from .experiments import (
    ExperimentConfig,
    curve_csv,
    curve_samples,
    histogram_csv,
    instance_ratio,
    records_csv,
    run_histogram,
)
from .mms import SearchLimitError, exact_mms
from .shares import guarantee, hill_share, mms_lower_bound, witness_lower, witness_upper

F = Fraction


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _show(x: Fraction) -> str:
    return f"{x} ({format_decimal(x)})"


def _add_common_query(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="number of agents")
    p.add_argument("--alpha", required=True, help="largest entry, decimal or p/q")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--m", type=int, help="number of objects")
    g.add_argument("--unrestricted", action="store_true",
                   help="no restriction on the number of objects (default)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fairchores")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("share", help="evaluate a share bound or the guarantee")
    _add_common_query(sp)
    sp.add_argument("--kind", choices=("upper", "lower", "guarantee"), required=True)
    sp.add_argument("--out")

    wp = sub.add_parser("witness", help="emit a worst/best-case witness instance CSV")
    _add_common_query(wp)
    wp.add_argument("--kind", choices=("upper", "lower"), default="upper")
    wp.add_argument("--out")

    mp = sub.add_parser("mms", help="exact MinMaxShare of an agent's row")
    mp.add_argument("--instance", required=True, help="instance CSV path")
    mp.add_argument("--n", type=int, required=True, help="number of bundles")
    mp.add_argument("--agent", type=int, default=1, help="1-based agent row (default 1)")
    mp.add_argument("--out")

    ap = sub.add_parser("allocate", help="guarantee-satisfying allocation")
    ap.add_argument("--instance", required=True)
    ap.add_argument("--allocation-out", help="write the bare allocation for `verify`")
    ap.add_argument("--out")

    vp = sub.add_parser("verify", help="check an allocation against the guarantee")
    vp.add_argument("--instance", required=True)
    vp.add_argument("--allocation", required=True)
    vp.add_argument("--out")

    ep = sub.add_parser("experiment", help="reproduce the numerical studies")
    esub = ep.add_subparsers(dest="exp", required=True)

    es = esub.add_parser("synthetic", help="ratio histogram over random instances")
    es.add_argument("--n", type=int, required=True)
    es.add_argument("--m", required=True, help="comma-separated object counts")
    es.add_argument("--count", type=int, default=100)
    es.add_argument("--seed", type=int, required=True)
    es.add_argument("--records-out", help="also write the raw per-instance records")
    es.add_argument("--out")

    ec = esub.add_parser("curve", help="theoretical share/ratio curves")
    ec.add_argument("--n", type=int, required=True)
    ec.add_argument("--m", type=int, help="object count (default unrestricted)")
    ec.add_argument("--points", type=int, default=200,
                    help="grid size: alpha = j/(points+1)")
    ec.add_argument("--out")

    er = esub.add_parser("ratios", help="ratio records for user-supplied valuations")
    er.add_argument("--instance", required=True, help="valuation CSV, one row per function")
    er.add_argument("--n", type=int, required=True)
    er.add_argument("--out")
    return p


def _parse_allocation_file(path: str, n: int, m: int):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh.read().splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) != n:
        raise ValidationError(f"allocation file has {len(lines)} bundle lines, expected {n}")
    bundles = []
    for ln in lines:
        if ln == "-":
            bundles.append(frozenset())
            continue
        ids = [int(t) for t in ln.split(",")]
        if any(not 1 <= j <= m for j in ids):
            raise ValidationError("object index out of range in allocation file")
        bundles.append(frozenset(j - 1 for j in ids))
    alloc = Allocation(tuple(bundles))
    alloc.validate(m)
    return alloc


def _format_bundle(b) -> str:
    """1-based object ids, comma-separated; "-" for an empty bundle."""
    return ",".join(str(j + 1) for j in sorted(b)) if b else "-"


def _format_allocation_file(alloc) -> str:
    return "\n".join(_format_bundle(b) for b in alloc.bundles) + "\n"


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except (DomainError, ValidationError, SearchLimitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.cmd == "share":
        m = args.m if not args.unrestricted else None
        alpha = as_fraction(args.alpha)
        if args.kind == "guarantee" and m is not None:
            raise DomainError("--m does not apply to --kind guarantee, "
                              "which holds for every object count")
        if args.kind == "upper":
            val = hill_share(args.n, alpha, m)
        elif args.kind == "lower":
            val = mms_lower_bound(args.n, alpha, m)
        else:
            val = guarantee(args.n, alpha)
        _emit(_show(val) + "\n", args.out)
        return 0

    if args.cmd == "witness":
        m = args.m if not args.unrestricted else None
        alpha = as_fraction(args.alpha)
        maker = witness_upper if args.kind == "upper" else witness_lower
        w = maker(args.n, alpha, m)
        text = format_instance_csv(w.instance, comments=(
            f"construction = {w.construction_tag}",
            f"claimed_mms = {w.claimed_mms}",
        ))
        _emit(text, args.out)
        return 0

    if args.cmd == "mms":
        inst = read_instance_csv(args.instance)
        if not 1 <= args.agent <= inst.n:
            raise ValidationError(f"agent {args.agent} out of range 1..{inst.n}")
        val = exact_mms(inst.profile[args.agent - 1], args.n)
        _emit(_show(val) + "\n", args.out)
        return 0

    if args.cmd == "allocate":
        inst = read_instance_csv(args.instance)
        alloc, report = allocate(inst)
        lines = [
            f"agent {rep.agent + 1}: bundle [{_format_bundle(alloc.bundles[rep.agent])}] "
            f"disutility {_show(rep.cost)} alpha {_show(rep.alpha)} "
            f"guarantee {_show(rep.cap)} satisfied {'yes' if rep.satisfied else 'NO'}"
            for rep in report.agents
        ]
        _emit("\n".join(lines) + "\n", args.out)
        if args.allocation_out:
            with open(args.allocation_out, "w", encoding="utf-8") as fh:
                fh.write(_format_allocation_file(alloc))
        return 0

    if args.cmd == "verify":
        inst = read_instance_csv(args.instance)
        alloc = _parse_allocation_file(args.allocation, inst.n, inst.m)
        ok = True
        lines = []
        for i, row in enumerate(inst.profile):
            cap = guarantee(inst.n, row.alpha())
            cost = row.value_of(alloc.bundles[i])
            good = cost <= cap
            ok = ok and good
            lines.append(
                f"agent {i + 1}: disutility {_show(cost)} guarantee {_show(cap)} "
                f"{'ok' if good else 'VIOLATED'}"
            )
        lines.append("all guarantees satisfied" if ok else "guarantee violation found")
        _emit("\n".join(lines) + "\n", args.out)
        return 0 if ok else 1

    # experiment
    if args.exp == "synthetic":
        m_values = tuple(int(t) for t in args.m.split(","))
        cfg = ExperimentConfig(args.n, m_values, args.count, args.seed)
        hist = run_histogram(cfg)
        _emit(histogram_csv(hist, cfg), args.out)
        if args.records_out:
            with open(args.records_out, "w", encoding="utf-8") as fh:
                fh.write(records_csv(hist.records, cfg.summary()))
        return 0

    if args.exp == "curve":
        if args.points < 1:
            raise ValidationError("need at least one grid point")
        grid = [F(j, args.points + 1) for j in range(1, args.points + 1)]
        rows = curve_samples(args.n, grid, args.m)
        _emit(curve_csv(rows, args.n, args.m), args.out)
        return 0

    # ratios
    records = [instance_ratio(v, args.n) for v in read_instance_csv(args.instance).profile]
    _emit(records_csv(records, f"n={args.n} source={args.instance}"), args.out)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
