"""Command-line interface.

Subcommands: share, witness, mms, allocate, verify, experiment.  All output
is deterministic given the flags (plus the seed for synthetic experiments);
exact fractions are authoritative, decimals are rendered to 12 places.
Exit codes: 0 success, 1 guarantee violation found by verify, 2 usage or
domain error.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from fractions import Fraction

from .allocator import agent_reports, allocate
from .core import (
    Allocation,
    DomainError,
    ValidationError,
    _check_cell_size,
    _printable,
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
MAX_CURVE_POINTS = 10 ** 5  # largest `experiment curve --points`
MAX_SYNTHETIC_OBJECTS = 10 ** 4  # largest `experiment synthetic` --m


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


@functools.cache  # built on the first call; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fairchores")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("share", help="evaluate a share bound or the guarantee")
    _add_common_query(sp)
    sp.add_argument("--kind", choices=("upper", "lower", "guarantee"), required=True)

    wp = sub.add_parser("witness", help="emit a worst/best-case witness instance CSV")
    _add_common_query(wp)
    wp.add_argument("--kind", choices=("upper", "lower"), default="upper")

    mp = sub.add_parser("mms", help="exact MinMaxShare of an agent's row")
    mp.add_argument("--instance", required=True, help="instance CSV path")
    mp.add_argument("--n", type=int, required=True, help="number of bundles")
    mp.add_argument("--agent", type=int, default=1, help="1-based agent row (default 1)")

    ap = sub.add_parser("allocate", help="guarantee-satisfying allocation")
    ap.add_argument("--instance", required=True)
    ap.add_argument("--allocation-out", help="write the bare allocation for `verify`")

    vp = sub.add_parser("verify", help="check an allocation against the guarantee")
    vp.add_argument("--instance", required=True)
    vp.add_argument("--allocation", required=True)

    ep = sub.add_parser("experiment", help="reproduce the numerical studies")
    esub = ep.add_subparsers(dest="exp", required=True)

    es = esub.add_parser("synthetic", help="ratio histogram over random instances")
    es.add_argument("--n", type=int, required=True)
    es.add_argument("--m", required=True, help="comma-separated object counts")
    es.add_argument("--count", type=int, default=100)
    es.add_argument("--seed", type=int, required=True)
    es.add_argument("--records-out", help="also write the raw per-instance records")

    ec = esub.add_parser("curve", help="theoretical share/ratio curves")
    ec.add_argument("--n", type=int, required=True)
    ec.add_argument("--m", type=int, help="object count (default unrestricted)")
    ec.add_argument("--points", type=int, default=200,
                    help="grid size: alpha = j/(points+1)")

    er = esub.add_parser("ratios", help="ratio records for user-supplied valuations")
    er.add_argument("--instance", required=True, help="valuation CSV, one row per function")
    er.add_argument("--n", type=int, required=True)

    # every command takes --out as its last option and names its handler
    for parser, run in ((sp, _share), (wp, _witness), (mp, _mms), (ap, _allocate),
                        (vp, _verify), (es, _synthetic), (ec, _curve), (er, _ratios)):
        parser.add_argument("--out")
        parser.set_defaults(run=run)
    return p


def _parse_allocation_file(path: str, n: int, m: int):
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [(k, ln.strip()) for k, ln in enumerate(fh.read().splitlines(), 1)]
    lines = [(k, ln) for k, ln in lines if ln and not ln.startswith("#")]
    if len(lines) != n:
        raise ValidationError(f"allocation file has {len(lines)} bundle lines, expected {n}")
    bundles = []
    for k, ln in lines:
        if ln == "-":
            bundles.append(frozenset())
            continue
        try:
            ids = [int(t) for t in ln.split(",")]
        except ValueError:
            raise ValidationError(f"allocation file line {k}: non-integer object id") from None
        if any(not 1 <= j <= m for j in ids):
            raise ValidationError(f"allocation file line {k}: object id out of range 1..{m}")
        bundle = frozenset(j - 1 for j in ids)
        if len(bundle) != len(ids):
            raise ValidationError(f"allocation file line {k}: repeated object id")
        bundles.append(bundle)
    # agent_reports checks that the bundles partition the objects
    return Allocation(tuple(bundles))


def _format_bundle(b) -> str:
    """1-based object ids, comma-separated; "-" for an empty bundle."""
    return ",".join(str(j + 1) for j in sorted(b)) if b else "-"


def _alpha(token: str) -> Fraction:
    """The exact --alpha, length-checked here too so that the error names it."""
    try:
        _check_cell_size(token)
    except ValueError as exc:
        raise DomainError(f"--alpha: {exc}") from None
    return as_fraction(token)


def _share(args: argparse.Namespace) -> None:
    alpha = _alpha(args.alpha)
    if args.kind == "guarantee" and args.m is not None:
        raise DomainError("--m does not apply to --kind guarantee, "
                          "which holds for every object count")
    if args.kind == "upper":
        val = hill_share(args.n, alpha, args.m)
    elif args.kind == "lower":
        val = mms_lower_bound(args.n, alpha, args.m)
    else:
        val = guarantee(args.n, alpha)
    # every share is at most 1, so its denominator bounds both integers printed
    if not _printable(val.denominator):
        raise DomainError("--alpha gives a share too long to print")
    _emit(_show(val) + "\n", args.out)


def _witness(args: argparse.Namespace) -> None:
    maker = witness_upper if args.kind == "upper" else witness_lower
    w = maker(args.n, _alpha(args.alpha), args.m)
    if not (_printable(w.vector.denom) and _printable(w.claimed_mms.denominator)):
        raise DomainError("--alpha gives a witness too long to print")
    _emit(format_instance_csv(w.instance, comments=(
        f"construction = {w.construction_tag}",
        f"claimed_mms = {w.claimed_mms}",
    )), args.out)


def _mms(args: argparse.Namespace) -> None:
    inst = read_instance_csv(args.instance)
    if not 1 <= args.agent <= inst.n:
        raise ValidationError(f"agent {args.agent} out of range 1..{inst.n}")
    _emit(_show(exact_mms(inst.profile[args.agent - 1], args.n)) + "\n", args.out)


def _allocate(args: argparse.Namespace) -> None:
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
        _emit("\n".join(_format_bundle(b) for b in alloc.bundles) + "\n", args.allocation_out)


def _verify(args: argparse.Namespace) -> int:
    inst = read_instance_csv(args.instance)
    alloc = _parse_allocation_file(args.allocation, inst.n, inst.m)
    reports = agent_reports(inst, alloc)
    ok = all(rep.satisfied for rep in reports)
    lines = [
        f"agent {rep.agent + 1}: disutility {_show(rep.cost)} guarantee {_show(rep.cap)} "
        f"{'ok' if rep.satisfied else 'VIOLATED'}"
        for rep in reports
    ]
    lines.append("all guarantees satisfied" if ok else "guarantee violation found")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def _synthetic(args: argparse.Namespace) -> None:
    try:
        m_values = tuple(int(t) for t in args.m.split(","))
    except ValueError:
        raise ValidationError(
            f"--m {args.m!r} is not a comma-separated list of integers") from None
    # each instance draws its whole row before the oracle's search budget reads it
    for m in m_values:
        if m > MAX_SYNTHETIC_OBJECTS:
            raise ValidationError(f"--m {m} is more than {MAX_SYNTHETIC_OBJECTS}")
    cfg = ExperimentConfig(args.n, m_values, args.count, args.seed)
    hist = run_histogram(cfg)
    _emit(histogram_csv(hist, cfg), args.out)
    if args.records_out:
        _emit(records_csv(hist.records, cfg.summary()), args.records_out)


def _curve(args: argparse.Namespace) -> None:
    if args.points < 1:
        raise ValidationError("need at least one grid point")
    if args.points > MAX_CURVE_POINTS:
        raise ValidationError(f"--points {args.points} is more than {MAX_CURVE_POINTS}")
    grid = [F(j, args.points + 1) for j in range(1, args.points + 1)]
    rows = curve_samples(args.n, grid, args.m)
    _emit(curve_csv(rows, args.n, args.m), args.out)


def _ratios(args: argparse.Namespace) -> None:
    inst = read_instance_csv(args.instance)
    for i, row in enumerate(inst.profile, start=1):
        # Let D be the row's common denominator and alpha = p/q, so q divides
        # D.  Every hill share is u/(c*q) with u <= c*q (it is at most 1),
        # where c is 4 or 5 on the two-agent pieces, (k+1)n <= m-1 on
        # one-heavy-balanced and 1 elsewhere.  The MMS is y/D with y <= D, so
        # the ratio is u*(D/q) / (c*y).  Both have numerator and denominator
        # at most c*D <= max(5, m)*D.
        if not _printable(row.denom * max(5, inst.m)):
            raise ValidationError(f"row {i}: hill share or ratio too long to print")
    # checked here, not by the first share query: every row may be skipped
    if args.n < 2:
        raise DomainError("need an integer agent count n >= 2")
    records = []
    for i, row in enumerate(inst.profile, start=1):
        # the share layer owns the domain: only its alpha check can refuse a row
        try:
            records.append(instance_ratio(row, args.n))
        except DomainError as exc:
            warnings.warn(f"skipping row {i}: {exc}")
    _emit(records_csv(records, f"n={args.n} source={args.instance}"), args.out)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args) or 0
    # a Warning reaches here only when raised as an error (`python -W error`)
    except (SearchLimitError, OSError, ValueError, Warning) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    # a process of its own prints each warning as one line; in-process callers
    # of main keep their own warning display
    warnings.formatwarning = lambda message, *_, **__: f"warning: {message}\n"
    sys.exit(main())


if __name__ == "__main__":
    entry()
