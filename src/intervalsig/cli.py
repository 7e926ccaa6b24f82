"""Command-line entry point.

Subcommands: ``run`` (one simulation to CSV), ``sweep`` (scheme
comparison grid), ``flapping-demo`` (two-arm oscillation-vs-split
construction), ``convergence-check`` (coupled-trajectory contraction),
``gen-diamond`` (write the built-in instance), ``system-optimum`` (print
the diamond's system optimum, its reference point).

Exit codes: 0 on success, 1 on a user error (malformed or out-of-domain
input, an unreachable pair, a file that cannot be read or written), 2 on
a usage error (argparse), and ``EXIT_INTERNAL`` (70) on any other
exception, after its traceback.
"""

from __future__ import annotations

import argparse
import math
import sys
import traceback
from pathlib import Path

from .abstract_model import (
    FlappingSpec,
    convergence_check,
    convergence_demo_config,
    flapping_demo,
    records_to_abstract_csv,
)
from .costs import ValidationError
from .engine import (
    _FLOAT_FMT as _FMT,
    RunConfig,
    Summary,
    diamond_system_optimum,
    run,
    summarize,
    write_csv,
)
from .instances import diamond_net_text, diamond_trips_text
from .network import NoPathError, ParseError
from .signaling import extreme_scheme, mean_scheme, now_scheme, \
    scheme_from_name

# Exit code of an unexpected exception (sysexits.h EX_SOFTWARE); user
# errors exit 1 and usage errors 2.
EXIT_INTERNAL = 70


def _add_instance_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--net", help="TNTP network file")
    sub.add_argument("--trips", help="TNTP demand file")
    sub.add_argument("--instance",
                     help="built-in instance name (diamond, sioux-falls)")


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--horizon", type=int, required=True)
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--uncapped", action="store_true",
                     help="use unbounded congestion costs")
    sub.add_argument("--types", type=int, default=5,
                     help="number of risk types (default 5)")
    sub.add_argument("--eps", type=float, default=0.15,
                     help="population weight jitter (default 0.15)")
    sub.add_argument("--ref-capped", type=float,
                     help="reference cost for the regret column")
    sub.add_argument("--ref-excess", type=float,
                     help="reference excess, reported as a margin")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intervalsig",
        description="Congestion simulation under scalar and interval "
                    "information provision.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="simulate one scheme to CSV")
    _add_instance_flags(p_run)
    p_run.add_argument("--scheme", required=True,
                       choices=["now", "mean", "extreme", "subinterval",
                                "full-extreme"])
    p_run.add_argument("--r", type=int, help="window for extreme/subinterval")
    p_run.add_argument("--alpha", type=float,
                       help="subinterval shrink factor in [0, 1]")
    _add_run_flags(p_run)
    p_run.add_argument("--out", required=True, help="output CSV path")

    p_sweep = subs.add_parser(
        "sweep", help="now/mean/extreme-r{5,10,20} comparison grid")
    _add_instance_flags(p_sweep)
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--out-dir", required=True)

    p_flap = subs.add_parser(
        "flapping-demo", help="scalar oscillation vs interval split")
    p_flap.add_argument("--J", type=float, required=True,
                        help="target steady cost gap")
    p_flap.add_argument("--N", type=int, required=True,
                        help="odd agent count")
    p_flap.add_argument("--horizon", type=int, default=40)
    p_flap.add_argument("--out", help="CSV path prefix for the two arms")

    p_conv = subs.add_parser(
        "convergence-check", help="coupled-trajectory contraction check")
    p_conv.add_argument("--N", type=int, default=20, help="agent count")
    p_conv.add_argument("--M", type=int, default=2, help="action count")
    p_conv.add_argument("--trajectories", type=int, default=2000)
    p_conv.add_argument("--horizon", type=int, default=200)
    p_conv.add_argument("--seed", type=int, default=0)

    p_gen = subs.add_parser("gen-diamond",
                            help="write the diamond instance files")
    p_gen.add_argument("--dir", required=True)

    subs.add_parser("system-optimum",
                    help="print the diamond's system optimum "
                         "(its reference point)")
    return parser


def _check_references(args) -> None:
    """Refuse a NaN or infinite reference before the first period."""
    for flag, value in (("--ref-capped", args.ref_capped),
                        ("--ref-excess", args.ref_excess)):
        if value is not None and not math.isfinite(value):
            raise ValidationError(f"{flag} must be finite, got {value}")


def _summary_line(label: str, args, summary) -> str:
    parts = [f"scheme={label}",
             f"horizon={args.horizon}",
             f"seed={args.seed}",
             f"capped={not args.uncapped}",
             f"window={summary.window}",
             f"mean_cost={_FMT % summary.mean_cost}",
             f"mean_excess={_FMT % summary.mean_excess}"]
    if summary.regret is not None:
        parts.append(f"regret={_FMT % summary.regret}")
    if args.ref_excess is not None:
        parts.append(
            f"excess_margin={_FMT % (summary.mean_excess - args.ref_excess)}")
    return " ".join(parts)


def _run_scheme(args, scheme, path) -> Summary:
    """Run ``scheme`` on the flags' instance, write its CSV to ``path``
    and print its summary line."""
    records = run(RunConfig(
        scheme=scheme, horizon=args.horizon, seed=args.seed,
        capped=not args.uncapped, instance=args.instance,
        net_path=args.net, trips_path=args.trips, type_count=args.types,
        epsilon=args.eps))
    write_csv(records, path)
    summary = summarize(records, reference_cost=args.ref_capped)
    print(_summary_line(scheme.label(), args, summary))
    return summary


def _cmd_run(args) -> int:
    _check_references(args)
    _run_scheme(args, scheme_from_name(args.scheme, window=args.r,
                                       shrink=args.alpha), args.out)
    return 0


def _cmd_sweep(args) -> int:
    _check_references(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = [now_scheme(), mean_scheme(),
             extreme_scheme(5), extreme_scheme(10), extreme_scheme(20)]
    rows = []
    for scheme in cells:
        summary = _run_scheme(args, scheme, out_dir / f"{scheme.label()}.csv")
        rows.append([
            scheme.kind.replace("_", "-"),
            "" if scheme.window is None else str(scheme.window),
            _FMT % summary.mean_cost,
            _FMT % summary.mean_excess,
            "" if summary.regret is None else _FMT % summary.regret,
        ])
    lines = ["scheme,r,mean_cost,mean_excess,regret"]
    lines.extend(",".join(row) for row in rows)
    (out_dir / "summary.csv").write_text("\n".join(lines) + "\n")
    return 0


def _cmd_flapping(args) -> int:
    report = flapping_demo(
        FlappingSpec(gap_target=args.J, agent_count=args.N),
        horizon=args.horizon)
    scalar = report.scalar_records.social_cost
    interval = report.interval_records.social_cost
    for t, (sc, ic) in enumerate(zip(scalar, interval), start=1):
        print(f"t={t} scalar_cost={_FMT % sc} interval_cost={_FMT % ic}")
    print(f"scalar_steady_cost={_FMT % scalar[-1]} "
          f"interval_steady_cost={_FMT % interval[-1]} "
          f"gap={_FMT % report.gap} "
          f"gap_lower_bound={_FMT % report.gap_lower_bound}")
    if args.out:
        prefix = Path(args.out)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        scalar_path = prefix.with_name(prefix.name + "_scalar.csv")
        interval_path = prefix.with_name(prefix.name + "_interval.csv")
        scalar_path.write_text(
            records_to_abstract_csv(report.scalar_records))
        interval_path.write_text(
            records_to_abstract_csv(report.interval_records))
        print(f"wrote {scalar_path} and {interval_path}")
    return 0


def _cmd_convergence(args) -> int:
    config, inits = convergence_demo_config(agent_count=args.N,
                                            action_count=args.M)
    report = convergence_check(config, trajectories=args.trajectories,
                               horizon=args.horizon,
                               initial_signals=inits, seed=args.seed)
    d = report.distance_series
    checkpoints = sorted({0, len(d) // 4, len(d) // 2, len(d) - 1})
    decay = " ".join(f"d[{t}]={_FMT % d[t]}" for t in checkpoints)
    print(f"initial_distance={_FMT % d[0]} final_distance={_FMT % d[-1]} "
          f"{decay}")
    print(f"ks_statistic={_FMT % report.ks_statistic} "
          f"ks_pvalue={_FMT % report.ks_pvalue} "
          f"trajectories={args.trajectories}")
    return 0


def _cmd_gen_diamond(args) -> int:
    out_dir = Path(args.dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "net.txt").write_text(diamond_net_text())
    (out_dir / "trips.txt").write_text(diamond_trips_text())
    print(f"wrote {out_dir / 'net.txt'} and {out_dir / 'trips.txt'}")
    return 0


def _cmd_system_optimum(_args) -> int:
    for key, value in diamond_system_optimum().items():
        print(f"{key}={_FMT % value}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "flapping-demo": _cmd_flapping,
    "convergence-check": _cmd_convergence,
    "gen-diamond": _cmd_gen_diamond,
    "system-optimum": _cmd_system_optimum,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, ValidationError, NoPathError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
