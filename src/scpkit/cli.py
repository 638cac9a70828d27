"""Command-line front end: construct, verify, correlate, catalog, sweep.

Verification outcomes drive the exit code (0 = everything passed) so the
tool can run directly under CI.  Output files are byte-deterministic for
a given command line and seed.  Set SCPKIT_LOG=DEBUG|INFO|... for
diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from typing import IO

from .construct import (
    ScpPair,
    construct_mate,
    construct_scp,
    params_from_dict,
    params_from_restricted_set,
    ScpParams,
)
from .correlate import correlation_profile, write_profile_csv
from .verify import (
    DEFAULT_SEED,
    catalog_csv_rows,
    check_mate,
    check_scp,
    exhaustive_sweep,
    length_catalog,
)

log = logging.getLogger(__name__)


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.replace(",", " ").split()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scpkit",
        description="Construct and verify sparse complementary pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_param_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--params", metavar="FILE", help="JSON parameter file")
        p.add_argument("--q", type=int, help="even alphabet size")
        p.add_argument("--m", type=int, help="number of binary variables")
        p.add_argument("--t", type=int, help="number of restricted variables")
        p.add_argument("--perm", type=_int_list, help="permutation of 1..m, e.g. 1,3,2,4,5")
        p.add_argument("--restricted", type=_int_list, help="restricted variable indices")
        p.add_argument("--d", type=_int_list, help="fixed bits for the restricted variables")
        p.add_argument("--g", type=_int_list, help="linear part g_0..g_m")

    def add_out_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", metavar="FILE", help="output path (default stdout)")

    p = sub.add_parser("construct", help="build a pair from parameters")
    add_param_flags(p)
    add_out_flag(p)

    p = sub.add_parser("mate", help="build a pair and its orthogonal mate")
    add_param_flags(p)
    add_out_flag(p)

    p = sub.add_parser("verify", help="re-check a pair file from the definitions")
    p.add_argument("pair_file", help="pair JSON produced by construct or mate")
    p.add_argument("--mate", metavar="FILE", help="mate pair JSON to check against")
    add_out_flag(p)

    p = sub.add_parser("correlate", help="export correlation profiles as CSV")
    p.add_argument("pair_file", help="pair JSON produced by construct or mate")
    add_out_flag(p)

    p = sub.add_parser("catalog", help="build and verify all lengths 15..35")
    p.add_argument("--q", type=int, default=4, help="even alphabet size (default 4)")
    add_out_flag(p)

    p = sub.add_parser("sweep", help="exhaustively check all parameter combinations")
    p.add_argument("--q", type=_int_list, default=[2, 4], help="alphabet sizes, e.g. 2,4")
    p.add_argument("--m-max", type=int, default=5, help="largest variable count")
    p.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"base seed for the random linear parts (default {DEFAULT_SEED})",
    )
    add_out_flag(p)

    return parser


def _params_from_args(args: argparse.Namespace) -> ScpParams:
    if args.params:
        with open(args.params, "r", encoding="utf-8") as fh:
            return params_from_dict(json.load(fh))
    if args.q is None or args.m is None:
        raise ValueError("give --params FILE, or at least --q and --m")
    if args.perm is not None:
        if args.t is None:
            raise ValueError("--perm needs --t")
        return ScpParams(
            q=args.q,
            m=args.m,
            t=args.t,
            perm=tuple(args.perm),
            d=tuple(args.d) if args.d is not None else (0,) * args.t,
            g=tuple(args.g) if args.g is not None else (),
        )
    return params_from_restricted_set(
        args.q, args.m, args.restricted or (), args.d, args.g
    )


def _open_out(args: argparse.Namespace):
    if args.out:
        return open(args.out, "w", encoding="utf-8", newline="")
    return None  # caller writes to stdout


def _emit(args: argparse.Namespace, write) -> None:
    out = _open_out(args)
    try:
        write(out if out is not None else sys.stdout)
    finally:
        if out is not None:
            out.close()


def _dump_json(obj: dict, out: IO[str]) -> None:
    json.dump(obj, out, indent=2, sort_keys=True)
    out.write("\n")


def _load_pair(path: str, member: str = "pair") -> ScpPair:
    """Load a pair file; from a two-pair file pick the requested member."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if member in data:
        data = data[member]
    return ScpPair.from_dict(data)


def cmd_construct(args: argparse.Namespace) -> int:
    pair = construct_scp(_params_from_args(args))
    _emit(args, lambda out: _dump_json(pair.to_dict(), out))
    return 0


def cmd_mate(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    payload = {
        "pair": construct_scp(params).to_dict(),
        "mate": construct_mate(params).to_dict(),
    }
    _emit(args, lambda out: _dump_json(payload, out))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    pair = _load_pair(args.pair_file)
    report = check_scp(pair)
    payload = {"pair": report.to_dict()}
    ok = report.passed
    if args.mate:
        mate = _load_pair(args.mate, member="mate")
        mate_scp = check_scp(mate)
        mate_rel = check_mate(pair, mate)
        payload["mate_as_pair"] = mate_scp.to_dict()
        payload["mate"] = mate_rel.to_dict()
        ok = ok and mate_scp.passed and mate_rel.passed
    _emit(args, lambda out: _dump_json(payload, out))
    return 0 if ok else 1


def cmd_correlate(args: argparse.Namespace) -> int:
    pair = _load_pair(args.pair_file)
    auto0 = correlation_profile(pair.c0, pair.c0)
    auto1 = correlation_profile(pair.c1, pair.c1)
    cross = correlation_profile(pair.c0, pair.c1)
    aacs = {u: auto0[u] + auto1[u] for u in auto0}
    profiles = {
        "auto_c0": auto0,
        "auto_c1": auto1,
        "cross_c0_c1": cross,
        "aacs": aacs,
    }
    _emit(args, lambda out: write_profile_csv(out, profiles))
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    rows = length_catalog(q=args.q)

    def write(out: IO[str]) -> None:
        writer = csv.writer(out, lineterminator="\n")
        for row in catalog_csv_rows(rows):
            writer.writerow(row)

    _emit(args, write)
    return 0 if all(r.verified for r in rows) else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    summary = exhaustive_sweep(tuple(args.q), args.m_max, seed=args.seed)
    log.info(
        "sweep: %d pairs (%d passed), %d mates (%d passed)",
        summary.pairs_total,
        summary.pairs_passed,
        summary.mates_total,
        summary.mates_passed,
    )

    def write(out: IO[str]) -> None:
        writer = csv.writer(out, lineterminator="\n")
        for row in summary.csv_rows():
            writer.writerow(row)

    _emit(args, write)
    return 0 if summary.all_passed else 1


_COMMANDS = {
    "construct": cmd_construct,
    "mate": cmd_mate,
    "verify": cmd_verify,
    "correlate": cmd_correlate,
    "catalog": cmd_catalog,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("SCPKIT_LOG", "WARNING").upper(),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except json.JSONDecodeError as err:
        print(
            f"error: malformed JSON at line {err.lineno} column {err.colno}: {err.msg}",
            file=sys.stderr,
        )
        return 2
    except (ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
