"""Command-line entry point.

    roadsearch run    --config cfg.json --variant B --seed 7 \
                      --budget-evals 300 --out results/ [--runs 5] [--novelty]
    roadsearch replay --archive results/run01.json --test 42
    roadsearch render --archive results/run01.json --out svgs/

``--sut "<command>"``, like ``sut.command`` in the config file, drives an
external system under test over the line protocol: one child serves every
run of the invocation, started at the first driven road and ended before
``run`` returns (see ``protocol.SutSession``). Flags replace file keys;
``ROADSEARCH_LOG`` (DEBUG/INFO/WARNING/...) controls verbosity.
Exit code 0 on success, 1 on configuration, protocol or replay errors.
"""
from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

from .config import ConfigError, parse_config_dict, read_config
from .protocol import SutDescriptor, SutSession, external_evaluate
from .report import (
    ReplayDivergence,
    load_archive,
    render_failures,
    replay,
    summary_row,
    write_report,
    write_summary_csv,
)
from .search import Driver, builtin_driver, evaluate, run_search

log = logging.getLogger("roadsearch")


def _setup_logging():
    # a level name maps to its number, anything else (say BASIC_FORMAT) to a string
    level = logging.getLevelName(os.environ.get("ROADSEARCH_LOG", "WARNING").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="roadsearch", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one or more seeded searches")
    run.add_argument("--config", help="JSON config file (defaults apply if omitted)")
    run.add_argument("--variant", choices=("A", "B", "C"))
    run.add_argument("--seed", type=int)
    run.add_argument("--budget-evals", type=int, metavar="N")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--sut", metavar="COMMAND", help="external SUT command")
    run.add_argument("--runs", type=int, default=1, metavar="N",
                     help="independent seeded runs (seed, seed+1, ...)")
    run.add_argument("--novelty", action="store_true",
                     help="enable the Frechet-distance novelty filter")

    rep = sub.add_parser("replay", help="re-run one archived test")
    rep.add_argument("--archive", required=True)
    rep.add_argument("--test", type=int, required=True)
    rep.add_argument("--sut", metavar="COMMAND",
                     help="SUT command for external-SUT archives")

    ren = sub.add_parser("render", help="render SVGs for archived failures")
    ren.add_argument("--archive", required=True)
    ren.add_argument("--out", required=True)
    return parser


def _driver(sut: SutDescriptor, vparams, session: SutSession | None = None) -> Driver:
    if sut.command is not None:
        return lambda road: external_evaluate(road, sut, session)
    return builtin_driver(vparams)


def _cmd_run(args) -> int:
    # a flag left out (None, or False for --novelty) keeps the config file's value
    flags = {"variant": args.variant, "seed": args.seed, "max_evaluations": args.budget_evals,
             "novelty_filter": args.novelty or None}
    search = {key: value for key, value in flags.items() if value is not None}
    overrides = {"search": search, "sut": {} if args.sut is None else {"command": args.sut}}
    data = read_config(args.config) if args.config else {}
    search_cfg, vparams, sut = parse_config_dict(data, overrides)

    rows = []
    out = Path(args.out)
    # the SUT child, if one is started, ends here also when a search raises
    with SutSession(sut) as session:
        drive = _driver(sut, vparams, session)
        evaluator = lambda ind: evaluate(ind, drive)
        for i in range(args.runs):
            cfg = dataclasses.replace(search_cfg, seed=search_cfg.seed + i)
            log.info("run %d/%d: variant %s seed %d", i + 1, args.runs,
                     cfg.variant, cfg.seed)
            report = run_search(cfg, evaluator,
                                reporter=lambda ev: log.debug("event %s", ev))
            write_report(report, out, vparams=vparams, sut=sut, run_id=i + 1)
            row = summary_row(report, run_id=i + 1)
            rows.append(row)
            log.info("run %d: T=%s P=%s I=%s F=%s", i + 1, row["T"], row["P"],
                     row["I"], row["F"])
    write_summary_csv(rows, out / "summary.csv")
    print(f"{args.runs} run(s) complete; summary at {out / 'summary.csv'}")
    return 0


def _cmd_replay(args) -> int:
    result = replay(load_archive(args.archive), args.test, sut_command=args.sut)
    print(f"test {args.test}: verdict {result.verdict}, "
          f"max_oob {result.max_oob:.3f} (matches archive)")
    return 0


def _cmd_render(args) -> int:
    paths = render_failures(load_archive(args.archive), args.out)
    print(f"rendered {len(paths)} failing test(s) to {args.out}")
    return 0


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.runs < 1:
        parser.error("--runs must be at least 1")
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "replay":
            return _cmd_replay(args)
        return _cmd_render(args)
    except (ConfigError, ReplayDivergence, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
