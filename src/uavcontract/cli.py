"""Command-line entry point.

One verb per experiment mode; the verb overrides the config file's mode
so a single scenario file can drive several runs.  Exit codes: 0 success,
2 config error, 3 solver error, 4 not converged (phc with --strict).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import time
from pathlib import Path

from .config import MODES, load_config
from .errors import NotConverged, ParseError, UavContractError, \
    ValidationError
from .runner import run_mode

_VERB_HELP = {
    "solve": "solve the asymmetric-information menu and write it out",
    "compare": "solve all four schemes on one scenario",
    "sweep-cost": "sweep the first type's marginal cost over [0.01, 1]",
    "sweep-population": "sweep the population at fixed type mixture",
    "phc": "train the two-tier learners over the configured seeds",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavcontract",
        description="Contract menus and learned strategies for "
                    "UAV-collected defense data.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in MODES:
        sp = sub.add_parser(verb, help=_VERB_HELP[verb])
        sp.add_argument("--config", required=True, metavar="PATH",
                        help="experiment config file (YAML)")
        sp.add_argument("--out", default=None, metavar="DIR",
                        help="output directory (overrides config)")
        sp.add_argument("--seed", type=int, default=None, metavar="U64",
                        help="single seed overriding the config's list")
        if verb == "solve":
            sp.add_argument("--oracle", action="store_true",
                            help="cross-check against the exact grid oracle")
        if verb == "phc":
            sp.add_argument("--strict", action="store_true",
                            help="exit 4 when any seed fails the "
                                 "convergence window")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if config.mode != args.verb:
            config = dataclasses.replace(config, mode=args.verb)
        if args.seed is not None:
            config = dataclasses.replace(config, seeds=(args.seed,))
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    digest = hashlib.sha256(Path(args.config).read_bytes()).hexdigest()
    out_dir = args.out if args.out is not None else config.output_dir
    tic = time.perf_counter()
    try:
        result = run_mode(config, args.out,
                          oracle=getattr(args, "oracle", False),
                          strict=getattr(args, "strict", False),
                          config_digest=digest)
    except NotConverged as exc:
        print(f"not converged: {exc}", file=sys.stderr)
        return 4
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (UavContractError, ValueError, KeyError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - tic
    if config.mode == "compare":
        for row in result:
            print(f"{row.scheme}: gcs_utility={row.gcs_utility:.6g} "
                  f"zeta={row.zeta:.6g}")
    elif config.mode == "solve":
        print(f"gcs_utility={result['gcs_utility']:.6g} "
              f"zeta={result['zeta']:.6g}")
    elif config.mode == "phc":
        converged = sum(1 for s in result if s.converged)
        print(f"converged {converged}/{len(result)} seed/type pairs")
    print(f"{config.mode}: wrote {out_dir} in {elapsed:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
