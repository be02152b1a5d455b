"""Command-line entry point.

    gup-mirror <mode> --config <path> [--out <path>]

The mode selects what gets computed (p1, p2, compare, sweep, verify,
bound, temperatures); all physics parameters, the frequency convention
included, live in the config file so a run is reproducible from that
single document.  Flags only pick the mode and the output path.
"""

from __future__ import annotations

import argparse
import sys

from .runner import MODES, ConfigError, parse_config, run

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gup-mirror",
        description=(
            "Spontaneous-excitation probabilities of a two-level atom in a "
            "relatively accelerating atom-mirror system with a GUP-deformed "
            "scalar field."
        ),
    )
    parser.add_argument("mode", choices=MODES, help="what to compute")
    parser.add_argument("--config", required=True, help="key = value run configuration file")
    parser.add_argument("--out", help="output CSV path (overrides 'out' in the config)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config file {args.config!r}: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text, default_mode=args.mode)
    except ConfigError as exc:
        print(f"configuration error in {args.config!r}: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        cfg = cfg._replace(out=args.out)
    return run(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
