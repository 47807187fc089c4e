"""Command-line interface: one subcommand per stage plus run-all and cache.

Exit codes: 0 success, 1 stage failure, 2 configuration or usage error.
Every config knob can be overridden by a flag; flags win over the file.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import __version__, pipeline
from .config import load_config
from .errors import ConfigError, MindpipeError

logger = logging.getLogger(__name__)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="YAML config file")
    parser.add_argument("--backend-kind", dest="backend.kind", choices=["mock", "http"])
    parser.add_argument("--base-url", dest="backend.base_url")
    parser.add_argument("--model", dest="backend.model")
    parser.add_argument("--api-key-env", dest="backend.api_key_env")
    parser.add_argument("--rps", dest="limits.rps", type=float)
    parser.add_argument("--concurrency", dest="limits.concurrency", type=int)
    parser.add_argument("--max-attempts", dest="retry.max_attempts", type=int)
    parser.add_argument("--prompts-dir", dest="paths.prompts_dir")
    parser.add_argument("--lexicon", dest="paths.lexicon", help="safety lexicon file")
    parser.add_argument("--cache-dir", dest="paths.cache_dir")
    parser.add_argument("--cohort-size", dest="pipeline.cohort_size", type=int)
    parser.add_argument("--event-content-budget", dest="pipeline.event_content_budget", type=int)
    parser.add_argument("--word-budget-slack", dest="pipeline.word_budget_slack", type=float)


def _overrides(args: argparse.Namespace) -> dict:
    """The config flags, keyed by the ``section.key`` each one stores into."""
    return {key: value for key, value in vars(args).items() if "." in key}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mindpipe",
        description="Turn social-media dump files into per-user mental-health profiles.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in pipeline.STAGE_NAMES:
        if name == "ingest":
            stage = sub.add_parser(name, help="parse dump files and select the cohort")
            stage.add_argument("--input", type=Path, nargs="+", required=True)
            stage.add_argument(
                "--out", dest="run", metavar="OUT", type=Path, required=True, help="run directory"
            )
        else:
            stage = sub.add_parser(name, help=f"run the {name} stage on a run directory")
            stage.add_argument("--run", type=Path, required=True)
        _add_config_flags(stage)

    run_all = sub.add_parser("run-all", help="run every stage, resuming intact ones")
    run_all.add_argument("--input", type=Path, nargs="*", default=None)
    run_all.add_argument("--out", type=Path, required=True, help="run directory")
    _add_config_flags(run_all)

    cache = sub.add_parser(
        "cache", help="report cache entries, database file bytes, last-run hit ratio"
    )
    cache.add_argument("--run", type=Path, default=None)
    cache.add_argument("--cache-dir", type=Path, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )

    try:
        if args.command == "cache":
            if args.run is None and args.cache_dir is None:
                parser.error("cache requires --run or --cache-dir")
            try:
                entries, size, ratio = pipeline.cache_stats(args.run, args.cache_dir)
            except (FileNotFoundError, ValueError) as exc:
                print(str(exc), file=sys.stderr)
                return 2
            ratio_text = "n/a" if ratio is None else f"{ratio:.3f}"
            print(f"entries={entries} bytes={size} last_run_hit_ratio={ratio_text}")
            return 0

        config = load_config(args.config, _overrides(args))

        if args.command == "run-all":
            pipeline.run_all(config, args.input, args.out)
        else:
            pipeline.run_stage(args.command, config, getattr(args, "input", None), args.run)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MindpipeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
