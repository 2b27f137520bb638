"""Command-line front end.

Commands:
  run <config> [--paths N] [--seed S] [--alpha A|opt] [--dry-run] [--out DIR]
  certify <config>
  batch <dir>

The run overrides are checked as config keys are, before any simulation.
Exit codes: 0 = verdict holds (or --help), 2 = verdict fails, 1 = usage,
config or execution error. The default output directory can be set via the
CONTRACTING_SDE_OUT environment variable.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError
from .scenarios import ScenarioConfig, _json_object, resolve_output_dir, run_scenario

EXIT_HOLDS = 0
EXIT_ERROR = 1
EXIT_FAILS = 2


def _load(path: str, **overrides) -> ScenarioConfig:
    """The config at ``path`` with each override that is not None set as its
    key, checked and built once."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from exc
    data = _json_object(text)
    data.update((key, value) for key, value in overrides.items() if value is not None)
    return ScenarioConfig(data.get("scenario_kind"), data)


def _cmd_run(args) -> int:
    try:
        alpha = float(args.alpha)
    except (TypeError, ValueError):  # not given, "opt", or text that the config check rejects
        alpha = args.alpha
    cfg = _load(args.config, n_paths=args.paths, master_seed=args.seed, alpha_policy=alpha,
                n_workers=args.workers)
    out_dir = resolve_output_dir(cfg, args.out, Path(args.config).stem)
    if args.dry_run:
        print(cfg.serialize(), end="")
    verdict = run_scenario(cfg, out_dir, dry_run=args.dry_run)
    print(f"verdict: {'holds' if verdict.holds else 'FAILS'} "
          f"(worst margin {verdict.worst_margin:.4g} at t={verdict.worst_t:.4g})")
    print(f"report bundle: {out_dir}")
    return EXIT_HOLDS if verdict.holds else EXIT_FAILS


def _cmd_certify(args) -> int:
    cfg = _load(args.config)
    out_dir = resolve_output_dir(cfg, args.out, Path(args.config).stem)
    run_scenario(cfg, out_dir, dry_run=True)
    cert_path = out_dir / "certificate.json"
    print(cert_path.read_text(encoding="utf-8"), end="")
    return EXIT_HOLDS


def _cmd_batch(args) -> int:
    configs = sorted(Path(args.directory).glob("*.json"))
    if not configs:
        print(f"no *.json configs in {args.directory}", file=sys.stderr)
        return EXIT_ERROR
    failed = errored = False
    for path in configs:
        try:
            cfg = _load(str(path))
            verdict = run_scenario(cfg, resolve_output_dir(cfg, args.out, path.stem))
        except Exception as exc:  # noqa: BLE001 - report it and run the next config
            print(f"{path.name}: {_error_message(exc)}", file=sys.stderr)
            errored = True
            continue
        status = "holds" if verdict.holds else "FAILS"
        print(f"{path.name}: {status} (worst margin {verdict.worst_margin:.4g})")
        failed = failed or not verdict.holds
    return EXIT_ERROR if errored else EXIT_FAILS if failed else EXIT_HOLDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contracting-sde",
        description="Simulate contracting SDE scenarios and check error envelopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write its report bundle")
    p_run.add_argument("config")
    p_run.add_argument("--paths", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--alpha", default=None, help="fixed alpha in (0,1) or 'opt'")
    p_run.add_argument("--workers", type=int, default=None,
                       help="accepted and ignored: paths run serially in fixed chunks")
    p_run.add_argument("--dry-run", action="store_true")
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_cert = sub.add_parser("certify", help="emit the scenario certificate only")
    p_cert.add_argument("config")
    p_cert.add_argument("--out", default=None)
    p_cert.set_defaults(func=_cmd_certify)

    p_batch = sub.add_parser("batch", help="run every *.json config in a directory")
    p_batch.add_argument("directory")
    p_batch.add_argument("--out", default=None)
    p_batch.set_defaults(func=_cmd_batch)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_ERROR if exc.code else EXIT_HOLDS
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        print(_error_message(exc), file=sys.stderr)
        return EXIT_ERROR


def _error_message(exc: Exception) -> str:
    if isinstance(exc, ConfigError):
        return f"config error: {exc}"
    return f"error: {type(exc).__name__}: {exc}"


if __name__ == "__main__":
    sys.exit(main())
