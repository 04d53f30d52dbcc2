"""Command-line entry point for the experiment harness.

Subcommands mirror the harness functions: ``train``, ``infer``,
``calibrate``, ``certify``, ``ablate``, and ``report``. Exit codes:

* 0 success
* 2 ``ConfigError``: a configuration problem (bad file, unknown key,
  invalid value)
* 3 ``ArtifactMismatchError`` and its subclasses (``IoFailureError``,
  ``BadMagicError``, ``VersionUnsupportedError``, ``ChecksumMismatchError``,
  ``TruncatedFileError``): an artifact that is missing, unreadable,
  unwritable, corrupt or mismatched with the config
* 4 ``NoAdmissiblePairError``: calibration found no admissible threshold pair
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

from . import harness
from .config import ExperimentConfig
from .errors import ArtifactMismatchError, ConfigError, NoAdmissiblePairError
from .generate import POLICY_ALIASES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ARTIFACT = 3
EXIT_NO_PAIR = 4


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", default=None, help="run directory (defaults to out_dir)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="editstop",
        description="Train, evaluate, and certify early-stopping denoisers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fine-tune adapters and persist artifacts")
    _add_common(p_train)

    p_infer = sub.add_parser("infer", help="evaluate a stopping policy")
    _add_common(p_infer)
    p_infer.add_argument(
        "--artifacts", default=None, help="directory holding training artifacts"
    )
    p_infer.add_argument(
        "--policy",
        choices=tuple(POLICY_ALIASES),
        default=None,
        help="override the configured policy",
    )
    p_infer.add_argument(
        "--seed",
        action="append",
        type=int,
        default=None,
        help="evaluation seed; repeat for several",
    )
    p_infer.add_argument(
        "--strict-certificates",
        action="store_true",
        help="only accept stops whose certificate passes",
    )
    p_infer.add_argument(
        "--calibration", default=None, help="calibration file for certified verdicts"
    )

    p_cal = sub.add_parser("calibrate", help="estimate contraction and thresholds")
    _add_common(p_cal)
    p_cal.add_argument(
        "--artifacts", default=None, help="directory holding training artifacts"
    )

    p_cert = sub.add_parser("certify", help="re-evaluate certificates from traces")
    _add_common(p_cert)
    p_cert.add_argument(
        "--calibration", default=None, help="calibration file for certified verdicts"
    )

    p_abl = sub.add_parser("ablate", help="sweep capture sites and reductions")
    _add_common(p_abl)

    p_rep = sub.add_parser("report", help="merge run reports into one bundle")
    p_rep.add_argument("run_dirs", nargs="+", help="run directories to merge")
    p_rep.add_argument("--out", required=True, help="output directory")

    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig.from_file(args.config)
    overrides = {}
    if getattr(args, "policy", None) is not None:
        overrides["policy"] = args.policy
    if getattr(args, "seed", None):
        overrides["seeds"] = list(args.seed)
    if getattr(args, "strict_certificates", False):
        overrides["strict_certificates"] = True
    if overrides:
        try:
            config = dataclasses.replace(config, **overrides)
        except (ValueError, KeyError) as exc:
            raise ConfigError(str(exc)) from exc
    return config


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            payload = harness.cmd_report(args.run_dirs, args.out)
            print(f"merged {len(payload['runs'])} runs into {args.out}")
            return EXIT_OK
        config = _load_config(args)
        if args.command == "train":
            info = harness.cmd_train(config, args.out)
            print(f"trained; final loss {info['final_loss']:.4f} -> {info['run_dir']}")
        elif args.command == "infer":
            report = harness.cmd_infer(
                config,
                artifacts_dir=args.artifacts,
                run_dir=args.out,
                calibration_path=args.calibration,
            )
            mean = report["mean"]
            print(
                f"policy {report['policy']}: accuracy {mean['accuracy']:.3f},"
                f" avg steps {mean['avg_steps']:.2f}"
                f" ({mean['reduction_percent']:.1f}% below budget)"
            )
        elif args.command == "calibrate":
            payload = harness.cmd_calibrate(
                config, artifacts_dir=args.artifacts, run_dir=args.out
            )
            chosen = payload["pac"]["chosen"] if payload["pac"] else None
            print(f"alpha_hat {payload['alpha_hat']:.4f}, chosen pair {chosen}")
        elif args.command == "certify":
            payload = harness.cmd_certify(
                config, run_dir=args.out, calibration_path=args.calibration
            )
            print(
                f"{payload['n_stops']} stops; certified fraction"
                f" {payload['certified_fraction']:.3f}"
            )
        elif args.command == "ablate":
            payload = harness.cmd_ablate(config, args.out)
            best = min(payload["cells"], key=lambda c: c["mean_divergence"])
            print(
                f"{len(payload['cells'])} cells; most stable"
                f" {best['module']}.{best['adapter']}/{best['reduction']}"
            )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArtifactMismatchError as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return EXIT_ARTIFACT
    except NoAdmissiblePairError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return EXIT_NO_PAIR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
