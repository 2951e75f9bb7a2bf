"""Command-line interface.

Each subcommand runs exactly one pipeline stage (``graft`` is the select
stage); ``pipeline`` runs them all.  A single JSON config document drives
everything; flags override the seed, output directory, method, and
determinism.  Exit codes: 0 success, 1 stage failure, 2 config error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DomainError, FormatError, GraftcertError, UsageError
from .pipeline import (
    ExperimentConfig,
    MetricsReport,
    _out_dir,
    attack_stage,
    finetune_stage,
    report_stage,
    run_pipeline,
    score_stage,
    select_stage,
    train_stage,
    verify_stage,
)

__all__ = ["main", "default_config"]

# subcommand -> (what it runs, help text)
_COMMANDS = {
    "train": (train_stage, "adversarially train a classifier -> checkpoint.json"),
    "attack": (attack_stage, "PGD-attack the evaluated network -> attack.json"),
    "score": (score_stage, "instability and significance scores -> scores.json"),
    "graft": (select_stage, "select the neurons to graft -> plan.json"),
    "finetune": (finetune_stage, "graft the plan and fine-tune -> grafted.json"),
    "verify": (verify_stage, "attack and completely verify -> verdicts.json"),
    "report": (report_stage, "metrics files from saved verdicts"),
    "pipeline": (lambda cfg, out: run_pipeline(cfg), "run every stage end to end"),
}


def default_config() -> dict:
    """The 2-D synthetic desk protocol: a [2, 16, 16, 2] classifier on two
    moons with eps 0.1 everywhere."""
    return {
        "dataset": {
            "train": {"kind": "synthetic", "generator": "two_moons", "n": 600, "seed": 1},
            "test": {"kind": "synthetic", "generator": "two_moons", "n": 300, "seed": 2},
        },
        "architecture": [2, 16, 16, 2],
        "eps_train": 0.1,
        "eps_verify": 0.1,
        "clip": [0.0, 1.0],
        "graft_fraction": 0.5,
        "method": "graft",
        "train": {"epochs": 30, "batch_size": 64, "lr": 0.05, "milestones": [20]},
        "finetune": {"epochs": 15, "batch_size": 64},
        "budget": {"time_limit": 30.0, "max_domains": 2000},
        "num_verify": 50,
        "seed": 0,
        "deterministic": True,
    }


def _load_config(args) -> ExperimentConfig:
    doc = default_config()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise UsageError(f"config must be a JSON object, got {type(loaded).__name__}")
        doc.update(loaded)
    if args.seed is not None:
        doc["seed"] = args.seed
        for section in ("train", "finetune"):
            if isinstance(doc.setdefault(section, {}), dict):
                doc[section]["seed"] = args.seed
    if args.out is not None:
        doc["out_dir"] = args.out
    if args.method:
        doc["method"] = args.method
    if args.fraction is not None:
        doc["graft_fraction"] = args.fraction
    if args.checkpoint:
        doc["checkpoint"] = args.checkpoint
    if args.deterministic is not None:
        doc["deterministic"] = args.deterministic
    if args.workers is not None:
        doc["workers"] = args.workers
    return ExperimentConfig.from_dict(doc)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graftcert",
        description="Linear-activation grafting and robustness certification for dense ReLU nets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--method", default=None, help="selection method override")
        p.add_argument("--fraction", type=float, default=None, help="graft fraction override")
        p.add_argument(
            "--checkpoint", default=None,
            help="input network in place of the stage's default (train: the trained network)",
        )
        p.add_argument("--workers", type=int, default=None, help="verification worker pool size")
        det = p.add_mutually_exclusive_group()
        det.add_argument("--deterministic", dest="deterministic", action="store_true", default=None)
        det.add_argument("--no-deterministic", dest="deterministic", action="store_false")
        if name == "report":
            p.add_argument("--verdicts", required=True, help="verdicts.json from a verify run")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except (UsageError, DomainError, FormatError, json.JSONDecodeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    run, _ = _COMMANDS[args.command]
    extra = {"verdicts": args.verdicts} if args.command == "report" else {}
    try:
        out = _out_dir(cfg)
        result = run(cfg, out, **extra)
    except (GraftcertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if isinstance(result, MetricsReport):
        print(
            f"UNR {result.unr:.2f}%  VA {result.va:.2f}%  SA {result.sa:.2f}%  "
            f"RA {result.ra:.2f}%  mean time {result.mean_verification_time:.2f} "
            f"{result.time_unit}"
        )
    else:
        print(f"{args.command}: artifacts written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
