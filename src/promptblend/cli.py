"""Command-line entry point.

Subcommands: pretrain, embed, train, eval, report, ortho. Exit codes:
0 success, 1 validation error, 2 runtime failure, 130 interrupted (Ctrl-C).
report reads only the run's record.json. eval, ortho and embed always
print, and write files only with --out. A command writes its files into a
temp dir beside --out, then moves each into --out, replacing its namesake;
a failure before then leaves --out as it was, and files of an earlier run
that the command does not write stay.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import composer, report
from . import textdata as td
from .checkpoint import bundle_bytes, load_bundle
from .composer import WeightPredictor
from .model import FrozenLM, LMConfig, PretrainConfig, pretrain_examples
from .train import RunRecord, TrainConfig
from .train import control_eval as _control_eval
from .train import prompted_eval as _prompted_eval
from .train import train as _train

DEFAULT_FIXTURE_SEED = 3


def _domain(convert, accepts, domain: str):
    """An argparse type keeping the values `accepts` allows; argparse names the flag."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accepts(value):
            raise argparse.ArgumentTypeError(f"must be {domain}, got {text!r}")
        return value
    return parse


def at_least(low: int):
    return _domain(int, lambda v: v >= low, f"an integer of at least {low}")


SEED = at_least(0)
# NaN fails every comparison; inf passes, so a divergent rate fails at run time
NON_NEGATIVE = _domain(float, lambda v: v >= 0, "a non-negative number")
FINITE_NON_NEGATIVE = _domain(float, lambda v: 0 <= v < math.inf, "a finite non-negative number")
PROBABILITY = _domain(float, lambda v: 0 <= v < 1, "a probability in [0, 1)")
FRACTION = _domain(float, lambda v: 0 < v < 1, "a fraction in (0, 1)")
FIXTURE_SIZE = _domain(int, lambda v: 1 <= v <= td.fixture_capacity(),
                       f"an integer from 1 to {td.fixture_capacity()}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promptblend",
        description="Continuous prompts as learned combinations of discrete prompt embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p):
        p.add_argument("--data", default="fixture",
                       help="dataset path, or 'fixture' for the bundled synthetic set")
        p.add_argument("--fixture-size", type=FIXTURE_SIZE, default=1000)
        p.add_argument("--fixture-seed", type=SEED, default=DEFAULT_FIXTURE_SEED)
        p.add_argument("--val-fraction", type=FRACTION, default=0.2)

    def add_common(p):
        p.add_argument("--seed", type=SEED, default=0, help="run seed")
        p.add_argument("--basis", default="default",
                       help="basis file, or 'default': the checkpoint's prompts or the built-ins")

    p = sub.add_parser("pretrain", help="pretrain and freeze the base model")
    add_data_flags(p)
    add_common(p)
    p.add_argument("--epochs", type=at_least(1), default=6)
    p.add_argument("--batch-size", type=at_least(1), default=10)
    p.add_argument("--lr", type=NON_NEGATIVE, default=3e-3)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train the weight predictor against a frozen model")
    add_data_flags(p)
    add_common(p)
    p.add_argument("--checkpoint", default=None,
                   help="frozen model checkpoint; omitted means pretrain in-process")
    p.add_argument("--pretrain-epochs", type=at_least(1), default=6)
    p.add_argument("--epochs", type=at_least(1), default=20)
    p.add_argument("--batch-size", type=at_least(1), default=10)
    p.add_argument("--lr", type=NON_NEGATIVE, default=1e-3)
    p.add_argument("--dropout", type=PROBABILITY, default=0.1)
    p.add_argument("--weight-decay", type=NON_NEGATIVE, default=0.01)
    p.add_argument("--final-init-scale", type=FINITE_NON_NEGATIVE, default=0.01)
    p.add_argument("--eval-every", type=at_least(0), default=0)
    p.add_argument("--top", type=at_least(1), default=3)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="control and prompted evaluation from a checkpoint")
    add_data_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("report", help="re-render report files from a run's record.json alone")
    p.add_argument("--record", required=True)
    p.add_argument("--top", type=at_least(1), default=3)
    p.add_argument("--out", required=True)

    p = sub.add_parser("ortho", help="orthogonality report for a prompt basis")
    add_common(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("embed", help="embed a basis and summarize it")
    add_common(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", default=None)

    return parser


def _check_top(top: int, prompts: list[str]) -> None:
    """Reject a --top the report cannot fill or number, before any compute."""
    if top > len(prompts):
        raise ValueError(f"--top {top} exceeds the basis size {len(prompts)}")
    if top > len(report.NUMERALS):
        raise ValueError(f"--top {top} exceeds the report's {len(report.NUMERALS)} numerals")


def _resolve_examples(args) -> list[td.QAExample]:
    if args.data == "fixture":
        return td.make_fixture(args.fixture_seed, args.fixture_size)
    examples = td.load_dataset(args.data)
    if not examples:
        raise ValueError(f"dataset {args.data} contains no examples")
    return examples


def _split(examples: list[td.QAExample], val_fraction: float):
    train_set, eval_set = td.train_eval_split(examples, val_fraction)
    if not train_set:
        raise ValueError(f"--val-fraction {val_fraction} leaves no training examples "
                         f"out of {len(examples)}")
    return train_set, eval_set


def _resolve_basis_prompts(args, stored=None) -> list[str]:
    """The --basis file's prompts; 'default' means the bundle's `stored`
    prompts, or the built-in ones without a bundle."""
    if args.basis != "default":
        return composer.load_basis_file(args.basis)
    return list(stored or composer.DEFAULT_BASIS_PROMPTS)


def _check_basis_fits(examples: list[td.QAExample], prompts: list[str], config: LMConfig) -> None:
    """Reject a basis whose longest prompt does not fit max_positions beside the
    longest input; split_tokens needs no vocabulary, so this runs before compute."""
    longest = max(examples, key=lambda ex: len(td.split_tokens(td.format_input(ex))))
    config.check_fits(f"example {longest.id!r}", max(len(td.split_tokens(p)) for p in prompts),
                      td.split_tokens(td.format_input(longest)))


def check_out_dir(out) -> None:
    """Reject an --out that cannot become a directory; None asks for none."""
    if out is None:
        return
    path = Path(out).absolute()
    existing = next(p for p in (path, *path.parents) if p.exists() or p.is_symlink())
    if not existing.is_dir():
        raise ValueError(f"--out {out}: {existing} is not a directory")


def _write_outputs(out_dir, files: dict) -> None:
    if out_dir is None:
        return
    out = Path(out_dir)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".promptblend-", dir=out.parent))
    try:
        for name, content in files.items():
            (tmp / name).write_bytes(content if isinstance(content, bytes)
                                     else content.encode("utf-8"))
        out.mkdir(exist_ok=True)
        for name in files:
            os.replace(tmp / name, out / name)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _report_files(record: RunRecord, top: int) -> dict:
    text, json_text = report.render_report(record, n_top=top)
    return {"curve.csv": report.render_curve_csv(record), "report.txt": text,
            "report.json": json_text}


def _cmd_pretrain(args) -> int:
    examples = _resolve_examples(args)
    train_set, _ = _split(examples, args.val_fraction)
    basis_prompts = _resolve_basis_prompts(args)
    config = PretrainConfig(epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
                            extra_vocab_texts=list(basis_prompts))
    _check_basis_fits(examples, basis_prompts, config.model)
    lm = pretrain_examples(train_set, config, args.seed)
    _write_outputs(args.out, {"checkpoint.pbld": bundle_bytes(lm, None, basis_prompts)})
    rec = lm.pretrain_record
    print(f"pretrained on {len(train_set)} examples: initial loss "
          f"{rec['initial_loss']:.4f}, final epoch mean {rec['epoch_means'][-1]:.4f}")
    print(f"wrote {Path(args.out) / 'checkpoint.pbld'}")
    return 0


def _cmd_train(args) -> int:
    config = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
                         weight_decay=args.weight_decay, seed=args.seed,
                         eval_every=args.eval_every)
    examples = _resolve_examples(args)
    train_set, eval_set = _split(examples, args.val_fraction)
    lm, _, stored = load_bundle(args.checkpoint) if args.checkpoint else (None, None, None)
    basis_prompts = _resolve_basis_prompts(args, stored)
    _check_top(args.top, basis_prompts)
    _check_basis_fits(examples, basis_prompts, LMConfig() if lm is None else lm.config)
    if lm is None:
        lm = pretrain_examples(train_set, PretrainConfig(
            epochs=args.pretrain_epochs, extra_vocab_texts=list(basis_prompts)), args.seed)
    lm.set_frozen(True)
    basis = composer.build_basis(basis_prompts, lm)
    predictor = WeightPredictor.create(args.seed, lm.config.embed_dim, basis.size,
                                       dropout_p=args.dropout,
                                       final_scale=args.final_init_scale)
    record = _train(lm, predictor, basis, train_set, eval_set, config)
    files = {**_report_files(record, args.top), "record.json": record.to_json() + "\n",
             "checkpoint.pbld": bundle_bytes(lm, predictor, basis_prompts)}
    _write_outputs(args.out, files)
    print(f"control eval loss:  {record.control_eval_loss:.4f}")
    print(f"prompted eval loss: {record.prompted_eval_loss:.4f}")
    print(f"wrote {', '.join(sorted(files))} to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    examples = _resolve_examples(args)
    lm, predictor, prompts = load_bundle(args.checkpoint)
    _, eval_set = td.train_eval_split(examples, args.val_fraction)
    payload = {"eval_examples": len(eval_set)}
    if predictor is None:
        payload["control_eval_loss"] = _control_eval(lm, eval_set)
    else:
        result = _prompted_eval(lm, predictor, composer.build_basis(prompts, lm), eval_set)
        payload.update(control_eval_loss=result.control_loss,
                       prompted_eval_loss=result.mean_loss, prompted_accuracy=result.accuracy)
    # each value prints as e.g. "control eval loss:  3.4992"
    lines = [f"eval examples: {len(eval_set)}"] + [
        f"{key.replace('_', ' ') + ':':<19} {value:.4f}" for key, value in payload.items()
        if key != "eval_examples"]
    text = "\n".join(lines) + "\n"
    _write_outputs(args.out, {"eval.txt": text, "eval.json": json.dumps(payload, indent=2) + "\n"})
    print(text, end="")
    return 0


def _cmd_report(args) -> int:
    record = RunRecord.from_json(Path(args.record).read_bytes())
    _check_top(args.top, record.basis_prompts)
    files = _report_files(record, args.top)
    _write_outputs(args.out, files)
    print(f"wrote {', '.join(sorted(files))} to {args.out}")
    return 0


def _basis_for_inspection(args):
    lm, _, stored = load_bundle(args.checkpoint) if args.checkpoint else (None, None, None)
    prompts = _resolve_basis_prompts(args, stored)
    # without a checkpoint, an unpretrained LM is enough to embed the prompts
    lm = lm or FrozenLM(td.Vocab.build(prompts), LMConfig(), args.seed)
    return composer.build_basis(prompts, lm)


def _cmd_ortho(args) -> int:
    basis = _basis_for_inspection(args)
    text = report.render_ortho(basis.prompts, basis.gram)
    _write_outputs(args.out, {"ortho.txt": text})
    print(text, end="")
    return 0


def _cmd_embed(args) -> int:
    basis = _basis_for_inspection(args)
    payload = {
        "prompts": basis.prompts,
        "padded_length": basis.length,
        "embed_dim": basis.embed_dim,
        "gram": [[f"{v:.4f}" for v in row] for row in basis.gram],
        "orthogonality_score": composer.orthogonality_score(basis.gram),
    }
    text = json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    _write_outputs(args.out, {"basis.json": text})
    print(text, end="")
    return 0


_COMMANDS = {
    "pretrain": _cmd_pretrain,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "report": _cmd_report,
    "ortho": _cmd_ortho,
    "embed": _cmd_embed,
}


def exit_code(run) -> int:
    """run()'s exit code; a validation error or a missing input path becomes
    exit 1, a runtime failure exit 2 and an interrupt (SIGINT) exit 130, each
    reported as one line on stderr. Floating-point warnings are silenced: a
    diverging run is reported by its loss check."""
    try:
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            return run()
    except (ValueError, KeyError, IndexError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def run_cli(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    return exit_code(lambda: check_out_dir(args.out) or _COMMANDS[args.command](args))


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
