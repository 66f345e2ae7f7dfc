"""Command-line entry point.

Subcommands: pretrain, embed, train, eval, report, ortho. Exit codes:
0 success, 1 validation error, 2 runtime failure. Output directories are
staged in a temp dir and moved on success, so failures never leave
partial outputs.
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

from . import composer, report
from . import textdata as td
from .checkpoint import bundle_bytes, load_bundle
from .composer import WeightPredictor
from .model import FrozenLM, LMConfig, PretrainConfig, pretrain
from .train import RunRecord, TrainConfig
from .train import control_eval as _control_eval
from .train import prompted_eval as _prompted_eval
from .train import train as _train

DEFAULT_FIXTURE_SEED = 3
SPLIT_SEED = 0  # dataset split is independent of the run seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promptblend",
        description="Continuous prompts as learned combinations of discrete prompt embeddings.",
    )
    sub = parser.add_subparsers(dest="command")

    def add_data_flags(p):
        p.add_argument("--data", default="fixture",
                       help="dataset path, or 'fixture' for the bundled synthetic set")
        p.add_argument("--fixture-size", type=int, default=1000)
        p.add_argument("--fixture-seed", type=int, default=DEFAULT_FIXTURE_SEED)
        p.add_argument("--val-fraction", type=float, default=0.2)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="run seed; falls back to PROMPTBLEND_SEED, then 0")
        p.add_argument("--basis", default="default",
                       help="basis file path, or 'default' for the built-in prompts")

    p = sub.add_parser("pretrain", help="pretrain and freeze the base model")
    add_data_flags(p)
    add_common(p)
    p.add_argument("--epochs", type=int, default=6)
    p.add_argument("--batch-size", type=int, default=10)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train the weight predictor against a frozen model")
    add_data_flags(p)
    add_common(p)
    p.add_argument("--checkpoint", default=None,
                   help="frozen model checkpoint; omitted means pretrain in-process")
    p.add_argument("--pretrain-epochs", type=int, default=6)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=10)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--weight-decay", type=float, default=0.01)
    p.add_argument("--prompt-length", type=int, default=0,
                   help="padded prompt length; 0 uses the longest basis prompt")
    p.add_argument("--final-init-scale", type=float, default=0.01)
    p.add_argument("--eval-every", type=int, default=0)
    p.add_argument("--top", type=int, default=3)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="control and prompted evaluation from a checkpoint")
    add_data_flags(p)
    add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("report", help="re-render report files from a saved run record")
    p.add_argument("--record", required=True)
    p.add_argument("--checkpoint", default=None,
                   help="checkpoint for basis embeddings; defaults to the record's sibling")
    p.add_argument("--top", type=int, default=3)
    p.add_argument("--out", required=True)

    p = sub.add_parser("ortho", help="orthogonality report for a prompt basis")
    add_common(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--prompt-length", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("embed", help="embed a basis and summarize it")
    add_common(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--prompt-length", type=int, default=0)
    p.add_argument("--out", default=None)

    return parser


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return int(os.environ.get("PROMPTBLEND_SEED", "0"))


def _positive(value: int, flag: str) -> int:
    if value < 1:
        raise ValueError(f"{flag} must be at least 1, got {value}")
    return value


def _check_prompt_length(length: int, prompts: list[str], examples: list[td.QAExample],
                         max_positions: int) -> None:
    """Reject a --prompt-length (0: the longest basis prompt) that cannot hold
    every basis prompt, or whose prompt and longest input together exceed
    max_positions; token counts need no vocabulary."""
    longest = max((len(td.split_tokens(p)) for p in prompts), default=0)
    if 0 < length < longest:
        raise ValueError(f"--prompt-length {length} is shorter than the longest basis "
                         f"prompt ({longest} tokens)")
    rows = length if length > 0 else longest
    longest_input = max(len(td.split_tokens(td.format_input(ex))) for ex in examples)
    if rows + longest_input > max_positions:
        raise ValueError(f"--prompt-length {rows} plus the longest input ({longest_input} "
                         f"tokens) exceeds max_positions {max_positions}")


def _resolve_examples(args) -> list[td.QAExample]:
    if args.data == "fixture":
        _positive(args.fixture_size, "--fixture-size")
        return td.make_fixture(args.fixture_seed, args.fixture_size)
    examples = td.load_dataset(args.data)
    if not examples:
        raise ValueError(f"dataset {args.data} contains no examples")
    return examples


def _resolve_basis_prompts(args) -> list[str]:
    if args.basis == "default":
        return list(composer.DEFAULT_BASIS_PROMPTS)
    return composer.load_basis_file(args.basis)


def _write_outputs(out_dir, files: dict) -> None:
    out = Path(out_dir)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".promptblend-", dir=out.parent))
    try:
        for name, content in files.items():
            path = tmp / name
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content, encoding="utf-8")
        out.mkdir(exist_ok=True)
        for name in files:
            os.replace(tmp / name, out / name)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _pretrain_lm(train_set, basis_prompts, seed, epochs, batch_size=10, lr=3e-3) -> FrozenLM:
    corpus = [(td.format_input(ex), td.format_target(ex)) for ex in train_set]
    config = PretrainConfig(epochs=epochs, batch_size=batch_size, lr=lr,
                            model=LMConfig(), extra_vocab_texts=list(basis_prompts))
    return pretrain(corpus, config, seed)


def _fresh_lm(basis_prompts, seed) -> FrozenLM:
    # unpretrained stand-in: enough for embedding-only workflows
    vocab = td.Vocab.build(basis_prompts)
    lm = FrozenLM(vocab, LMConfig(), seed)
    lm.set_frozen(True)
    return lm


def _cmd_pretrain(args) -> int:
    seed = _resolve_seed(args)
    _positive(args.epochs, "--epochs")
    _positive(args.batch_size, "--batch-size")
    examples = _resolve_examples(args)
    train_set, _ = td.train_eval_split(examples, args.val_fraction, SPLIT_SEED)
    basis_prompts = _resolve_basis_prompts(args)
    lm = _pretrain_lm(train_set, basis_prompts, seed, args.epochs, args.batch_size, args.lr)
    _write_outputs(args.out, {"checkpoint.pbld": bundle_bytes(lm, basis_prompts=basis_prompts)})
    rec = lm.pretrain_record
    print(f"pretrained on {len(train_set)} examples: initial loss "
          f"{rec['initial_loss']:.4f}, final epoch mean {rec['epoch_means'][-1]:.4f}")
    print(f"wrote {Path(args.out) / 'checkpoint.pbld'}")
    return 0


def _cmd_train(args) -> int:
    seed = _resolve_seed(args)
    _positive(args.epochs, "--epochs")
    _positive(args.batch_size, "--batch-size")
    _positive(args.top, "--top")
    if not (math.isfinite(args.final_init_scale) and args.final_init_scale >= 0):
        raise ValueError(f"--final-init-scale must be a finite non-negative number, "
                         f"got {args.final_init_scale}")
    config = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
                         weight_decay=args.weight_decay, dropout_p=args.dropout,
                         seed=seed, eval_every=args.eval_every)
    examples = _resolve_examples(args)
    train_set, eval_set = td.train_eval_split(examples, args.val_fraction, SPLIT_SEED)
    basis_prompts = _resolve_basis_prompts(args)
    if args.checkpoint:
        lm, _, ck_prompts = load_bundle(args.checkpoint)
        lm.set_frozen(True)
        if ck_prompts and args.basis == "default":
            basis_prompts = ck_prompts
        _check_prompt_length(args.prompt_length, basis_prompts, examples,
                             lm.config.max_positions)
    else:
        _positive(args.pretrain_epochs, "--pretrain-epochs")
        _check_prompt_length(args.prompt_length, basis_prompts, examples,
                             LMConfig().max_positions)
        lm = _pretrain_lm(train_set, basis_prompts, seed, args.pretrain_epochs)
    length = args.prompt_length if args.prompt_length > 0 else None
    basis = composer.build_basis(basis_prompts, lm, length)
    predictor = WeightPredictor.create(seed, lm.config.embed_dim, basis.size,
                                       dropout_p=args.dropout,
                                       final_scale=args.final_init_scale)
    record = _train(lm, predictor, basis, train_set, eval_set, config)
    bundle = report.render_report(record, basis, n_top=args.top)
    curve = report.render_curve_csv(record)
    pred_meta = {"seed": seed, "final_init_scale": args.final_init_scale}
    files = {
        "curve.csv": curve,
        "report.txt": bundle.text,
        "report.json": bundle.json_text,
        "record.json": record.to_json() + "\n",
        "checkpoint.pbld": bundle_bytes(lm, predictor, basis_prompts, pred_meta),
    }
    _write_outputs(args.out, files)
    print(f"control eval loss:  {record.control_eval_loss:.4f}")
    print(f"prompted eval loss: {record.prompted_eval_loss:.4f}")
    print(f"wrote {', '.join(sorted(files))} to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    _resolve_seed(args)
    examples = _resolve_examples(args)
    lm, predictor, ck_prompts = load_bundle(args.checkpoint)
    _, eval_set = td.train_eval_split(examples, args.val_fraction, SPLIT_SEED)
    payload = {"eval_examples": len(eval_set)}
    if predictor is None:
        payload["control_eval_loss"] = _control_eval(lm, eval_set)
    else:
        prompts = ck_prompts if args.basis == "default" and ck_prompts \
            else _resolve_basis_prompts(args)
        result = _prompted_eval(lm, predictor, composer.build_basis(prompts, lm), eval_set)
        payload.update(control_eval_loss=result.control_loss,
                       prompted_eval_loss=result.mean_loss, prompted_accuracy=result.accuracy)
    # each value prints as e.g. "control eval loss:  3.4992"
    lines = [f"eval examples: {len(eval_set)}"] + [
        f"{key.replace('_', ' ') + ':':<19} {value:.4f}" for key, value in payload.items()
        if key != "eval_examples"]
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_outputs(args.out, {"eval.txt": text,
                                  "eval.json": json.dumps(payload, indent=2) + "\n"})
    print(text, end="")
    return 0


def _cmd_report(args) -> int:
    _positive(args.top, "--top")
    record_path = Path(args.record)
    record = RunRecord.from_json(record_path.read_text(encoding="utf-8"))
    ck = args.checkpoint or str(record_path.parent / "checkpoint.pbld")
    if not Path(ck).exists():
        raise ValueError(f"checkpoint {ck} not found; pass --checkpoint")
    lm, _, _ = load_bundle(ck)
    basis = composer.build_basis(record.basis_prompts, lm,
                                 record.config.get("prompt_length") or None)
    bundle = report.render_report(record, basis, n_top=args.top)
    files = {
        "curve.csv": report.render_curve_csv(record),
        "report.txt": bundle.text,
        "report.json": bundle.json_text,
    }
    _write_outputs(args.out, files)
    print(f"wrote {', '.join(sorted(files))} to {args.out}")
    return 0


def _basis_for_inspection(args):
    seed = _resolve_seed(args)
    prompts = _resolve_basis_prompts(args)
    if args.checkpoint:
        lm, _, _ = load_bundle(args.checkpoint)
    else:
        lm = _fresh_lm(prompts, seed)
    length = args.prompt_length if args.prompt_length > 0 else None
    return composer.build_basis(prompts, lm, length)


def _cmd_ortho(args) -> int:
    basis = _basis_for_inspection(args)
    text, _ = report.render_ortho(basis)
    if args.out:
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
        "orthogonality_score": composer.orthogonality_score(basis),
    }
    text = json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    if args.out:
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


def run_cli(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
