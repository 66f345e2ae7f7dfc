#!/usr/bin/env python3
"""Batch-size stability experiment: batch 2 vs batch 10, paired seeds.

Trains the predictor twice per seed with identical everything except the
batch size, then compares the volatility (std of first differences) of
the per-epoch mean loss curves. Writes one loss-curve CSV per run.
"""

import argparse
import sys

import promptblend  # noqa: F401  (sets the numeric runtime before numpy loads)
import numpy as np

from promptblend import textdata as td
from promptblend.cli import (FIXTURE_SIZE, NON_NEGATIVE, SEED, _write_outputs, at_least,
                             check_out_dir, exit_code)
from promptblend.composer import DEFAULT_BASIS_PROMPTS, WeightPredictor, build_basis
from promptblend.model import PretrainConfig, pretrain_examples
from promptblend.report import render_curve_csv
from promptblend.train import RunRecord, TrainConfig, stability_metric, train


def render_curves(records: list[RunRecord]) -> tuple[list[str], str]:
    """One CSV per record plus a volatility comparison summary."""
    if not records:
        raise ValueError("need at least one record")
    epoch_counts = {len(r.epoch_means) for r in records}
    if len(epoch_counts) != 1:
        raise ValueError(f"records disagree on epoch count: {sorted(epoch_counts)}")
    csvs = [render_curve_csv(r) for r in records]
    lines = ["loss-curve comparison", "---------------------"]
    metrics = []
    for r in records:
        m = stability_metric(r)
        metrics.append(m)
        lines.append(f"batch_size={r.config.batch_size} epochs={len(r.epoch_means)} "
                     f"stability={m!r}")
    if len(records) == 2 and metrics[0] != metrics[1]:
        if min(metrics) > 0:
            lines.append(f"volatility ratio: {max(metrics) / min(metrics):.3f}")
        noisier = records[int(np.argmax(metrics))]
        lines.append(f"higher volatility: batch_size={noisier.config.batch_size}")
    return csvs, "\n".join(lines) + "\n"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/stability")
    ap.add_argument("--fixture-size", type=FIXTURE_SIZE, default=300)
    ap.add_argument("--fixture-seed", type=SEED, default=3)
    ap.add_argument("--pretrain-epochs", type=at_least(1), default=6)
    # the stability metric differences epoch means, so it needs two of them
    ap.add_argument("--epochs", type=at_least(2), default=8)
    ap.add_argument("--seeds", type=SEED, nargs="+", default=[1, 2, 3, 4, 5])
    ap.add_argument("--lr", type=NON_NEGATIVE, default=3e-3)
    args = ap.parse_args()
    check_out_dir(args.out)
    examples = td.make_fixture(args.fixture_seed, args.fixture_size)
    train_set, eval_set = td.train_eval_split(examples, 0.2)
    if not train_set:
        raise ValueError(f"--fixture-size {args.fixture_size} leaves no training example "
                         f"after the 0.2 eval split")
    lm = pretrain_examples(train_set, PretrainConfig(epochs=args.pretrain_epochs,
                                                     extra_vocab_texts=DEFAULT_BASIS_PROMPTS),
                           seed=args.fixture_seed)
    basis = build_basis(DEFAULT_BASIS_PROMPTS, lm)

    diffs = []
    print(f"{'seed':>4} {'batch2':>10} {'batch10':>10} {'noisier'}")
    for seed in args.seeds:
        records = []
        for batch in (2, 10):
            pred = WeightPredictor.create(seed=seed, in_dim=lm.config.embed_dim,
                                          out_dim=basis.size)
            cfg = TrainConfig(epochs=args.epochs, batch_size=batch, lr=args.lr,
                              seed=seed)
            records.append(train(lm, pred, basis, train_set, eval_set, cfg))
        csvs, summary = render_curves(records)
        files = {f"curve_seed{seed}_batch{rec.config.batch_size}.csv": csv_text
                 for rec, csv_text in zip(records, csvs)}
        _write_outputs(args.out, {**files, f"summary_seed{seed}.txt": summary})
        m2, m10 = stability_metric(records[0]), stability_metric(records[1])
        diffs.append(m2 - m10)
        noisier = "batch 2" if m2 > m10 else "batch 10" if m10 > m2 else "tie"
        print(f"{seed:>4} {m2:>10.5f} {m10:>10.5f} {noisier}")
    print(f"median volatility difference (batch2 - batch10): {np.median(diffs):+.5f}")
    print(f"curves written to {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
