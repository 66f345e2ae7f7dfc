#!/usr/bin/env python3
"""Batch-size stability experiment: batch 2 vs batch 10, paired seeds.

Trains the predictor twice per seed with identical everything except the
batch size, then compares the volatility (std of first differences) of
the per-epoch mean loss curves. Writes one loss-curve CSV per run.
"""

import argparse
from pathlib import Path

import promptblend  # noqa: F401  (sets the one-thread BLAS default before numpy loads)
import numpy as np

from promptblend import textdata as td
from promptblend.composer import DEFAULT_BASIS_PROMPTS, WeightPredictor, build_basis
from promptblend.model import PretrainConfig, pretrain
from promptblend.report import render_curves
from promptblend.train import TrainConfig, stability_metric, train


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/stability")
    ap.add_argument("--fixture-size", type=int, default=300)
    ap.add_argument("--fixture-seed", type=int, default=3)
    ap.add_argument("--pretrain-epochs", type=int, default=6)
    ap.add_argument("--epochs", type=int, default=8)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    ap.add_argument("--lr", type=float, default=3e-3)
    args = ap.parse_args()

    examples = td.make_fixture(args.fixture_seed, args.fixture_size)
    train_set, eval_set = td.train_eval_split(examples, 0.2, seed=0)
    corpus = [(td.format_input(e), td.format_target(e)) for e in train_set]
    lm = pretrain(corpus, PretrainConfig(epochs=args.pretrain_epochs,
                                         extra_vocab_texts=DEFAULT_BASIS_PROMPTS),
                  seed=args.fixture_seed)
    basis = build_basis(DEFAULT_BASIS_PROMPTS, lm)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
        for rec, csv_text in zip(records, csvs):
            name = f"curve_seed{seed}_batch{rec.config['batch_size']}.csv"
            (out / name).write_text(csv_text)
        (out / f"summary_seed{seed}.txt").write_text(summary)
        m2, m10 = stability_metric(records[0]), stability_metric(records[1])
        diffs.append(m2 - m10)
        print(f"{seed:>4} {m2:>10.5f} {m10:>10.5f} "
              f"{'batch 2' if m2 > m10 else 'batch 10'}")
    print(f"median volatility difference (batch2 - batch10): {np.median(diffs):+.5f}")
    print(f"curves written to {out}/")


if __name__ == "__main__":
    main()
