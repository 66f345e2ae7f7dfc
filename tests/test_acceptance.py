"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The loss-reduction and
batch-stability criteria train real models and dominate the runtime.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from promptblend import rng as rngmod
from promptblend import textdata as td
from promptblend.checkpoint import load_bundle
from promptblend.cli import run_cli
from promptblend.composer import (DEFAULT_BASIS_PROMPTS, WeightPredictor, WeightVector,
                                  build_basis, combine, orthogonality_score,
                                  project_to_vocab, question_repr, top_contributors)
from promptblend.model import FrozenLM, LMConfig, PretrainConfig, pretrain, pretrain_examples
from promptblend.optim import AdamW
from promptblend.report import render_report
from promptblend.tensor import Tensor, cross_entropy
from promptblend.train import (ExampleEval, RunConfig, RunRecord, TrainConfig, control_eval,
                               prompted_eval, stability_metric, train)

from fdcheck import finite_difference, max_rel_error


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {num}: {desc}")
        raise
    print(f"\n[PASS] criterion {num}: {desc}")


@pytest.fixture(scope="module")
def small_lm():
    """A modest pretrained model shared by the cheap criteria."""
    examples = td.make_fixture(seed=3, n=80)
    train_set, _ = td.train_eval_split(examples, 0.2)
    cfg = PretrainConfig(epochs=3, model=LMConfig(embed_dim=32, num_heads=2,
                                                  ffn_dim=64, max_positions=128),
                         extra_vocab_texts=list(DEFAULT_BASIS_PROMPTS))
    lm = pretrain_examples(train_set, cfg, seed=7)
    return lm, examples


def test_criterion_1_gradient_correctness():
    with criterion(1, "end-to-end predictor gradients match finite differences "
                      "(d=8, V=50, h=1e-5, rel < 1e-4, < 1 minute)"):
        t_start = time.perf_counter()
        words = [f"w{i:02d}" for i in range(46)]
        vocab = td.Vocab.build([" ".join(words)])
        assert len(vocab) == 50
        gen = rngmod.stream(0, "crit1")
        corpus = []
        for _ in range(12):
            inp = " ".join(words[int(i)] for i in gen.integers(0, 46, size=6))
            tgt = " ".join(words[int(i)] for i in gen.integers(0, 46, size=3))
            corpus.append((inp, tgt))
        cfg = PretrainConfig(epochs=2, model=LMConfig(embed_dim=8, num_heads=2,
                                                      ffn_dim=16, max_positions=64),
                             extra_vocab_texts=[" ".join(words)])
        lm = pretrain(corpus, cfg, seed=1)
        assert len(lm.vocab) == 50
        basis = build_basis([" ".join(words[0:4]), " ".join(words[4:8]),
                             " ".join(words[8:12])], lm)
        pred = WeightPredictor.create(seed=2, in_dim=8, out_dim=3, hidden1=8,
                                      hidden2=8, dropout_p=0.1, final_scale=0.05)
        ids = td.tokenize(corpus[0][0], lm.vocab)
        tgt = td.tokenize(corpus[0][1], lm.vocab)
        q = question_repr(lm, [ids])[0]

        def forward() -> float:
            w = pred.forward(Tensor(q.reshape(1, -1)), rngmod.stream(3, "crit1-drop"))
            return float(lm.loss_with_prompt([combine(basis, w)], [ids], [tgt]).data)

        w = pred.forward(Tensor(q.reshape(1, -1)), rngmod.stream(3, "crit1-drop"))
        lm.loss_with_prompt([combine(basis, w)], [ids], [tgt]).backward()
        params = pred.parameters()
        analytic = [p.grad for p in params]
        numeric = finite_difference(forward, params, h=1e-5)
        err = max_rel_error(analytic, numeric)
        elapsed = time.perf_counter() - t_start
        assert err < 1e-4, f"max relative error {err}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_2_control_equivalence(small_lm):
    with criterion(2, "zero-initialized final layer gives prompted == control to "
                      "1e-12; all-zero prompts of length 1..8 leave loss unchanged"):
        lm, examples = small_lm
        _, eval_set = td.train_eval_split(examples, 0.2)
        basis = build_basis(DEFAULT_BASIS_PROMPTS, lm)
        pred = WeightPredictor.create(seed=4, in_dim=lm.config.embed_dim,
                                      out_dim=basis.size, final_scale=0.0)
        control = control_eval(lm, eval_set)
        result = prompted_eval(lm, pred, basis, eval_set)
        assert abs(result.mean_loss - control) <= 1e-12
        ex = eval_set[0]
        ids = td.tokenize(td.format_input(ex), lm.vocab)
        tgt = td.tokenize(td.format_target(ex), lm.vocab)
        base = float(lm.loss_with_prompt([None], [ids], [tgt]).data)
        for length in range(1, 9):
            z = Tensor(np.zeros((length, lm.config.embed_dim)))
            assert abs(float(lm.loss_with_prompt([z], [ids], [tgt]).data) - base) <= 1e-12


@pytest.fixture(scope="module")
def reduction_runs():
    """Criterion 3 workload: pretrained-then-frozen LM on fixture(1000, seed=3),
    then three 20-epoch predictor runs."""
    t_start = time.perf_counter()
    examples = td.make_fixture(seed=3, n=1000)
    train_set, eval_set = td.train_eval_split(examples, 0.2)
    lm = pretrain_examples(train_set, PretrainConfig(
        epochs=6, extra_vocab_texts=list(DEFAULT_BASIS_PROMPTS)), seed=100)
    basis = build_basis(DEFAULT_BASIS_PROMPTS, lm)
    control = control_eval(lm, eval_set)
    records = []
    for seed in (11, 12, 13):
        pred = WeightPredictor.create(seed=seed, in_dim=lm.config.embed_dim,
                                      out_dim=basis.size, dropout_p=0.1,
                                      final_scale=0.01)
        cfg = TrainConfig(epochs=20, batch_size=10, lr=3e-3, seed=seed)
        records.append(train(lm, pred, basis, train_set, eval_set, cfg))
    return lm, control, records, time.perf_counter() - t_start


def test_criterion_3_loss_reduction_vs_control(reduction_runs):
    with criterion(3, "20 epochs / batch 10 on fixture(1000, seed=3): prompted eval "
                      "beats control by >= 2% relative, median of 3 seeds, < 10 min"):
        lm, control, records, elapsed = reduction_runs
        reductions = [(control - r.prompted_eval_loss) / control for r in records]
        median = float(np.median(reductions))
        print(f"\n  control={control:.4f} reductions="
              f"{[f'{x * 100:+.2f}%' for x in reductions]} median={median * 100:+.2f}% "
              f"elapsed={elapsed:.0f}s")
        assert median >= 0.02, f"median relative reduction {median * 100:.2f}%"
        assert elapsed < 600.0, f"took {elapsed:.0f}s"
        # the paper-protocol curve also trends downward over training
        for r in records:
            assert r.epoch_means[-1] < r.epoch_means[0]


def test_criterion_4_batch_size_stability():
    with criterion(4, "batch-2 loss curve is more volatile than batch-10, "
                      "median over 5 paired seeds, same epochs"):
        examples = td.make_fixture(seed=3, n=300)
        train_set, eval_set = td.train_eval_split(examples, 0.2)
        lm = pretrain_examples(train_set, PretrainConfig(
            epochs=6, extra_vocab_texts=list(DEFAULT_BASIS_PROMPTS)), seed=200)
        basis = build_basis(DEFAULT_BASIS_PROMPTS, lm)
        diffs = []
        for seed in (1, 2, 3, 4, 5):
            metrics = {}
            for batch in (2, 10):
                pred = WeightPredictor.create(seed=seed, in_dim=lm.config.embed_dim,
                                              out_dim=basis.size, final_scale=0.01)
                cfg = TrainConfig(epochs=8, batch_size=batch, lr=3e-3, seed=seed)
                rec = train(lm, pred, basis, train_set, eval_set, cfg)
                metrics[batch] = stability_metric(rec)
            diffs.append(metrics[2] - metrics[10])
            print(f"\n  seed {seed}: stability batch2={metrics[2]:.5f} "
                  f"batch10={metrics[10]:.5f}")
        assert float(np.median(diffs)) > 0.0, f"paired differences {diffs}"


def test_criterion_5_combination_exactness(small_lm):
    with criterion(5, "one-hot weights reproduce basis embeddings bit-exactly; "
                      "linearity within 1e-10 on 1000 random draws"):
        lm, _ = small_lm
        basis = build_basis(DEFAULT_BASIS_PROMPTS, lm)
        for k in range(basis.size):
            w = np.zeros(basis.size)
            w[k] = 1.0
            prompt = combine(basis, Tensor(w))
            assert prompt.data.tobytes() == basis.embeddings[k].tobytes()
        gen = rngmod.stream(5, "crit5")
        for _ in range(1000):
            w1 = gen.normal(size=basis.size)
            w2 = gen.normal(size=basis.size)
            a, b = gen.normal(), gen.normal()
            lhs = combine(basis, Tensor(a * w1 + b * w2)).data
            rhs = (a * combine(basis, Tensor(w1)).data
                   + b * combine(basis, Tensor(w2)).data)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_criterion_6_interpretability_fidelity(small_lm):
    with criterion(6, "reported weight orderings reproduce the quoted tables; "
                      "reports use 4-decimal weights and hardest-first rows"):
        lm, _ = small_lm
        table4 = build_basis([
            "Prototype a computer program to compute the answer algorithmically",
            "Act out an exaggerated skit to depict the logic behind the answer",
            "Summarize the key insights needed to answer in a short poem",
        ], lm)
        ranked = top_contributors(WeightVector(np.array([1.4863, -0.0842, -0.8324])),
                                  table4.prompts, n=3)
        assert [p for p, _ in ranked] == table4.prompts
        four = build_basis(DEFAULT_BASIS_PROMPTS[:4], lm)
        reading = top_contributors(WeightVector(np.array([1.1, 0.0, -0.5, 3.0])),
                                   four.prompts, n=4)
        assert reading[0][0] == four.prompts[3]  # index 4 contributes most
        assert reading[-1][0] == four.prompts[2]  # index 3 is the inverse relation

        record = RunRecord(config=RunConfig(epochs=20, batch_size=10, lr=1e-3,
                                            weight_decay=0.01, dropout_p=0.1, seed=0,
                                            eval_every=0, prompt_length=table4.length),
                           basis_prompts=list(table4.prompts), gram=table4.gram.tolist())
        record.control_eval_loss = 8.5
        record.prompted_eval_loss = 8.1
        record.examples = [
            ExampleEval(id="b", question="mid", loss=8.08, weights=[0.1, 0.2, 0.3]),
            ExampleEval(id="a", question="hard", loss=8.39,
                        weights=[1.4863, -0.0842, -0.8324]),
            ExampleEval(id="c", question="easy", loss=7.93, weights=[0.3, 0.2, 0.1]),
        ]
        record.lm_param_hash = "x"
        text, json_text = render_report(record, n_top=3)
        assert [r["loss"] for r in json.loads(json_text)["examples"]] == [8.39, 8.08, 7.93]
        assert "(1.4863)" in text
        assert "(-0.0842)" in text
        assert "(-0.8324)" in text


def test_criterion_7_oracle_equivalences(small_lm):
    with criterion(7, "uniform cross-entropy = ln V to 1e-9; AdamW first step matches "
                      "the closed form to 1e-9; projection matches exhaustive scan"):
        for v in (8, 50, 171):
            loss = cross_entropy(Tensor(np.zeros((3, v))), [[1, 2, 3 % v]], pad_id=0)
            assert abs(float(loss.data) - math.log(v)) < 1e-9
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.ones(1)
        AdamW([p], lr=0.1, weight_decay=0.0).step()
        closed_form = 1.0 - 0.1 * 1.0 / (1.0 + 1e-8)
        assert abs(float(p.data[0]) - closed_form) < 1e-9

        lm, _ = small_lm
        gen = rngmod.stream(6, "crit7")
        rows = gen.normal(size=(100, lm.config.embed_dim))
        table = lm.params["embedding"].data
        got = project_to_vocab(rows, lm)
        for row, (tok, cos) in zip(rows, got):
            best_tok, best_cos = None, -np.inf
            for j in range(table.shape[0]):
                norm = np.linalg.norm(table[j])
                if norm == 0.0:
                    continue
                c = float(table[j] @ row / (norm * np.linalg.norm(row)))
                if c > best_cos:
                    best_tok, best_cos = lm.vocab.id_to_token[j], c
            assert tok == best_tok and abs(cos - best_cos) < 1e-12


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "identical train invocations produce byte-identical curve.csv "
                      "and report files; frozen-LM hash unchanged by training"):
        args = ["train", "--fixture-size", "40", "--fixture-seed", "5",
                "--pretrain-epochs", "2", "--epochs", "2", "--batch-size", "10",
                "--seed", "9"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        for name in ("curve.csv", "report.txt", "report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        record = RunRecord.from_json((out1 / "record.json").read_text())
        lm, _, _ = load_bundle(out1 / "checkpoint.pbld")
        assert lm.frozen
        assert lm.param_hash() == record.lm_param_hash


def test_criterion_9_orthogonality_analyzer(small_lm):
    with criterion(9, "duplicate basis scores 0.0; orthogonal construction scores "
                      "1.0; random bases stay in [0, 1]"):
        lm, _ = small_lm
        dup = build_basis(["repeat me", "repeat me"], lm)
        assert orthogonality_score(dup.gram) == 0.0
        vocab = td.Vocab.build(["aa bb cc dd"])
        config = LMConfig(embed_dim=len(vocab), num_heads=2, ffn_dim=8,
                          max_positions=16)
        ortho_lm = FrozenLM(vocab, config, seed=1)
        ortho_lm.params["embedding"].data[:] = np.eye(len(vocab))
        ortho_lm.params["embedding"].data[td.PAD_ID, :] = 0.0
        ortho_lm.set_frozen(True)
        assert orthogonality_score(build_basis(["aa bb", "cc dd"], ortho_lm).gram) == 1.0
        gen = rngmod.stream(7, "crit9")
        words = lm.vocab.non_reserved()
        for _ in range(100):
            k = int(gen.integers(2, 7))
            prompts = [" ".join(words[int(i)] for i in
                                gen.integers(0, len(words), size=4)) for _ in range(k)]
            score = orthogonality_score(build_basis(prompts, lm).gram)
            assert 0.0 <= score <= 1.0
