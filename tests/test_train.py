import gc
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from promptblend import rng as rngmod
from promptblend import textdata as td
from promptblend.composer import WeightPredictor, build_basis, combine, question_repr
from promptblend.model import (FrozenContractError, FrozenLM, LMConfig,
                               PretrainConfig, pretrain)
from promptblend.tensor import Tensor
from promptblend.train import (DivergenceError, RunRecord, StepRecord, TrainConfig,
                               _batch_loss, _ExampleCache, control_eval,
                               prompted_eval, stability_metric, train)

SMALL = LMConfig(embed_dim=16, num_heads=2, ffn_dim=32, max_positions=128)
BASIS_PROMPTS = [
    "Generate a flowchart to visually represent the logic needed to answer the question",
    "Write pseudocode for an algorithm that could determine the answer",
    "Summarize the key insights needed to answer in a short poem",
]


@pytest.fixture(scope="module")
def setup():
    examples = td.make_fixture(seed=13, n=60)
    train_set, eval_set = td.train_eval_split(examples, 0.25, seed=0)
    corpus = [(td.format_input(e), td.format_target(e)) for e in train_set]
    cfg = PretrainConfig(epochs=2, model=SMALL, extra_vocab_texts=BASIS_PROMPTS)
    lm = pretrain(corpus, cfg, seed=21)
    basis = build_basis(BASIS_PROMPTS, lm)
    return lm, basis, train_set, eval_set


def _predictor(lm, basis, seed=1, final_scale=0.01, dropout_p=0.1):
    return WeightPredictor.create(seed=seed, in_dim=lm.config.embed_dim,
                                  out_dim=basis.size, hidden1=16, hidden2=16,
                                  dropout_p=dropout_p, final_scale=final_scale)


class TestTrainConfig:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)

    def test_zero_batch_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)

    def test_defaults_match_protocol(self):
        cfg = TrainConfig()
        assert cfg.epochs == 20
        assert cfg.batch_size == 10


class TestTrain:
    def test_epoch_means_recompute_from_step_losses(self, setup):
        # the record is the loss curve: per-epoch means must equal the mean
        # of the exact per-step losses, with no smoothing
        lm, basis, train_set, eval_set = setup
        cfg = TrainConfig(epochs=3, batch_size=10, seed=2)
        record = train(lm, _predictor(lm, basis), basis, train_set, eval_set, cfg)
        for epoch, mean in enumerate(record.epoch_means, start=1):
            losses = [s.loss for s in record.steps if s.epoch == epoch]
            assert mean == pytest.approx(np.mean(losses), abs=1e-15)

    def test_same_seed_reproduces_the_record(self, setup):
        lm, basis, train_set, eval_set = setup
        cfg = TrainConfig(epochs=2, batch_size=10, seed=5)
        a = train(lm, _predictor(lm, basis, seed=3), basis, train_set, eval_set, cfg)
        b = train(lm, _predictor(lm, basis, seed=3), basis, train_set, eval_set, cfg)
        da, db = a.to_dict(), b.to_dict()
        da.pop("wall_clock_seconds")
        db.pop("wall_clock_seconds")
        assert da == db

    def test_lm_parameters_bit_frozen(self, setup):
        lm, basis, train_set, eval_set = setup
        before = lm.param_hash()
        cfg = TrainConfig(epochs=1, batch_size=10, seed=6)
        record = train(lm, _predictor(lm, basis), basis, train_set, eval_set, cfg)
        assert lm.param_hash() == before
        assert record.lm_param_hash == before

    def test_basis_embeddings_never_updated(self, setup):
        lm, basis, train_set, eval_set = setup
        snapshot = basis.embeddings.copy()
        cfg = TrainConfig(epochs=1, batch_size=10, seed=7)
        train(lm, _predictor(lm, basis), basis, train_set, eval_set, cfg)
        assert np.array_equal(basis.embeddings, snapshot)

    def test_predictor_parameters_do_update(self, setup):
        lm, basis, train_set, eval_set = setup
        pred = _predictor(lm, basis)
        before = [p.data.copy() for p in pred.parameters()]
        cfg = TrainConfig(epochs=1, batch_size=10, seed=8)
        train(lm, pred, basis, train_set, eval_set, cfg)
        assert any(not np.array_equal(b, p.data)
                   for b, p in zip(before, pred.parameters()))

    def test_unfrozen_lm_rejected(self, setup):
        lm, basis, train_set, eval_set = setup
        try:
            lm.set_frozen(False)
            with pytest.raises(FrozenContractError):
                train(lm, _predictor(lm, basis), basis, train_set, eval_set,
                      TrainConfig(epochs=1, seed=0))
        finally:
            lm.set_frozen(True)

    def test_empty_dataset_rejected(self, setup):
        lm, basis, _, eval_set = setup
        with pytest.raises(ValueError):
            train(lm, _predictor(lm, basis), basis, [], eval_set,
                  TrainConfig(epochs=1, seed=0))

    def test_divergence_aborts_with_step_index(self, setup):
        lm, basis, train_set, eval_set = setup
        pred = _predictor(lm, basis)
        pred.w1.data[0, 0] = np.inf
        with pytest.raises(DivergenceError, match="step 1"):
            train(lm, pred, basis, train_set, eval_set, TrainConfig(epochs=1, seed=0))

    def test_overlong_example_rejected_before_any_step(self, setup):
        lm, basis, train_set, eval_set = setup
        long = td.QAExample(id="long-one", question=" ".join(["word"] * 120) + "?",
                            answer_key="A", choices=train_set[0].choices)
        pred = _predictor(lm, basis)
        before = [p.data.copy() for p in pred.parameters()]
        with pytest.raises(ValueError, match="example 'long-one': prompt\\+input length"):
            train(lm, pred, basis, train_set + [long], eval_set, TrainConfig(epochs=1, seed=0))
        assert all(np.array_equal(b, p.data) for b, p in zip(before, pred.parameters()))

    def test_step_records_are_monotone_and_finite(self, setup):
        lm, basis, train_set, eval_set = setup
        cfg = TrainConfig(epochs=2, batch_size=7, seed=9)
        record = train(lm, _predictor(lm, basis), basis, train_set, eval_set, cfg)
        steps = [s.step for s in record.steps]
        assert steps == sorted(steps)
        assert len(set(steps)) == len(steps)
        assert all(np.isfinite(s.loss) for s in record.steps)
        # last short batch is kept, not dropped
        per_epoch = [s for s in record.steps if s.epoch == 1]
        assert sum(s.batch_size for s in per_epoch) == len(train_set)

    def test_eval_every_records_intermediate_points(self, setup):
        lm, basis, train_set, eval_set = setup
        cfg = TrainConfig(epochs=1, batch_size=10, seed=10, eval_every=2)
        record = train(lm, _predictor(lm, basis), basis, train_set, eval_set, cfg)
        assert len(record.eval_losses) >= 2
        assert record.eval_losses[-1][1] == record.prompted_eval_loss

    def test_record_json_round_trip(self, setup):
        lm, basis, train_set, eval_set = setup
        cfg = TrainConfig(epochs=1, batch_size=10, seed=11)
        record = train(lm, _predictor(lm, basis), basis, train_set, eval_set, cfg)
        back = RunRecord.from_json(record.to_json())
        assert back.to_dict() == record.to_dict()

    def test_malformed_record_is_a_value_error(self):
        good = RunRecord(config={}, basis_prompts=["p"])
        good.steps.append(StepRecord(epoch=1, step=1, batch_size=2, loss=0.5))
        for edit in (lambda d: d["steps"][0].pop("loss"), lambda d: d.pop("examples"),
                     lambda d: d.update(extra=1), lambda d: d.update(steps=3)):
            d = good.to_dict()
            edit(d)
            with pytest.raises(ValueError, match="malformed"):
                RunRecord.from_dict(d)


class TestControlEval:
    def test_matches_zero_weight_prompted_eval(self, setup):
        lm, basis, _, eval_set = setup
        pred = _predictor(lm, basis, final_scale=0.0)
        control = control_eval(lm, eval_set)
        result = prompted_eval(lm, pred, basis, eval_set)
        assert abs(result.mean_loss - control) <= 1e-12
        assert all(np.all(w.values == 0.0) for w in result.weights)

    def test_permutation_invariant(self, setup):
        lm, _, _, eval_set = setup
        a = control_eval(lm, eval_set)
        b = control_eval(lm, list(reversed(eval_set)))
        assert a == b

    def test_untrained_model_scores_log_vocab(self):
        examples = td.make_fixture(seed=14, n=6)
        texts = [td.format_input(e) for e in examples]
        texts += [td.format_target(e) for e in examples]
        lm = FrozenLM(td.Vocab.build(texts), SMALL, seed=0)
        lm.set_frozen(True)
        control = control_eval(lm, examples)
        assert abs(control - math.log(len(lm.vocab))) / math.log(len(lm.vocab)) < 0.05

    def test_empty_set_rejected(self, setup):
        lm, _, _, _ = setup
        with pytest.raises(ValueError):
            control_eval(lm, [])

    def test_tokenizes_only_the_input_and_the_gold_target(self, setup, monkeypatch):
        lm, _, _, eval_set = setup
        texts = []
        tokenize = td.tokenize
        monkeypatch.setattr(td, "tokenize",
                            lambda text, vocab: texts.append(text) or tokenize(text, vocab))
        control_eval(lm, eval_set)
        assert texts == [text for ex in eval_set
                         for text in (td.format_input(ex), td.format_target(ex))]


class TestPromptedEval:
    def test_returns_weights_per_example(self, setup):
        lm, basis, _, eval_set = setup
        result = prompted_eval(lm, _predictor(lm, basis), basis, eval_set)
        assert len(result.weights) == len(eval_set)
        assert len(result.losses) == len(eval_set)

    def test_deterministic(self, setup):
        lm, basis, _, eval_set = setup
        pred = _predictor(lm, basis)
        a = prompted_eval(lm, pred, basis, eval_set)
        b = prompted_eval(lm, pred, basis, eval_set)
        assert a.mean_loss == b.mean_loss
        assert all(np.array_equal(x.values, y.values)
                   for x, y in zip(a.weights, b.weights))

    def test_full_batch_zero_lr_is_a_fixed_point(self, setup):
        lm, basis, train_set, eval_set = setup
        pred = _predictor(lm, basis, dropout_p=0.0)
        before = prompted_eval(lm, pred, basis, eval_set).mean_loss
        cfg = TrainConfig(epochs=2, batch_size=len(train_set), lr=0.0,
                          weight_decay=0.0, dropout_p=0.0, seed=12)
        train(lm, pred, basis, train_set, eval_set, cfg)
        after = prompted_eval(lm, pred, basis, eval_set).mean_loss
        assert before == after


def _agree(got, want, rel=1e-12):
    return len(got) == len(want) and all(abs(g - w) <= rel * abs(w) for g, w in zip(got, want))


def _with_choice_count(ex, n, donor):
    """`ex` with n of 3..5 choices: its own plus `donor`'s first, less
    non-gold ones from the end, relabelled A, B, ... in order."""
    pool = ex.choices + donor.choices[:1]
    gold = ex.answer_index()
    keep = list(range(len(pool)))
    while len(keep) > n:
        keep.remove(next(i for i in reversed(keep) if i != gold))
    return td.QAExample(id=f"{ex.id}-{n}", question=ex.question,
                        choices=[td.Choice(label, pool[i].text)
                                 for label, i in zip("ABCDE", keep)],
                        answer_key="ABCDE"[keep.index(gold)])


def _fixed_predictor(lm, basis, weights):
    # a zero last layer passes its bias through exactly, so the eval-mode
    # weights are the drawn ones
    pred = _predictor(lm, basis, final_scale=0.0)
    pred.b3.data[:] = weights
    return pred


class TestEvalPass:
    @settings(max_examples=20, deadline=None)
    @given(index=st.integers(0, 14),
           weights=st.one_of(st.just([0.0, 0.0, 0.0]),
                             st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3)))
    def test_pass_matches_separate_forwards(self, setup, index, weights):
        lm, basis, _, eval_set = setup
        ex = eval_set[index]
        ids = td.tokenize(td.format_input(ex), lm.vocab)
        choice_ids = [td.tokenize(td.format_choice(c), lm.vocab) for c in ex.choices]
        prompt = combine(basis, Tensor(np.array(weights)))
        separate = [float(lm.loss_with_prompt([prompt], [ids], [c]).data)
                    for c in choice_ids]
        # the choices are decoded as one batch, which reorders sums
        assert _agree(lm.score_choices([prompt], [ids], [choice_ids])[0], separate)

        cache = _ExampleCache(lm)
        result = prompted_eval(lm, _fixed_predictor(lm, basis, weights), basis, [ex], cache)
        entry = cache.get(ex)
        assert np.all(entry.q == question_repr(lm, [ids])[0])
        control = float(lm.loss_with_prompt([None], [ids], [td.tokenize(td.format_target(ex),
                                                                     lm.vocab)]).data)
        assert entry.control == control == result.control_loss
        assert np.all(result.weights[0].values == np.array(weights))
        assert _agree(result.losses, [separate[ex.answer_index()]])
        assert result.accuracy == float(int(np.argmin(separate)) == ex.answer_index())

    @settings(max_examples=20, deadline=None)
    @given(picks=st.lists(st.tuples(st.integers(0, 14), st.sampled_from([3, 4, 5])),
                          min_size=1, max_size=7, unique=True),
           predictor_seed=st.none() | st.integers(0, 99))
    @example(picks=[(0, 3), (1, 5), (2, 4), (3, 3), (4, 5)], predictor_seed=None)
    @example(picks=[(5, 5), (6, 3), (7, 4)], predictor_seed=3)
    def test_packed_pass_matches_one_example_at_a_time(self, setup, picks, predictor_seed):
        # predictor_seed None gives all-zero prompts; otherwise each example
        # gets its own weights from a predictor with a large last layer
        lm, basis, _, eval_set = setup
        examples = [_with_choice_count(eval_set[i], n, eval_set[(i + 1) % 15])
                    for i, n in picks]
        pred = (_fixed_predictor(lm, basis, [0.0] * basis.size) if predictor_seed is None
                else _predictor(lm, basis, seed=predictor_seed, final_scale=1.0))
        cache = _ExampleCache(lm, basis.length)
        result = prompted_eval(lm, pred, basis, examples, cache)
        lowest, decisive = 0, 0
        for ex, wv, loss in zip(examples, result.weights, result.losses):
            ids = td.tokenize(td.format_input(ex), lm.vocab)
            gold = ex.answer_index()
            prompt = combine(basis, Tensor(wv.values))
            alone = [float(lm.loss_with_prompt([prompt], [ids], [td.tokenize(
                td.format_choice(c), lm.vocab)]).data) for c in ex.choices]
            assert _agree([loss], [alone[gold]])
            control = float(lm.loss_with_prompt([None], [ids], [td.tokenize(
                td.format_target(ex), lm.vocab)]).data)
            assert _agree([cache.get(ex).control], [control])
            first, second = sorted(alone)[:2]
            if second - first > 1e-9 * abs(second):
                decisive += 1
                lowest += int(np.argmin(alone)) == gold
        n = len(examples)
        assert lowest <= round(result.accuracy * n) <= lowest + n - decisive

    def test_training_entry_is_rebuilt_for_scoring(self, setup):
        lm, _, train_set, _ = setup
        cache = _ExampleCache(lm)
        q = cache.get(train_set[0]).q
        assert cache.get(train_set[0]).control is None
        assert control_eval(lm, train_set[:1], cache) == control_eval(lm, train_set[:1])
        assert np.all(cache.get(train_set[0]).q == q)

    def test_accuracy_is_the_mean_over_examples(self, setup):
        lm, basis, _, eval_set = setup
        pred = _predictor(lm, basis)
        each = [prompted_eval(lm, pred, basis, [ex]).accuracy for ex in eval_set]
        assert prompted_eval(lm, pred, basis, eval_set).accuracy == sum(each) / len(each)


class TestPackedStep:
    @settings(max_examples=20, deadline=None)
    @given(picks=st.lists(st.integers(0, 44), min_size=1, max_size=10), seed=st.integers(0, 99))
    def test_packed_step_matches_batches_of_one(self, setup, picks, seed):
        # one packed step against B steps of one with the same dropout
        # draws: the loss is the mean of theirs, and so are the predictor's
        # gradients (relative to each gradient's largest entry)
        lm, basis, train_set, _ = setup
        cache = _ExampleCache(lm, basis.length)
        entries = [cache.get(train_set[i]) for i in picks]
        pred = _predictor(lm, basis)

        def grads(loss):
            pred_params = pred.parameters()
            for p in pred_params:
                p.grad = None
            loss.backward()
            return float(loss.data), [p.grad for p in pred_params]

        packed, packed_grads = grads(_batch_loss(lm, pred, basis, entries,
                                                 rngmod.stream(seed, "drop")))
        rng = rngmod.stream(seed, "drop")
        total = None
        for entry in entries:
            loss = _batch_loss(lm, pred, basis, [entry], rng)
            total = loss if total is None else total + loss
        single, single_grads = grads(total * (1.0 / len(entries)))
        assert abs(packed - single) <= 1e-12 * abs(single)
        for a, b in zip(packed_grads, single_grads):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_step_graph_is_freed_without_the_cycle_collector(self, setup):
        # backward closures never hold their own node, so dropping the root
        # frees the whole graph by reference counting
        lm, basis, train_set, _ = setup
        cache = _ExampleCache(lm, basis.length)
        entries = [cache.get(ex) for ex in train_set[:10]]
        pred = _predictor(lm, basis)
        gc.collect()
        gc.disable()
        try:
            loss = _batch_loss(lm, pred, basis, entries, rngmod.stream(0, "drop"))
            loss.backward()
            del loss
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestStabilityMetric:
    def _record(self, means):
        rec = RunRecord(config={}, basis_prompts=[])
        rec.epoch_means = list(means)
        return rec

    def test_constant_curve_is_zero(self):
        assert stability_metric(self._record([2.0, 2.0, 2.0, 2.0])) == 0.0

    def test_linear_decay_is_zero(self):
        assert stability_metric(self._record([5.0, 4.0, 3.0, 2.0])) < 1e-15

    def test_oscillation_beats_smooth(self):
        smooth = stability_metric(self._record([4.0, 3.0, 2.5, 2.2, 2.1]))
        noisy = stability_metric(self._record([4.0, 2.0, 3.5, 1.5, 3.0]))
        assert noisy > smooth

    def test_needs_two_epochs(self):
        with pytest.raises(ValueError):
            stability_metric(self._record([1.0]))
