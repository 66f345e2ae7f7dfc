import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptblend import textdata as td
from promptblend.composer import (WeightPredictor, WeightVector, build_basis, combine,
                                  question_repr)
from promptblend.model import (FrozenContractError, FrozenLM, LMConfig,
                               PretrainConfig, pretrain)
from promptblend.train import (DivergenceError, RunRecord, StepRecord, TrainConfig,
                               _ExampleCache, control_eval, prompted_eval,
                               stability_metric, train)

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
        prompt = combine(basis, WeightVector(np.array(weights))).tensor
        separate = [float(lm.loss_with_prompt(prompt, ids, c).data) for c in choice_ids]
        assert lm.score_choices(prompt, ids, choice_ids) == separate

        cache = _ExampleCache(lm)
        result = prompted_eval(lm, _fixed_predictor(lm, basis, weights), basis, [ex], cache)
        entry = cache.get(ex, scored=True)
        assert np.all(entry.q == question_repr(lm, ids))
        control = float(lm.loss_with_prompt(None, ids, td.tokenize(td.format_target(ex),
                                                                   lm.vocab)).data)
        assert entry.control == control == result.control_loss
        assert np.all(result.weights[0].values == np.array(weights))
        assert result.losses == [separate[ex.answer_index()]]
        assert result.accuracy == float(int(np.argmin(separate)) == ex.answer_index())

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
