import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptblend import rng as rngmod
from promptblend import textdata as td
from promptblend.checkpoint import (bundle_bytes, checkpoint_bytes, load_bundle,
                                    load_checkpoint)
from promptblend.composer import WeightPredictor, build_basis
from promptblend.model import (FrozenLM, LMConfig, PretrainConfig, pretrain, pretrain_examples,
                               sinusoidal_positions)
from promptblend.optim import DivergenceError
from promptblend.tensor import ShapeError, Tensor, gelu, layer_norm, linear
from promptblend.train import prompted_eval

from fdcheck import finite_difference, max_rel_error
from graphprobe import saved_array_refs

SMALL = LMConfig(embed_dim=8, num_heads=2, ffn_dim=16, max_positions=96)


@pytest.fixture(scope="module")
def tiny_lm():
    examples = td.make_fixture(seed=5, n=12)
    return pretrain_examples(examples, PretrainConfig(epochs=2, model=SMALL), seed=0), examples


def _io_ids(lm, ex):
    return (td.tokenize(td.format_input(ex), lm.vocab),
            td.tokenize(td.format_target(ex), lm.vocab))


class TestPretrain:
    def test_one_epoch_reduces_corpus_loss(self):
        examples = td.make_fixture(seed=6, n=10)
        lm = pretrain_examples(examples, PretrainConfig(epochs=1, model=SMALL), seed=1)
        rec = lm.pretrain_record
        assert rec["final_loss"] < rec["initial_loss"]

    @pytest.mark.parametrize("fixture_seed", [6, 7])
    @pytest.mark.parametrize("batch_size", [3, 10])
    def test_initial_loss_is_a_fresh_model_corpus_pass(self, fixture_seed, batch_size):
        # pretrain takes the fresh model's loss from all-zero logits without a
        # forward pass, which holds only while the output projection starts at 0
        examples = td.make_fixture(seed=fixture_seed, n=23)
        corpus = [(td.format_input(e), td.format_target(e)) for e in examples]
        lm = pretrain(corpus, PretrainConfig(epochs=1, batch_size=batch_size, model=SMALL),
                      seed=4)
        fresh = FrozenLM(lm.vocab, SMALL, seed=4)
        encoded = [(td.tokenize(i, lm.vocab), td.tokenize(t, lm.vocab)) for i, t in corpus]
        total = 0.0
        for start in range(0, len(encoded), batch_size):
            batch = encoded[start:start + batch_size]
            loss = fresh.loss_with_prompt([None] * len(batch), [i for i, _ in batch],
                                          [t for _, t in batch])
            total += float(loss.data) * len(batch)
        assert lm.pretrain_record["initial_loss"] == total / len(encoded)

    def test_same_seed_gives_bit_identical_checkpoints(self, tmp_path):
        examples = td.make_fixture(seed=6, n=8)
        p1, p2 = tmp_path / "a.pbld", tmp_path / "b.pbld"
        cfg = PretrainConfig(epochs=2, model=SMALL)
        p1.write_bytes(bundle_bytes(pretrain_examples(examples, cfg, seed=9), None, []))
        p2.write_bytes(bundle_bytes(pretrain_examples(examples, cfg, seed=9), None, []))
        assert p1.read_bytes() == p2.read_bytes()

    def test_pad_row_is_exactly_zero(self, tiny_lm):
        lm, _ = tiny_lm
        assert np.all(lm.params["embedding"].data[td.PAD_ID] == 0.0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            pretrain([], PretrainConfig(model=SMALL), seed=0)

    def test_frozen_after_pretraining(self, tiny_lm):
        lm, _ = tiny_lm
        assert lm.frozen
        assert all(not p.requires_grad for p in lm.params.values())

    def test_frozen_is_what_the_parameters_say(self):
        lm = FrozenLM(td.Vocab.build(["a b"]), SMALL, seed=0)
        assert not lm.frozen
        lm.set_frozen(True)
        assert lm.frozen
        lm.params["enc.ln1.bias"].requires_grad = True
        assert not lm.frozen
        with pytest.raises(AttributeError):
            lm.frozen = True

    def test_non_finite_loss_aborts_with_step_index(self):
        # an infinite learning rate makes every parameter non-finite after
        # the first step, so the second step's loss is NaN; numpy's warnings
        # are silenced as the CLI silences them
        with pytest.raises(DivergenceError, match="step 2"), np.errstate(invalid="ignore"):
            pretrain_examples(td.make_fixture(seed=6, n=4),
                              PretrainConfig(epochs=2, batch_size=2, lr=math.inf,
                                             model=SMALL), seed=0)

    def test_nan_lr_is_rejected_before_any_forward(self, monkeypatch):
        def never_called(*args, **kwargs):
            raise AssertionError("a forward ran before the learning rate was checked")

        monkeypatch.setattr(FrozenLM, "loss_with_prompt", never_called)
        with pytest.raises(ValueError, match="lr must be non-negative, got nan"):
            pretrain_examples(td.make_fixture(seed=6, n=4),
                              PretrainConfig(epochs=1, lr=math.nan, model=SMALL), seed=0)

    def test_overlong_pair_rejected_before_any_step(self):
        # the second pair fits alone but not behind the longest prefix it
        # could draw (a copy of its 20-token target)
        long_target = " ".join(["word"] * 20)
        corpus = [("short question", "answer"),
                  (" ".join(["word"] * 80), long_target)]
        with pytest.raises(ValueError, match="corpus pair 1: prompt\\+input length 100"):
            pretrain(corpus, PretrainConfig(epochs=1, model=SMALL), seed=0)


class TestEmbedTokens:
    def test_all_pad_rows_are_zero(self, tiny_lm):
        lm, _ = tiny_lm
        emb = lm.embed_tokens([td.PAD_ID, td.PAD_ID])
        assert np.array_equal(emb.data, np.zeros((2, SMALL.embed_dim)))

    def test_single_id_equals_table_row(self, tiny_lm):
        lm, _ = tiny_lm
        emb = lm.embed_tokens([7])
        assert np.array_equal(emb.data[0], lm.params["embedding"].data[7])

    def test_lookup_matches_indexing_oracle(self, tiny_lm):
        lm, _ = tiny_lm
        gen = rngmod.stream(3, "lookup")
        ids = gen.integers(0, len(lm.vocab), size=100)
        emb = lm.embed_tokens(ids)
        table = lm.params["embedding"].data
        for t, i in enumerate(ids):
            assert np.array_equal(emb.data[t], table[int(i)])

    def test_positions_added_when_requested(self, tiny_lm):
        lm, _ = tiny_lm
        base = lm.embed_tokens([4, 5, 6]).data
        with_pos = lm._embed_positioned([[4, 5], [6]]).data
        # each sequence is positioned from 0
        assert np.allclose(with_pos - base, lm.positions[[0, 1, 0]])

    def test_sinusoid_rows_do_not_depend_on_the_table_length(self):
        # the LM builds its table only as long as what it embeds, which
        # leaves every positioned embedding unchanged only while this holds
        full, huge = sinusoidal_positions(256, 64), sinusoidal_positions(100_000, 64)
        for n in range(1, 257):
            table = sinusoidal_positions(n, 64)
            assert table.tobytes() == full[:n].tobytes() == huge[:n].tobytes(), n

    def test_position_table_grows_to_the_longest_sequence(self, tiny_lm):
        lm, _ = tiny_lm
        fresh = FrozenLM(lm.vocab, LMConfig(embed_dim=8, num_heads=2, ffn_dim=16,
                                            max_positions=10**8), params={
            name: t.data for name, t in lm.params.items()})
        assert fresh.positions.shape == (0, 8)
        fresh._embed_positioned([[4, 5, 6], [7]])
        assert fresh.positions.shape == (3, 8)
        fresh._embed_positioned([[4, 5]])
        assert fresh.positions.shape == (3, 8)

    def test_out_of_range_id(self, tiny_lm):
        lm, _ = tiny_lm
        with pytest.raises(IndexError):
            lm.embed_tokens([len(lm.vocab)])


class TestLossWithPrompt:
    def test_all_zero_prompt_equals_control(self, tiny_lm):
        lm, examples = tiny_lm
        ids, tgt = _io_ids(lm, examples[0])
        control = float(lm.loss_with_prompt([None], [ids], [tgt]).data)
        for length in range(1, 9):
            z = Tensor(np.zeros((length, SMALL.embed_dim)))
            assert abs(float(lm.loss_with_prompt([z], [ids], [tgt]).data) - control) <= 1e-12

    def test_prompt_gradient_matches_finite_differences(self, tiny_lm):
        lm, examples = tiny_lm
        ids, tgt = _io_ids(lm, examples[1])
        gen = rngmod.stream(4, "prompt")
        prompt = Tensor(gen.normal(size=(3, SMALL.embed_dim)), requires_grad=True)
        lm.loss_with_prompt([prompt], [ids], [tgt]).backward()
        fd = finite_difference(
            lambda: float(lm.loss_with_prompt([prompt], [ids], [tgt]).data), [prompt])
        assert max_rel_error([prompt.grad], fd) < 1e-4

    def test_untrained_model_scores_uniform(self):
        vocab = td.Vocab.build(["alpha beta gamma delta"])
        lm = FrozenLM(vocab, SMALL, seed=2)
        loss = lm.loss_with_prompt([None], [td.tokenize("alpha beta", vocab)],
                                   [td.tokenize("gamma", vocab)])
        assert abs(float(loss.data) - math.log(len(vocab))) < 1e-9

    def test_gradient_never_reaches_frozen_params(self, tiny_lm):
        lm, examples = tiny_lm
        ids, tgt = _io_ids(lm, examples[2])
        prompt = Tensor(np.ones((2, SMALL.embed_dim)), requires_grad=True)
        before = lm.param_hash()
        lm.loss_with_prompt([prompt], [ids], [tgt]).backward()
        assert prompt.grad is not None
        assert all(p.grad is None for p in lm.params.values())
        assert lm.param_hash() == before

    def test_wrong_prompt_width(self, tiny_lm):
        lm, examples = tiny_lm
        ids, tgt = _io_ids(lm, examples[0])
        with pytest.raises(ShapeError):
            lm.loss_with_prompt([Tensor(np.ones((2, SMALL.embed_dim + 1)))], [ids], [tgt])

    def test_length_overflow(self, tiny_lm):
        lm, examples = tiny_lm
        ids, tgt = _io_ids(lm, examples[0])
        big = Tensor(np.ones((SMALL.max_positions, SMALL.embed_dim)))
        with pytest.raises(ValueError, match="max_positions"):
            lm.loss_with_prompt([big], [ids], [tgt])

    def test_causal_masking(self, tiny_lm):
        # logits at position t must ignore target tokens after t
        lm, examples = tiny_lm
        ids, tgt = _io_ids(lm, examples[3])
        assert len(tgt) >= 3
        encoded = lm.encode([ids], [None])
        logits_a = lm.decode(*encoded, [tgt])
        changed = list(tgt)
        changed[-1] = (changed[-1] + 1) % len(lm.vocab)
        logits_b = lm.decode(*encoded, [changed])
        keep = len(tgt)  # rows 0..len-1 precede the changed token
        assert np.array_equal(logits_a.data[:keep - 1], logits_b.data[:keep - 1])
        assert not np.array_equal(logits_a.data[keep:], logits_b.data[keep:])

    def test_nonzero_prompt_changes_loss(self, tiny_lm):
        lm, examples = tiny_lm
        ids, tgt = _io_ids(lm, examples[4])
        control = float(lm.loss_with_prompt([None], [ids], [tgt]).data)
        gen = rngmod.stream(8, "nz")
        p = Tensor(gen.normal(size=(2, SMALL.embed_dim)))
        assert float(lm.loss_with_prompt([p], [ids], [tgt]).data) != control


def _unfrozen_lm(seed):
    # a random output projection, so every LM parameter gets a gradient
    vocab = td.Vocab.build([td.format_input(e) + " " + td.format_target(e)
                            for e in td.make_fixture(seed=5, n=12)])
    lm = FrozenLM(vocab, SMALL, seed=seed)
    lm.params["out.w"].data[:] = rngmod.stream(seed, "out").normal(
        size=lm.params["out.w"].data.shape)
    return lm


def _example(draw, vocab_size):
    ids = st.integers(len(td.RESERVED_TOKENS), vocab_size - 1)
    rows = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["none", "random", "some zero rows", "all zero"]))
    prompt = None
    if kind != "none":
        gen = rngmod.stream(draw(st.integers(0, 10_000)), "packed-prompt")
        data = gen.normal(size=(rows, SMALL.embed_dim))
        if kind == "all zero":
            data[:] = 0.0
        elif kind == "some zero rows":
            data[gen.random(rows) < 0.5] = 0.0
        prompt = Tensor(data, requires_grad=True)
    return (prompt, draw(st.lists(ids, min_size=1, max_size=12)),
            draw(st.lists(ids, min_size=0, max_size=8)))


def _close(a, b, rel=1e-12):
    return float(np.max(np.abs(a - b))) <= rel * float(np.max(np.abs(b)))


class TestPackedBatch:
    # a packed batch of B agrees with B batches of one: the loss is the mean
    # of per-example means, and so are the gradients of every LM parameter
    # and every prompt (relative to each gradient's largest entry)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), batch=st.integers(1, 10))
    def test_packed_batch_matches_batches_of_one(self, data, batch):
        lm = _unfrozen_lm(seed=batch)
        examples = [_example(data.draw, len(lm.vocab)) for _ in range(batch)]
        prompts, inputs, targets = (list(x) for x in zip(*examples))
        names = list(lm.params) + ["prompt" for p in prompts if p is not None]
        params = list(lm.params.values()) + [p for p in prompts if p is not None]

        def grads(loss):
            for p in params:
                p.grad = None
            loss.backward()
            return float(loss.data), [np.zeros_like(p.data) if p.grad is None else p.grad
                                      for p in params]

        packed, packed_grads = grads(lm.loss_with_prompt(prompts, inputs, targets))
        total = None
        for one in zip(prompts, inputs, targets):
            loss = lm.loss_with_prompt(*([x] for x in one))
            total = loss if total is None else total + loss
        single, single_grads = grads(total * (1.0 / batch))
        assert abs(packed - single) <= 1e-12 * abs(single)
        scale = max(float(np.max(np.abs(b))) for b in single_grads)
        for name, a, b in zip(names, packed_grads, single_grads):
            if name.endswith(".bk"):
                # softmax ignores a shift shared by every key, so the key
                # biases' gradients are zero up to round-off
                assert max(np.max(np.abs(a)), np.max(np.abs(b))) <= 1e-12 * scale
            else:
                assert _close(a, b), name

    def test_encode_layout(self, tiny_lm):
        # [prompt | tokens | padding]: each example's valid rows are its own
        # batch-of-one states, and padding is invalid
        lm, examples = tiny_lm
        inputs = [_io_ids(lm, ex)[0] for ex in examples[:3]]
        prompts = [None, Tensor(np.ones((2, SMALL.embed_dim))), None]
        states, valid = lm.encode(inputs, prompts)
        width = valid.shape[1]
        assert states.data.shape == (3 * width, SMALL.embed_dim)
        for b, (ids, prompt) in enumerate(zip(inputs, prompts)):
            alone, (alone_valid,) = lm.encode([ids], [prompt])
            n = alone_valid.size
            assert np.array_equal(valid[b, :n], alone_valid) and not valid[b, n:].any()
            rows = states.data[b * width:b * width + n][alone_valid]
            assert _close(rows, alone.data[alone_valid])

    def test_batch_arguments_must_pair_up(self, tiny_lm):
        lm, examples = tiny_lm
        ids, tgt = _io_ids(lm, examples[0])
        with pytest.raises(ValueError, match="one prompt per input"):
            lm.loss_with_prompt([None], [ids, ids], [tgt, tgt])
        with pytest.raises(ValueError, match="targets"):
            lm.loss_with_prompt([None, None], [ids, ids], [tgt])


class TestForwardOnlyGraph:
    """With the LM frozen and no prompt, no gradient is needed anywhere, so
    an op's output keeps neither its inputs nor its backward closure."""

    def test_no_op_output_holds_inputs_or_closure(self, tiny_lm, monkeypatch):
        lm, examples = tiny_lm
        ids, tgt = _io_ids(lm, examples[0])
        outputs = []
        init = Tensor.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if (args[2] if len(args) > 2 else kwargs.get("_prev")):  # an op's output
                outputs.append(self)

        monkeypatch.setattr(Tensor, "__init__", recording_init)
        lm.decode(*lm.encode([ids], [None]), [tgt])
        assert len(outputs) > 20
        assert all(t.node.inputs == () and t.node.backward is None for t in outputs)

    def test_ffn_hidden_state_is_freed_before_the_forward_returns(self, tiny_lm,
                                                                 monkeypatch):
        lm, examples = tiny_lm
        ids, tgt = _io_ids(lm, examples[0])
        hidden = []

        def recording_gelu(x):
            out = gelu(x)
            hidden.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr("promptblend.model.gelu", recording_gelu)
        logits = lm.decode(*lm.encode([ids], [None]), [tgt])
        assert len(hidden) == 2  # the encoder's and the decoder's FFN
        assert all(ref() is None for ref in hidden)
        assert np.all(np.isfinite(logits.data))


class TestPromptedStepGraph:
    """With the LM frozen and a prompt that wants a gradient, each node keeps
    only what its backward formula reads: every layer norm's input (the
    residual sums) and every frozen linear's input is freed before the
    forward returns, and the prompt's gradient is unchanged."""

    def _step(self, lm, examples, monkeypatch, record):
        gen = rngmod.stream(2, "prompted-step")
        prompt = Tensor(gen.normal(size=(3, lm.config.embed_dim)), requires_grad=True)
        monkeypatch.setattr("promptblend.model.layer_norm", record(layer_norm))
        monkeypatch.setattr("promptblend.model.linear", record(linear))
        inputs, targets = zip(*(_io_ids(lm, ex) for ex in examples[:2]))
        loss = lm.loss_with_prompt([prompt, None], list(inputs), list(targets))
        return prompt, loss

    def test_activations_no_formula_reads_are_freed(self, tiny_lm, monkeypatch):
        lm, examples = tiny_lm
        refs, kept = [], []

        def weakly(op):
            def wrapped(x, *rest):
                refs.append(weakref.ref(x.data))
                return op(x, *rest)
            return wrapped

        prompt, loss = self._step(lm, examples, monkeypatch, weakly)
        assert len(refs) == 24  # 7 layer norms and 17 linears
        assert all(ref() is None for ref in refs)
        loss.backward()

        def strongly(op):
            def wrapped(x, *rest):
                kept.append(x)
                return op(x, *rest)
            return wrapped

        reference, loss = self._step(lm, examples, monkeypatch, strongly)
        loss.backward()
        assert prompt.grad.tobytes() == reference.grad.tobytes()


class TestPretrainingStepGraph:
    def test_backward_frees_every_array_the_graph_saved(self):
        # a packed pretraining step over the whole unfrozen LM, with a hint
        # prefix, a noise prefix and no prefix, as pretrain draws them
        lm = _unfrozen_lm(seed=3)
        examples = td.make_fixture(seed=5, n=12)[:10]
        inputs, targets = (list(x) for x in zip(*(_io_ids(lm, ex) for ex in examples)))
        prefixes = [[lm.embed_tokens(targets[0]), lm.embed_tokens([5, 6, 7]), None][i % 3]
                    for i in range(10)]
        loss = lm.loss_with_prompt(prefixes, inputs, targets)
        del prefixes
        refs = saved_array_refs(loss, [p.data for p in lm.params.values()])
        assert len(refs) > 50
        loss.backward()
        assert [ref() for ref in refs if ref() is not None] == []
        assert all(p.grad is not None for p in lm.params.values())


def _score(lm, prompt, ex):
    return lm.score_choices([prompt], [td.tokenize(td.format_input(ex), lm.vocab)],
                            [[td.tokenize(td.format_choice(c), lm.vocab)
                              for c in ex.choices]])[0]


class TestScoreChoices:
    def test_memorized_example_prefers_gold(self):
        examples = td.make_fixture(seed=9, n=1)
        ex = examples[0]
        lm = pretrain_examples(examples, PretrainConfig(epochs=150, batch_size=1, lr=3e-3,
                                                        model=SMALL), seed=3)
        assert int(np.argmin(_score(lm, None, ex))) == ex.answer_index()

    def test_untrained_model_ties_on_identical_texts(self):
        vocab = td.Vocab.build(["question words here same thing"])
        lm = FrozenLM(vocab, SMALL, seed=4)
        ex = td.QAExample(id="t", question="question words here?", answer_key="A",
                          choices=[td.Choice(lab, "same thing") for lab in "ABC"])
        losses = _score(lm, None, ex)
        assert max(losses) - min(losses) < 1e-12

    def test_returns_one_loss_per_choice(self, tiny_lm):
        lm, examples = tiny_lm
        assert len(_score(lm, None, examples[0])) == len(examples[0].choices)

    def test_tie_break_prefers_earlier_label(self):
        # the untrained model scores every choice ln V, so the eval pass
        # predicts "A" whatever the answer key
        vocab = td.Vocab.build(["q same"])
        lm = FrozenLM(vocab, SMALL, seed=5)
        lm.set_frozen(True)
        pred = WeightPredictor.create(seed=0, in_dim=SMALL.embed_dim, out_dim=1)
        basis = build_basis(["same"], lm)
        for key, accuracy in (("A", 1.0), ("B", 0.0), ("D", 0.0)):
            ex = td.QAExample(id=key, question="q", answer_key=key,
                              choices=[td.Choice(lab, "same") for lab in "ABCD"])
            assert prompted_eval(lm, pred, basis, [ex]).accuracy == accuracy


class TestCheckpoint:
    def test_round_trip_bytes(self, tiny_lm, tmp_path):
        lm, _ = tiny_lm
        p1 = tmp_path / "one.pbld"
        p1.write_bytes(bundle_bytes(lm, None, ["a prompt"]))
        assert bundle_bytes(*load_bundle(p1)) == p1.read_bytes()

    def test_loaded_model_behaves_identically(self, tiny_lm, tmp_path):
        lm, examples = tiny_lm
        path = tmp_path / "ck.pbld"
        path.write_bytes(bundle_bytes(lm, None, ["a prompt"]))  # a bundle's basis is never empty
        loaded, _, _ = load_bundle(path)
        assert loaded.frozen
        assert loaded.param_hash() == lm.param_hash()
        ids, tgt = _io_ids(lm, examples[0])
        a = float(lm.loss_with_prompt([None], [ids], [tgt]).data)
        b = float(loaded.loss_with_prompt([None], [ids], [tgt]).data)
        assert a == b

    def test_generic_container_round_trip(self, tmp_path):
        gen = rngmod.stream(6, "ck")
        tensors = {"w": gen.normal(size=(3, 4)), "b": gen.normal(size=7),
                   "scalarish": gen.normal(size=(1,))}
        meta = {"hello": [1, 2, 3], "nested": {"x": "y"}}
        path = tmp_path / "generic.pbld"
        path.write_bytes(checkpoint_bytes(tensors, meta))
        loaded, meta2 = load_checkpoint(path)
        assert meta2 == meta
        for k, v in tensors.items():
            assert np.array_equal(loaded[k], v)

    def test_magic_is_checked(self, tmp_path):
        path = tmp_path / "junk.pbld"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        from promptblend.checkpoint import CheckpointError
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_config_requires_divisible_heads():
    with pytest.raises(ValueError):
        LMConfig(embed_dim=10, num_heads=3)
