import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptblend import rng as rngmod
from promptblend import textdata as td
from promptblend.composer import (DEFAULT_BASIS_PROMPTS, BasisError, WeightPredictor,
                                  WeightVector, build_basis, combine, load_basis_file,
                                  orthogonality_score, project_to_vocab,
                                  question_repr, top_contributors)
from promptblend.model import FrozenLM, LMConfig, PretrainConfig, pretrain_examples
from promptblend.tensor import Tensor

from fdcheck import finite_difference, max_rel_error
from oracles import predict_weights, total

SMALL = LMConfig(embed_dim=8, num_heads=2, ffn_dim=16, max_positions=96)


@pytest.fixture(scope="module")
def lm():
    examples = td.make_fixture(seed=3, n=10)
    cfg = PretrainConfig(epochs=1, model=SMALL,
                         extra_vocab_texts=list(DEFAULT_BASIS_PROMPTS))
    return pretrain_examples(examples, cfg, seed=0)


@pytest.fixture(scope="module")
def default_basis(lm):
    return build_basis(DEFAULT_BASIS_PROMPTS, lm)


class TestBuildBasis:
    def test_default_basis_has_seven_prompts(self, default_basis):
        assert default_basis.size == 7
        assert any("flowchart" in p for p in default_basis.prompts)
        assert any("pseudocode" in p for p in default_basis.prompts)
        assert any("5-year-old" in p for p in default_basis.prompts)
        assert any("poem" in p for p in default_basis.prompts)
        assert any("metaphor" in p for p in default_basis.prompts)
        assert any("skit" in p for p in default_basis.prompts)
        assert any("Prototype" in p for p in default_basis.prompts)

    def test_duplicate_prompt_has_unit_similarity(self, lm):
        basis = build_basis(["Write pseudocode for an algorithm",
                             "Write pseudocode for an algorithm"], lm)
        assert basis.gram[0, 1] == 1.0

    def test_padding_rows_are_zero(self, lm):
        basis = build_basis(["one two three", "one two three four five six"], lm)
        assert basis.length == 6
        assert np.all(basis.embeddings[0, 3:] == 0.0)
        assert np.all(np.any(basis.embeddings[0, :3] != 0.0, axis=1))
        assert np.all(np.any(basis.embeddings[1] != 0.0, axis=1))

    def test_overlong_prompt_is_an_error(self, lm):
        words = " ".join(["one"] * (SMALL.max_positions + 1))
        with pytest.raises(BasisError, match="prompt 2 has 97 tokens, exceeding max_positions 96"):
            build_basis(["one two", words], lm)

    def test_empty_basis_rejected(self, lm):
        with pytest.raises(BasisError):
            build_basis([], lm)

    def test_gram_symmetric_unit_diagonal(self, default_basis):
        g = default_basis.gram
        assert np.array_equal(g, g.T)
        assert np.all(np.diag(g) == 1.0)
        assert np.all((g >= -1.0) & (g <= 1.0))

    def test_gram_tracks_prompt_permutation(self, lm):
        prompts = DEFAULT_BASIS_PROMPTS[:4]
        basis = build_basis(prompts, lm)
        perm = [2, 0, 3, 1]
        permuted = build_basis([prompts[i] for i in perm], lm)
        assert np.allclose(permuted.gram, basis.gram[np.ix_(perm, perm)], atol=1e-12)

    def test_basis_file_loader(self, tmp_path):
        path = tmp_path / "basis.txt"
        path.write_text("# comment\nfirst prompt\n\nsecond prompt\n")
        assert load_basis_file(path) == ["first prompt", "second prompt"]

    def test_basis_file_line_that_is_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "basis.txt"
        path.write_bytes(b"first prompt\r\nsecond \xff prompt\n")
        with pytest.raises(BasisError, match=rf"^basis file {path} line 2: not valid UTF-8 "
                                             r"\(byte 8: invalid start byte\)$"):
            load_basis_file(path)


class TestQuestionRepr:
    def test_single_token_is_that_state(self, lm):
        ids = td.tokenize("energy", lm.vocab)
        assert len(ids) == 1
        states, _ = lm.encode([ids], [None])
        assert np.array_equal(question_repr(lm, [ids])[0], states.data[0])

    def test_appended_pads_do_not_change_it(self, lm):
        ids = td.tokenize("which tool should a student use", lm.vocab)
        base = question_repr(lm, [ids])[0]
        padded = question_repr(lm, [ids + [td.PAD_ID, td.PAD_ID]])[0]
        assert np.max(np.abs(base - padded)) < 1e-12

    def test_matches_sum_count_oracle(self, lm):
        ids = td.tokenize("what change of state occurs", lm.vocab)
        states, valid = lm.encode([ids], [None])
        total = np.zeros(SMALL.embed_dim)
        count = 0
        for t in range(len(ids)):
            if ids[t] != td.PAD_ID:
                total += states.data[t]
                count += 1
        assert np.max(np.abs(question_repr(lm, [ids])[0] - total / count)) < 1e-12

    def test_all_pad_rejected(self, lm):
        with pytest.raises(ValueError):
            question_repr(lm, [[td.PAD_ID, td.PAD_ID]])


class TestWeightPredictor:
    def test_eval_mode_deterministic(self, lm, default_basis):
        pred = WeightPredictor.create(seed=1, in_dim=SMALL.embed_dim,
                                      out_dim=default_basis.size)
        q = rngmod.stream(2, "q").normal(size=SMALL.embed_dim)
        a = predict_weights(pred, q)
        b = predict_weights(pred, q)
        assert np.array_equal(a.values, b.values)

    def test_zero_final_scale_outputs_bias(self):
        pred = WeightPredictor.create(seed=1, in_dim=8, out_dim=5, final_scale=0.0)
        pred.parameters()[-1].data[:] = np.arange(5.0)
        out = predict_weights(pred, np.zeros(8))
        assert np.array_equal(out.values, np.arange(5.0))

    def test_output_width_matches_default_basis(self, default_basis):
        pred = WeightPredictor.create(seed=1, in_dim=8, out_dim=default_basis.size)
        out = predict_weights(pred, np.zeros(8))
        assert out.values.shape == (7,)

    def test_three_linear_three_dropout(self):
        pred = WeightPredictor.create(seed=1, in_dim=8, out_dim=4, dropout_p=0.9)
        # with p=0.9 and a seeded rng, training mode must zero most entries
        out = pred.forward(Tensor(np.ones((1, 8))), rngmod.stream(3, "drop"))
        assert out.data.shape == (1, 4)


class TestCombine:
    def test_one_hot_reproduces_basis_row_bit_exactly(self, default_basis):
        for j in (0, 3, 6):
            w = np.zeros(7)
            w[j] = 1.0
            prompt = combine(default_basis, Tensor(w))
            assert prompt.data.tobytes() == default_basis.embeddings[j].tobytes()

    def test_zero_weights_give_zero_tensor(self, default_basis):
        prompt = combine(default_basis, Tensor(np.zeros(7)))
        assert np.all(prompt.data == 0.0)

    def test_signed_weight_reading(self, lm):
        basis = build_basis(DEFAULT_BASIS_PROMPTS[:4], lm)
        w = np.array([1.1, 0.0, -0.5, 3.0])
        ranked = top_contributors(WeightVector(w), basis.prompts, n=4)
        assert ranked[0] == (basis.prompts[3], 3.0)  # last prompt contributes most
        assert ranked[-1] == (basis.prompts[2], -0.5)  # second-to-last is inverse

    def test_length_mismatch(self, default_basis):
        with pytest.raises(Exception):
            combine(default_basis, Tensor(np.zeros(3)))

    def test_reconstruction_from_provenance(self, default_basis):
        gen = rngmod.stream(4, "recon")
        w = gen.normal(size=7)
        prompt = combine(default_basis, Tensor(w))
        rebuilt = np.tensordot(w, default_basis.embeddings, axes=1)
        assert np.max(np.abs(rebuilt - prompt.data)) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000),
           a=st.floats(-3, 3, allow_nan=False), b=st.floats(-3, 3, allow_nan=False))
    def test_linearity(self, default_basis, seed, a, b):
        gen = rngmod.stream(seed, "lin")
        w1 = gen.normal(size=7)
        w2 = gen.normal(size=7)
        lhs = combine(default_basis, Tensor(a * w1 + b * w2)).data
        rhs = (a * combine(default_basis, Tensor(w1)).data
               + b * combine(default_basis, Tensor(w2)).data)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_gradient_flows_to_weights_not_basis(self, lm, default_basis):
        w = Tensor(np.full(7, 0.5), requires_grad=True)
        prompt = combine(default_basis, w)
        total(prompt).backward()
        assert w.grad is not None
        expected = default_basis.embeddings.sum(axis=(1, 2))
        assert np.allclose(w.grad, expected, atol=1e-12)


class TestTopContributors:
    def test_reported_weight_table_ordering(self, lm):
        basis = build_basis([
            "Prototype a computer program to compute the answer algorithmically",
            "Act out an exaggerated skit to depict the logic behind the answer",
            "Summarize the key insights needed to answer in a short poem",
        ], lm)
        w = WeightVector(np.array([1.4863, -0.0842, -0.8324]))
        top = top_contributors(w, basis.prompts, n=3)
        assert [p for p, _ in top] == basis.prompts
        assert [round(v, 4) for _, v in top] == [1.4863, -0.0842, -0.8324]

    def test_ties_fall_back_to_basis_order(self, default_basis):
        top = top_contributors(WeightVector(np.full(7, 0.25)), default_basis.prompts, n=7)
        assert [p for p, _ in top] == default_basis.prompts

    def test_matches_full_sort_oracle(self, default_basis):
        gen = rngmod.stream(5, "sort")
        for _ in range(1000):
            w = gen.normal(size=7)
            got = top_contributors(WeightVector(w), default_basis.prompts, n=7)
            oracle = sorted(zip(default_basis.prompts, w),
                            key=lambda pw: (-pw[1], default_basis.prompts.index(pw[0])))
            assert [p for p, _ in got] == [p for p, _ in oracle]

    def test_order_invariant_under_positive_scaling(self, default_basis):
        gen = rngmod.stream(6, "scale")
        w = gen.normal(size=7)
        base = [p for p, _ in top_contributors(WeightVector(w), default_basis.prompts, n=7)]
        for c in (0.1, 2.0, 17.5):
            scaled = [p for p, _ in
                      top_contributors(WeightVector(c * w), default_basis.prompts, n=7)]
            assert scaled == base

    def test_n_larger_than_basis(self, default_basis):
        with pytest.raises(ValueError):
            top_contributors(WeightVector(np.zeros(7)), default_basis.prompts, n=8)


def _orthogonal_lm():
    vocab = td.Vocab.build(["aa bb cc dd"])
    config = LMConfig(embed_dim=len(vocab), num_heads=2, ffn_dim=8, max_positions=32)
    lm = FrozenLM(vocab, config, seed=7)
    lm.params["embedding"].data[:] = np.eye(len(vocab))
    lm.params["embedding"].data[td.PAD_ID, :] = 0.0
    lm.params["embedding"].data[td.PAD_ID, td.PAD_ID] = 0.0
    lm.set_frozen(True)
    return lm


class TestOrthogonality:
    def test_duplicate_prompts_score_zero(self, lm):
        basis = build_basis(["same prompt twice", "same prompt twice"], lm)
        assert orthogonality_score(basis.gram) == 0.0

    def test_disjoint_supports_with_orthogonal_rows_score_one(self):
        lm = _orthogonal_lm()
        basis = build_basis(["aa bb", "cc dd"], lm)
        assert orthogonality_score(basis.gram) == 1.0

    def test_single_prompt_scores_one_by_convention(self, lm):
        basis = build_basis(["lonely prompt"], lm)
        assert orthogonality_score(basis.gram) == 1.0

    def test_score_bounded_on_random_bases(self, lm):
        gen = rngmod.stream(8, "rand-basis")
        words = lm.vocab.non_reserved()
        for _ in range(100):
            k = int(gen.integers(2, 6))
            prompts = [" ".join(words[int(i)] for i in
                                gen.integers(0, len(words), size=3)) for _ in range(k)]
            score = orthogonality_score(build_basis(prompts, lm).gram)
            assert 0.0 <= score <= 1.0


class TestProjectToVocab:
    def test_exact_embedding_row_matches_itself(self, lm):
        token_id = 10
        row = lm.params["embedding"].data[token_id][None, :].copy()
        out = project_to_vocab(row, lm)
        assert out[0][0] == lm.vocab.id_to_token[token_id]
        assert abs(out[0][1] - 1.0) < 1e-12

    def test_zero_row_maps_to_pad(self, lm):
        out = project_to_vocab(np.zeros((1, SMALL.embed_dim)), lm)
        assert out[0] == ("<pad>", 0.0)

    def test_matches_exhaustive_scan_oracle(self, lm):
        gen = rngmod.stream(9, "proj")
        table = lm.params["embedding"].data
        rows = gen.normal(size=(100, SMALL.embed_dim))
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
            assert tok == best_tok
            assert abs(cos - best_cos) < 1e-12


class TestEndToEndGradient:
    def test_predictor_gradients_through_combine_and_loss(self, lm, default_basis):
        examples = td.make_fixture(seed=3, n=10)
        ids = td.tokenize(td.format_input(examples[0]), lm.vocab)
        tgt = td.tokenize(td.format_target(examples[0]), lm.vocab)
        q = question_repr(lm, [ids])[0]
        pred = WeightPredictor.create(seed=11, in_dim=SMALL.embed_dim, out_dim=7,
                                      hidden1=6, hidden2=6, dropout_p=0.1,
                                      final_scale=0.05)

        def forward():
            w = pred.forward(Tensor(q.reshape(1, -1)), rngmod.stream(12, "fd-drop"))
            return float(lm.loss_with_prompt([combine(default_basis, w)],
                                             [ids], [tgt]).data)

        w = pred.forward(Tensor(q.reshape(1, -1)), rngmod.stream(12, "fd-drop"))
        loss = lm.loss_with_prompt([combine(default_basis, w)], [ids], [tgt])
        loss.backward()
        params = pred.parameters()
        analytic = [p.grad for p in params]
        fd = finite_difference(forward, params)
        assert max_rel_error(analytic, fd) < 1e-4


def test_weight_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        WeightVector(np.array([1.0, np.nan]))
