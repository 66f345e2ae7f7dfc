import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptblend import textdata as td

from jsonedit import MUTATIONS, edited, nodes


@pytest.fixture(scope="module")
def fixture_1000():
    return td.make_fixture(seed=11, n=1000)


@pytest.fixture(scope="module")
def vocab(fixture_1000):
    texts = [td.format_input(e) for e in fixture_1000]
    texts += [td.format_target(e) for e in fixture_1000]
    return td.Vocab.build(texts)


class TestTokenize:
    def test_empty_text(self, vocab):
        assert td.tokenize("", vocab) == []

    def test_sentence_splits_words_and_punctuation(self, vocab):
        ids = td.tokenize("Fish have gills.", vocab)
        tokens = [vocab.id_to_token[i] for i in ids]
        assert tokens == ["fish", "have", "gills", "."]

    def test_unknown_maps_to_unk(self, vocab):
        ids = td.tokenize("zyzzyva", vocab)
        assert ids == [td.UNK_ID]

    def test_round_trip_on_fixture_strings(self, fixture_1000, vocab):
        texts = [td.format_input(e) for e in fixture_1000[:500]]
        texts += [td.format_target(e) for e in fixture_1000[:500]]
        assert len(texts) == 1000
        for s in texts:
            # every non-space character survives, in order, and maps to a known id
            tokens = [vocab.id_to_token[i] for i in td.tokenize(s, vocab)]
            assert "".join(tokens) == "".join(s.lower().split())


class TestVocab:
    def test_reserved_ids(self, vocab):
        assert vocab.id_to_token[td.PAD_ID] == "<pad>"
        assert vocab.id_to_token[td.BOS_ID] == "<bos>"
        assert vocab.id_to_token[td.EOS_ID] == "<eos>"
        assert vocab.id_to_token[td.UNK_ID] == "<unk>"

    def test_bijective_over_non_reserved(self, vocab):
        for tok in vocab.non_reserved():
            assert vocab.id_to_token[vocab.token_to_id[tok]] == tok

    def test_order_independent(self, fixture_1000):
        texts = [td.format_input(e) for e in fixture_1000[:50]]
        a = td.Vocab.build(texts)
        b = td.Vocab.build(list(reversed(texts)))
        assert a.id_to_token == b.id_to_token

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(td.DatasetError):
            td.Vocab(["x", "x"])


class TestDatasetIO:
    def test_load_preserves_order_and_fields(self, tmp_path, fixture_1000):
        path = tmp_path / "data.jsonl"
        td.save_dataset(fixture_1000[:20], path)
        loaded = td.load_dataset(path)
        assert loaded == fixture_1000[:20]

    def test_round_trip_is_bit_exact(self, tmp_path, fixture_1000):
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        td.save_dataset(fixture_1000[:50], p1)
        td.save_dataset(td.load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert td.load_dataset(path) == []

    def test_lines_split_where_text_mode_splits_them(self, tmp_path, fixture_1000):
        path = tmp_path / "mixed.jsonl"
        td.save_dataset(fixture_1000[:3], path)
        first, second, third = path.read_bytes().splitlines()
        path.write_bytes(first + b"\r\n" + second + b"\r" + third)
        assert td.load_dataset(path) == fixture_1000[:3]

    def test_line_that_is_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'\n\r\n{"id": "\xff"}\n')
        with pytest.raises(td.DatasetError,
                           match=r"^line 3: not valid UTF-8 \(byte 9: invalid start byte\)$"):
            td.load_dataset(path)

    def test_malformed_json_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        ok = json.dumps({"id": "a", "question": "q?", "answerKey": "A", "choices": [
            {"label": "A", "text": "x"}, {"label": "B", "text": "y"},
            {"label": "C", "text": "z"}]})
        path.write_text(ok + "\n{oops\n")
        with pytest.raises(td.DatasetError, match="line 2"):
            td.load_dataset(path)

    def test_bad_answer_key_is_validation_error(self, tmp_path):
        rec = {"id": "a", "question": "q?", "answerKey": "Z", "choices": [
            {"label": "A", "text": "x"}, {"label": "B", "text": "y"},
            {"label": "C", "text": "z"}]}
        path = tmp_path / "key.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(td.DatasetError, match="line 1.*Z"):
            td.load_dataset(path)

    def test_missing_answer_key_field(self, tmp_path):
        rec = {"id": "a", "question": "q?", "choices": [
            {"label": "A", "text": "x"}, {"label": "B", "text": "y"},
            {"label": "C", "text": "z"}]}
        path = tmp_path / "nokey.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(td.DatasetError, match="line 1"):
            td.load_dataset(path)

    def test_duplicate_labels_rejected(self, tmp_path):
        rec = {"id": "a", "question": "q?", "answerKey": "A", "choices": [
            {"label": "A", "text": "x"}, {"label": "A", "text": "y"},
            {"label": "C", "text": "z"}]}
        path = tmp_path / "dup.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(td.DatasetError, match="duplicate"):
            td.load_dataset(path)

    def test_duplicate_ids_name_both_lines(self, tmp_path, fixture_1000):
        # the run caches tokens by id, so a repeated id would score the
        # second example with the first one's tokens
        first = fixture_1000[0]
        second = dataclasses.replace(fixture_1000[1], id=first.id)
        path = tmp_path / "ids.jsonl"
        td.save_dataset([first, fixture_1000[2], second], path)
        with pytest.raises(td.DatasetError, match=r"line 3: id 'fx00000'.*line 1"):
            td.load_dataset(path)

    def test_choice_count_bounds(self):
        two = td.QAExample(id="x", question="q?", answer_key="A", choices=[
            td.Choice("A", "a"), td.Choice("B", "b")])
        with pytest.raises(td.DatasetError, match="3..5"):
            two.validate()


VALID_LINE = {"id": "q1", "question": "Which tool measures mass?", "answerKey": "B",
              "choices": [{"label": lab, "text": text} for lab, text in
                          zip("ABCD", ["a ruler", "a balance", "a stopwatch", "a thermometer"])]}


class TestDatasetContract:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(path=st.sampled_from(list(nodes(VALID_LINE))), mutation=MUTATIONS)
    def test_a_mutated_line_is_rejected_in_one_line_or_round_trips(self, path, mutation,
                                                                   tmp_path_factory):
        """One edit at one path: load_dataset rejects the line with one line
        naming it, or returns one example that save_dataset writes back as
        the edited record."""
        d = edited(VALID_LINE, path, mutation)
        file = tmp_path_factory.getbasetemp() / "contract.jsonl"
        file.write_text(json.dumps(d) + "\n")
        try:
            examples = td.load_dataset(file)
        except td.DatasetError as e:
            assert str(e).startswith("line 1: ") and "\n" not in str(e)
            return
        assert len(examples) == 1
        td.save_dataset(examples, file)
        assert [json.loads(line) for line in td.read_lines(file)] == [d]


class TestFormatting:
    def test_format_input_layout(self):
        ex = td.QAExample(
            id="kite", answer_key="B",
            question="Students are designing kites to discover what type of kite flies "
                     "the highest. Which is the most important to consider when designing "
                     "a kite to fly high?",
            choices=[td.Choice("A", "string length"), td.Choice("B", "surface area"),
                     td.Choice("C", "materials used"), td.Choice("D", "time of day")])
        got = td.format_input(ex)
        assert got.endswith("Options: A: string length - B: surface area - "
                            "C: materials used - D: time of day")
        assert got.startswith(ex.question)

    def test_format_target_is_letter_plus_text(self):
        ex = td.QAExample(id="k", question="q?", answer_key="B",
                          choices=[td.Choice("A", "string length"),
                                   td.Choice("B", "surface area"),
                                   td.Choice("C", "materials used")])
        assert td.format_target(ex) == "B: surface area"

    def test_format_target_empty_text(self):
        ex = td.QAExample(id="k", question="q?", answer_key="A",
                          choices=[td.Choice("A", ""), td.Choice("B", "b"),
                                   td.Choice("C", "c")])
        assert td.format_target(ex) == "A: "

    def test_every_choice_text_appears_exactly_once(self, fixture_1000):
        for ex in fixture_1000[:100]:
            rendered = td.format_input(ex)
            for c in ex.choices:
                assert rendered.count(f"{c.label}: {c.text}") == 1

    def test_format_input_injective_over_fixture(self, fixture_1000):
        rendered = [td.format_input(e) for e in fixture_1000]
        assert len(set(rendered)) == len(rendered)

    def test_target_ids_never_contain_pad(self, fixture_1000, vocab):
        for ex in fixture_1000[:200]:
            assert td.PAD_ID not in td.tokenize(td.format_target(ex), vocab)


class TestFixture:
    def test_deterministic(self):
        a = td.make_fixture(seed=7, n=25)
        b = td.make_fixture(seed=7, n=25)
        assert a == b

    def test_different_seed_differs(self):
        assert td.make_fixture(seed=7, n=25) != td.make_fixture(seed=8, n=25)

    def test_unique_ids(self):
        ex = td.make_fixture(seed=1, n=200)
        assert len({e.id for e in ex}) == 200

    def test_four_choices_each_and_valid(self, fixture_1000):
        for e in fixture_1000:
            e.validate()
            assert len(e.choices) == 4

    def test_answer_labels_near_uniform(self):
        ex = td.make_fixture(seed=2, n=2000)
        counts = {lab: 0 for lab in "ABCD"}
        for e in ex:
            counts[e.answer_key] += 1
        for lab, c in counts.items():
            assert 0.9 * 500 <= c <= 1.1 * 500, (lab, c)

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            td.make_fixture(seed=0, n=0)

    def test_capacity_is_every_renderable_example(self):
        # per question: ordered draws of 3 distractors times 4 answer slots
        assert td.fixture_capacity() == 7392
        assert len(td.make_fixture(seed=3, n=7392)) == 7392

    def test_size_above_capacity_rejected_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew from the fixture stream")

        monkeypatch.setattr(td.rngmod, "stream", no_draws)
        with pytest.raises(ValueError, match="exceeds the 7392 distinct examples"):
            td.make_fixture(seed=3, n=7393)


class TestSplit:
    def test_split_partitions(self, fixture_1000):
        train, evals = td.train_eval_split(fixture_1000, 0.2)
        assert len(train) + len(evals) == len(fixture_1000)
        assert len(evals) == 200
        ids = {e.id for e in train} | {e.id for e in evals}
        assert len(ids) == len(fixture_1000)

    def test_split_deterministic(self, fixture_1000):
        a = td.train_eval_split(fixture_1000, 0.25)
        b = td.train_eval_split(fixture_1000, 0.25)
        assert a == b

    def test_bad_fraction(self, fixture_1000):
        with pytest.raises(ValueError):
            td.train_eval_split(fixture_1000, 1.5)


@settings(max_examples=50, deadline=None)
@given(st.text(alphabet=st.characters(codec="ascii"), max_size=80))
def test_tokenize_deterministic_and_total(text):
    tokens = td.split_tokens(text)
    assert tokens == td.split_tokens(text)
    for t in tokens:
        assert t == t.lower()
        assert " " not in t
