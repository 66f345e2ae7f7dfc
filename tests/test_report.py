import json

import pytest

from promptblend import textdata as td
from promptblend.composer import build_basis
from promptblend.model import FrozenLM, LMConfig
from promptblend.report import (_ortho_section, render_curve_csv, render_ortho,
                                render_report)
from promptblend.train import ExampleEval, RunConfig, RunRecord, StepRecord

SMALL = LMConfig(embed_dim=8, num_heads=2, ffn_dim=16, max_positions=64)

TABLE_PROMPTS = [
    "Prototype a computer program to compute the answer algorithmically",
    "Act out an exaggerated skit to depict the logic behind the answer",
    "Summarize the key insights needed to answer in a short poem",
]


@pytest.fixture(scope="module")
def basis():
    vocab = td.Vocab.build(TABLE_PROMPTS + ["question text"])
    lm = FrozenLM(vocab, SMALL, seed=1)
    lm.set_frozen(True)
    return build_basis(TABLE_PROMPTS, lm)


def _record(basis, losses=(8.39, 8.08, 7.93)):
    rec = RunRecord(
        config=RunConfig(epochs=20, batch_size=10, lr=0.001, weight_decay=0.01, dropout_p=0.1,
                         seed=1, eval_every=0, prompt_length=basis.length),
        basis_prompts=list(basis.prompts),
        gram=basis.gram.tolist(),
    )
    rec.steps = [StepRecord(epoch=1, step=1, batch_size=10, loss=2.25),
                 StepRecord(epoch=1, step=2, batch_size=10, loss=1.0 / 3.0),
                 StepRecord(epoch=2, step=3, batch_size=10, loss=0.1234567890123)]
    rec.epoch_means = [1.5, 0.9]
    rec.control_eval_loss = 8.5
    rec.prompted_eval_loss = 8.0
    rec.eval_losses = [[3, 8.0]]
    rec.examples = [
        ExampleEval(id="q2", question="second hardest?", loss=losses[1],
                    weights=[0.5, 0.25, -0.5]),
        ExampleEval(id="q1", question="hardest?", loss=losses[0],
                    weights=[1.4863, -0.0842, -0.8324]),
        ExampleEval(id="q3", question="easiest?", loss=losses[2],
                    weights=[-1.0, 2.0, 0.0]),
    ]
    rec.lm_param_hash = "abc123"
    rec.wall_clock_seconds = 12.5
    return rec


class TestRenderReport:
    def test_weights_render_with_exactly_four_decimals(self, basis):
        text, json_text = render_report(_record(basis), n_top=3)
        assert "(1.4863)" in text
        assert "(-0.0842)" in text
        assert "(-0.8324)" in text
        row = next(r for r in json.loads(json_text)["examples"] if r["id"] == "q1")
        assert [c["rendered"] for c in row["contributors"]] == \
            ["1.4863", "-0.0842", "-0.8324"]

    def test_rows_are_ordered_hardest_first(self, basis):
        text, json_text = render_report(_record(basis), n_top=3)
        assert [r["loss"] for r in json.loads(json_text)["examples"]] == [8.39, 8.08, 7.93]
        text_rows = [ln for ln in text.splitlines()
                     if ln.startswith(("8.39", "8.08", "7.93"))]
        assert [ln.split()[0] for ln in text_rows] == ["8.39", "8.08", "7.93"]

    def test_contributors_follow_signed_descending_order(self, basis):
        _, json_text = render_report(_record(basis), n_top=3)
        row = next(r for r in json.loads(json_text)["examples"] if r["id"] == "q1")
        assert [c["prompt"] for c in row["contributors"]] == basis.prompts

    def test_rendering_is_byte_identical_for_the_same_record(self, basis):
        a_text, a_json = render_report(_record(basis), n_top=3)
        b_text, b_json = render_report(_record(basis), n_top=3)
        assert a_text == b_text
        assert a_json == b_json

    def test_json_numbers_trace_to_record(self, basis):
        rec = _record(basis)
        payload = json.loads(render_report(rec, n_top=2)[1])
        assert payload["summary"]["control_eval_loss"] == rec.control_eval_loss
        assert payload["summary"]["prompted_eval_loss"] == rec.prompted_eval_loss
        losses = [r["loss"] for r in payload["examples"]]
        assert losses == sorted((e.loss for e in rec.examples), reverse=True)

    def test_wall_clock_never_rendered(self, basis):
        text, json_text = render_report(_record(basis), n_top=3)
        assert "12.5" not in text
        assert "wall" not in json_text

    def test_n_top_beyond_basis_rejected(self, basis):
        with pytest.raises(ValueError):
            render_report(_record(basis), n_top=4)


class TestRenderCurves:
    def test_csv_round_trips_losses_exactly(self, basis):
        rec = _record(basis)
        csv_text = render_curve_csv(rec)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "epoch,step,batch_size,loss"
        assert len(lines) == 1 + len(rec.steps)
        for line, step in zip(lines[1:], rec.steps):
            epoch, idx, bs, loss = line.split(",")
            assert int(epoch) == step.epoch
            assert int(idx) == step.step
            assert int(bs) == step.batch_size
            assert float(loss) == step.loss  # bit-exact via repr round-trip


class TestRenderOrtho:
    def test_duplicate_basis_reports_unit_pair(self):
        vocab = td.Vocab.build(["same prompt"])
        lm = FrozenLM(vocab, SMALL, seed=2)
        lm.set_frozen(True)
        dup = build_basis(["same prompt", "same prompt"], lm)
        text = render_ortho(dup.prompts, dup.gram)
        section = _ortho_section(dup.prompts, dup.gram)
        assert section["most_parallel_pair"]["similarity"] == 1.0
        assert "similarity 1.0000" in text
        assert "score: 0.0000" in text

    def test_single_prompt_basis(self):
        vocab = td.Vocab.build(["only prompt"])
        lm = FrozenLM(vocab, SMALL, seed=3)
        lm.set_frozen(True)
        solo = build_basis(["only prompt"], lm)
        text = render_ortho(solo.prompts, solo.gram)
        section = _ortho_section(solo.prompts, solo.gram)
        assert section["score"] == 1.0
        assert "most_parallel_pair" not in section
        assert "most parallel pair" not in text

    def test_rendered_gram_is_symmetric(self, basis):
        text = render_ortho(basis.prompts, basis.gram)
        grid = _ortho_section(basis.prompts, basis.gram)["gram"]
        k = len(grid)
        for i in range(k):
            for j in range(k):
                assert grid[i][j] == grid[j][i]
        # parse the table back out of the text block
        lines = [ln.strip() for ln in text.splitlines()]
        start = lines.index("gram matrix:") + 1
        parsed = [ln.split() for ln in lines[start:start + k]]
        for i in range(k):
            for j in range(k):
                assert parsed[i][j] == grid[i][j]
