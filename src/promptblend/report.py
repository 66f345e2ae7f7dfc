"""Report rendering: weight tables, loss curves, orthogonality summaries.

Rendering is a pure function of the run record, so the same record always
produces byte-identical files. Every number, the basis Gram matrix too, is
read from the record; nothing is recomputed. Weights print with exactly 4
decimals, per-example rows are ordered hardest (highest loss) first.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .composer import WeightVector, orthogonality_score, top_contributors
from .train import RunRecord

NUMERALS = ["I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X"]


def _fmt_w(value: float) -> str:
    return f"{value:.4f}"


def _ortho_section(prompts: list[str], gram) -> dict:
    k, gram = len(prompts), np.asarray(gram)
    section = {
        "score": orthogonality_score(gram),
        "gram": [[_fmt_w(gram[i, j]) for j in range(k)] for i in range(k)],
        "prompts": list(prompts),
    }
    if k > 1:
        off = np.abs(gram - np.eye(k))
        i, j = np.unravel_index(int(np.argmax(off)), off.shape)
        i, j = (int(min(i, j)), int(max(i, j)))
        section["most_parallel_pair"] = {
            "indices": [i, j],
            "similarity": float(gram[i, j]),
        }
    return section


def _ortho_text_lines(section: dict) -> list[str]:
    lines = ["basis orthogonality", "-------------------"]
    lines.append(f"score: {_fmt_w(section['score'])}")
    pair = section.get("most_parallel_pair")
    if pair is not None:
        i, j = pair["indices"]
        lines.append(f"most parallel pair: prompts {i + 1} and {j + 1} "
                     f"(similarity {_fmt_w(pair['similarity'])})")
    lines.append("gram matrix:")
    for row in section["gram"]:
        lines.append("  " + " ".join(f"{v:>8s}" for v in row))
    return lines


def render_report(record: RunRecord, n_top: int = 3) -> tuple[str, str]:
    """The human table and the structured file (JSON text) for one run."""
    prompts, length = record.basis_prompts, record.config.prompt_length
    metadata = {
        "config": asdict(record.config),
        "basis_size": len(prompts),
        "prompt_length": length,
        "lm_param_hash": record.lm_param_hash,
    }
    control = record.control_eval_loss
    prompted = record.prompted_eval_loss
    summary = {
        "control_eval_loss": control,
        "prompted_eval_loss": prompted,
        "relative_reduction": (control - prompted) / control if control else 0.0,
    }
    if not np.isfinite(summary["relative_reduction"] * 100):  # JSON has no Infinity
        raise ValueError(f"relative reduction from control eval loss {control!r} to prompted "
                         f"{prompted!r} is not a finite percentage")
    ordered = sorted(record.examples, key=lambda e: -e.loss)
    rows = []
    for ex in ordered:
        contributors = top_contributors(WeightVector(ex.weights), prompts, n_top)
        rows.append({
            "id": ex.id,
            "loss": ex.loss,
            "question": ex.question,
            "contributors": [
                {"prompt": p, "weight": w, "rendered": _fmt_w(w)}
                for p, w in contributors
            ],
        })
    ortho = _ortho_section(prompts, record.gram)

    lines = ["promptblend run report", "======================", ""]
    cfg = record.config
    lines.append(f"epochs={cfg.epochs} batch_size={cfg.batch_size} lr={cfg.lr} "
                 f"dropout={cfg.dropout_p} weight_decay={cfg.weight_decay} seed={cfg.seed}")
    lines.append(f"basis: {len(prompts)} prompts, padded length {length}")
    lines.append(f"frozen lm hash: {record.lm_param_hash}")
    lines.append("")
    lines.append("summary")
    lines.append("-------")
    lines.append(f"control eval loss:  {control:.4f}")
    lines.append(f"prompted eval loss: {prompted:.4f}")
    lines.append(f"relative reduction: {summary['relative_reduction'] * 100:.2f}%")
    lines.append("")
    lines.append(f"eval examples, hardest first (top {n_top} contributing prompts)")
    lines.append("-" * 64)
    for row in rows:
        contribs = " ".join(
            f"{NUMERALS[i]}. {c['prompt']} ({c['rendered']})"
            for i, c in enumerate(row["contributors"])
        )
        lines.append(f"{row['loss']:.2f}  {row['question']}")
        lines.append(f"      {contribs}")
    lines.append("")
    lines.extend(_ortho_text_lines(ortho))
    if record.projection:
        lines.append("")
        lines.append("prompt projection to vocabulary (mean eval weights)")
        lines.append("---------------------------------------------------")
        for tok, cos in record.projection:
            lines.append(f"  {tok:<20s} cosine {_fmt_w(cos)}")
    text = "\n".join(lines) + "\n"

    payload = {
        "metadata": metadata,
        "summary": summary,
        "examples": rows,
        "orthogonality": ortho,
        "projection": record.projection,
    }
    json_text = json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    return text, json_text


def render_curve_csv(record: RunRecord) -> str:
    """Loss-curve CSV; float text round-trips to the exact recorded value."""
    lines = ["epoch,step,batch_size,loss"]
    for s in record.steps:
        lines.append(f"{s.epoch},{s.step},{s.batch_size},{s.loss!r}")
    return "\n".join(lines) + "\n"


def render_ortho(prompts: list[str], gram) -> str:
    """Standalone orthogonality report for a basis's prompts and Gram matrix."""
    section = _ortho_section(prompts, gram)
    lines = _ortho_text_lines(section)
    lines.append("")
    lines.append("prompts:")
    for i, p in enumerate(prompts, start=1):
        lines.append(f"  {i}. {p}")
    return "\n".join(lines) + "\n"
