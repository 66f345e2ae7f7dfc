"""Tokenization, vocabulary, QA dataset ingestion, and the bundled fixture.

The tokenizer is a deterministic lowercase word/punctuation splitter, a
stand-in for a learned subword scheme. Dataset files are UTF-8 with one
JSON record per line:

    {"id": str, "question": str,
     "choices": [{"label": "A".."E", "text": str}, ...],
     "answerKey": str}
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")

LABELS = "ABCDE"

_TOKEN_RE = re.compile(r"[a-z0-9]+|[^a-z0-9\s]")


class DatasetError(ValueError):
    """Malformed or invalid dataset content."""


def split_tokens(text: str) -> list[str]:
    """Lowercased word / single-punctuation tokens; deterministic."""
    return _TOKEN_RE.findall(text.lower())


class Vocab:
    """Bijective token <-> id map with pinned reserved ids 0..3."""

    def __init__(self, tokens: list[str]):
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise DatasetError("vocabulary must be a list of strings")
        for t in tokens:
            if t in RESERVED_TOKENS:
                raise DatasetError(f"token {t!r} collides with a reserved token")
        if len(set(tokens)) != len(tokens):
            raise DatasetError("duplicate tokens in vocabulary")
        self.id_to_token: list[str] = list(RESERVED_TOKENS) + list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    @classmethod
    def build(cls, texts) -> "Vocab":
        """Vocabulary from a corpus; independent of text order."""
        seen: set[str] = set()
        for text in texts:
            seen.update(split_tokens(text))
        return cls(sorted(seen))

    def __len__(self) -> int:
        return len(self.id_to_token)

    def non_reserved(self) -> list[str]:
        return self.id_to_token[len(RESERVED_TOKENS):]


def tokenize(text: str, vocab: Vocab) -> list[int]:
    """Token ids for text; unknown tokens map to unk. Empty text -> []."""
    return [vocab.token_to_id.get(t, UNK_ID) for t in split_tokens(text)]


@dataclass
class Choice:
    label: str
    text: str


@dataclass
class QAExample:
    """One multiple-choice question with labeled options and an answer key."""

    id: str
    question: str
    choices: list[Choice]
    answer_key: str

    def validate(self) -> None:
        if not 3 <= len(self.choices) <= 5:
            raise DatasetError(f"example {self.id}: need 3..5 choices, got {len(self.choices)}")
        labels = [c.label for c in self.choices]
        for lab in labels:
            if lab not in LABELS:
                raise DatasetError(f"example {self.id}: label {lab!r} not one of {LABELS}")
        if len(set(labels)) != len(labels):
            raise DatasetError(f"example {self.id}: duplicate choice labels {labels}")
        if labels != sorted(labels):
            raise DatasetError(f"example {self.id}: labels out of order {labels}")
        if self.answer_key not in labels:
            raise DatasetError(f"example {self.id}: answerKey {self.answer_key!r} "
                               f"not among labels {labels}")

    def answer_index(self) -> int:
        return [c.label for c in self.choices].index(self.answer_key)


def _field(obj: dict, key: str, where: str = "") -> str:
    """obj[key], which must be a string UTF-8 can encode; errors name the field `where + key`."""
    if not isinstance(obj.get(key), str):
        raise DatasetError(f"field '{where}{key}' must be a string, got {obj[key]!r}"
                           if key in obj else f"missing field '{where}{key}'")
    try:
        obj[key].encode("utf-8")
    except UnicodeEncodeError as e:
        raise DatasetError(f"field '{where}{key}' cannot be written as UTF-8 ({e.reason})")
    return obj[key]


def _example_from_record(rec) -> QAExample:
    """The example one record holds, typed as the module docstring shows."""
    if not isinstance(rec, dict):
        raise DatasetError(f"record must be an object, got {rec!r}")
    raw = rec.get("choices")
    if not isinstance(raw, list) or not all(isinstance(c, dict) for c in raw):
        raise DatasetError(f"field 'choices' must be a list of objects, got {raw!r}")
    choices = [Choice(*(_field(c, key, f"choices[{i}].") for key in ("label", "text")))
               for i, c in enumerate(raw)]
    ex = QAExample(_field(rec, "id"), _field(rec, "question"), choices, _field(rec, "answerKey"))
    ex.validate()
    return ex


def read_lines(path, error: type[ValueError] = DatasetError, where: str = "") -> list[str]:
    """The lines of a UTF-8 file, split where text mode splits them; a line
    that is not UTF-8 raises `error`, naming the line after `where`."""
    lines = []
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f.read().splitlines(), start=1):
            try:
                lines.append(raw.decode("utf-8"))
            except UnicodeDecodeError as e:
                raise error(f"{where}line {lineno}: not valid UTF-8 (byte {e.start + 1}: "
                            f"{e.reason})") from e
    return lines


def load_dataset(path) -> list[QAExample]:
    """Parse a line-delimited record file; errors carry the line number,
    and a repeated id names both of its lines."""
    examples: list[QAExample] = []
    id_lines: dict[str, int] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise DatasetError(f"line {lineno}: invalid record ({e.msg})") from e
        except RecursionError as e:
            raise DatasetError(f"line {lineno}: invalid record (nested too deeply)") from e
        try:
            ex = _example_from_record(rec)
        except DatasetError as e:
            raise DatasetError(f"line {lineno}: {e}") from e
        if ex.id in id_lines:
            raise DatasetError(f"line {lineno}: id {ex.id!r} already used on line "
                               f"{id_lines[ex.id]}")
        id_lines[ex.id] = lineno
        examples.append(ex)
    return examples


def save_dataset(examples: list[QAExample], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for ex in examples:
            rec = {
                "id": ex.id,
                "question": ex.question,
                "choices": [{"label": c.label, "text": c.text} for c in ex.choices],
                "answerKey": ex.answer_key,
            }
            f.write(json.dumps(rec, ensure_ascii=False) + "\n")


def format_choice(choice: Choice) -> str:
    """Choice letter plus choice text, e.g. "B: surface area"."""
    return f"{choice.label}: {choice.text}"


def format_input(example: QAExample) -> str:
    """`{question} Options: A: text - B: text ...`, choices joined by " - "."""
    opts = " - ".join(format_choice(c) for c in example.choices)
    return f"{example.question} Options: {opts}"


def format_target(example: QAExample) -> str:
    """The gold choice, formatted as format_choice does."""
    return format_choice(example.choices[example.answer_index()])


# -- synthetic fixture -----------------------------------------------------
#
# Five templated fact families with deterministic question -> answer
# mappings, so a desk-scale model can actually learn structure.

_ANIMALS = [
    ("trout", "fish"), ("salmon", "fish"),
    ("eagle", "birds"), ("robin", "birds"),
    ("bear", "mammals"), ("fox", "mammals"),
    ("snake", "reptiles"), ("lizard", "reptiles"),
    ("frog", "amphibians"), ("toad", "amphibians"),
    ("beetle", "insects"), ("moth", "insects"),
]
_CLASS_FEATURES = {
    "fish": "Fish have gills.",
    "birds": "Birds have feathers.",
    "mammals": "Mammals have fur.",
    "reptiles": "Reptiles have scales.",
    "amphibians": "Amphibians have moist skin.",
    "insects": "Insects have six legs.",
}

_ENERGY = [
    ("a person burns wood to boil water", "chemical energy → thermal energy"),
    ("a lamp lights a dark room", "electrical energy → light energy"),
    ("a plant makes food from sunlight", "light energy → chemical energy"),
    ("a windmill turns a generator", "mechanical energy → electrical energy"),
    ("a toaster heats a slice of bread", "electrical energy → thermal energy"),
    ("a battery spins a small fan", "chemical energy → mechanical energy"),
]

_LIFE_CYCLE = [
    ("butterfly", "a caterpillar"), ("frog", "a tadpole"),
    ("chicken", "a chick"), ("grasshopper", "a nymph"),
    ("salmon", "a fry"), ("beetle", "a larva"),
]

_STATES = [
    ("ice melts in the sun", "solid to liquid"),
    ("candle wax melts near a flame", "solid to liquid"),
    ("water boils in a kettle", "liquid to gas"),
    ("a puddle dries on a warm day", "liquid to gas"),
    ("steam condenses on a cold mirror", "gas to liquid"),
    ("dew forms on cool grass", "gas to liquid"),
    ("water freezes in a tray", "liquid to solid"),
    ("juice hardens in a freezer", "liquid to solid"),
]
_STATE_POOL = ["solid to liquid", "liquid to gas", "gas to liquid", "liquid to solid"]

_TOOLS = [
    ("the temperature of water", "a thermometer"),
    ("the mass of a rock", "a balance"),
    ("the length of a leaf", "a ruler"),
    ("the time of a race", "a stopwatch"),
    ("the volume of a liquid", "a graduated cylinder"),
    ("the wind speed outside", "an anemometer"),
]


def _fixture_families():
    animal_pool = list(_CLASS_FEATURES.values())
    fams = []
    fams.append((
        [(f"Scientists group animals based on physical features. Why is a {name} "
          f"classified as {cls}?", _CLASS_FEATURES[cls]) for name, cls in _ANIMALS],
        animal_pool,
    ))
    fams.append((
        [(f"Which sequence correctly orders the energy transformations when {s}?", a)
         for s, a in _ENERGY],
        [a for _, a in _ENERGY],
    ))
    fams.append((
        [(f"Which stage comes right after the egg in the life cycle of a {o}?", a)
         for o, a in _LIFE_CYCLE],
        [a for _, a in _LIFE_CYCLE],
    ))
    fams.append((
        [(f"What change of state occurs when {e}?", a) for e, a in _STATES],
        _STATE_POOL,
    ))
    fams.append((
        [(f"Which tool should a student use to measure {q}?", a) for q, a in _TOOLS],
        [a for _, a in _TOOLS],
    ))
    return fams


def fixture_capacity() -> int:
    """How many distinct examples the fixture families render: per question,
    every ordered draw of 3 distractors times the 4 answer slots."""
    return sum(math.perm(len([t for t in pool if t != answer]), 3) * 4
               for instances, pool in _fixture_families() for _, answer in instances)


def make_fixture(seed: int, n: int) -> list[QAExample]:
    """Deterministic synthetic science QA; same seed gives the same set.

    Every example has 4 choices and a unique rendered form, so n may not
    exceed fixture_capacity().
    """
    if n < 1:
        raise ValueError(f"fixture size must be >= 1, got {n}")
    capacity = fixture_capacity()
    if n > capacity:
        raise ValueError(f"fixture size {n} exceeds the {capacity} distinct examples "
                         f"the fixture can render")
    gen = rngmod.stream(seed, "fixture")
    families = _fixture_families()
    seen: set[str] = set()
    examples: list[QAExample] = []
    attempts = 0
    while len(examples) < n:
        attempts += 1
        if attempts > 200 * n:
            raise ValueError(f"could not draw {n} distinct fixture examples")
        instances, pool = families[int(gen.integers(len(families)))]
        question, answer = instances[int(gen.integers(len(instances)))]
        distractors = [t for t in pool if t != answer]
        picked = [distractors[j] for j in gen.permutation(len(distractors))[:3]]
        slot = int(gen.integers(4))
        texts = picked[:slot] + [answer] + picked[slot:]
        key = question + "\x00" + "\x00".join(texts)
        if key in seen:
            continue
        seen.add(key)
        choices = [Choice(label=LABELS[i], text=t) for i, t in enumerate(texts)]
        examples.append(QAExample(
            id=f"fx{len(examples):05d}",
            question=question,
            choices=choices,
            answer_key=LABELS[slot],
        ))
    return examples


def train_eval_split(examples: list[QAExample],
                     eval_fraction: float) -> tuple[list[QAExample], list[QAExample]]:
    """Seeded shuffle then slice; deterministic."""
    if not 0.0 < eval_fraction < 1.0:
        raise ValueError(f"eval_fraction must be in (0, 1), got {eval_fraction}")
    # seed 0 always: the split does not depend on the run seed, so runs with
    # different seeds train and evaluate on the same examples
    gen = rngmod.stream(0, "split")
    order = gen.permutation(len(examples))
    n_eval = max(1, int(round(len(examples) * eval_fraction)))
    eval_idx = set(int(i) for i in order[:n_eval])
    train = [ex for i, ex in enumerate(examples) if i not in eval_idx]
    evals = [ex for i, ex in enumerate(examples) if i in eval_idx]
    return train, evals
