"""Tokenization, vocabulary, QA dataset ingestion, and the bundled fixture.

The tokenizer is a deterministic lowercase word/punctuation splitter, a
stand-in for a learned subword scheme. Dataset files are UTF-8 with one
JSON record per line with exactly these keys (QAExample's fields, checked
by decode, which reads the run record too):

    {"id": str, "question": str,
     "choices": [{"label": "A".."E", "text": str}, ...],
     "answerKey": str}
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
import typing
from dataclasses import dataclass, field, fields, is_dataclass

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
    answer_key: str = field(metadata={"key": "answerKey"})  # its key in a dataset line

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


def _shown(value) -> str:
    """repr(value) cut to one short line; a JSON object shows its sorted keys."""
    text = repr(sorted(value) if isinstance(value, dict) else value)
    return text if len(text) <= 60 else text[:57] + "..."


@functools.cache  # once per dataclass, not per item
def _schema(cls) -> dict[str, tuple[str, object]]:
    """Each field's JSON key -> (its name, its type hint); metadata "key" renames it."""
    hints = typing.get_type_hints(cls)
    return {f.metadata.get("key", f.name): (f.name, hints[f.name]) for f in fields(cls)}


def decode(value, hint, where: str):
    """A JSON value as the annotated type `hint`, with dataclasses rebuilt;
    `where` is its path in the document ("" at the root). A string must
    encode as UTF-8, a float is finite and takes an int a float can hold, no
    field takes a bool, a tuple is a list with exactly its items and a
    dataclass an object with exactly its fields' keys. A failure raises
    ValueError "<path> must be <kind>, got <value>" for the innermost one."""
    if hint is str:
        if isinstance(value, str):
            try:
                value.encode("utf-8")
                return value
            except UnicodeEncodeError:
                pass
        kind = "a string UTF-8 can encode"
    elif hint is int or hint is float:  # NaN fails the comparison; an int compares exactly
        if isinstance(value, (int, hint)) and not isinstance(value, bool) and (
                hint is int or abs(value) <= sys.float_info.max):
            return value
        kind = "an int" if hint is int else "a finite float"
    elif is_dataclass(hint):
        schema = _schema(hint)
        if isinstance(value, dict) and value.keys() == schema.keys():
            return hint(**{name: decode(value[key], item, f"{where}.{key}" if where else key)
                           for key, (name, item) in schema.items()})
        raise ValueError(f"{where + ' must have' if where else 'expected'} fields "
                         f"{list(schema)}, got {_shown(value)}")
    else:  # list[T] or tuple[T1, ..., Tn]
        origin, args = typing.get_origin(hint), typing.get_args(hint)
        if isinstance(value, list) and (origin is list or len(value) == len(args)):
            return [decode(x, args[0] if origin is list else args[i], f"{where}[{i}]")
                    for i, x in enumerate(value)]
        kind = "a list" if origin is list else f"a list of {len(args)} items"
    raise ValueError(f"{where} must be {kind}, got {_shown(value)}")


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
        except ValueError as e:  # bad JSON, or an integer too long to convert
            raise DatasetError(f"line {lineno}: invalid record ({getattr(e, 'msg', e)})") from e
        except RecursionError as e:
            raise DatasetError(f"line {lineno}: invalid record (nested too deeply)") from e
        try:
            ex = decode(rec, QAExample, "")
            ex.validate()
        except ValueError as e:
            raise DatasetError(f"line {lineno}: {e}") from e
        if ex.id in id_lines:
            raise DatasetError(f"line {lineno}: id {ex.id!r} already used on line "
                               f"{id_lines[ex.id]}")
        id_lines[ex.id] = lineno
        examples.append(ex)
    return examples


def save_dataset(examples: list[QAExample], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for ex in examples:  # default=vars writes each Choice as its fields
            rec = {key: getattr(ex, name) for key, (name, _) in _schema(QAExample).items()}
            f.write(json.dumps(rec, ensure_ascii=False, default=vars) + "\n")


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
