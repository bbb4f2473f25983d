"""Toy-scale corpora: TSV ingestion, whitespace tokenizer, synthetic tasks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PAD, UNK, CLS, SEP = 0, 1, 2, 3
_SPECIALS = {"[PAD]": PAD, "[UNK]": UNK, "[CLS]": CLS, "[SEP]": SEP}


class ParseError(ValueError):
    pass


@dataclass
class Example:
    text_a: str
    text_b: str | None
    label: int


@dataclass
class Corpus:
    examples: list
    label_names: list

    def __len__(self):
        return len(self.examples)


@dataclass
class Tokenizer:
    vocab: dict = field(default_factory=lambda: dict(_SPECIALS))
    max_len: int = 32

    @classmethod
    def build(cls, corpus: Corpus, max_len: int = 32) -> "Tokenizer":
        """Vocabulary from the training split only (dev OOV maps to UNK)."""
        tok = cls(max_len=max_len)
        words = sorted({w for ex in corpus.examples
                        for text in (ex.text_a, ex.text_b) if text
                        for w in _split(text)})
        for w in words:
            tok.vocab.setdefault(w, len(tok.vocab))
        return tok

    @property
    def vocab_size(self):
        return len(self.vocab)

    def encode(self, text_a: str, text_b: str | None = None) -> np.ndarray:
        """[CLS] a [SEP] (b [SEP])?, padded/truncated to max_len."""
        ids = [CLS]
        ids += [self.vocab.get(w, UNK) for w in _split(text_a)]
        ids.append(SEP)
        if text_b is not None:
            ids += [self.vocab.get(w, UNK) for w in _split(text_b)]
            ids.append(SEP)
        ids = ids[:self.max_len]
        ids += [PAD] * (self.max_len - len(ids))
        return np.asarray(ids, dtype=np.int64)


def _split(text: str) -> list:
    return text.lower().split()


def load_tsv(path) -> Corpus:
    """TSV with header `text_a[<TAB>text_b]<TAB>label`; labels to dense ids."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = lines[0].split("\t")
    if header[0] != "text_a" or header[-1] != "label" or \
            (len(header) == 3 and header[1] != "text_b") or len(header) not in (2, 3):
        raise ParseError(f"{path}: header must be text_a[,text_b],label")
    pair_mode = len(header) == 3
    raw = []
    for lineno, line in enumerate(lines[1:], start=2):
        cols = line.split("\t")
        if len(cols) != len(header) or not cols[-1].strip():
            raise ParseError(f"{path}:{lineno}: malformed row")
        raw.append((cols[0], cols[1] if pair_mode else None, cols[-1].strip()))
    label_names = sorted({r[2] for r in raw})
    label_id = {name: i for i, name in enumerate(label_names)}
    examples = [Example(a, b, label_id[lab]) for a, b, lab in raw]
    return Corpus(examples=examples, label_names=label_names)


_WORDS = ["alpha", "bravo", "carbon", "delta", "ember", "falcon", "granite",
          "harbor", "indigo", "juniper", "kelvin", "lumen", "meadow", "nickel",
          "orchid", "pylon", "quartz", "raven", "sable", "tundra"]
_KEYWORDS = ["zenith", "vortex"]

SYNTH_KINDS = ("keyword-presence", "parity-of-keywords", "pair-overlap")


def synth_task(kind: str, size: int, seed: int, length: int = 8) -> Corpus:
    """Deterministic synthetic corpus, separable by construction.

    keyword-presence: label 1 iff a marker word occurs.
    parity-of-keywords: label = parity of marker occurrences.
    pair-overlap: label 1 iff the two texts share >= half their words.
    """
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown synthetic task {kind!r}")
    if size < 2:
        raise ValueError("size must be >= 2")
    rng = np.random.default_rng(seed)
    examples = []
    for n in range(size):
        want = n % 2  # alternate labels for balance
        words = list(rng.choice(_WORDS, size=length))
        if kind == "keyword-presence":
            if want:
                words[rng.integers(length)] = _KEYWORDS[0]
            examples.append(Example(" ".join(words), None, want))
        elif kind == "parity-of-keywords":
            count = 2 * int(rng.integers(0, 2)) + want
            for pos in rng.choice(length, size=min(count, length), replace=False):
                words[pos] = _KEYWORDS[0]
            examples.append(Example(" ".join(words), None, want))
        else:  # pair-overlap
            words = list(rng.choice(_WORDS[:10], size=length))
            if want:
                other = list(words)
                rng.shuffle(other)
            else:  # disjoint vocabulary halves guarantee zero overlap
                other = list(rng.choice(_WORDS[10:], size=length))
            examples.append(Example(" ".join(words), " ".join(other), want))
    return Corpus(examples=examples, label_names=["0", "1"])


def encode_corpus(tokenizer: Tokenizer, corpus: Corpus) -> list:
    """(token array, label) pairs in corpus order."""
    return [(tokenizer.encode(ex.text_a, ex.text_b), ex.label)
            for ex in corpus.examples]


def batches(items: list, batch_size: int) -> list:
    """Contiguous batches preserving the example multiset."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    return [items[i:i + batch_size] for i in range(0, len(items), batch_size)]


def stack_by_length(items: list) -> list:
    """(tokens (B, seq), labels (B,)) per sequence length, in first-seen order.

    The rate path runs a stacked group in one call; encoded corpora are
    padded to `max_len`, so they form a single group.
    """
    groups: dict = {}
    for tokens, label in items:
        groups.setdefault(len(tokens), []).append((tokens, label))
    return [(np.stack([t for t, _ in group]),
             np.array([lab for _, lab in group]))
            for group in groups.values()]
