import numpy as np
import pytest

from eqspike import pipeline as pl
from eqspike.data import (CLS, PAD, SEP, UNK, Corpus, Example, ParseError,
                          SYNTH_KINDS, Tokenizer, batches, encode_corpus,
                          load_tsv, synth_task)
from eqspike.distill import (evaluate_kd_loss, init_projections,
                             run_distillation)
from eqspike.implicit_grad import training_step
from eqspike.model import (EncoderStack, StackConfig, TeacherConfig,
                           TeacherModel, teacher_forward)
from eqspike.numerics import AdamState, ShapeError
from eqspike.quantizer import QuantMode


def corpus_of(texts, labels, pairs=None):
    exs = [Example(t, pairs[i] if pairs else None, labels[i])
           for i, t in enumerate(texts)]
    return Corpus(examples=exs, label_names=sorted({str(l) for l in labels}))


def test_tokenizer_builds_sorted_vocab_after_specials():
    tok = Tokenizer.build(corpus_of(["b a", "c a"], [0, 1]), max_len=8)
    assert tok.vocab["[PAD]"] == PAD and tok.vocab["[UNK]"] == UNK
    assert tok.vocab["a"] == 4 and tok.vocab["b"] == 5 and tok.vocab["c"] == 6


def test_encode_layout_and_padding():
    tok = Tokenizer.build(corpus_of(["a b"], [0]), max_len=8)
    ids = tok.encode("a b")
    assert ids[0] == CLS
    assert ids[3] == SEP
    assert list(ids[4:]) == [PAD] * 4
    assert len(ids) == 8


def test_encode_pair_and_truncation():
    tok = Tokenizer.build(corpus_of(["a b"], [0]), max_len=5)
    ids = tok.encode("a b", "a a a a")
    assert len(ids) == 5
    assert ids[0] == CLS and SEP in ids


def test_unknown_words_map_to_unk():
    tok = Tokenizer.build(corpus_of(["a"], [0]), max_len=6)
    ids = tok.encode("zz a")
    assert ids[1] == UNK


def test_tokenizer_lowercases():
    tok = Tokenizer.build(corpus_of(["Apple"], [0]), max_len=6)
    assert tok.encode("APPLE")[1] == tok.encode("apple")[1] != UNK


def test_load_tsv_single_and_labels(tmp_path):
    p = tmp_path / "train.tsv"
    p.write_text("text_a\tlabel\nhello world\tpos\nbye\tneg\n")
    corpus = load_tsv(p)
    assert corpus.label_names == ["neg", "pos"]
    assert corpus.examples[0].label == 1  # "pos" sorts after "neg"
    assert all(ex.text_b is None for ex in corpus.examples)


def test_load_tsv_pair_mode(tmp_path):
    p = tmp_path / "train.tsv"
    p.write_text("text_a\ttext_b\tlabel\na b\tc d\t0\n")
    corpus = load_tsv(p)
    assert any(ex.text_b is not None for ex in corpus.examples)
    assert corpus.examples[0].text_b == "c d"


@pytest.mark.parametrize("content", [
    "",  # empty file
    "foo\tlabel\nx\t0\n",  # bad header
    "text_a\tlabel\nonly-one-column\n",  # missing column
    "text_a\tlabel\nx\t\n",  # empty label
    "text_a\ttext_b\tlabel\na\tb\n",  # pair header, missing label column
    "text_a\tlabel\n",  # header only, no data rows
])
def test_load_tsv_errors(tmp_path, content):
    p = tmp_path / "bad.tsv"
    p.write_text(content)
    with pytest.raises(ParseError):
        load_tsv(p)


def test_load_tsv_error_carries_line_number(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("text_a\tlabel\nok\t0\nbroken row\n")
    with pytest.raises(ParseError, match=":3"):
        load_tsv(p)


@pytest.mark.parametrize("kind", SYNTH_KINDS)
def test_synth_tasks_balanced_and_deterministic(kind):
    c1 = synth_task(kind, 40, seed=7)
    c2 = synth_task(kind, 40, seed=7)
    assert [e.text_a for e in c1.examples] == [e.text_a for e in c2.examples]
    labels = [e.label for e in c1.examples]
    assert sum(labels) == 20
    assert c1.label_names == ["0", "1"]


def test_keyword_presence_is_separable():
    c = synth_task("keyword-presence", 30, seed=0)
    for ex in c.examples:
        assert ("zenith" in ex.text_a.split()) == bool(ex.label)


def test_parity_task_counts_keywords():
    c = synth_task("parity-of-keywords", 30, seed=1)
    for ex in c.examples:
        assert ex.text_a.split().count("zenith") % 2 == ex.label


def test_pair_overlap_task_has_pairs_with_disjoint_negatives():
    c = synth_task("pair-overlap", 30, seed=2)
    assert all(ex.text_b is not None for ex in c.examples)
    for ex in c.examples:
        overlap = set(ex.text_a.split()) & set(ex.text_b.split())
        assert bool(overlap) == bool(ex.label)


def test_synth_task_validation():
    with pytest.raises(ValueError):
        synth_task("nope", 10, 0)
    with pytest.raises(ValueError):
        synth_task("keyword-presence", 1, 0)


def test_encode_corpus_and_batches():
    corpus = synth_task("keyword-presence", 10, seed=3)
    tok = Tokenizer.build(corpus, max_len=12)
    items = encode_corpus(tok, corpus)
    assert len(items) == 10
    assert items[0][0].shape == (12,)
    bs = batches(items, 4)
    assert [len(b) for b in bs] == [4, 4, 2]
    with pytest.raises(ValueError):
        batches(items, 0)


MIXED = [(np.array([2, 4, 5]), 0), (np.array([2, 6, 7, 8, 9]), 1),
         (np.array([3, 9, 1]), 1)]


@pytest.mark.parametrize("consumer", [
    "training_step", "student_accuracy", "run_distillation",
    "evaluate_kd_loss", "energy_compare"])
def test_mixed_lengths_raise_shape_error_naming_them(consumer):
    shape = dict(vocab_size=11, hidden_dim=8, intermediate_dim=12,
                 num_heads=2, num_layers=2, max_len=6, num_labels=2)
    stack, fp = (EncoderStack(StackConfig(**shape, quant_mode=mode),
                              np.random.default_rng(0))
                 for mode in (QuantMode.TERNARY_158BIT,
                              QuantMode.FULL_PRECISION))
    teacher = TeacherModel(TeacherConfig(**shape), np.random.default_rng(1))
    projections = init_projections(8, 8, 2, np.random.default_rng(2))
    adam = AdamState()
    training_step(stack, MIXED[::2], adam)  # moments to compare against
    calls = {
        "training_step": lambda: training_step(stack, MIXED, adam),
        "student_accuracy": lambda: pl.student_accuracy(stack, MIXED),
        "run_distillation": lambda: run_distillation(
            stack, teacher, MIXED, 1, projections, adam),
        "evaluate_kd_loss": lambda: evaluate_kd_loss(
            stack, MIXED, projections,
            lambda tokens, positions: teacher_forward(teacher, tokens)[0]),
        "energy_compare": lambda: pl.energy_compare(None, stack, fp, MIXED,
                                                    T=5)}
    params = stack.params.flat.copy()
    m = {k: v.copy() for k, v in adam.m.items()}
    v = {k: v.copy() for k, v in adam.v.items()}
    with pytest.raises(ShapeError, match=r"equal-length.*lengths \[3, 5\]"):
        calls[consumer]()
    np.testing.assert_array_equal(stack.params.flat, params)
    assert adam.step == 1
    assert adam.m.keys() == m.keys() == adam.v.keys() == v.keys()
    for k in m:
        np.testing.assert_array_equal(adam.m[k], m[k])
        np.testing.assert_array_equal(adam.v[k], v[k])
