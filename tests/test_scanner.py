"""Word boundaries: which characters the engine groups into one word.

A word is a maximal run of word characters that holds a letter; everything
between words is a gap that only gets the symbol mapping. These tests split
text with the word pattern the engine splits by (``rules._WORD``) and hold it
to ``helpers.split_words``.
"""

import itertools

from hypothesis import given
from hypothesis import strategies as st

from hawar2sorani.alphabets import APOSTROPHES, KURDISH_LATIN_LETTERS, WORD_CHARS
from hawar2sorani.rules import _WORD
from helpers import split_words

WORD, GAP = "word", "gap"


def split(text):
    """The text as (WORD|GAP, piece) pairs, in order."""
    pieces = []
    pos = 0
    for match in _WORD.finditer(text):
        if match.start() > pos:
            pieces.append((GAP, text[pos : match.start()]))
        pieces.append((WORD, match.group()))
        pos = match.end()
    if pos < len(text):
        pieces.append((GAP, text[pos:]))
    return pieces


def assert_separates_words(ch):
    assert split("a" + ch + "b") == [(WORD, "a"), (GAP, ch), (WORD, "b")]


# ------------------------------------------------------- word characters

def test_classify_kurdish_letters():
    for ch in "şaZÇêÎûḧẌ":
        assert split(ch) == [(WORD, ch)]
        assert split("a" + ch + "b") == [(WORD, "a" + ch + "b")]


def test_classify_apostrophe_variants():
    for ch in ("'", "’", "ʼ"):
        assert split(ch) == [(GAP, ch)]
        assert split("a" + ch + "b") == [(WORD, "a" + ch + "b")]
        assert split(ch + "a") == [(WORD, ch + "a")]


def test_classify_punctuation():
    for ch in ("؟", ".", "«"):
        assert_separates_words(ch)


def test_classify_whitespace():
    for ch in (" ", "\t", "\n", "\xa0"):
        assert_separates_words(ch)


def test_classify_digits():
    for ch in ("7", "٧"):
        assert_separates_words(ch)


def test_classify_other():
    for ch in ("م", "é", "̈"):  # the last is a combining diaeresis
        assert_separates_words(ch)


# ------------------------------------------------------------- splitting

def test_segment_words_and_spaces():
    assert split("min û tu") == [
        (WORD, "min"),
        (GAP, " "),
        (WORD, "û"),
        (GAP, " "),
        (WORD, "tu"),
    ]


def test_segment_absorbs_apostrophe():
    assert split("Se'îd.") == [(WORD, "Se'îd"), (GAP, ".")]


def test_segment_empty():
    assert split("") == []


def test_segment_apostrophes_alone_are_symbols():
    assert split("'' a'b ''c") == [
        (GAP, "'' "),
        (WORD, "a'b"),
        (GAP, " "),
        (WORD, "''c"),
    ]


def test_segment_merges_symbol_runs():
    assert split("baş? 12!") == [(WORD, "baş"), (GAP, "? 12!")]


def test_segment_arabic_is_symbols():
    assert split("دیننە") == [(GAP, "دیننە")]


# A pool that leans on known tricky characters plus plain text.
_TRICKY = "\x1c\x1d\x1e\x1f\x85\xa0\u2028\u2029\u200b\ufeff\u200f'’ʼ«؟٣م."
_pool = st.one_of(
    st.sampled_from(list(_TRICKY + "abcç êîşûḧẍABZ 09\t\n")),
    st.characters(),
)
texts = st.text(_pool, max_size=80)


@given(texts)
def test_partition_property(text):
    pieces = split(text)
    assert "".join(piece for _, piece in pieces) == text
    assert all(piece for _, piece in pieces)
    kinds = [kind for kind, _ in pieces]
    assert all(a != b for a, b in zip(kinds, kinds[1:]))


@given(texts)
def test_stability_property(text):
    # Each piece split on its own is that same piece again.
    for kind, piece in split(text):
        assert split(piece) == [(kind, piece)]


@given(texts)
def test_token_purity(text):
    pieces = split(text)
    oracle = [(WORD if i % 2 else GAP, piece) for i, piece in enumerate(split_words(text))]
    assert pieces == [(kind, piece) for kind, piece in oracle if piece]
    for i, (kind, piece) in enumerate(pieces):
        if kind == WORD:
            assert WORD_CHARS.issuperset(piece)
            assert any(c in KURDISH_LATIN_LETTERS for c in piece)
        else:
            assert not any(c in KURDISH_LATIN_LETTERS for c in piece)
            # words are maximal: a gap neither continues the word before it
            # nor ends in apostrophes that would lead the word after it
            if i > 0:
                assert piece[0] not in APOSTROPHES
            if i + 1 < len(pieces):
                assert piece[-1] not in APOSTROPHES


# The word contract against the plain-Python split, on texts that mix both-case
# letters, runs of the three apostrophes and gaps that sit next to them in
# real text: combining marks, ZWNJ, the soft hyphen and Arabic letters.
_GAPS = [" ", "\n", ".", "7", "\u0302", "\u0327", "\u200c", "\u00ad", "م", "ە"]
contract_texts = st.lists(
    st.one_of(
        st.sampled_from(sorted(KURDISH_LATIN_LETTERS)),
        st.text(st.sampled_from(sorted(APOSTROPHES)), min_size=1, max_size=4),
        st.sampled_from(_GAPS),
    ),
    max_size=40,
).map("".join)


@given(contract_texts)
def test_word_pattern_keeps_the_word_contract(text):
    pieces = split_words(text)
    assert _WORD.split(text) == pieces
    starts = list(itertools.accumulate(map(len, pieces)))[::2]
    spans = [(start, start + len(word)) for start, word in zip(starts, pieces[1::2])]
    assert [match.span() for match in _WORD.finditer(text)] == spans
