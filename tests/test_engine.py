import ast
import io
import itertools
import multiprocessing
import pickle
import random
import re
import sys
import threading
import types
import unicodedata
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from hawar2sorani import cli, engine, rules, transliterate
from hawar2sorani.alphabets import APOSTROPHES, KURDISH_LATIN_LETTERS, LATIN_RULE_CHARS, WORD_CHARS
from hawar2sorani.engine import (
    RLM,
    DigitMode,
    EngineConfig,
    PunctMode,
    UnmatchedCharacter,
    map_symbols,
    transliterate_text,
    transliterate_word,
)
from hawar2sorani.rules import (
    Context,
    Rule,
    RuleSet,
    default_rules,
    fold_word,
    parse_rules,
    serialize_rules,
)
from helpers import (
    naive_fold,
    naive_parse,
    naive_transliterate_text,
    naive_transliterate_word,
    outcome,
    split_words,
)


# --------------------------------------------------------------- fold_word

def test_fold_plain():
    assert fold_word("Kurdistan") == "kurdistan"


def test_fold_extended_letters():
    assert fold_word("ŞEMDÎNANÎ") == "şemdînanî"
    assert fold_word("ÇÊÛḦẌ") == "çêûḧẍ"


def test_fold_apostrophe_canonicalized():
    assert fold_word("Se’îd") == "se'îd"
    assert fold_word("Seʼîd") == "se'îd"


def test_fold_composes_nfc():
    assert fold_word("ḧ") == "ḧ"  # h + diaeresis -> ḧ
    # H + macron below has no composed form; h + macron below composes to
    # ẖ, so only the NFC after lowering gives it.
    assert fold_word("H̱") == "ẖ"


def test_batched_fold_equals_fold_word_on_every_code_point(monkeypatch):
    # RuleSet._rewrite folds a batch with one fold_word call over its words
    # joined with newlines; a table with no rules returns the folded words.
    # Each code point but the newline and the surrogates is a word of its own
    # (its neighbours across the newline are the code points beside it); each
    # assigned one also stands between Latin letters, and between Greek
    # capital sigmas, whose lowercase depends on the cased letters around
    # them. An unassigned code point has no decomposition and no case and is
    # not case-ignorable, so neither NFC nor lower treats it otherwise beside
    # them.
    no_rules = RuleSet(())
    code_points = [
        chr(i) for i in range(sys.maxunicode + 1) if i != 10 and not 0xD800 <= i < 0xE000
    ]
    assigned = [c for c in code_points if unicodedata.category(c) != "Cn"]
    passes = []
    monkeypatch.setattr(rules, "fold_word", lambda text: passes.append(text) or fold_word(text))
    for words in (code_points, [f"a{c}a" for c in assigned], [f"Σ{c}Σ" for c in assigned]):
        assert no_rules._rewrite(words) == list(map(fold_word, words))
    assert len(passes) == 3  # one fold_word call per batch


# ------------------------------------------------------- transliterate_word

@pytest.mark.parametrize(
    ("latin", "expected"),
    [
        ("min", "من"),
        ("diînine", "دئیننە"),
        ("se'îd", "سەعید"),
        ("kurdistan", "کوردستان"),
        ("agir", "ئاگر"),
        ("dill", "دڵ"),
        ("şerr", "شەڕ"),
        ("ḧeft", "حەفت"),
        ("ẍerîb", "غەریب"),
        ("'erd", "عەرد"),
        ("dua", "دوئا"),
    ],
)
def test_word_table(latin, expected, rs):
    assert transliterate_word(latin, rs) == expected


def test_word_exception(rs):
    assert transliterate_word("û", rs) == "و"
    assert transliterate_word("Û", rs) == "و"


def test_word_exception_only_whole_word(rs):
    # "û" inside a longer word follows the normal rules
    assert transliterate_word("ûr", rs) == "ئوور"


def test_word_passes_unmatched_character_through():
    tiny = parse_rules("b\tany\tب\na\tany\tا")
    assert transliterate_word("baq", tiny) == "باq"


def test_word_strict_raises():
    tiny = parse_rules("b\tany\tب\na\tany\tا")
    with pytest.raises(UnmatchedCharacter) as exc_info:
        transliterate_word("baq", tiny, strict=True)
    assert exc_info.value.char == "q"
    assert exc_info.value.offset == 2


@pytest.mark.parametrize(
    ("word", "char", "offset"),
    [
        ("\u0628", "\u0628", 0),  # a typed Arabic letter: its output is Arabic
        ("\u064a\u0654", "\u0626", 0),  # NFC composes an Arabic letter
        ("m0t", "0", 1),
    ],
)
def test_word_strict_finds_what_the_output_hides(rs, word, char, offset):
    # A typed Arabic letter, one that NFC composes and a digit: ``char``, at
    # ``offset`` of the string's NFC form, is no word character, so
    # transliterate_word refuses each, strict or not.
    nfc = unicodedata.normalize("NFC", word)
    assert nfc[offset] == char and char not in WORD_CHARS
    for strict in (False, True):
        with pytest.raises(ValueError) as exc_info:
            transliterate_word(word, rs, strict=strict)
        assert type(exc_info.value) is ValueError


def test_word_strict_accepts_a_decomposed_word(rs):
    # Not a word run as given, but its NFC form is one.
    assert transliterate_word("e\u0302", rs, strict=True) == "\u0626\u06ce"


def test_unmatched_character_pickles():
    error = UnmatchedCharacter("q", 2, 5, 7)
    copy = pickle.loads(pickle.dumps(error))
    assert (copy.char, copy.offset, copy.line, copy.column) == ("q", 2, 5, 7)
    assert str(copy) == str(error) == "no rule matches 'q' at 5:7"
    copy = pickle.loads(pickle.dumps(UnmatchedCharacter("q", 2)))
    assert str(copy) == "no rule matches 'q' at offset 2"


def test_strict_error_reaches_parent_process():
    tiny = parse_rules("b\tany\tب\na\tany\tا")
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        future = pool.submit(transliterate_text, "baq", tiny, strict=True)
        with pytest.raises(UnmatchedCharacter) as exc_info:
            future.result(timeout=60)
    assert (exc_info.value.char, exc_info.value.line, exc_info.value.column) == ("q", 1, 3)


def test_word_strict_cache_interaction():
    # the same word must behave identically whichever mode ran first
    tiny = parse_rules("b\tany\tب\na\tany\tا")
    assert transliterate_word("baq", tiny) == "باq"
    with pytest.raises(UnmatchedCharacter):
        transliterate_word("baq", tiny, strict=True)
    assert transliterate_word("baq", tiny) == "باq"


def test_word_separator_like_characters_match_oracle(rs):
    # The engine rewrites a batch of words joined by newlines, and its rules
    # take any ASCII character that is not a word character for a word
    # boundary. A newline beside a word must not join two words' rule
    # contexts, nor may U+00DE, U+00FE (its lowercase), U+2126 or U+03A9 (its
    # NFC form), characters that are no boundary and were once the separator.
    # A string holding one is not a word: transliterate_word refuses it, and
    # as a text it matches the oracle.
    table = parse_rules(
        "a\tinitial\tئا\na\tafter_vowel\tع\na\tany\tا\nn\tfinal\tین\nn\tany\tن\n"
        "na\tfinal\tنە\n"
    )
    alphabet = ["a", "n", "\n", "\u00de", "\u00fe", "\u2126", "\u03a9"]
    for ruleset in (rs, table):
        for length in range(1, 4):
            for chars in itertools.product(alphabet, repeat=length):
                word = "".join(chars)
                if set(word) <= {"a", "n"}:
                    try:
                        transliterate_word(word, ruleset, strict=True)
                        offset = -1
                    except UnmatchedCharacter as exc:
                        offset = exc.offset
                    got = (transliterate_word(word, ruleset), offset)
                    assert got == naive_parse(naive_fold(word), ruleset), repr(word)
                else:
                    for strict in (False, True):
                        with pytest.raises(ValueError):
                            transliterate_word(word, ruleset, strict=strict)
                for strict in (False, True):
                    assert outcome(transliterate_text, word, ruleset, strict=strict) == outcome(
                        naive_transliterate_text, word, ruleset, EngineConfig(), strict=strict
                    ), repr(word)


# ------------------------------------------------------------- map_symbols

def test_symbols_arabic_punct(cfg):
    assert map_symbols("?,;", cfg) == "؟،؛"


def test_symbols_keep_punct():
    keep = EngineConfig(punct_mode=PunctMode.KEEP)
    assert map_symbols("?", keep) == "?"


def test_symbols_digits():
    arabic = EngineConfig(digit_mode=DigitMode.ARABIC_INDIC)
    assert map_symbols("1984", arabic) == "١٩٨٤"
    keep = EngineConfig()
    assert map_symbols("1984", keep) == "1984"


def test_symbols_everything_else_unchanged(cfg):
    assert map_symbols("«»!٣—", cfg) == "«»!٣—"


@pytest.mark.parametrize(
    "punct, digits, expected",
    [
        (PunctMode.KEEP, DigitMode.KEEP, "a,b;c?d 0123456789 «.»"),
        (PunctMode.ARABIC_SCRIPT, DigitMode.KEEP, "a،b؛c؟d 0123456789 «.»"),
        (PunctMode.KEEP, DigitMode.ARABIC_INDIC, "a,b;c?d ٠١٢٣٤٥٦٧٨٩ «.»"),
        (PunctMode.ARABIC_SCRIPT, DigitMode.ARABIC_INDIC, "a،b؛c؟d ٠١٢٣٤٥٦٧٨٩ «.»"),
    ],
)
def test_symbols_every_mode_combination(punct, digits, expected):
    # Every mapped symbol, once, in every combination of the two modes.
    assert map_symbols("a,b;c?d 0123456789 «.»", EngineConfig(digits, punct)) == expected


# ------------------------------------------------------------ EngineConfig

_CONFIG_REPR = (
    "EngineConfig(digit_mode=<DigitMode.ARABIC_INDIC: 'arabic'>, "
    "punct_mode=<PunctMode.KEEP: 'keep'>, emit_rlm=True)"
)


def test_config_constructs_with_defaults_and_by_keyword():
    default = EngineConfig()
    assert (default.digit_mode, default.punct_mode, default.emit_rlm) == (
        DigitMode.KEEP,
        PunctMode.ARABIC_SCRIPT,
        False,
    )
    assert default == engine.DEFAULT_CONFIG
    custom = EngineConfig(DigitMode.ARABIC_INDIC, PunctMode.KEEP, True)
    assert custom == EngineConfig(
        emit_rlm=True, punct_mode=PunctMode.KEEP, digit_mode=DigitMode.ARABIC_INDIC
    )
    assert EngineConfig(DigitMode.ARABIC_INDIC) == EngineConfig(digit_mode=DigitMode.ARABIC_INDIC)
    with pytest.raises(TypeError):
        EngineConfig(DigitMode.KEEP, PunctMode.KEEP, False, False)
    with pytest.raises(TypeError):
        EngineConfig(rlm=True)


def test_config_equality_hash_and_repr():
    custom = EngineConfig(DigitMode.ARABIC_INDIC, PunctMode.KEEP, True)
    same = EngineConfig(DigitMode.ARABIC_INDIC, PunctMode.KEEP, True)
    assert custom == same and not custom != same and hash(custom) == hash(same)
    assert custom != EngineConfig(DigitMode.ARABIC_INDIC, PunctMode.KEEP, False)
    assert custom != EngineConfig()
    # Equal only to an EngineConfig, not to a tuple of the same fields.
    fields = (DigitMode.ARABIC_INDIC, PunctMode.KEEP, True)
    assert custom != fields and custom.__eq__(fields) is NotImplemented
    assert len({custom, same, EngineConfig()}) == 2
    assert repr(custom) == _CONFIG_REPR
    assert repr(EngineConfig()) == (
        "EngineConfig(digit_mode=<DigitMode.KEEP: 'keep'>, "
        "punct_mode=<PunctMode.ARABIC_SCRIPT: 'arabic'>, emit_rlm=False)"
    )


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_config_pickles(protocol):
    custom = EngineConfig(DigitMode.ARABIC_INDIC, PunctMode.KEEP, True)
    copy = pickle.loads(pickle.dumps(custom, protocol))
    assert type(copy) is EngineConfig and copy == custom and hash(copy) == hash(custom)
    assert repr(copy) == _CONFIG_REPR
    assert map_symbols("1,", copy) == "١,"


def test_config_takes_a_mode_or_its_value(rs):
    by_value = EngineConfig(digit_mode="arabic", punct_mode="keep")
    by_member = EngineConfig(DigitMode.ARABIC_INDIC, PunctMode.KEEP)
    assert by_value == by_member and hash(by_value) == hash(by_member)
    assert repr(by_value) == repr(by_member)
    text = "sal 1984, baş?"
    assert transliterate_text(text, rs, by_value) == "سال ١٩٨٤, باش?"
    assert transliterate_text(text, rs, by_member) == "سال ١٩٨٤, باش?"
    assert EngineConfig("keep", "arabic") == EngineConfig()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(by_value, protocol))
        assert copy == by_member and copy.digit_mode is DigitMode.ARABIC_INDIC
        assert transliterate_text(text, rs, copy) == "سال ١٩٨٤, باش?"
    # A wrong value, a wrong case, None, or the other field's member.
    wrong = (("x", "keep"), ("keep", "ARABIC"), (None, "keep"), ("keep", DigitMode.KEEP))
    for digit_mode, punct_mode in wrong:
        with pytest.raises(ValueError):
            EngineConfig(digit_mode, punct_mode)
    # emit_rlm takes a value equal to True or False, stored as a bool.
    assert EngineConfig(emit_rlm=1) == EngineConfig(emit_rlm=True)
    assert EngineConfig(emit_rlm=0).emit_rlm is False
    assert repr(EngineConfig("arabic", "keep", 1)) == _CONFIG_REPR
    for emit_rlm in ("no", "", None, 2, [True]):
        with pytest.raises(ValueError):
            EngineConfig(emit_rlm=emit_rlm)


def test_config_refuses_every_assignment_and_deletion():
    config = EngineConfig(DigitMode.ARABIC_INDIC, PunctMode.KEEP, True)
    names = ("digit_mode", "punct_mode", "emit_rlm")
    for name in names + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(config, name, None)
        with pytest.raises(AttributeError):
            delattr(config, name)
    assert repr(config) == _CONFIG_REPR
    assert not hasattr(config, "not_a_field")


# -------------------------------------------------------- transliterate_text

def test_text_sentence(rs, cfg):
    assert transliterate_text("min û tu", rs, cfg) == "من و تو"


def test_text_empty(rs, cfg):
    assert transliterate_text("", rs, cfg) == ""


def test_text_arabic_passthrough(rs, cfg):
    assert transliterate_text("دیننە", rs, cfg) == "دیننە"
    # Arabic text is never a word; its punctuation and digits still map
    assert transliterate_text("دیننە, min؟ ٣", rs, cfg) == "دیننە، من؟ ٣"


def test_text_mixed_line(rs, cfg):
    assert transliterate_text("rojbaş, se'îd?", rs, cfg) == "رۆژباش، سەعید؟"
    # an apostrophe inside a word belongs to it; the full stop does not
    assert transliterate_text("Se'îd.", rs, cfg) == "سەعید."
    # apostrophes alone are not a word; leading ones join the next word
    assert transliterate_text("'' a'b ''c", rs, cfg) == "'' ئاعب ععج"
    assert transliterate_text("baş? 12!", rs, cfg) == "باش؟ 12!"


def test_text_decomposed_input_still_matches(rs, cfg):
    # ḧ typed as h + combining diaeresis
    assert transliterate_text("ḧeft", rs, cfg) == "حەفت"


def test_text_preserves_newlines(rs, cfg):
    out = transliterate_text("min\n\ntu\n", rs, cfg)
    assert out == "من\n\nتو\n"


def test_text_strict_line_and_column(rs):
    tiny = parse_rules("b\tany\tب\na\tany\tا\nn\tany\tن")
    with pytest.raises(UnmatchedCharacter) as exc_info:
        transliterate_text("ban\nbaq na", tiny, strict=True)
    assert (exc_info.value.line, exc_info.value.column) == (2, 3)
    assert exc_info.value.char == "q"


def test_text_rlm_after_final_stop(rs):
    rlm_cfg = EngineConfig(emit_rlm=True)
    assert transliterate_text("min.\n", rs, rlm_cfg) == "من." + RLM + "\n"
    assert transliterate_text("min.\r\n", rs, rlm_cfg) == "من." + RLM + "\r\n"
    assert transliterate_text("min.\r\r\n", rs, rlm_cfg) == "من." + RLM + "\r\r\n"
    assert transliterate_text("min.", rs, rlm_cfg) == "من." + RLM
    # not at end of line: untouched
    assert transliterate_text("min. tu\n", rs, rlm_cfg) == "من. تو\n"


def test_text_rlm_off_by_default(rs, cfg):
    assert transliterate_text("min.\n", rs, cfg) == "من.\n"


def test_text_output_is_nfc(rs, cfg):
    # U+0654 ARABIC HAMZA ABOVE after a word composes with the word's last
    # letter once it is Arabic: U+0627 ALEF + U+0654 is U+0623 in NFC.
    assert transliterate("ba\u0654") == "\u0628\u0623"
    with pytest.raises(ValueError):  # the mark is no word character
        transliterate_word("ba\u0654", rs)
    text = "ba\u0654 min\u0654\n\u00fb\u0654 0\u0654"
    assert transliterate_text(text, rs, cfg) == naive_transliterate_text(text, rs, cfg)
    assert unicodedata.is_normalized("NFC", transliterate_text(text, rs, cfg))


def test_text_cache_clears_mid_text(monkeypatch):
    monkeypatch.setattr(rules, "_CACHE_LIMIT", 8)
    table = parse_rules("b\tany\tب\na\tany\tا\nn\tany\tن\ni\tinitial\tئ\n")
    lines = [
        "ban nab abn ab, na",
        "bab naan Bab, ib baq",
        "qa ban nnn bbb ina",
        "bin nib banan ba b",
        "ban nab",
    ]
    text = "\n".join(lines)
    assert len(set(rules._WORD.findall(text))) > 8
    configs = (EngineConfig(), EngineConfig(digit_mode=DigitMode.ARABIC_INDIC, emit_rlm=True))
    for strict in (False, True):
        for config in configs:
            expected = outcome(naive_transliterate_text, text, table, config, strict=strict)
            # Line by line, as the CLI feeds batches: the cache fills and
            # clears between calls.
            if not strict:
                outputs = []
                for line in lines:
                    outputs.append(transliterate_text(line, table, config))
                    assert len(table._word_cache) <= 8
                assert "\n".join(outputs) == expected
            # One call with more distinct words than the limit.
            assert outcome(transliterate_text, text, table, config, strict=strict) == expected
            assert len(table._word_cache) <= 8


def test_text_strict_after_non_strict_run():
    tiny = parse_rules("b\tany\tب\na\tany\tا\nn\tany\tن")
    text = "ban\nna ban\nna baq ban\nbaq baq\n"
    assert transliterate_text(text, tiny) == "بان\nنا بان\nنا باq بان\nباq باq\n"
    with pytest.raises(UnmatchedCharacter) as exc_info:
        transliterate_text(text, tiny, strict=True)
    error = exc_info.value
    assert (error.char, error.offset, error.line, error.column) == ("q", 2, 3, 6)
    assert outcome(naive_transliterate_text, text, tiny, EngineConfig(), strict=True) == (
        "q", 2, 3, 6
    )


def test_fold_word_called_once_per_distinct_miss(monkeypatch):
    # RuleSet._rewrite folds the words it is given in one pass, so the words
    # that reach it are the words folded.
    folded = []
    rewrite = RuleSet._rewrite

    def counting_rewrite(self, words):
        folded.extend(words)
        return rewrite(self, words)

    monkeypatch.setattr(RuleSet, "_rewrite", counting_rewrite)
    table = default_rules()
    transliterate_text("min û tu min\nMin, tu û", table)
    assert sorted(folded) == ["Min", "min", "tu", "û"]
    folded.clear()
    transliterate_text("min baş\nbaş tu", table, strict=True)
    assert folded == ["baş"]
    # transliterate_word shares the memo.
    folded.clear()
    assert transliterate_word("Min", table) == "من"
    assert folded == []
    # A strict call folds a miss once and a hit not at all.
    assert transliterate_word("Kurdistan", table, strict=True) == "کوردستان"
    assert folded == ["Kurdistan"]
    folded.clear()
    assert transliterate_word("Kurdistan", table, strict=True) == "کوردستان"
    assert folded == []
    # A long text of distinct words is a word list: folded once, as one text,
    # it never reaches _rewrite.
    texts = []
    monkeypatch.setattr(rules, "fold_word", lambda text: texts.append(text) or fold_word(text))
    text = " ".join(_random_words(random.Random(29), 3000))
    transliterate_text(text, table)
    assert folded == [] and texts == [text]


# ---------------------------------------------------------------- properties

_hawar_words = st.text(
    st.sampled_from(sorted("abcçdeêfghiîjklmnopqrsştuûvwxyz'ḧẍ")),
    min_size=1,
    max_size=12,
)
_hawar_texts = st.lists(_hawar_words, max_size=8).map(" ".join)
_mixed_texts = st.lists(
    st.one_of(_hawar_words, st.sampled_from([",", "?", "12", ".", "«ok»", "\n"])),
    max_size=10,
).map(" ".join)


@given(_mixed_texts)
def test_deterministic(rs, cfg, text):
    assert transliterate_text(text, rs, cfg) == transliterate_text(text, rs, cfg)


@given(_mixed_texts)
def test_idempotent(rs, text):
    for config in (EngineConfig(), EngineConfig(digit_mode=DigitMode.ARABIC_INDIC, emit_rlm=True)):
        once = transliterate_text(text, rs, config)
        assert transliterate_text(once, rs, config) == once


@given(_hawar_words)
def test_case_invariance(rs, word):
    assert transliterate_word(word.upper(), rs) == transliterate_word(word, rs)


@given(_hawar_words)
def test_no_latin_residue(rs, word):
    out = transliterate_word(word, rs)
    assert not any(c in KURDISH_LATIN_LETTERS for c in out), (word, out)


@given(st.text(st.sampled_from(sorted("مدینە«»!٣—‏ ")), max_size=30))
def test_passthrough_without_mappable_content(rs, cfg, text):
    assert transliterate_text(text, rs, cfg) == text


@given(_mixed_texts)
def test_line_count_preserved(rs, cfg, text):
    assert transliterate_text(text, rs, cfg).count("\n") == text.count("\n")


@given(st.text(st.sampled_from(sorted(LATIN_RULE_CHARS)), min_size=1, max_size=8))
def test_greedy_matches_oracle(rs, word):
    assert transliterate_word(word, rs) == naive_transliterate_word(word, rs)


@given(_mixed_texts)
def test_every_word_of_a_text_is_one_word(rs, text):
    # The words the text path cuts are words to transliterate_word too.
    for word in rules._WORD.split(unicodedata.normalize("NFC", text))[1::2]:
        for strict in (False, True):
            got = transliterate_word(word, rs, strict=strict)
            assert got == naive_transliterate_word(naive_fold(word), rs), word


_WORD_OR_NOT = ["a", "e", "ê", "E", "'", "’", "0", " ", "\n", "ب", "\u0302", "\u0654"]


@given(st.text(st.sampled_from(_WORD_OR_NOT)))
@example("e\u0302")  # NFC: ê
@example("a\u0654")  # NFC leaves the mark
@example("")
def test_word_contract(word):
    # Accepted: a non-empty string whose NFC form holds only Kurdish Latin
    # letters and apostrophes. A refused string leaves both memos as they were.
    table = default_rules()
    transliterate_text(_long("min û tu"), table)  # fills both memos
    memos = dict(table._word_cache), dict(table._line_cache)
    nfc = unicodedata.normalize("NFC", word)
    # With a letter after it, a string of word characters alone is one word.
    is_word = bool(word) and split_words(nfc + "a") == ["", nfc + "a", ""]
    for strict in (False, True):
        if is_word:
            got = transliterate_word(word, table, strict=strict)
            assert got == naive_transliterate_word(naive_fold(word), table), word
        else:
            with pytest.raises(ValueError):
                transliterate_word(word, table, strict=strict)
            assert (table._word_cache, table._line_cache) == memos
    assert (word in table._word_cache) == is_word


@given(_mixed_texts)
def test_whole_text_equals_per_line_composition(rs, text):
    for config in (EngineConfig(), EngineConfig(emit_rlm=True, digit_mode=DigitMode.ARABIC_INDIC)):
        whole = transliterate_text(text, rs, config)
        joined = "\n".join(
            transliterate_text(line, rs, config) for line in text.split("\n")
        )
        assert whole == joined


def test_concurrent_equals_sequential(rs, cfg):
    lines = ["min û tu", "rojbaş, se'îd?", "çiya bilind in.", "dê û bav"] * 8
    sequential = [transliterate_text(line, rs, cfg) for line in lines]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(lambda line: transliterate_text(line, rs, cfg), lines))
    assert concurrent == sequential


def test_threads_sharing_a_clearing_cache(monkeypatch):
    # Threads fill, read and clear one RuleSet's word cache; a clear falling
    # between another thread's fill and its lookups would lose words.
    monkeypatch.setattr(rules, "_CACHE_LIMIT", 6)
    tiny = parse_rules("b\tany\tب\na\tany\tا\nn\tany\tن")
    rng = random.Random(5)
    texts = [
        " ".join("".join(rng.choice("banq") for _ in range(rng.randint(1, 3))) for _ in range(3))
        for _ in range(40)
    ]
    jobs = [(text, strict) for text in texts for strict in (False, True)]
    expected = [
        outcome(naive_transliterate_text, text, tiny, EngineConfig(), strict)
        for text, strict in jobs
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = pool.map(
                lambda job: outcome(transliterate_text, job[0], tiny, strict=job[1]),
                jobs * 250,
                timeout=60,
            )
            assert list(results) == expected * 250
    finally:
        sys.setswitchinterval(interval)


class _CountedLock:
    """A lock that counts how often it is taken."""

    def __init__(self):
        self.lock, self.taken = threading.Lock(), 0

    def __enter__(self):
        self.taken += 1
        return self.lock.__enter__()

    def __exit__(self, *exc_info):
        return self.lock.__exit__(*exc_info)


def test_memo_reads_take_no_lock(monkeypatch):
    # Only a fill or a clear of a memo takes the lock: a warm short sentence,
    # a warm word and a warm long text joined from the line memo take it 0 times.
    table = default_rules()
    lock = _CountedLock()
    object.__setattr__(table, "_word_lock", lock)
    sentence, word = "Min û tu diçin.", "Se’îd"
    long = _long("Çiya bilind in,\nmin û tu diçin.")
    expected = [naive_transliterate_text(text, table, EngineConfig()) for text in (sentence, long)]
    assert transliterate_text(sentence, table) == expected[0]
    transliterate_word(word, table)
    assert transliterate_text(long, table) == expected[1]
    assert lock.taken > 0 and table._line_cache
    lock.taken = 0
    word_path = _word_path_texts(monkeypatch)
    for _ in range(3):
        assert transliterate_text(sentence, table) == expected[0]
        assert transliterate_word(word, table) == "سەعید"
        assert transliterate_text(long, table) == expected[1]
    assert lock.taken == 0
    assert word_path == [sentence] * 3  # the long text was joined from the line memo
    missing = "Min û tu nan."
    assert transliterate_text(missing, table) == naive_transliterate_text(missing, table, EngineConfig())
    assert lock.taken == 1


# -------------------------------------------------------------- line memo
# A text of rules._LONG_TEXT characters or more whose every line is in the
# RuleSet's line memo is joined from it.

_TINY_TABLE = "b\tany\tب\na\tany\tا\nn\tany\tن"


def _long(block: str) -> str:
    """``block`` repeated on lines of its own, past the length threshold and
    at least twice, so a fresh RuleSet's first call fills its line memo."""
    repeats = max(2, rules._LONG_TEXT // len(block) + 1)
    return "\n".join([block] * repeats)


def _table_without_q():
    """The built-in table but for its q rule: a q in a word is unmatched."""
    return parse_rules(serialize_rules(default_rules()).replace("q\tany\tق\n", ""))


class _RecordedSplits:
    """``rules._WORD`` but for a ``split`` that records each text it splits."""

    def __init__(self, pattern, texts):
        self.pattern, self.texts = pattern, texts

    def split(self, text):
        self.texts.append(text)
        return self.pattern.split(text)

    def __getattr__(self, name):
        return getattr(self.pattern, name)


def _word_path_texts(monkeypatch):
    """The list of texts RuleSet._rewrite_words sends through the word path
    from now: the NFC texts it splits into words and gaps. Placing a strict
    error splits too, through the engine's own name for the pattern, which
    this does not record."""
    texts = []
    monkeypatch.setattr(rules, "_WORD", _RecordedSplits(rules._WORD, texts))
    return texts


def _random_words(rng, count):
    """``count`` distinct Hawar words of two to four syllables."""
    words = set()
    while len(words) < count:
        syllables = rng.randint(2, 4)
        syllable = lambda: rng.choice("bcçdfghjklmnpqrsştvwxz") + rng.choice("aeêiîouû")
        words.add("".join(syllable() for _ in range(syllables)))
    return sorted(words)


_block_texts = st.lists(
    st.one_of(
        _hawar_words,
        _hawar_words.map(str.upper),
        _hawar_words.map(str.title),
        _hawar_words.map(lambda word: word.replace("'", "’")),
        st.sampled_from([",", "?", "12", ".", "«ok»", "\n", "\r\n", "1984.\r\n"]),
    ),
    min_size=1,
    max_size=10,
).map(" ".join)


@settings(max_examples=40, deadline=None)
@given(_block_texts, _block_texts)
@example("Min qelem û tu", "baş")  # a q in the text that fills
@example("Min û\r\ntu, 12", "qelem")  # a q in a line the memo misses
@example("min û tu " * 8, "baş")  # a line over the length cap
def test_line_memo_matches_oracle(block, extra):
    # One fresh table per example: the first call fills its line memo, with
    # a line that holds an unmatched q too, the second hits it if it holds
    # every line, and the last two miss it on the lines of ``extra`` the memo
    # lacks. Each non-strict call comes before a strict one, so the strict
    # call must find a q in the lines the memo gives.
    table = _table_without_q()
    text = _long(block)
    lines = set(text.split("\n"))
    fitting = {line for line in lines if len(line) <= rules._LONGEST_LINE}
    plain, marked = EngineConfig(), EngineConfig(digit_mode=DigitMode.ARABIC_INDIC, emit_rlm=True)
    calls = [
        (text, plain, False),
        (text, marked, True),
        (text + "\n" + extra, plain, False),
        (text + "\n" + extra, marked, True),
    ]
    with pytest.MonkeyPatch.context() as patch:
        word_path = _word_path_texts(patch)
        for number, (source, config, strict) in enumerate(calls):
            expected = outcome(naive_transliterate_text, source, table, config, strict=strict)
            assert outcome(transliterate_text, source, table, config, strict=strict) == expected
            if number == 0:
                assert set(table._line_cache) == fitting
            elif number == 1:
                assert len(word_path) == (1 if fitting == lines else 2)


def test_long_text_strict_after_non_strict_run(monkeypatch):
    # A clean text fills the line memo. The second text misses it on one
    # line, which holds an unmatched q: strict mode must place it in the
    # whole text. The word path keeps that line too, so later calls are
    # joined from the memo, and a strict one still raises at the q.
    tiny = parse_rules(_TINY_TABLE)
    block = "ban\nna ban\nna, ban ban"
    clean = _long(block)
    assert transliterate_text(clean, tiny) == naive_transliterate_text(clean, tiny, EngineConfig())
    text = "\n".join([block] * 100 + ["ban\nna baq ban"] + [block] * 100)
    assert len(text) >= rules._LONG_TEXT
    assert [line for line in text.split("\n") if line not in tiny._line_cache] == ["na baq ban"]
    expected = outcome(naive_transliterate_text, text, tiny, EngineConfig(), strict=True)
    assert expected == ("q", 2, 302, 6)
    word_path = _word_path_texts(monkeypatch)
    assert outcome(transliterate_text, text, tiny, strict=True) == expected
    assert "na baq ban" in tiny._line_cache
    assert transliterate_text(text, tiny) == naive_transliterate_text(text, tiny, EngineConfig())
    assert outcome(transliterate_text, text, tiny, strict=True) == expected
    assert word_path == [text]


def test_line_over_the_length_cap_is_not_kept(monkeypatch):
    long_line = " ".join(["min", "tu"] * 20)  # 119 characters
    table = default_rules()
    text = _long(f"min û tu,\n{long_line}\ndê û bav.")
    expected = naive_transliterate_text(text, table, EngineConfig())
    word_path = _word_path_texts(monkeypatch)
    for strict in (False, True):  # fills, then misses on the long line
        assert transliterate_text(text, table, strict=strict) == expected
    assert set(table._line_cache) == {"min û tu,", "dê û bav."}
    assert word_path == [text] * 2


def test_line_memo_clears_mid_run(monkeypatch):
    monkeypatch.setattr(rules, "_CACHE_LIMIT", 16)
    tiny = parse_rules(_TINY_TABLE)
    old = ["ban", "nab,", "ab."]
    new = [f"b{'a' * length}n" for length in range(2, 16)]
    first = "\n".join(old * 400)
    second = "\n".join(new * 100)  # 14 lines: with the 3 kept, one over the limit
    both = "\n".join((old + new) * 100)  # 17 lines: more than the memo may hold
    configs = (EngineConfig(), EngineConfig(digit_mode=DigitMode.ARABIC_INDIC, emit_rlm=True))
    word_path = _word_path_texts(monkeypatch)
    sizes = []
    for text in (first, second, both, first):
        for config in configs:
            for strict in (False, True):
                expected = naive_transliterate_text(text, tiny, config)
                assert transliterate_text(text, tiny, config, strict=strict) == expected
                sizes.append(len(tiny._line_cache))
    # The second text clears the memo and keeps its 14 lines, which its later
    # calls hit; the third clears it at every call and keeps none; the first
    # fills it again.
    assert sizes == [3] * 4 + [14] * 4 + [0] * 4 + [3] * 4
    assert word_path == [first, second] + [both] * 4 + [first]


def test_line_memo_stays_empty_where_it_cannot_help():
    # Lines kept that are not seen again cost peak RSS, which the benchmark
    # bounds at +10% on every workload (BENCHMARK.json): the shapes of
    # api-short and unique-words fill nothing. An unmatched letter keeps no
    # line out: strict mode reads a line the memo gives as it reads any other.
    rng = random.Random(13)
    table = default_rules()
    vocabulary = _random_words(rng, 300)
    for _ in range(5000):  # api-short: one call per short sentence
        words = rng.choices(vocabulary, k=rng.randint(2, 9))
        transliterate_text(" ".join(words) + rng.choice(".?, "), table)
    assert table._line_cache == {}
    distinct = _random_words(random.Random(14), 4000)  # unique-words
    transliterate_text("\n".join(" ".join(distinct[i : i + 10]) for i in range(0, 4000, 10)), table)
    assert table._line_cache == {}
    without_q = _table_without_q()
    text = _long("min qelem û tu")
    expected = naive_transliterate_text(text, without_q, EngineConfig())
    assert transliterate_text(text, without_q) == expected
    assert list(without_q._line_cache) == ["min qelem û tu"]
    expected = outcome(naive_transliterate_text, text, without_q, EngineConfig(), strict=True)
    assert expected == ("q", 0, 1, 5)
    assert outcome(transliterate_text, text, without_q, strict=True) == expected
    # With its q rule, the same text fills the memo too.
    assert transliterate_text(text, table) == naive_transliterate_text(text, table, EngineConfig())
    assert list(table._line_cache) == ["min qelem û tu"]


def test_distinct_lines_are_not_kept_past_a_warm_word_memo(monkeypatch):
    # Prose whose every word the word memo holds, in lines that never repeat
    # (a corpus, not a 1 MB file): a kept line would never hit. Neither one
    # call nor the CLI's batches, the first of which warms the word memo, keep any.
    rng = random.Random(29)
    vocabulary = _random_words(rng, 400)
    lines = set()
    while len(lines) < 1200:
        line = " ".join(rng.choices(vocabulary, k=rng.randint(3, 8)))
        if len(line) <= rules._LONGEST_LINE:
            lines.add(line)
    text = "\n".join(sorted(lines))
    expected = naive_transliterate_text(text, default_rules(), EngineConfig())
    table = default_rules()
    transliterate_text(" ".join(vocabulary), table)
    assert len(table._word_cache) == 400
    assert transliterate_text(text, table) == expected
    assert table._line_cache == {}
    monkeypatch.setattr(cli, "_BATCH_BYTES", 1 << 13)
    data = text.encode("utf-8")
    batches = list(cli._batches(io.BytesIO(data)))
    assert sum(len(batch.decode()) >= rules._LONG_TEXT for batch in batches) >= 6
    table, sink = default_rules(), io.BytesIO()
    cli._stream(io.BytesIO(data), sink, table, EngineConfig(), False)
    assert sink.getvalue() == expected.encode("utf-8")
    assert len(table._word_cache) == 400 and table._line_cache == {}


@pytest.mark.parametrize("separator", ["\n\n\n", "\r\n\r\n\r\n"])
def test_blank_lines_between_distinct_lines_are_not_repeats(separator):
    # Two blank lines after each distinct line: the blank lines ("" or, from
    # CRLF, "\r") repeat, the lines of words never do, so nothing is kept.
    rng = random.Random(3)
    vocabulary = _random_words(rng, 400)
    lines = set()
    while len(lines) < 600:
        line = " ".join(rng.choices(vocabulary, k=rng.randint(3, 8)))
        if len(line) <= rules._LONGEST_LINE:
            lines.add(line)
    text = separator.join(sorted(lines))
    assert len(text) >= rules._LONG_TEXT
    table = default_rules()
    transliterate_text(" ".join(vocabulary), table)
    expected = naive_transliterate_text(text, table, EngineConfig())
    assert transliterate_text(text, table) == expected
    assert table._line_cache == {}


def test_long_text_of_one_line_fills_only_the_word_memo(monkeypatch):
    # A paragraph per line, as corpora store text: one line past the length
    # threshold whose words repeat. It takes the word path and its words fill
    # the word memo; the line memo never keeps a one-line text. Without the q
    # rule, the one word holding a q is unmatched.
    rng = random.Random(37)
    vocabulary = [word for word in _random_words(rng, 80) if "q" not in word]
    sentences = []
    while sum(map(len, sentences)) < rules._LONG_TEXT:
        words = rng.choices(vocabulary, k=rng.randint(4, 12))
        sentences.append(" ".join(words).capitalize() + rng.choice([".", ",", "?"]))
    sentences[-3] = "Ew baqo mezin e."
    paragraph = " ".join(sentences)
    assert len(paragraph) >= rules._LONG_TEXT and "\n" not in paragraph
    words = set(split_words(paragraph)[1::2])
    paths = _paths(monkeypatch)
    for table in (default_rules(), _table_without_q()):
        for strict in (False, True):
            expected = outcome(naive_transliterate_text, paragraph, table, EngineConfig(), strict)
            assert outcome(transliterate_text, paragraph, table, strict=strict) == expected
            assert table._line_cache == {} and set(table._word_cache) == words
    assert expected == ("q", 2, 1, paragraph.index("baqo") + 3)
    assert paths == ["words"] * 4


class _CountedClears(dict):
    """A dict that counts the calls of its ``clear``."""

    clears = 0

    def clear(self):
        self.clears += 1
        super().clear()


def test_threads_sharing_a_clearing_line_memo(monkeypatch):
    # As test_threads_sharing_a_clearing_cache, on long texts: threads fill,
    # clear and may hit the line memo too. Every other text is the one before
    # it with one line holding an unmatched q, which misses the memo.
    monkeypatch.setattr(rules, "_CACHE_LIMIT", 12)
    tiny = parse_rules(_TINY_TABLE)
    object.__setattr__(tiny, "_line_cache", _CountedClears())
    rng = random.Random(11)
    vocabulary = [
        " ".join("".join(rng.choices("ban", k=3)) for _ in range(2)) + rng.choice(["", ",", "."])
        for _ in range(30)
    ]
    texts = []
    for _ in range(4):
        lines = rng.choices(rng.sample(vocabulary, 6), k=1200)
        texts.append("\n".join(lines))
        lines[rng.randrange(1200)] = "baq"
        texts.append("\n".join(lines))
    jobs = [(text, strict) for text in texts for strict in (False, True)]
    expected = [
        outcome(naive_transliterate_text, text, tiny, EngineConfig(), strict)
        for text, strict in jobs
    ]
    # Whether a thread finds a text in the memo before another clears it
    # depends on scheduling, so the hit is checked before the threads start:
    # a clean text run twice is joined from the memo the second time.
    word_path = _word_path_texts(monkeypatch)
    for _ in range(2):
        assert outcome(transliterate_text, texts[0], tiny) == expected[0]
    assert word_path == [texts[0]]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = pool.map(
                lambda job: outcome(transliterate_text, job[0], tiny, strict=job[1]),
                jobs * 15,
                timeout=60,
            )
            assert list(results) == expected * 15
    finally:
        sys.setswitchinterval(interval)
    assert tiny._line_cache.clears > 0


def test_later_batches_are_joined_from_the_line_memo(monkeypatch):
    # The CLI cuts its batches at line ends, so once the first has filled the
    # line memo no later batch of the same lines takes the word path, even
    # where a batch starts or ends inside the block.
    block = (
        "Gelî kurdan, rojbaş! Ez diînine dibêjim; min û tu diçin.\n"
        "Se'îd li Kurdistanê dijî, 1984 sal in, ne wisa?\n"
        "Çiya bilind in û şerr xirab e; ḧal çawa ye?\n"
        "Birrîn, gull, sall, dill: ev peyvên ll û rr in.\n"
    )
    text = block * 360
    data = text.encode("utf-8")
    # The block is 215 bytes, its lines start at bytes 0, 63, 114 and 164, and
    # a batch starts on the line that holds the first byte of its read, so
    # reads 65 bytes past a whole number of blocks cut each line in turn.
    monkeypatch.setattr(cli, "_BATCH_BYTES", 76 * len(block.encode("utf-8")) + 65)
    batches = [batch.decode("utf-8") for batch in cli._batches(io.BytesIO(data))]
    # Five batches, starting on each line of the block in turn, every one long
    # enough for the memo.
    starts = [batch.partition(" ")[0] for batch in batches]
    assert starts == ["Gelî", "Se'îd", "Çiya", "Birrîn,", "Gelî"]
    assert min(map(len, batches)) >= rules._LONG_TEXT
    runs = [
        (EngineConfig(), False),
        (EngineConfig(digit_mode=DigitMode.ARABIC_INDIC, emit_rlm=True), True),
    ]
    expected = [
        transliterate_text(text, default_rules(), config, strict=strict) for config, strict in runs
    ]
    word_path = _word_path_texts(monkeypatch)
    for (config, strict), whole in zip(runs, expected):
        word_path.clear()
        sink = io.BytesIO()
        cli._stream(io.BytesIO(data), sink, default_rules(), config, strict)
        assert sink.getvalue() == whole.encode("utf-8")
        assert word_path == batches[:1]


# ------------------------------------------------------------- word lists
# A batch of rules._UNIQUE_BATCH words or more in which no word repeats or
# hits the word memo is rewritten without filling it.


def _word_list(words: list) -> str:
    """``words`` in lines of ten, as in a lexicon: every seventh capitalized,
    lines ending in a comma, a full stop or a full stop and CRLF."""
    lines = []
    for start in range(0, len(words), 10):
        line = words[start : start + 10]
        line = [word.title() if i % 7 == 0 else word for i, word in enumerate(line, start)]
        lines.append(" ".join(line) + (",", ".", ".\r")[start // 10 % 3])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("count", [rules._UNIQUE_BATCH, 3000])
def test_long_batch_of_distinct_words_fills_no_memo(count):
    words = _random_words(random.Random(count), count)
    text = _word_list(words)
    # The shorter text takes the word path alone, the longer the line memo's path.
    assert (len(text) >= rules._LONG_TEXT) == (count == 3000)
    table = default_rules()
    configs = (EngineConfig(), EngineConfig(digit_mode=DigitMode.ARABIC_INDIC, emit_rlm=True))
    for config in configs:
        for strict in (False, True):
            expected = naive_transliterate_text(text, table, config)
            assert transliterate_text(text, table, config, strict=strict) == expected
            assert table._word_cache == {}
            assert table._line_cache == {}


def test_long_batch_of_distinct_words_strict_error_position():
    # Without the q rule, the one word holding a q is unmatched.
    table = _table_without_q()
    words = [word for word in _random_words(random.Random(17), 3300) if "q" not in word]
    words[2345] = "baqo"
    text = _word_list(words[:3000])
    expected = outcome(naive_transliterate_text, text, table, EngineConfig(), strict=True)
    assert expected == ("q", 2, 235, 34)
    assert outcome(transliterate_text, text, table, strict=True) == expected
    assert table._word_cache == {}
    assert transliterate_text(text, table) == naive_transliterate_text(text, table, EngineConfig())
    assert outcome(transliterate_text, text, table, strict=True) == expected
    assert table._word_cache == {}


def test_long_word_list_of_one_line_is_rewritten_whole(monkeypatch):
    words = _random_words(random.Random(41), 700)
    text = " ".join(words)
    assert len(text) >= rules._LONG_TEXT and "\n" not in text
    table = default_rules()
    expected = naive_transliterate_text(text, table, EngineConfig())
    paths = _paths(monkeypatch)
    for strict in (False, True):
        assert transliterate_text(text, table, strict=strict) == expected
    assert paths == ["whole"] * 2
    assert table._word_cache == {} and table._line_cache == {}


def test_one_repeat_or_memo_hit_fills_the_memo():
    # A repeat or a memo hit among the first rules._UNIQUE_BATCH words.
    words = _random_words(random.Random(19), 3000)
    table = default_rules()
    repeated = words[:100] + [words[1]] + words[100:]  # in lower case both times
    expected = naive_transliterate_text(_word_list(repeated), table, EngineConfig())
    assert transliterate_text(_word_list(repeated), table) == expected
    assert len(table._word_cache) == 3000
    table = default_rules()
    known = words[5]  # not capitalized by _word_list
    transliterate_word(known, table)
    assert list(table._word_cache) == [known]
    expected = naive_transliterate_text(_word_list(words), table, EngineConfig())
    assert transliterate_text(_word_list(words), table) == expected
    assert len(table._word_cache) == 3000


def test_repeat_or_memo_hit_after_the_first_words_fills_no_memo():
    # The first rules._UNIQUE_BATCH words alone tell a word list: a repeat or
    # a memo hit after them leaves both memos as they were.
    words = _random_words(random.Random(29), 3000)
    known = words[701]  # past the first words; _word_list keeps it, and its repeat, lower case
    assert 701 > rules._UNIQUE_BATCH
    repeated = _word_list(words + [known])
    for strict in (False, True):
        table = default_rules()
        expected = naive_transliterate_text(repeated, table, EngineConfig())
        assert transliterate_text(repeated, table, strict=strict) == expected
        assert table._word_cache == {} and table._line_cache == {}
        table = default_rules()
        transliterate_word(known, table)
        expected = naive_transliterate_text(_word_list(words), table, EngineConfig())
        assert transliterate_text(_word_list(words), table, strict=strict) == expected
        assert list(table._word_cache) == [known] and table._line_cache == {}


def test_short_batches_of_distinct_words_fill_the_memo():
    table = default_rules()
    assert transliterate_text("Min û tu diçin.", table) == "من و تو دچن."
    assert sorted(table._word_cache) == ["Min", "diçin", "tu", "û"]
    words = _random_words(random.Random(23), rules._UNIQUE_BATCH - 1)
    text = _word_list(words)
    assert transliterate_text(text, table) == naive_transliterate_text(text, table, EngineConfig())
    assert len(table._word_cache) == 4 + len(words)


# A word list's text, once its words are told a list, is folded and rewritten
# as one string when every character is a word character or a gap character
# (rules._GAP) and no run of apostrophes stands alone, whatever the table,
# strict or not; otherwise it takes the word path.

_BUILT_IN_RULES = serialize_rules(default_rules())
_WORD_LIST_TABLES = {
    "built-in": _BUILT_IN_RULES,
    "without q": _BUILT_IN_RULES.replace("q\tany\tق\n", ""),
    "one first letter": _BUILT_IN_RULES.replace("û\tword\tو\n", "")
    + "ba\tword\tق\nbaba\tword\t∅\nbû\tword\tو\n",
    "two first letters": _BUILT_IN_RULES + "ba\tword\tق\n",
}
# Gaps between words, and one odd gap: a Latin-1 one the fold leaves as it is
# keeps the whole-text path, any other sends the text down the word path.
_LIST_GAPS = [" ", " ", " ", ", ", ". ", "\n", "\r\n", " 1984 ", "_", "-", "; ", "? ", "!"]
_LIST_GAPS += [" (", ") ", '"', "#", "{", "}", "/", "@", "~", "`", "[", "]", "\\", "|", "<", "="]
_LIST_GAPS += ["*", "%", "&", "^"]
_ODD_GAPS = [" ' ", " ’ʼ ", "\n''.", " « ", " İ ", " \u0302 ", "²", "\u00ad", " À "]
_WHOLE_ODD_GAPS = [" « ", "²", "\u00ad"]


def _varied_word_list(rng, odd: str | None, exceptions: list) -> str:
    """Over 512 distinct words in upper, title and lower case, some in NFD and
    some with an apostrophe glyph leading, inside or trailing, the exception
    words placed after word 512, and the gaps above; with ``odd`` as one gap."""
    words = _random_words(rng, 700)
    rng.shuffle(words)
    for index, word in enumerate(words):
        roll = rng.random()
        if roll < 0.1:
            word = word.upper()
        elif roll < 0.2:
            word = word.title()
        if rng.random() < 0.15:
            at = rng.choice([0, 1, len(word)])
            word = word[:at] + rng.choice(sorted(APOSTROPHES)) + word[at:]
        if rng.random() < 0.05:
            word = unicodedata.normalize("NFD", word)
        words[index] = word
    for word in exceptions:
        words.insert(rng.randint(rules._UNIQUE_BATCH + 1, len(words)), word)
    gaps = [rng.choice(_LIST_GAPS) for _ in words]
    if odd is not None:
        gaps[rng.randrange(len(gaps))] = odd
    return "".join(word + gap for word, gap in zip(words, gaps))


@pytest.mark.parametrize("odd", [None, *_ODD_GAPS])
@pytest.mark.parametrize("name", sorted(_WORD_LIST_TABLES))
# No shrink phase: each example builds a 700-word list under a fresh table, so
# shrinking the seeds of a failing case took minutes.
@settings(max_examples=2, deadline=None, phases=set(Phase) - {Phase.shrink})
@given(st.integers(0, 2**32))
def test_word_list_folded_whole_matches_oracle(name, odd, seed):
    source = _WORD_LIST_TABLES[name]
    exceptions = ["ba", "baba", "bû", "û", "Û", "BA", "Baba"]
    text = _varied_word_list(random.Random(seed), odd, exceptions)
    assert len(text) >= rules._LONG_TEXT
    calls, verdicts = [], []
    rewrite, is_word_list = RuleSet._rewrite, RuleSet._is_word_list

    def counting_rewrite(self, words):
        calls.append(len(words))
        return rewrite(self, words)

    def counting_is_word_list(self, words):
        verdicts.append(is_word_list(self, words))
        return verdicts[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RuleSet, "_rewrite", counting_rewrite)
        patch.setattr(RuleSet, "_is_word_list", counting_is_word_list)
        for strict in (False, True):
            table = parse_rules(source)
            calls.clear()
            verdicts.clear()
            expected = outcome(naive_transliterate_text, text, table, EngineConfig(), strict)
            assert outcome(transliterate_text, text, table, strict=strict) == expected
            # Told a word list once, whichever path the text then takes, and
            # once more by the memo read that places a strict error.
            raised = isinstance(expected, tuple)
            assert verdicts == ([True, True] if raised else [True])
            # The whole-text path rewrites no batch of words; placing a strict
            # error rewrites every word of the text once, as one batch.
            whole = odd is None or odd in _WHOLE_ODD_GAPS
            words = len(split_words(unicodedata.normalize("NFC", text))) // 2
            placed = [words] if raised else []
            assert (calls == placed) == whole, (strict, calls)
            assert (strict and name == "without q") == bool(placed)
            assert table._word_cache == {} and table._line_cache == {}


# Exception words of every kind beside the built-in û, under the table without
# q: one whose first letter has only an any rule (bav), a vowel with context
# rules (ez), the apostrophe ('ereb), a rule's own pattern (ll), a prefix of
# another word of the text (ba) and one that writes nothing (ji).
_LEXICON = [("bav", "بڤ"), ("ez", "من"), ("'ereb", "عرب"), ("ll", "ل"), ("ba", "ق"), ("ji", "∅")]
_LEXICON_RULES = _BUILT_IN_RULES.replace("q\tany\tق\n", "") + "".join(
    f"{word}\tword\t{output}\n" for word, output in _LEXICON
)


def test_exception_words_of_every_kind_on_every_path(monkeypatch):
    words = [word for word, _ in _LEXICON] + ["û"]
    assert transliterate_text(" ".join(words), parse_rules(_LEXICON_RULES)) == "بڤ من عرب ل ق  و"
    # Each word in other cases and glyphs, and words that hold one, which the
    # rules rewrite; qelem is unmatched.
    words += ["BAV", "Ez", "’Ereb", "LL", "Ba", "JI", "Û"]
    words += ["bavo", "dez", "ereb", "lll", "bab", "jin", "ûa", "qelem"]
    rng = random.Random(37)
    short = " ".join(words) + "."
    vocabulary = _random_words(rng, 200) + words
    lines = [" ".join(rng.choices(vocabulary, k=rng.randint(3, 9))) + "." for _ in range(300)]
    listed = _random_words(rng, 700)
    for word in words:  # after the words that tell a word list
        listed.insert(rng.randint(rules._UNIQUE_BATCH + 1, len(listed)), word)
    texts = {short: "words", "\n".join(lines): "words", _word_list(listed): "whole"}
    paths = _paths(monkeypatch)
    for text, path in texts.items():
        assert (len(text) >= rules._LONG_TEXT) == (text != short)
        for strict in (False, True):
            table = parse_rules(_LEXICON_RULES)
            paths.clear()
            expected = outcome(naive_transliterate_text, text, table, EngineConfig(), strict)
            assert isinstance(expected, tuple) == strict
            assert outcome(transliterate_text, text, table, strict=strict) == expected
            assert paths == [path]


# Exception words that are prefixes of one another share their group's one
# word-final check, which re backtracks into the next word: bavêr, which is no
# exception word, falls through to the rules. In both orders of the lexicon.
_PREFIXES = [("ba", "ق"), ("bav", "ڤ"), ("bavê", "ع")]


@pytest.mark.parametrize("lexicon", [_PREFIXES, _PREFIXES[::-1]], ids=["short first", "long first"])
def test_exception_words_sharing_a_prefix_on_every_path(monkeypatch, lexicon):
    source = _BUILT_IN_RULES.replace("q\tany\tق\n", "") + "".join(
        f"{word}\tword\t{output}\n" for word, output in lexicon
    )
    assert transliterate_text("ba bav bavê bavêr", parse_rules(source)) == "ق ڤ ع باڤێر"
    words = ["ba", "bav", "bavê", "bavêr", "BAV", "Bavê", "bavêrî", "qelem"]
    rng = random.Random(41)
    short = " ".join(words) + "."
    vocabulary = _random_words(rng, 200) + words
    lines = [" ".join(rng.choices(vocabulary, k=rng.randint(3, 9))) + "." for _ in range(300)]
    listed = _random_words(rng, 700)
    for word in words:  # after the words that tell a word list
        listed.insert(rng.randint(rules._UNIQUE_BATCH + 1, len(listed)), word)
    texts = {short: "words", "\n".join(lines): "words", _word_list(listed): "whole"}
    paths = _paths(monkeypatch)
    for text, path in texts.items():
        for strict in (False, True):
            table = parse_rules(source)
            paths.clear()
            expected = outcome(naive_transliterate_text, text, table, EngineConfig(), strict)
            assert isinstance(expected, tuple) == strict
            assert outcome(transliterate_text, text, table, strict=strict) == expected
            assert paths == [path]


# ------------------------------------------------------------- strict mode
# A table with a single-letter any rule for every rule letter writes only
# Arabic letters for every word the engine cuts: its RuleSet._unmatched is
# empty, so strict mode does not scan its outputs. A wider rules._WORD must
# recompute it. Any other table is checked once per text, on the rewritten
# text, whichever path made it.


def _table_with_initial_x():
    """The built-in table with x's only rule word-initial: an x inside a word is unmatched."""
    return parse_rules(serialize_rules(default_rules()).replace("x\tany\t", "x\tinitial\t"))


def test_every_one_letter_word_folds_to_rule_letters():
    # Each code point alone, and between two letters, where an apostrophe joins too.
    code_points = range(sys.maxunicode + 1)
    words = [word for word in map(chr, code_points) if rules._WORD.fullmatch(word)]
    between = (f"a{chr(i)}a" for i in code_points)
    words += [word for word in between if rules._WORD.fullmatch(word)]
    assert len(words) == 2 * len(KURDISH_LATIN_LETTERS) + len(APOSTROPHES)
    for word in words:
        assert LATIN_RULE_CHARS.issuperset(fold_word(word)), word
    # The word list's gates and step 1's word boundary follow the word
    # characters too: a gap character is a Latin-1 character that is no word
    # character and that the fold leaves as it is, and the gate refuses every
    # other character that is no word character.
    gap, not_gap_or_word = re.compile(f"[{rules._GAP}]"), re.compile(rules._NOT_GAP_OR_WORD)
    chars = [chr(i) for i in code_points]
    gaps = [c for c in chars if gap.fullmatch(c)]
    assert gaps == [c for c in chars[:256] if c not in WORD_CHARS and fold_word(c) == c]
    gaps_or_word = WORD_CHARS.union(gaps)
    assert [c for c in chars if not_gap_or_word.fullmatch(c)] == [
        c for c in chars if c not in gaps_or_word
    ]


def test_the_fold_leaves_every_gap_of_a_word_list_in_place():
    # A word list is folded whole with its gaps (RuleSet._rewrite_text), so
    # each gap character must fold to itself beside any word or gap character:
    # no case mapping or composition may change it or join it to a word. The
    # other Latin-1 characters that are no word character are the upper-case
    # letters the fold would lower, such as À, which the gate refuses.
    latin_1 = [chr(i) for i in range(256)]
    gaps = [c for c in latin_1 if re.fullmatch(f"[{rules._GAP}]", c)]
    others = [c for c in latin_1 if c not in WORD_CHARS and c not in gaps]
    assert (len(gaps), len(others)) == (169, 26)
    assert all(c.isupper() and fold_word(c) not in WORD_CHARS | {c} for c in others)
    for gap in gaps:
        for neighbour in [*gaps, *sorted(WORD_CHARS)]:
            folded = fold_word(neighbour)
            assert fold_word(gap + neighbour) == gap + folded, (gap, neighbour)
            assert fold_word(neighbour + gap) == folded + gap, (gap, neighbour)


def test_only_a_table_mapping_every_letter_skips_the_strict_scan():
    assert default_rules()._unmatched == ""
    assert _table_without_q()._unmatched == "[q]"
    initial_x = _table_with_initial_x()
    assert Rule("x", Context.WORD_INITIAL, "خ") in initial_x.rules
    assert initial_x._unmatched == "[x]"


def test_letter_with_only_an_initial_rule_strict_error_position():
    table = _table_with_initial_x()
    lines = ["Xwezî min û tu li Kurdistanê bin, ne wisa?"] * 3000
    lines[2222] = "Ew baxçe mezin e."
    text = "\n".join(lines) + "\n"
    assert len(text.encode("utf-8")) > 3 * cli._BATCH_BYTES
    expected = outcome(naive_transliterate_text, text, table, EngineConfig(), strict=True)
    assert expected == ("x", 2, 2223, 6)
    assert outcome(transliterate_text, text, table, strict=True) == expected
    table = _table_with_initial_x()
    with pytest.raises(UnmatchedCharacter) as error:
        cli._stream(io.BytesIO(text.encode("utf-8")), io.BytesIO(), table, EngineConfig(), True)
    assert table._line_cache  # the first batch filled it; the error is in a later one
    got = error.value
    assert (got.char, got.offset, got.line, got.column) == expected


def _paths(monkeypatch):
    """The list of paths RuleSet._rewrite_words rewrites texts by from now:
    "words", "whole" (a word list folded whole) or "memo" (joined from the
    line memo: a call that took neither of the other two)."""
    paths, split, whole = [], _word_path_texts(monkeypatch), []
    rewrite_words, rewrite_text = RuleSet._rewrite_words, RuleSet._rewrite_text

    def recording_rewrite_text(self, text):
        result = rewrite_text(self, text)
        whole.append(result is not None)
        return result

    def recording_rewrite_words(self, text):
        split.clear()
        whole.clear()
        result = rewrite_words(self, text)
        paths.append("words" if split else "whole" if any(whole) else "memo")
        return result

    monkeypatch.setattr(RuleSet, "_rewrite_text", recording_rewrite_text)
    monkeypatch.setattr(RuleSet, "_rewrite_words", recording_rewrite_words)
    return paths


@pytest.mark.parametrize("path", ["short", "words", "whole", "memo"])
def test_strict_error_on_every_path(monkeypatch, path):
    # Each text holds one q, which a table with no q rule leaves unmatched.
    # The memo's text is joined from lines a non-strict run kept.
    table = _table_without_q()
    if path == "short":
        text, position = "min û tu\nÇiya û şêr qelem", ("q", 0, 2, 12)
    elif path == "whole":
        words = [word for word in _random_words(random.Random(17), 3300) if "q" not in word]
        words[2345] = "baqo"
        text, position = _word_list(words[:3000]), ("q", 2, 235, 34)
    else:
        lines = ["Xwezî min û tu li Kurdistanê bin, ne wisa?", "Çiya bilind in."] * 150
        lines[201] = "Ew baqo mezin e."
        text, position = "\n".join(lines), ("q", 2, 202, 6)
    assert (len(text) >= rules._LONG_TEXT) == (path != "short")
    expected = outcome(naive_transliterate_text, text, table, EngineConfig(), strict=True)
    assert expected == position
    if path == "memo":
        assert transliterate_text(text, table) == naive_transliterate_text(text, table, EngineConfig())
    paths = _paths(monkeypatch)
    assert outcome(transliterate_text, text, table, strict=True) == expected
    assert paths == ["words" if path == "short" else path]


def _rewrite_calls(monkeypatch):
    """The list of batches RuleSet._rewrite is given from now."""
    calls = []
    rewrite = RuleSet._rewrite

    def recording_rewrite(self, words):
        calls.append(words)
        return rewrite(self, words)

    monkeypatch.setattr(RuleSet, "_rewrite", recording_rewrite)
    return calls


def test_strict_error_after_a_plain_run_rewrites_no_word(monkeypatch):
    # Distinct lines of prose, the last holding a q: a plain run fills the
    # word memo, so placing the strict error reads every output from it.
    table = _table_without_q()
    rng = random.Random(31)
    vocabulary = [word for word in _random_words(rng, 300) if "q" not in word]
    lines = [" ".join(rng.choices(vocabulary, k=rng.randint(3, 8))) + "." for _ in range(400)]
    lines[-1] = "Ew baqo mezin e."
    text = "\n".join(lines)
    assert len(text) >= rules._LONG_TEXT
    expected = outcome(naive_transliterate_text, text, table, EngineConfig(), strict=True)
    assert expected == ("q", 2, 400, 6)
    assert transliterate_text(text, table) == naive_transliterate_text(text, table, EngineConfig())
    calls = _rewrite_calls(monkeypatch)
    assert outcome(transliterate_text, text, table, strict=True) == expected
    assert calls == []


def test_strict_apostrophe_gaps_after_a_plain_run_rewrite_no_word(monkeypatch):
    # Under the built-in table without its ' rule, a text joined from the line
    # memo whose gaps hold an apostrophe alone: the strict check matches it,
    # and finding that no word holds one reads the outputs from the word memo.
    table = parse_rules(serialize_rules(default_rules()).replace("'\tany\tع\n", ""))
    assert re.fullmatch(table._unmatched, "'")
    text = "\n".join(["Ew got: ' min û tu diçin."] * 2000)
    expected = naive_transliterate_text(text, table, EngineConfig())
    assert transliterate_text(text, table) == expected
    assert table._line_cache
    calls = _rewrite_calls(monkeypatch)
    for _ in range(2):
        assert transliterate_text(text, table, strict=True) == expected
    assert calls == []


@pytest.mark.parametrize("long", [False, True])
def test_strict_mode_passes_an_apostrophe_gap(monkeypatch, long):
    # With no ' rule, an apostrophe alone is a gap that the strict check
    # matches; no word holds an unmatched letter, so nothing raises. The long
    # text is joined from the line memo the non-strict run filled.
    tiny = parse_rules(_TINY_TABLE)
    assert re.fullmatch(tiny._unmatched, "'")
    text = _long("a ' b") if long else "a ' b"
    expected = naive_transliterate_text(text, tiny, EngineConfig())
    assert expected.startswith("ا ' ب")
    assert transliterate_text(text, tiny) == expected
    paths = _paths(monkeypatch)
    assert transliterate_text(text, tiny, strict=True) == expected
    assert paths == ["memo" if long else "words"]


# ----------------------------------------------------------- normalization
# A shorter text is normalized whole. A text of rules._LONG_TEXT characters or
# more is normalized line by line, and only when the line memo, keyed on the
# lines as given, misses one of them.

_KURDISH_MARKS = ("\u0302", "\u0308", "\u0327")


def _normalized(monkeypatch):
    """The list of texts the engine and RuleSet._rewrite_words pass to
    unicodedata.normalize from now; fold_word's two calls per batch are not
    recorded."""
    texts = []
    fold_code = fold_word.__code__

    def recording_normalize(form, text):
        if sys._getframe(1).f_code is not fold_code:
            texts.append(text)
        return unicodedata.normalize(form, text)

    recording = types.SimpleNamespace(normalize=recording_normalize)
    monkeypatch.setattr(engine, "unicodedata", recording)
    monkeypatch.setattr(rules, "unicodedata", recording)
    return texts


_word_forms = st.tuples(
    st.one_of(_hawar_words, _hawar_words.map(str.upper)), st.sampled_from(["NFC", "NFD"])
).map(lambda word_form: unicodedata.normalize(word_form[1], word_form[0]))
_mark_pieces = st.tuples(
    st.sampled_from(["\n{}", "{}\n", " {}", "7{}", "{}", "e{}", "s{}", "min{}"]),
    st.sampled_from([*_KURDISH_MARKS, "\u0301", "\u0323", "\u0654"]),
).map(lambda piece_mark: piece_mark[0].format(piece_mark[1]))
_marked_blocks = st.lists(
    st.one_of(_word_forms, _mark_pieces, st.sampled_from(["\r\n", "\n\n", ",", "12", "."])),
    min_size=1,
    max_size=12,
).map(" ".join)


@settings(max_examples=40, deadline=None)
@given(_marked_blocks, st.booleans())
def test_both_normalization_paths_match_oracle(block, long):
    # Long texts repeat the block on lines of their own, so a mark at either
    # end of it lands at a line start or end. One fresh table per example; the
    # plain call may fill its line memo before the strict one.
    table = _table_without_q()
    text = "\n".join([block] * (rules._LONG_TEXT // len(block) + 1)) if long else block
    assert (len(text) >= rules._LONG_TEXT) == long
    plain, marked = EngineConfig(), EngineConfig(digit_mode=DigitMode.ARABIC_INDIC, emit_rlm=True)
    for config, strict in ((plain, False), (marked, True), (plain, True)):
        expected = outcome(naive_transliterate_text, text, table, config, strict=strict)
        assert outcome(transliterate_text, text, table, config, strict=strict) == expected


def test_long_text_mark_starting_a_line_stays_uncomposed(monkeypatch):
    table = default_rules()  # its line memo is empty
    text = "\n".join(["min û tu", "e", "\u0302 bav"] * 300)
    assert len(text) >= rules._LONG_TEXT
    normalized = _normalized(monkeypatch)
    out = transliterate_text(text, table)
    assert len(normalized) == text.count("\n") + 2  # line by line
    assert out == naive_transliterate_text(text, table, EngineConfig())
    assert out.startswith("من و تو\nئە\n\u0302 باڤ\n")


@pytest.mark.parametrize("form", ["NFC", "NFD"])
@pytest.mark.parametrize("strict", [False, True])
def test_long_text_the_line_memo_holds_is_not_normalized(monkeypatch, form, strict):
    table = default_rules()
    text = _long(unicodedata.normalize(form, "Çiya û şêr,\nḧal çawa ye?\ndê û bav."))
    config = EngineConfig(digit_mode=DigitMode.ARABIC_INDIC, emit_rlm=True)
    expected = naive_transliterate_text(text, table, config)
    assert transliterate_text(text, table, config, strict=strict) == expected
    assert set(table._line_cache) == set(text.split("\n"))
    normalized = _normalized(monkeypatch)
    assert transliterate_text(text, table, config, strict=strict) == expected
    assert len(normalized) == 1  # the output's


def test_line_memo_keys_are_the_lines_as_given(monkeypatch):
    # A text filled in one form misses in the other, which fills its own
    # lines; every later call of either form hits. A line with no Kurdish
    # letter is the same in both forms.
    block = "Çiya û şêr,\nḧal çawa ye?\nmin tu\ndê û bav."
    texts = {form: unicodedata.normalize(form, _long(block)) for form in ("NFC", "NFD")}
    lines = {form: set(text.split("\n")) for form, text in texts.items()}
    assert lines["NFC"] & lines["NFD"] == {"min tu"}
    plain, marked = EngineConfig(), EngineConfig(digit_mode=DigitMode.ARABIC_INDIC, emit_rlm=True)
    word_path = _word_path_texts(monkeypatch)
    for first, second in (("NFC", "NFD"), ("NFD", "NFC")):
        table = default_rules()
        word_path.clear()
        kept = set()
        for form in (first, second, first):
            kept |= lines[form]
            for config, strict in ((plain, False), (marked, True)):
                expected = outcome(naive_transliterate_text, texts[form], table, config, strict=strict)
                assert outcome(transliterate_text, texts[form], table, config, strict=strict) == expected
                assert set(table._line_cache) == kept
        # The first call of each form, in NFC.
        assert word_path == [texts["NFC"]] * 2


def test_long_dirty_text_strict_error_column(monkeypatch):
    # The column counts the characters of the NFC line: 12, where the text
    # as given has q at 16.
    table = _table_without_q()
    line = unicodedata.normalize("NFD", "Çiya û şêr qelem")
    assert line.index("q") + 1 == 16
    text = "\n".join(["min û tu"] * 600 + [line] + ["dê û bav"] * 10)
    expected = outcome(naive_transliterate_text, text, table, EngineConfig(), strict=True)
    assert expected == ("q", 0, 601, 12)
    normalized = _normalized(monkeypatch)
    assert outcome(transliterate_text, text, table, strict=True) == expected
    # Line by line, then the whole text, whose words place the error.
    assert normalized[-1] == text and len(normalized) == text.count("\n") + 2
    plain = naive_transliterate_text(text, table, EngineConfig())
    assert transliterate_text(text, table) == plain
    normalized.clear()
    assert outcome(transliterate_text, text, table, strict=True) == expected
    assert normalized == [text]  # joined from the line memo, then placed


# ---------------------------------------------------------- module boundary
# Which path a text takes and how the memos are kept is decided in rules.py:
# the engine rewrites a text with one RuleSet call and places strict errors
# with three more names.


def test_engine_reads_a_small_private_rule_set_surface():
    tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
    table = default_rules()
    private = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and hasattr(table, node.attr)
        and not hasattr(rules._Value, node.attr)
    }
    assert private == {"_rewrite_words", "_unmatched", "_outputs", "_first_unmatched"}
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "rules"
        for alias in node.names
    }
    assert imported == {"RuleSet", "_Value", "_WORD"}
