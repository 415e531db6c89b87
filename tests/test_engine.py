import io
import itertools
import multiprocessing
import pickle
import random
import sys
import types
import unicodedata
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hawar2sorani import cli, engine, rules, transliterate
from hawar2sorani.alphabets import KURDISH_LATIN_LETTERS, LATIN_RULE_CHARS
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
from hawar2sorani.rules import RuleSet, default_rules, fold_word, parse_rules, serialize_rules
from helpers import (
    naive_fold,
    naive_parse,
    naive_transliterate_text,
    naive_transliterate_word,
    outcome,
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
    assert len(passes) == 3  # one per batch: no batch was folded word by word


@pytest.mark.parametrize("unique_batch", [rules._UNIQUE_BATCH, 2])
def test_batch_with_a_word_holding_a_newline(monkeypatch, unique_batch):
    # No word the engine cuts holds a newline, but a library caller's may:
    # then each word of its batch is folded alone. With a unique_batch of 2,
    # the batch takes the path that memoizes nothing.
    monkeypatch.setattr(rules, "_UNIQUE_BATCH", unique_batch)
    words = ["Min", "Kurdistan\nê", "Se’îd", "û", "\u0308a", "BAŞ\n", "ΣΣ\nΣ"]
    alone = [default_rules()._outputs([word])[0][0] for word in words]
    assert alone[1] == "کوردستان\nێ"  # the newline passes through; ê is not word-initial
    assert default_rules()._outputs(words) == (alone, len(words))


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
    with pytest.raises(UnmatchedCharacter) as exc_info:
        transliterate_word(word, rs, strict=True)
    assert (exc_info.value.char, exc_info.value.offset) == (char, offset)


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
    # The engine rewrites a batch of words joined by U+2126; a newline, that
    # sign or U+03A9 (its NFC form) inside a word must not act as a boundary.
    table = parse_rules(
        "a\tinitial\tئا\na\tafter_vowel\tع\na\tany\tا\nn\tfinal\tین\nn\tany\tن\n"
        "na\tfinal\tنە\n"
    )
    alphabet = ["a", "n", "\n", "\u2126", "\u03a9"]
    for ruleset in (rs, table):
        for length in range(1, 4):
            for chars in itertools.product(alphabet, repeat=length):
                word = "".join(chars)
                try:
                    transliterate_word(word, ruleset, strict=True)
                    offset = -1
                except UnmatchedCharacter as exc:
                    offset = exc.offset
                got = (transliterate_word(word, ruleset), offset)
                assert got == naive_parse(naive_fold(word), ruleset), repr(word)


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
    assert transliterate_word("ba\u0654", rs) == "\u0628\u0623"
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
    assert len(set(engine._WORD.findall(text))) > 8
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
    # A long text of distinct words, memoized or not, folds each word once.
    words = _random_words(random.Random(29), 3000)
    transliterate_text(" ".join(words), table)
    assert sorted(folded) == words


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


# -------------------------------------------------------------- line memo
# A text of engine._LONG_TEXT characters or more whose every line is in the
# RuleSet's line memo is joined from it.

_TINY_TABLE = "b\tany\tب\na\tany\tا\nn\tany\tن"


def _long(block: str) -> str:
    """``block`` repeated on lines of its own, past the length threshold and
    often enough that a fresh RuleSet's first call fills its line memo."""
    repeats = max(round(1 / engine._WORD_MISS_SHARE), engine._LONG_TEXT // len(block) + 1)
    return "\n".join([block] * repeats)


def _table_without_q():
    """The built-in table but for its q rule: a q in a word is unmatched."""
    return parse_rules(serialize_rules(default_rules()).replace("q\tany\tق\n", ""))


def _word_path_texts(monkeypatch):
    """The list of texts the engine sends through the word path from now."""
    texts = []
    rewrite_words = engine._rewrite_words

    def recording_rewrite_words(text, rs, strict):
        texts.append(text)
        return rewrite_words(text, rs, strict)

    monkeypatch.setattr(engine, "_rewrite_words", recording_rewrite_words)
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
    # One fresh table per example: the first call fills its line memo unless
    # the text holds a q, the second hits it if it holds every line, and the
    # last two miss it on the lines of ``extra`` the memo lacks. Each
    # non-strict call comes before a strict one, so a line kept with a q
    # would hide it from strict mode.
    table = _table_without_q()
    text = _long(block)
    lines = set(text.split("\n"))
    fitting = {line for line in lines if len(line) <= engine._LONGEST_LINE}
    clean = "q" not in block.lower()
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
                assert set(table._line_cache) == (fitting if clean else set())
            elif number == 1:
                assert len(word_path) == (1 if clean and fitting == lines else 2)


def test_long_text_strict_after_non_strict_run(monkeypatch):
    # A clean text fills the line memo. The second text misses it on one
    # line, which holds an unmatched q: strict mode must place it in the
    # whole text.
    tiny = parse_rules(_TINY_TABLE)
    block = "ban\nna ban\nna, ban ban"
    clean = _long(block)
    assert transliterate_text(clean, tiny) == naive_transliterate_text(clean, tiny, EngineConfig())
    text = "\n".join([block] * 100 + ["ban\nna baq ban"] + [block] * 100)
    assert len(text) >= engine._LONG_TEXT
    assert [line for line in text.split("\n") if line not in tiny._line_cache] == ["na baq ban"]
    expected = outcome(naive_transliterate_text, text, tiny, EngineConfig(), strict=True)
    assert expected == ("q", 2, 302, 6)
    word_path = _word_path_texts(monkeypatch)
    assert outcome(transliterate_text, text, tiny, strict=True) == expected
    assert transliterate_text(text, tiny) == naive_transliterate_text(text, tiny, EngineConfig())
    assert "na baq ban" not in tiny._line_cache
    assert outcome(transliterate_text, text, tiny, strict=True) == expected
    assert word_path == [text] * 3


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
    # api-short and unique-words, and unmatched letters, fill nothing.
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
    assert without_q._line_cache == {}
    # With its q rule, the same text fills the memo.
    assert transliterate_text(text, table) == naive_transliterate_text(text, table, EngineConfig())
    assert list(table._line_cache) == ["min qelem û tu"]


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
    monkeypatch.setattr(cli, "_BATCH_BYTES", 1 << 14)
    source = io.BytesIO(data)
    batches = [
        b"".join(lines).decode("utf-8")
        for lines in iter(lambda: source.readlines(cli._BATCH_BYTES), [])
    ]
    # Five batches, starting on each line of the block in turn, every one long
    # enough for the memo.
    starts = [batch.partition(" ")[0] for batch in batches]
    assert starts == ["Gelî", "Se'îd", "Çiya", "Birrîn,", "Gelî"]
    assert min(map(len, batches)) >= engine._LONG_TEXT
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
    assert (len(text) >= engine._LONG_TEXT) == (count == 3000)
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


def test_one_repeat_or_memo_hit_fills_the_memo():
    words = _random_words(random.Random(19), 3000)
    table = default_rules()
    repeated = words + [words[1]]  # in lower case both times
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


def test_short_batches_of_distinct_words_fill_the_memo():
    table = default_rules()
    assert transliterate_text("Min û tu diçin.", table) == "من و تو دچن."
    assert sorted(table._word_cache) == ["Min", "diçin", "tu", "û"]
    words = _random_words(random.Random(23), rules._UNIQUE_BATCH - 1)
    text = _word_list(words)
    assert transliterate_text(text, table) == naive_transliterate_text(text, table, EngineConfig())
    assert len(table._word_cache) == 4 + len(words)


# ----------------------------------------------------------- normalization
# A shorter text is normalized whole. A text of engine._LONG_TEXT characters or
# more is normalized line by line, and only when the line memo, keyed on the
# lines as given, misses one of them.

_KURDISH_MARKS = ("\u0302", "\u0308", "\u0327")


def _normalized(monkeypatch):
    """The list of texts the engine passes to unicodedata.normalize from now."""
    texts = []

    def recording_normalize(form, text):
        texts.append(text)
        return unicodedata.normalize(form, text)

    monkeypatch.setattr(engine, "unicodedata", types.SimpleNamespace(normalize=recording_normalize))
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
    text = "\n".join([block] * (engine._LONG_TEXT // len(block) + 1)) if long else block
    assert (len(text) >= engine._LONG_TEXT) == long
    plain, marked = EngineConfig(), EngineConfig(digit_mode=DigitMode.ARABIC_INDIC, emit_rlm=True)
    for config, strict in ((plain, False), (marked, True), (plain, True)):
        expected = outcome(naive_transliterate_text, text, table, config, strict=strict)
        assert outcome(transliterate_text, text, table, config, strict=strict) == expected


def test_long_text_mark_starting_a_line_stays_uncomposed(monkeypatch):
    table = default_rules()  # its line memo is empty
    text = "\n".join(["min û tu", "e", "\u0302 bav"] * 300)
    assert len(text) >= engine._LONG_TEXT
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
    assert len(normalized) == text.count("\n") + 1  # line by line, then raised
    plain = naive_transliterate_text(text, table, EngineConfig())
    assert transliterate_text(text, table) == plain
    assert outcome(transliterate_text, text, table, strict=True) == expected
