"""Shared test oracles: naive, unoptimized reimplementations of the match
policy and of word grouping, used to cross-check the engine's fast path."""

import itertools
import unicodedata

from hawar2sorani.alphabets import KURDISH_LATIN_LETTERS, WORD_CHARS
from hawar2sorani.engine import RLM, DigitMode, PunctMode, UnmatchedCharacter
from hawar2sorani.rules import Context, RuleSet

# The oracle's own folding and symbol tables, so that a fault in the
# package's fold_word or map_symbols cannot reach both sides of a comparison.
_APOSTROPHE_FOLD = {"’": "'", "ʼ": "'"}
_PUNCT = {",": "،", ";": "؛", "?": "؟"}
_DIGITS = dict(zip("0123456789", "٠١٢٣٤٥٦٧٨٩"))


def naive_fold(word: str) -> str:
    """NFC, lower case, canonical apostrophes one character at a time, NFC."""
    lowered = unicodedata.normalize("NFC", word).lower()
    folded = "".join(_APOSTROPHE_FOLD.get(ch, ch) for ch in lowered)
    return unicodedata.normalize("NFC", folded)


def naive_map_symbols(text: str, cfg) -> str:
    """Each character through the configured punctuation and digit tables."""
    tables = []
    if cfg.punct_mode is PunctMode.ARABIC_SCRIPT:
        tables.append(_PUNCT)
    if cfg.digit_mode is DigitMode.ARABIC_INDIC:
        tables.append(_DIGITS)
    out = []
    for ch in text:
        for table in tables:
            ch = table.get(ch, ch)
        out.append(ch)
    return "".join(out)


def split_words(text: str) -> list:
    """``text`` as ``re.split`` by a word pattern gives it: the gaps at even
    indices, the words at odd ones. A word is a maximal run of word
    characters that holds a letter; everything else is gap."""
    pieces = [""]
    for is_word_char, run in itertools.groupby(text, WORD_CHARS.__contains__):
        run = "".join(run)
        if is_word_char and not KURDISH_LATIN_LETTERS.isdisjoint(run):
            pieces += [run, ""]
        else:
            pieces[-1] += run
    return pieces


def outcome(fn, *args, **kwargs):
    """What ``fn`` returns, or the strict-mode error position as a tuple."""
    try:
        return fn(*args, **kwargs)
    except UnmatchedCharacter as exc:
        return (exc.char, exc.offset, exc.line, exc.column)


def naive_lookup(rs: RuleSet, word: str, pos: int, is_word_initial: bool, prev_is_vowel: bool):
    """Scan the full rule list and pick the best applicable rule by the
    documented (length, specificity, table order) key. Returns the Rule."""
    candidates = []
    for order, rule in enumerate(rs.rules):
        pattern = rule.pattern
        if word[pos : pos + len(pattern)] != pattern:
            continue
        if rule.context is Context.WORD_INITIAL and not is_word_initial:
            continue
        if rule.context is Context.AFTER_VOWEL and not prev_is_vowel:
            continue
        if rule.context is Context.WORD_FINAL and pos + len(pattern) != len(word):
            continue
        specificity = 1 if rule.context is Context.ANY else 0
        candidates.append((-len(pattern), specificity, order, rule))
    if not candidates:
        return None
    return min(candidates)[3]


def naive_parse(word: str, rs: RuleSet) -> tuple:
    """Greedy parse driven entirely by naive_lookup; expects folded input.
    Returns (output, index of the first character no rule matched or -1)."""
    exception = rs.exceptions.get(word)
    if exception is not None:
        return exception, -1
    out = []
    unmatched = -1
    pos = 0
    while pos < len(word):
        rule = naive_lookup(
            rs,
            word,
            pos,
            is_word_initial=pos == 0,
            prev_is_vowel=pos > 0 and word[pos - 1] in rs.latin_vowels,
        )
        if rule is None:
            if unmatched < 0:
                unmatched = pos
            out.append(word[pos])
            pos += 1
        else:
            out.append(rule.output)
            pos += len(rule.pattern)
    return "".join(out), unmatched


def naive_transliterate_word(word: str, rs: RuleSet) -> str:
    return naive_parse(word, rs)[0]


def naive_transliterate_text(text: str, rs: RuleSet, cfg, strict: bool = False) -> str:
    """Reference for transliterate_text. Splits each NFC line into words and
    gaps (split_words); each word goes through naive_parse, each gap through
    naive_map_symbols. The result is NFC: a word's output can compose with a
    combining mark after it."""
    lines = []
    for lineno, line in enumerate(unicodedata.normalize("NFC", text).split("\n"), start=1):
        pieces = split_words(line)
        outputs = []
        for index in range(1, len(pieces), 2):
            word = naive_fold(pieces[index])
            out, unmatched = naive_parse(word, rs)
            if strict and unmatched >= 0:
                column = len("".join(pieces[:index])) + unmatched + 1
                raise UnmatchedCharacter(word[unmatched], unmatched, lineno, column)
            outputs.append(out)
        pieces[::2] = [naive_map_symbols(gap, cfg) for gap in pieces[::2]]
        pieces[1::2] = outputs
        out = "".join(pieces)
        body = out.rstrip("\r")
        if cfg.emit_rlm and body.endswith("."):
            out = body + RLM + out[len(body):]
        lines.append(out)
    return unicodedata.normalize("NFC", "\n".join(lines))
