"""Shared test oracles: naive, unoptimized reimplementations of the match
policy and of word grouping, used to cross-check the engine's fast path."""

import unicodedata

from hawar2sorani.alphabets import APOSTROPHES, KURDISH_LATIN_LETTERS
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
    """Reference for transliterate_text. Walks each NFC line one character at
    a time, grouping maximal runs of letters and apostrophes; a run holding a
    letter is a word, every other character gets naive_map_symbols. The result
    is NFC: a word's output can compose with a combining mark after it."""
    lines = []
    for lineno, line in enumerate(unicodedata.normalize("NFC", text).split("\n"), start=1):
        pieces = []
        run = ""
        for column, ch in enumerate(line + "\n", start=1):  # the "\n" ends the last run
            if ch in KURDISH_LATIN_LETTERS or ch in APOSTROPHES:
                run += ch
                continue
            if any(c in KURDISH_LATIN_LETTERS for c in run):
                word = naive_fold(run)
                out, unmatched = naive_parse(word, rs)
                if strict and unmatched >= 0:
                    where = column - len(run) + unmatched
                    raise UnmatchedCharacter(word[unmatched], unmatched, lineno, where)
                pieces.append(out)
            else:
                pieces.append(naive_map_symbols(run, cfg))
            pieces.append(naive_map_symbols(ch, cfg))
            run = ""
        out = "".join(pieces)[:-1]
        body = out.rstrip("\r")
        if cfg.emit_rlm and body.endswith("."):
            out = body + RLM + out[len(body):]
        lines.append(out)
    return unicodedata.normalize("NFC", "\n".join(lines))
