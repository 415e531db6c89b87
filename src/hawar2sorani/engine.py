"""Transliteration engine: one pass that rewrites each word of a text.

A word is a maximal run of Kurdish Latin letters and apostrophes holding at
least one letter. Each word is case-folded and rewritten by its RuleSet's
compiled rule table (see rules.py); every other character gets the
configured punctuation and digit mapping or passes through. No rule context
crosses a word boundary and words never cross lines, so line-by-line
processing gives byte-identical output to whole-text processing.
"""

import re
import unicodedata
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .alphabets import APOSTROPHES, CANONICAL_APOSTROPHE, KURDISH_LATIN_LETTERS
from .rules import RuleSet

RLM = "‏"  # RIGHT-TO-LEFT MARK


class DigitMode(Enum):
    KEEP = "keep"
    ARABIC_INDIC = "arabic"


class PunctMode(Enum):
    KEEP = "keep"
    ARABIC_SCRIPT = "arabic"


@dataclass(frozen=True)
class EngineConfig:
    digit_mode: DigitMode = DigitMode.KEEP
    punct_mode: PunctMode = PunctMode.ARABIC_SCRIPT
    emit_rlm: bool = False


DEFAULT_CONFIG = EngineConfig()


class UnmatchedCharacter(ValueError):
    """Strict mode: a word character no rule matches.

    ``offset`` is the character index inside the folded word; ``line`` and
    ``column`` (both 1-based) are filled in by transliterate_text.
    """

    def __init__(
        self,
        char: str,
        offset: int,
        line: Optional[int] = None,
        column: Optional[int] = None,
    ):
        # All four go to args, so the exception unpickles in another process.
        super().__init__(char, offset, line, column)
        self.char = char
        self.offset = offset
        self.line = line
        self.column = column

    def __str__(self) -> str:
        where = f"{self.line}:{self.column}" if self.line is not None else f"offset {self.offset}"
        return f"no rule matches {self.char!r} at {where}"


def fold_word(word: str) -> str:
    """NFC-normalize, lowercase, and canonicalize apostrophes."""
    # str.replace, not str.translate, which is slow on non-ASCII text.
    folded = unicodedata.normalize("NFC", word).lower()
    folded = folded.replace("’", CANONICAL_APOSTROPHE).replace("ʼ", CANONICAL_APOSTROPHE)
    return unicodedata.normalize("NFC", folded)


# Transliterated words memoized per RuleSet, keyed on the raw word text so
# repeats skip case folding too; real text repeats words heavily.
_CACHE_LIMIT = 1 << 17


def transliterate_word(word: str, rs: RuleSet, *, strict: bool = False) -> str:
    """Rewrite one word. Characters without a rule pass through.

    With ``strict`` a pass-through character raises UnmatchedCharacter
    instead.
    """
    entry = rs._word_cache.get(word)
    if entry is None:
        entry = _word_entry(word, rs)
    if strict and entry[1] >= 0:
        raise UnmatchedCharacter(entry[2], entry[1])
    return entry[0]


def _word_entry(word: str, rs: RuleSet) -> tuple:
    """Compute and cache (output, first unmatched folded index or -1, unmatched char)."""
    folded = fold_word(word)
    output, unmatched = rs._rewrite(folded)
    entry = (output, unmatched, folded[unmatched] if unmatched >= 0 else "")
    cache = rs._word_cache
    if len(cache) >= _CACHE_LIMIT:
        cache.clear()
    cache[word] = entry
    return entry


_PUNCT_TO_ARABIC = ((",", "،"), (";", "؛"), ("?", "؟"))
_DIGITS_TO_ARABIC_INDIC = tuple(zip("0123456789", "٠١٢٣٤٥٦٧٨٩"))


def map_symbols(text: str, cfg: EngineConfig) -> str:
    """Per-character symbol mapping; everything unconfigured is unchanged."""
    # One str.replace per symbol: str.translate is slow on non-ASCII text, and
    # no replacement is itself a symbol, so the order does not matter.
    pairs = ()
    if cfg.punct_mode is PunctMode.ARABIC_SCRIPT:
        pairs += _PUNCT_TO_ARABIC
    if cfg.digit_mode is DigitMode.ARABIC_INDIC:
        pairs += _DIGITS_TO_ARABIC_INDIC
    for symbol, replacement in pairs:
        text = text.replace(symbol, replacement)
    return text


_LETTERS = re.escape("".join(sorted(KURDISH_LATIN_LETTERS)))
_APOSTROPHES = re.escape("".join(sorted(APOSTROPHES)))
# Leading apostrophes join the word, so a run of apostrophes alone is not one.
_WORD = re.compile(f"[{_APOSTROPHES}]*[{_LETTERS}][{_LETTERS}{_APOSTROPHES}]*")
# A full stop ending a line would render on the wrong side in an LTR-defaulted
# editor; the mark pins it. \r from CRLF input stays after the mark.
_LINE_FINAL_STOP = re.compile(r"\.(\r*)$", re.M)
_STOP_WITH_RLM = "." + RLM + r"\1"


def transliterate_text(
    text: str, rs: RuleSet, cfg: EngineConfig = DEFAULT_CONFIG, *, strict: bool = False
) -> str:
    """Transliterate arbitrary text, preserving line structure exactly."""
    if not unicodedata.is_normalized("NFC", text):
        text = unicodedata.normalize("NFC", text)
    cache = rs._word_cache

    def word(match):
        run = match.group()
        entry = cache.get(run)
        if entry is None:
            entry = _word_entry(run, rs)
        if strict and entry[1] >= 0:
            start = match.start()
            line = text.count("\n", 0, start) + 1
            column = start - text.rfind("\n", 0, start) + entry[1]
            raise UnmatchedCharacter(entry[2], entry[1], line, column)
        return entry[0]

    # Word output is Arabic letters or passed-through word characters, never
    # a mapped symbol, so the symbol mapping can run over the whole result.
    out = map_symbols(_WORD.sub(word, text), cfg)
    if cfg.emit_rlm:
        out = _LINE_FINAL_STOP.sub(_STOP_WITH_RLM, out)
    return out
