"""Transliteration engine: one pass that rewrites each word of a text.

A word is a maximal run of Kurdish Latin letters and apostrophes holding at
least one letter. A text is split once into words and the gaps between them.
Each word is looked up in its RuleSet's word cache; the words it misses are
case-folded and rewritten together, in one batch, by the RuleSet's compiled
rule table (see rules.py), and the pieces are joined again. Every character
outside a word gets the configured punctuation and digit mapping or passes
through. No rule context crosses a word boundary and words never cross
lines, so line-by-line processing gives byte-identical output to whole-text
processing.
"""

import re
import unicodedata
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .alphabets import APOSTROPHES, ARABIC_LETTERS, CANONICAL_APOSTROPHE, KURDISH_LATIN_LETTERS
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
# repeats skip case folding too; real text repeats words heavily. The limit is
# checked once per text: one whose misses would overflow it clears the cache.
_CACHE_LIMIT = 1 << 17


def transliterate_word(word: str, rs: RuleSet, *, strict: bool = False) -> str:
    """Rewrite one word. Characters without a rule pass through.

    With ``strict`` a pass-through character raises UnmatchedCharacter
    instead.
    """
    folded = fold_word(word)
    # Any string comes in here, so the output cannot show what matched: a
    # typed Arabic letter passes through unmatched.
    unmatched = rs._first_unmatched(folded) if strict else None
    if unmatched is not None:
        offset, char = unmatched
        raise UnmatchedCharacter(char, offset)
    return rs._rewrite([folded])[0]


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
# The one group makes split() return the words between the gaps.
_WORD = re.compile(f"([{_APOSTROPHES}]*[{_LETTERS}][{_LETTERS}{_APOSTROPHES}]*)")
# A full stop ending a line would render on the wrong side in an LTR-defaulted
# editor; the mark pins it. \r from CRLF input stays after the mark.
_LINE_FINAL_STOP = re.compile(r"\.(?=\r*$)", re.M)
_STOP_WITH_RLM = "." + RLM
# Rule tables write only Arabic letters (Rule and RuleSet check them) and a
# word cut by _WORD holds none, so a rewritten word holds another character
# exactly where no rule matched it. Strict mode looks for one.
_NOT_ARABIC = re.compile(f"[^{re.escape(''.join(sorted(ARABIC_LETTERS)))}]")


def transliterate_text(
    text: str, rs: RuleSet, cfg: EngineConfig = DEFAULT_CONFIG, *, strict: bool = False
) -> str:
    """Transliterate arbitrary text, preserving line structure exactly."""
    # normalize returns NFC text as it is, after its own quick check.
    pieces = _WORD.split(unicodedata.normalize("NFC", text))
    words = pieces[1::2]
    # The lock keeps one thread's clear from landing between another thread's
    # fill and its reads.
    with rs._word_lock:
        cache = rs._word_cache
        try:  # every word a hit: no Python code runs per word
            outputs = list(map(cache.__getitem__, words))
        except KeyError:
            # Not rewritten in here: str.translate raises and clears a
            # KeyError for each character its table lacks, which costs far
            # more while another exception is being handled.
            outputs = None
        if outputs is None:  # rewrite every miss of the text in one batch
            missing = set(words).difference(cache)
            if len(cache) + len(missing) > _CACHE_LIMIT:
                cache.clear()
                missing = set(words)
                if len(missing) > _CACHE_LIMIT:  # too many to keep: this call only
                    cache = {}
            missing = list(missing)
            cache.update(zip(missing, rs._rewrite(list(map(fold_word, missing)))))
            outputs = list(map(cache.__getitem__, words))
    if strict and _NOT_ARABIC.search("".join(outputs)):
        raise _strict_error(pieces, outputs, rs)
    pieces[1::2] = outputs
    # Word output is Arabic letters or passed-through word characters, never
    # a mapped symbol, so the symbol mapping can run over the whole result.
    out = map_symbols("".join(pieces), cfg)
    if cfg.emit_rlm:
        out = _LINE_FINAL_STOP.sub(_STOP_WITH_RLM, out)
    # A word's output can compose with a combining mark after it.
    return unicodedata.normalize("NFC", out)


def _strict_error(pieces: list, outputs: list, rs: RuleSet) -> UnmatchedCharacter:
    """The error for the first word of ``pieces`` (words at odd indices) with
    an unmatched character; ``outputs`` holds the output of each word."""
    index = 2 * next(i for i, output in enumerate(outputs) if _NOT_ARABIC.search(output)) + 1
    offset, char = rs._first_unmatched(fold_word(pieces[index]))
    before = "".join(pieces[:index])
    line = before.count("\n") + 1
    column = len(before) - before.rfind("\n") + offset
    return UnmatchedCharacter(char, offset, line, column)
