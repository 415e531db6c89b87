"""Transliteration engine: the text around the words.

A word is a maximal run of Kurdish Latin letters and apostrophes holding at
least one letter. A text is split once into words and the gaps between them;
the RuleSet gives every word's output in one call (it folds, memoizes and
rewrites words; see rules.py), and the pieces are joined again. Every
character outside a word gets the configured punctuation and digit mapping or
passes through. The engine also places strict-mode errors, marks line-final
full stops and returns NFC. No rule context crosses a word boundary and words
never cross lines, so line-by-line processing gives byte-identical output to
whole-text processing.
"""

import re
import unicodedata
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .alphabets import APOSTROPHES, ARABIC_LETTERS, KURDISH_LATIN_LETTERS
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


def transliterate_word(word: str, rs: RuleSet, *, strict: bool = False) -> str:
    """Rewrite one word. Characters without a rule pass through.

    With ``strict`` a pass-through character raises UnmatchedCharacter
    instead.
    """
    output = rs._outputs([word])[0]
    if strict and (
        _NOT_ARABIC.search(output) or not _WORD.fullmatch(unicodedata.normalize("NFC", word))
    ):
        unmatched = rs._first_unmatched(word)
        if unmatched is not None:
            raise UnmatchedCharacter(unmatched[1], unmatched[0])
    # A word's output can compose with a combining mark it holds.
    return unicodedata.normalize("NFC", output)


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
# Rule tables write only Arabic letters (Rule and RuleSet check them) and an
# NFC word that is one _WORD run folds to none, so its output holds another
# character exactly where no rule matched it; strict mode looks for one. Every
# word of a text is such a run; any other word may hide an unmatched Arabic
# letter (typed, or composed by NFC: U+064A U+0654), so strict mode walks it.
_NOT_ARABIC = re.compile(f"[^{re.escape(''.join(sorted(ARABIC_LETTERS)))}]")


def transliterate_text(
    text: str, rs: RuleSet, cfg: EngineConfig = DEFAULT_CONFIG, *, strict: bool = False
) -> str:
    """Transliterate arbitrary text, preserving line structure exactly."""
    # normalize returns NFC text as it is, after its own quick check.
    pieces = _WORD.split(unicodedata.normalize("NFC", text))
    outputs = rs._outputs(pieces[1::2])
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
    offset, char = rs._first_unmatched(pieces[index])
    before = "".join(pieces[:index])
    line = before.count("\n") + 1
    column = len(before) - before.rfind("\n") + offset
    return UnmatchedCharacter(char, offset, line, column)
