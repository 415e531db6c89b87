"""Transliteration engine: the text around the words.

A word is a maximal run of word characters (``alphabets.WORD_CHARS``) that
holds a letter. The RuleSet replaces every word of a text with its output
(``RuleSet._rewrite_words``, which also picks the text's path and keeps its
memos). Every character outside a word then gets the configured punctuation
and digit mapping or passes through. The engine also places strict-mode
errors, marks line-final full stops and returns NFC. No rule context crosses
a word boundary and words never cross lines, so line-by-line processing gives
byte-identical output to whole-text processing.
"""

import re
import unicodedata
from enum import Enum

from .alphabets import WORD_CHARS
from .rules import _WORD, RuleSet, _Value

RLM = "‏"  # RIGHT-TO-LEFT MARK


class DigitMode(Enum):
    KEEP = "keep"
    ARABIC_INDIC = "arabic"


class PunctMode(Enum):
    KEEP = "keep"
    ARABIC_SCRIPT = "arabic"


_PUNCT_TO_ARABIC = ((",", "،"), (";", "؛"), ("?", "؟"))
_DIGITS_TO_ARABIC_INDIC = tuple(zip("0123456789", "٠١٢٣٤٥٦٧٨٩"))


class EngineConfig(_Value):
    """How the engine maps digits and punctuation and marks line-final full stops."""

    __match_args__ = ("digit_mode", "punct_mode", "emit_rlm")

    def __init__(
        self, digit_mode=DigitMode.KEEP, punct_mode=PunctMode.ARABIC_SCRIPT, emit_rlm=False
    ):
        # A member or its value ("keep", "arabic"); anything else raises ValueError.
        digit_mode, punct_mode = DigitMode(digit_mode), PunctMode(punct_mode)
        if emit_rlm not in (True, False):
            raise ValueError(f"emit_rlm must be True or False, not {emit_rlm!r}")
        self._set_fields(digit_mode, punct_mode, bool(emit_rlm))
        # map_symbols' (symbol, replacement) pairs, built once per config.
        pairs = _PUNCT_TO_ARABIC if punct_mode is PunctMode.ARABIC_SCRIPT else ()
        if digit_mode is DigitMode.ARABIC_INDIC:
            pairs += _DIGITS_TO_ARABIC_INDIC
        object.__setattr__(self, "_symbol_pairs", pairs)


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
        line: int | None = None,
        column: int | None = None,
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

    A word is a non-empty string whose NFC form holds only word characters
    (``alphabets.WORD_CHARS``); anything else raises ValueError. With
    ``strict`` a pass-through character raises UnmatchedCharacter instead.

    >>> from hawar2sorani import default_rules
    >>> rs = default_rules()
    >>> transliterate_word("Se’îd", rs)
    'سەعید'
    >>> transliterate_word("s\\u0327e\\u0302r", rs)  # şêr in NFD
    'شێر'
    >>> transliterate_word("min û", rs)
    Traceback (most recent call last):
    ValueError: not one word: 'min û'
    """
    if not word or not WORD_CHARS.issuperset(unicodedata.normalize("NFC", word)):
        raise ValueError(f"not one word: {word!r}")
    (output,) = rs._outputs([word])
    if strict and rs._unmatched and re.search(rs._unmatched, output):
        offset, char = rs._first_unmatched(word)
        raise UnmatchedCharacter(char, offset)
    return output


def map_symbols(text: str, cfg: EngineConfig) -> str:
    """Per-character symbol mapping; everything unconfigured is unchanged."""
    # One str.replace per symbol: str.translate is slow on non-ASCII text, and
    # no replacement is itself a symbol, so the order does not matter.
    for symbol, replacement in cfg._symbol_pairs:
        text = text.replace(symbol, replacement)
    return text


# A full stop ending a line would render on the wrong side in an LTR-defaulted
# editor; the mark pins it. \r from CRLF input stays after the mark.
_LINE_FINAL_STOP = re.compile(r"\.(?=\r*$)", re.M)
_STOP_WITH_RLM = "." + RLM


def transliterate_text(
    text: str, rs: RuleSet, cfg: EngineConfig = DEFAULT_CONFIG, *, strict: bool = False
) -> str:
    """Transliterate arbitrary text, preserving line structure exactly."""
    out = rs._rewrite_words(text)
    # Strict mode reads the rewritten text alone, whichever path or memo made it:
    # a letter of RuleSet._unmatched stood unmatched, in a word or in a gap.
    if strict and rs._unmatched and re.search(rs._unmatched, out):
        _strict_error(text, rs)
    # Word output is Arabic letters or passed-through word characters, never
    # a mapped symbol, so the symbol mapping can run over the whole result.
    out = map_symbols(out, cfg)
    if cfg.emit_rlm:
        out = _LINE_FINAL_STOP.sub(_STOP_WITH_RLM, out)
    # A word's output can compose with a combining mark after it.
    return unicodedata.normalize("NFC", out)


def _strict_error(text: str, rs: RuleSet) -> None:
    """Raise the error for the first word of ``text`` whose output holds a
    letter of ``RuleSet._unmatched``; return if only a gap holds one (an
    apostrophe alone, under a table with no ``'`` rule). The outputs come from
    ``RuleSet._outputs``, so a word the memo holds costs a read."""
    pieces = _WORD.split(unicodedata.normalize("NFC", text))
    for index, output in zip(range(1, len(pieces), 2), rs._outputs(pieces[1::2])):
        if re.search(rs._unmatched, output):
            offset, char = rs._first_unmatched(pieces[index])
            before = "".join(pieces[:index])
            column = len(before) - before.rfind("\n") + offset
            raise UnmatchedCharacter(char, offset, before.count("\n") + 1, column)
