"""Transliterate Kurdish text in the Hawar Latin alphabet into Sorani script.

The conversion is rule-based and context-sensitive: word-initial vowels take
the carrier hamza, a vowel directly after another vowel takes it too, and the
short "i" (bizroke) is left unwritten. Rules match longest-first, so digraphs
like "ll" and "rr" win over their single letters.

>>> from hawar2sorani import transliterate
>>> transliterate("min û tu")
'من و تو'
"""

from .engine import (
    DEFAULT_CONFIG,
    DigitMode,
    EngineConfig,
    PunctMode,
    RLM,
    UnmatchedCharacter,
    map_symbols,
    transliterate_text,
    transliterate_word,
)
from .rules import (
    Context,
    DuplicateRule,
    IllegalCharacter,
    MalformedLine,
    OutputTooLong,
    PatternTooLong,
    Rule,
    RuleError,
    RuleSet,
    default_rules,
    fold_word,
    load_rules,
    parse_rules,
    serialize_rules,
)

__version__ = "0.1.0"

_DEFAULT_RULESET = None


def transliterate(text: str, rs: RuleSet = None, cfg: EngineConfig = DEFAULT_CONFIG) -> str:
    """Transliterate ``text`` with the built-in table unless given another."""
    global _DEFAULT_RULESET
    if rs is None:
        if _DEFAULT_RULESET is None:
            _DEFAULT_RULESET = default_rules()
        rs = _DEFAULT_RULESET
    return transliterate_text(text, rs, cfg)
