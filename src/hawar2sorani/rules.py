"""Rule model, rule-file format, and the built-in Hawar-to-Sorani table.

A rule maps a short Latin pattern (one to three letters) to Persian-Arabic
output under a positional condition. At every position the winning rule is
chosen by longest pattern, then context specificity, then table order, so a
digraph like "ll" always beats two single "l" matches and a post-vowel
variant beats the plain mapping exactly where its condition holds.

Rule files are plain UTF-8 text, one rule per line:

    pattern<TAB>context<TAB>output

with context one of ``any``, ``initial``, ``after_vowel``, ``final``, or
``word`` (a whole-word exception), ``#`` comments, the visible marker ``∅``
for empty output, and optional ``@version`` / ``@vowels`` directives.
"""

import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .alphabets import ARABIC_LETTERS, HAWAR_VOWELS, LATIN_RULE_CHARS


class RuleError(ValueError):
    """Invalid rule definition or rule file."""

    code = "RuleError"

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(f"{self.code}: {message}")


class MalformedLine(RuleError):
    code = "MalformedLine"


class DuplicateRule(RuleError):
    code = "DuplicateRule"

    def __init__(self, pattern: str, context_name: str, line: Optional[int] = None):
        self.pattern = pattern
        self.context_name = context_name
        super().__init__(f"second rule for ({pattern!r}, {context_name})", line)


class IllegalCharacter(RuleError):
    code = "IllegalCharacter"

    def __init__(self, char: str, side: str, line: Optional[int] = None):
        self.char = char
        self.side = side
        super().__init__(f"{char!r} (U+{ord(char):04X}) not allowed in {side}", line)


class PatternTooLong(RuleError):
    code = "PatternTooLong"

    def __init__(self, pattern: str, line: Optional[int] = None):
        self.pattern = pattern
        super().__init__(f"pattern {pattern!r} is longer than three characters", line)


class OutputTooLong(RuleError):
    code = "OutputTooLong"

    def __init__(self, output: str, line: Optional[int] = None):
        self.output = output
        super().__init__(f"output {output!r} is longer than three characters", line)


class Context(Enum):
    """Positional condition for a rule, evaluated on the Latin source side."""

    ANY = "any"
    WORD_INITIAL = "initial"
    AFTER_VOWEL = "after_vowel"
    WORD_FINAL = "final"


def _check_pattern(pattern: str, line: Optional[int] = None) -> None:
    if not pattern:
        raise MalformedLine("empty pattern", line)
    if len(pattern) > 3:
        raise PatternTooLong(pattern, line)
    for ch in pattern:
        if ch not in LATIN_RULE_CHARS:
            raise IllegalCharacter(ch, "pattern", line)


def _check_output(output: str, line: Optional[int] = None) -> None:
    if len(output) > 3:
        raise OutputTooLong(output, line)
    for ch in output:
        if ch not in ARABIC_LETTERS:
            raise IllegalCharacter(ch, "output", line)


@dataclass(frozen=True)
class Rule:
    """One Latin-pattern to Arabic-output mapping."""

    pattern: str
    context: Context
    output: str

    def __post_init__(self):
        _check_pattern(self.pattern)
        _check_output(self.output)


@dataclass(frozen=True)
class RuleMatch:
    """A successful lookup: the rule and how many Latin characters it covers."""

    rule: Rule
    consumed: int

    def __post_init__(self):
        if self.consumed != len(self.rule.pattern):
            raise ValueError("consumed must equal the pattern length")


@dataclass
class RuleSet:
    """Ordered, validated rule collection plus a whole-word exception lexicon.

    Immutable after construction; safe to share across threads.
    """

    rules: tuple
    exceptions: dict = field(default_factory=dict)
    latin_vowels: frozenset = HAWAR_VOWELS
    version: str = "custom"

    def __post_init__(self):
        self.rules = tuple(self.rules)
        self.exceptions = dict(self.exceptions)
        self.latin_vowels = frozenset(self.latin_vowels)
        seen = set()
        for rule in self.rules:
            key = (rule.pattern, rule.context)
            if key in seen:
                raise DuplicateRule(rule.pattern, rule.context.value)
            seen.add(key)
        for word, output in self.exceptions.items():
            for ch in word:
                if ch not in LATIN_RULE_CHARS:
                    raise IllegalCharacter(ch, "exception word")
            for ch in output:
                if ch not in ARABIC_LETTERS:
                    raise IllegalCharacter(ch, "exception output")
        for ch in self.latin_vowels:
            if ch not in LATIN_RULE_CHARS:
                raise IllegalCharacter(ch, "vowel set")
        # First-character index with candidates pre-sorted by precedence:
        # longer pattern first, then specific context before ANY, then table
        # order. lookup() returns the first applicable candidate.
        buckets: dict = {}
        for order, rule in enumerate(self.rules):
            key = (-len(rule.pattern), rule.context is Context.ANY, order)
            buckets.setdefault(rule.pattern[0], []).append((key, rule))
        self._index = {
            ch: tuple(rule for _, rule in sorted(cands, key=lambda item: item[0]))
            for ch, cands in buckets.items()
        }
        self._word_cache: dict = {}

    def coverage_gaps(self) -> list:
        """Alphabet letters or required outputs this table fails to cover.

        Empty for a complete table. A letter counts as covered only by an
        ``any`` rule: position-restricted rules alone leave gaps.
        """
        gaps = []
        any_covered = {
            rule.pattern
            for rule in self.rules
            if len(rule.pattern) == 1 and rule.context is Context.ANY
        }
        for letter in sorted(LATIN_RULE_CHARS):
            if letter not in any_covered:
                gaps.append(f"no position-independent rule for {letter!r}")
        emitted = "".join(rule.output for rule in self.rules)
        for ch in "حعغ":
            if ch not in emitted:
                gaps.append(f"no rule emits {ch!r}")
        return gaps


def lookup(
    rs: RuleSet,
    word: str,
    pos: int,
    *,
    is_word_initial: bool,
    prev_is_vowel: bool,
) -> Optional[RuleMatch]:
    """Winning rule at ``pos`` in ``word``, or ``None`` if nothing matches.

    Precedence: longest pattern, then a context-specific rule whose condition
    holds beats ``any``, then earliest table order. ``word`` must already be
    lowercase NFC; 0 <= pos < len(word).
    """
    candidates = rs._index.get(word[pos])
    if candidates is None:
        return None
    end = len(word)
    for rule in candidates:
        pattern = rule.pattern
        if not word.startswith(pattern, pos):
            continue
        context = rule.context
        if context is Context.ANY:
            return RuleMatch(rule, len(pattern))
        if context is Context.WORD_INITIAL and is_word_initial:
            return RuleMatch(rule, len(pattern))
        if context is Context.AFTER_VOWEL and prev_is_vowel:
            return RuleMatch(rule, len(pattern))
        if context is Context.WORD_FINAL and pos + len(pattern) == end:
            return RuleMatch(rule, len(pattern))
    return None


# Rule-file syntax.
EMPTY_OUTPUT_MARK = "∅"
EXCEPTION_CONTEXT_TOKEN = "word"
_CONTEXT_TOKENS = {context.value: context for context in Context}


def parse_rules(text: str) -> RuleSet:
    """Parse rule-file content into a validated RuleSet.

    Later duplicates of a (pattern, context) pair are rejected, never
    silently overridden. Raised errors carry the 1-based line number.
    """
    text = unicodedata.normalize("NFC", text)
    rules = []
    exceptions: dict = {}
    seen = set()
    version = "custom"
    vowels = HAWAR_VOWELS
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("@"):
            name, _, value = stripped.partition(" ")
            value = value.strip()
            if name == "@version" and value:
                version = value
            elif name == "@vowels" and value:
                for ch in value:
                    if ch not in LATIN_RULE_CHARS:
                        raise IllegalCharacter(ch, "vowel set", lineno)
                vowels = frozenset(value)
            else:
                raise MalformedLine(f"bad directive {stripped!r}", lineno)
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedLine(
                f"expected pattern<TAB>context<TAB>output, got {stripped!r}", lineno
            )
        pattern, context_token, output = (f.strip() for f in fields)
        if not output:
            raise MalformedLine(
                f"empty output field; write {EMPTY_OUTPUT_MARK} explicitly", lineno
            )
        if output == EMPTY_OUTPUT_MARK:
            output = ""
        if context_token == EXCEPTION_CONTEXT_TOKEN:
            if not pattern:
                raise MalformedLine("empty exception word", lineno)
            for ch in pattern:
                if ch not in LATIN_RULE_CHARS:
                    raise IllegalCharacter(ch, "exception word", lineno)
            for ch in output:
                if ch not in ARABIC_LETTERS:
                    raise IllegalCharacter(ch, "exception output", lineno)
            if pattern in exceptions:
                raise DuplicateRule(pattern, EXCEPTION_CONTEXT_TOKEN, lineno)
            exceptions[pattern] = output
            continue
        context = _CONTEXT_TOKENS.get(context_token)
        if context is None:
            raise MalformedLine(f"unknown context {context_token!r}", lineno)
        _check_pattern(pattern, lineno)
        _check_output(output, lineno)
        if (pattern, context) in seen:
            raise DuplicateRule(pattern, context_token, lineno)
        seen.add((pattern, context))
        rules.append(Rule(pattern, context, output))
    return RuleSet(tuple(rules), exceptions, vowels, version)


def serialize_rules(rs: RuleSet) -> str:
    """Render a RuleSet in the rule-file format; inverse of parse_rules."""
    lines = [
        f"@version {rs.version}",
        f"@vowels {''.join(sorted(rs.latin_vowels))}",
    ]
    for rule in rs.rules:
        lines.append(
            f"{rule.pattern}\t{rule.context.value}\t{rule.output or EMPTY_OUTPUT_MARK}"
        )
    for word, output in rs.exceptions.items():
        lines.append(
            f"{word}\t{EXCEPTION_CONTEXT_TOKEN}\t{output or EMPTY_OUTPUT_MARK}"
        )
    return "\n".join(lines) + "\n"


DEFAULT_VERSION = "builtin-1.0"

_ANY = Context.ANY
_INI = Context.WORD_INITIAL
_AFV = Context.AFTER_VOWEL

# Built-in Hawar-to-Sorani table. Geminate digraphs are listed first for
# readability only; lookup() ranks by pattern length regardless of order.
_DEFAULT_TABLE = (
    ("ll", _ANY, "ڵ"),  # velarized l
    ("rr", _ANY, "ڕ"),  # trilled r
    ("b", _ANY, "ب"),
    ("c", _ANY, "ج"),
    ("ç", _ANY, "چ"),
    ("d", _ANY, "د"),
    ("f", _ANY, "ف"),
    ("g", _ANY, "گ"),
    ("h", _ANY, "ه"),
    ("ḧ", _ANY, "ح"),  # pharyngeal h
    ("j", _ANY, "ژ"),
    ("k", _ANY, "ک"),
    ("l", _ANY, "ل"),
    ("m", _ANY, "م"),
    ("n", _ANY, "ن"),
    ("p", _ANY, "پ"),
    ("q", _ANY, "ق"),
    ("r", _ANY, "ر"),
    ("s", _ANY, "س"),
    ("ş", _ANY, "ش"),
    ("t", _ANY, "ت"),
    ("v", _ANY, "ڤ"),
    ("w", _ANY, "و"),
    ("x", _ANY, "خ"),
    ("ẍ", _ANY, "غ"),  # voiced velar fricative
    ("y", _ANY, "ی"),
    ("z", _ANY, "ز"),
    ("'", _ANY, "ع"),  # pharyngeal stop
    # Vowels: bare form, word-initial carrier form, post-vowel hamza form.
    ("a", _ANY, "ا"),
    ("a", _INI, "ئا"),
    ("a", _AFV, "ئا"),
    ("e", _ANY, "ە"),
    ("e", _INI, "ئە"),
    ("e", _AFV, "ئە"),
    ("ê", _ANY, "ێ"),
    ("ê", _INI, "ئێ"),
    ("ê", _AFV, "ئێ"),
    # Bizroke: the short i is unwritten; word-initially only the carrier
    # remains, and it never takes a post-vowel variant.
    ("i", _ANY, ""),
    ("i", _INI, "ئ"),
    ("î", _ANY, "ی"),
    ("î", _INI, "ئی"),
    ("î", _AFV, "ئی"),
    ("o", _ANY, "ۆ"),
    ("o", _INI, "ئۆ"),
    ("o", _AFV, "ئۆ"),
    ("u", _ANY, "و"),
    ("u", _INI, "ئو"),
    ("u", _AFV, "ئو"),
    ("û", _ANY, "وو"),
    ("û", _INI, "ئوو"),
    ("û", _AFV, "ئوو"),
)

# Whole-word overrides applied before rule matching.
_DEFAULT_EXCEPTIONS = {
    "û": "و",  # the standalone conjunction, never written with the carrier
}


def default_rules() -> RuleSet:
    """The built-in Hawar-to-Sorani table with its exception lexicon."""
    rules = tuple(Rule(pattern, context, output) for pattern, context, output in _DEFAULT_TABLE)
    return RuleSet(rules, dict(_DEFAULT_EXCEPTIONS), HAWAR_VOWELS, DEFAULT_VERSION)
