"""Rule model, rule-file format, and the built-in Hawar-to-Sorani table.

A rule maps a short Latin pattern (one to three letters) to Persian-Arabic
output under a positional condition. Each RuleSet compiles its rules once into
one regular expression that rewrites a case-folded word left to right; the
compile step (``_compile``) is the one place that states which rule wins.

Rule files are plain UTF-8 text, one rule per line:

    pattern<TAB>context<TAB>output

with context one of ``any``, ``initial``, ``after_vowel``, ``final``, or
``word`` (a whole-word exception), ``#`` comments, the visible marker ``∅``
for empty output, and optional ``@version`` / ``@vowels`` directives.
"""

import re
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Mapping

from .alphabets import ARABIC_LETTERS, HAWAR_VOWELS, LATIN_RULE_CHARS


class RuleError(ValueError):
    """Invalid rule definition or rule file.

    ``args`` is the message alone, so every error pickles. ``line`` is the
    1-based rule-file line, ``entry`` what a RuleSet-level error is about (a
    rule's index, an exception word, or None for the vowel set), and ``char``
    and ``side`` name an illegal character and where it stood.
    """

    def __init__(self, message: str, *, line=None, entry=None, char=None, side=None):
        super().__init__(message)
        self.line, self.entry, self.char, self.side = line, entry, char, side

    def __str__(self) -> str:
        where = "" if self.line is None else f" (line {self.line})"
        return f"{type(self).__name__}: {self.args[0]}{where}"


class MalformedLine(RuleError):
    pass


class DuplicateRule(RuleError):
    pass


class IllegalCharacter(RuleError):
    pass


class PatternTooLong(RuleError):
    pass


class OutputTooLong(RuleError):
    pass


def _check_chars(text: str, allowed: frozenset, side: str, entry=None) -> None:
    for ch in text:
        if ch not in allowed:
            raise IllegalCharacter(
                f"{ch!r} (U+{ord(ch):04X}) not allowed in {side}", entry=entry, char=ch, side=side
            )


class Context(Enum):
    """Positional condition for a rule, evaluated on the Latin source side."""

    ANY = "any"
    WORD_INITIAL = "initial"
    AFTER_VOWEL = "after_vowel"
    WORD_FINAL = "final"


@dataclass(frozen=True)
class Rule:
    """One Latin-pattern to Arabic-output mapping."""

    pattern: str
    context: Context
    output: str

    def __post_init__(self):
        if not self.pattern:
            raise MalformedLine("empty pattern")
        if len(self.pattern) > 3:
            raise PatternTooLong(f"pattern {self.pattern!r} is longer than three characters")
        _check_chars(self.pattern, LATIN_RULE_CHARS, "pattern")
        if len(self.output) > 3:
            raise OutputTooLong(f"output {self.output!r} is longer than three characters")
        _check_chars(self.output, ARABIC_LETTERS, "output")


def _compile(rules: tuple, vowels: frozenset) -> tuple:
    """One regex alternation for the whole table, plus the output of each group.

    At every position ``re`` takes the first alternative that matches, so
    sorting the alternatives fixes precedence: the longest pattern wins, then
    a rule whose context holds beats ``any``, then the earlier rule. Each rule
    is one capturing group, so ``match.lastindex`` names the winner; the last
    group, whose output is None, takes a character no rule matches.
    """
    after_vowel = f"(?<=[{re.escape(''.join(sorted(vowels)))}])" if vowels else "(?!)"
    anchors = {
        Context.ANY: "{}",
        Context.WORD_INITIAL: r"\A{}",
        Context.AFTER_VOWEL: after_vowel + "{}",
        Context.WORD_FINAL: r"{}\Z",
    }
    ranked = sorted(
        enumerate(rules),
        key=lambda item: (-len(item[1].pattern), item[1].context is Context.ANY, item[0]),
    )
    groups = [f"({anchors[rule.context].format(re.escape(rule.pattern))})" for _, rule in ranked]
    regex = re.compile("|".join(groups + ["(.)"]), re.S)
    return regex, (None,) + tuple(rule.output for _, rule in ranked) + (None,)


@dataclass(frozen=True)
class RuleSet:
    """Ordered, validated rule collection plus a whole-word exception lexicon.

    Immutable; safe to share across threads. Construction validates the table
    as a whole and compiles it (see ``_compile`` for the precedence policy).
    """

    rules: tuple
    exceptions: Mapping = field(default_factory=dict)
    latin_vowels: frozenset = HAWAR_VOWELS
    version: str = "custom"

    def __post_init__(self):
        rules = tuple(self.rules)
        exceptions = MappingProxyType(dict(self.exceptions))
        vowels = frozenset(self.latin_vowels)
        _check_chars("".join(sorted(vowels)), LATIN_RULE_CHARS, "vowel set")
        seen = set()
        for index, rule in enumerate(rules):
            if (rule.pattern, rule.context) in seen:
                raise DuplicateRule(
                    f"second rule for ({rule.pattern!r}, {rule.context.value})", entry=index
                )
            seen.add((rule.pattern, rule.context))
        for word, output in exceptions.items():
            if not word:
                raise MalformedLine("empty exception word", entry=word)
            _check_chars(word, LATIN_RULE_CHARS, "exception word", entry=word)
            _check_chars(output, ARABIC_LETTERS, "exception output", entry=word)
        set_attribute = object.__setattr__
        set_attribute(self, "rules", rules)
        set_attribute(self, "exceptions", exceptions)
        set_attribute(self, "latin_vowels", vowels)
        regex, outputs = _compile(rules, vowels)
        set_attribute(self, "_regex", regex)
        set_attribute(self, "_outputs", outputs)
        # Transliterated words memoized by the engine, keyed on the raw word.
        set_attribute(self, "_word_cache", {})

    def _rewrite(self, folded: str) -> tuple:
        """(output, index of the first unmatched character or -1) for a folded word."""
        exception = self.exceptions.get(folded)
        if exception is not None:
            return exception, -1
        outputs = self._outputs
        out = []
        unmatched = -1
        for match in self._regex.finditer(folded):
            output = outputs[match.lastindex]
            if output is None:
                output = match.group()
                if unmatched < 0:
                    unmatched = match.start()
            out.append(output)
        return "".join(out), unmatched

    def __reduce__(self):
        # Rebuilt through the constructor: the read-only exceptions view does
        # not pickle, and the copy compiles its own regex with an empty memo.
        return RuleSet, (self.rules, dict(self.exceptions), self.latin_vowels, self.version)


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
    lines: dict = {}  # RuleError.entry -> the line that defined the entry
    version = "custom"
    vowels = HAWAR_VOWELS
    for lineno, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("@"):
            name, _, value = stripped.partition(" ")
            value = value.strip()
            if name == "@version" and value:
                version = value
            elif name == "@vowels" and value:
                vowels = frozenset(value)
                lines[None] = lineno
            else:
                raise MalformedLine(f"bad directive {stripped!r}", line=lineno)
            continue
        fields = raw.split("\t")
        if len(fields) != 3:
            raise MalformedLine(
                f"expected pattern<TAB>context<TAB>output, got {stripped!r}", line=lineno
            )
        pattern, context_token, output = (f.strip() for f in fields)
        if not output:
            raise MalformedLine(
                f"empty output field; write {EMPTY_OUTPUT_MARK} explicitly", line=lineno
            )
        if output == EMPTY_OUTPUT_MARK:
            output = ""
        if context_token == EXCEPTION_CONTEXT_TOKEN:
            if pattern in exceptions:
                raise DuplicateRule(
                    f"second rule for ({pattern!r}, {EXCEPTION_CONTEXT_TOKEN})", line=lineno
                )
            exceptions[pattern] = output
            lines[pattern] = lineno
            continue
        context = _CONTEXT_TOKENS.get(context_token)
        if context is None:
            raise MalformedLine(f"unknown context {context_token!r}", line=lineno)
        try:
            rules.append(Rule(pattern, context, output))
        except RuleError as error:
            error.line = lineno
            raise
        lines[len(rules) - 1] = lineno
    try:
        return RuleSet(tuple(rules), exceptions, vowels, version)
    except RuleError as error:
        error.line = lines[error.entry]
        raise


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
# readability only; _compile ranks by pattern length regardless of order.
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
    return RuleSet(rules, _DEFAULT_EXCEPTIONS, HAWAR_VOWELS, DEFAULT_VERSION)
