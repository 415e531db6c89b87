"""Rule model and rule-file format.

A rule maps a short Latin pattern (one to three letters) to Persian-Arabic
output under a positional condition. Each RuleSet compiles its rules once into
one regular expression that rewrites a case-folded word left to right; the
compile step (``_compile``) is the one place that states which rule wins.

Rule files are plain UTF-8 text, one rule per line:

    pattern<TAB>context<TAB>output

with context one of ``any``, ``initial``, ``after_vowel``, ``final``, or
``word`` (a whole-word exception), ``#`` comments, the visible marker ``∅``
for empty output, and optional ``@version`` / ``@vowels`` directives. The
built-in table is one such file, ``data/default.rules`` in this package.
"""

import re
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
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


def load_rules(path) -> RuleSet:
    """Read and parse a rule file; a UTF-8 BOM at its start is ignored."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_rules(handle.read())


def default_rules() -> RuleSet:
    """The built-in Hawar-to-Sorani table, shipped as ``data/default.rules``."""
    table = resources.files("hawar2sorani").joinpath("data/default.rules")
    with resources.as_file(table) as path:  # a real file even from a zip import
        return load_rules(path)
