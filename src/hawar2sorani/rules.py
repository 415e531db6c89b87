"""Rule model, word rewriting and rule-file format.

A rule maps a short Latin pattern (one to three letters) to Persian-Arabic
output under a positional condition. A RuleSet owns a word's rewrite: it
compiles its rules once and memoizes each raw word's output (``_outputs``),
and keeps the engine's second memo, of lines as given to their NFC form
with the words rewritten (``_line_outputs``, ``_keep_lines``); both memos
share one lock and one size limit. A batch of 512 words or more in which no
word repeats or hits the word memo, such as a word list, is rewritten
without filling it: such words would only push out words that do repeat.
The words of a batch that miss are case-folded in one pass (``fold_word``
over the batch joined with newlines, which no word the engine cuts holds and
across which neither NFC nor ``str.lower`` looks) and joined with a
separator no folded word holds; then one regular expression replaces every
match of a longer or context rule, left to right, and one ``str.replace``
per single-letter ``any`` rule maps each letter left over. Splitting on the
separator gives each word's output. The compile step (``_compile``) is the
one place that states which rule wins, why the two steps agree with it, and
why the separator keeps the words apart.

Rule files are plain UTF-8 text, one rule per line:

    pattern<TAB>context<TAB>output

with context one of ``any``, ``initial``, ``after_vowel``, ``final``, or
``word`` (a whole-word exception), ``#`` comments, the visible marker ``∅``
for empty output, and optional ``@version`` / ``@vowels`` directives. The
built-in table is one such file, ``data/default.rules`` in this package, read
through the loader that imported this module (``read_data``): installed,
editable or zipped, the package needs no temporary file.
"""

import os
import re
import threading
import unicodedata
from enum import Enum
from types import MappingProxyType

from .alphabets import ARABIC_LETTERS, CANONICAL_APOSTROPHE, HAWAR_VOWELS, LATIN_RULE_CHARS


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


class _Value:
    """Base of ``Rule``, ``RuleSet`` and ``EngineConfig``: frozen dataclasses,
    less the start-up cost of importing ``dataclasses``. ``__match_args__``
    names the fields, which ``__init__`` sets with ``_set_fields``.
    """

    def _set_fields(self, *values) -> None:
        # Not through vars(self): a materialized __dict__ slows every attribute read.
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Context(Enum):
    """Positional condition for a rule, evaluated on the Latin source side."""

    ANY = "any"
    WORD_INITIAL = "initial"
    AFTER_VOWEL = "after_vowel"
    WORD_FINAL = "final"


class Rule(_Value):
    """One Latin-pattern to Arabic-output mapping."""

    __match_args__ = ("pattern", "context", "output")

    def __init__(self, pattern: str, context: Context, output: str):
        if not pattern:
            raise MalformedLine("empty pattern")
        if len(pattern) > 3:
            raise PatternTooLong(f"pattern {pattern!r} is longer than three characters")
        _check_chars(pattern, LATIN_RULE_CHARS, "pattern")
        if len(output) > 3:
            raise OutputTooLong(f"output {output!r} is longer than three characters")
        _check_chars(output, ARABIC_LETTERS, "output")
        self._set_fields(pattern, context, output)


def fold_word(word: str) -> str:
    """NFC-normalize, lowercase, and canonicalize apostrophes."""
    # str.replace, not str.translate, which is slow on non-ASCII text.
    folded = unicodedata.normalize("NFC", word).lower()
    folded = folded.replace("’", CANONICAL_APOSTROPHE).replace("ʼ", CANONICAL_APOSTROPHE)
    return unicodedata.normalize("NFC", folded)


# Joins the folded words of a batch. NFC maps U+2126 OHM SIGN to U+03A9, so no
# word folded by fold_word (its last step is NFC) holds it.
_SEPARATOR = "\u2126"

# Word outputs memoized per RuleSet, keyed on the raw word text so repeats
# skip case folding too; real text repeats words heavily. The limit is checked
# once per batch: one whose misses would overflow it clears the memo. A long
# batch in which no word repeats or hits the memo (a word list) fills nothing
# (see _UNIQUE_BATCH). The line memo has the same limit and the same clear.
_CACHE_LIMIT = 1 << 17
# A batch of at least this many words, none repeated and none in the memo, is
# rewritten without filling the memo. Prose never has such a batch: in the
# benchmark's repeat-block and strict-lines texts (seeds 101 and 523) the
# longest run of words with no repeat is 31-33 words, and api-short's
# sentences have 2-9. Every 32 KB CLI batch of unique-words has 3,872 words or
# more; filling the memo from them never gave a hit, and skipping the fill cut
# the CLI's peak RSS on that input from 40.7 to 16.5 MB and cli._stream's time
# from 297-336 to 225-252 ms (seed 101, best of 7, 3 alternations).
_UNIQUE_BATCH = 512


def _compile(rules: tuple, vowels: frozenset) -> tuple:
    """The two rewrite steps of a table.

    Precedence: at every position the longest pattern wins, then a rule whose
    context holds beats ``any``, then the earlier rule.

    Both steps run over a batch of folded words joined by ``_SEPARATOR``. No
    pattern, output or vowel holds the separator, so no match spans two words
    and the outputs split apart again. Word-initial is "not after a character
    other than the separator", word-final "not before one": on a lone word,
    the start and the end of the string, even if the word holds a newline.

    Step 1 is one regex alternation over every rule but the single-letter
    ``any`` ones, sorted by that key, so ``re`` takes the first alternative
    that matches. Each alternative is the rule's pattern, then its context as
    a lookbehind or lookahead over the pattern, then an empty group, so
    ``match.lastindex`` names the winner. As every alternative starts with a
    literal, ``re`` skips in C the positions where no rule can start. Step 2 is
    one ``str.replace`` per single-letter ``any`` rule; a ``str.translate``
    table would raise and clear a ``KeyError`` for each Arabic letter step 1
    wrote. The two steps give what one alternation over all rules would: a
    single-letter ``any`` rule sorts after every other rule for its letter, so
    it wins exactly where no alternative of step 1 matches, and there step 1
    moves on by one character, as the rule consumes one. Step 1 writes only
    Arabic letters, which step 2 leaves alone, and its lookarounds see the
    Latin words. The order of step 2's replacements does not matter: each
    replaces one Latin letter, and none writes anything but Arabic letters.

    Step 2 leaves a character with no rule as it is, so every character no
    rule matched reaches the output unchanged; strict mode relies on that (see
    ``engine._NOT_ARABIC``), and ``RuleSet._first_unmatched`` finds where one
    stood.

    Returns (step 1 regex, output of each group by index, step 2's
    ``{letter: output}``).
    """
    vowel_class = re.escape("".join(sorted(vowels)))
    alternatives = {
        Context.ANY: "{0}",
        Context.WORD_INITIAL: f"{{0}}(?<![^{_SEPARATOR}]{{0}})",
        Context.AFTER_VOWEL: f"{{0}}(?<=[{vowel_class}]{{0}})" if vowels else "{0}(?!)",
        Context.WORD_FINAL: f"{{0}}(?![^{_SEPARATOR}])",
    }
    letters, keyed = {}, []
    for order, rule in enumerate(rules):
        if len(rule.pattern) == 1 and rule.context is Context.ANY:
            letters[rule.pattern] = rule.output
        else:
            keyed.append((-len(rule.pattern), rule.context is Context.ANY, order, rule))
    ranked = [rule for *_, rule in sorted(keyed)]  # order is unique: no Rule is compared
    regex = re.compile(
        "|".join(
            alternatives[rule.context].format(re.escape(rule.pattern)) + "()" for rule in ranked
        )
        or "(?!)"
    )
    outputs = (None,) + tuple(rule.output for rule in ranked)
    return regex, outputs, letters


class RuleSet(_Value):
    """Ordered, validated rule collection plus a whole-word exception lexicon.

    Immutable but for two private memos behind one lock: words to their
    outputs (``_outputs``), and lines as given to their NFC form with the
    words rewritten (``_line_outputs``, ``_keep_lines``); safe to share
    across threads. Construction validates the table as a whole and
    compiles it (see ``_compile`` for the precedence policy).
    """

    __match_args__ = ("rules", "exceptions", "latin_vowels", "version")

    def __init__(
        self, rules, exceptions=MappingProxyType({}), latin_vowels=HAWAR_VOWELS, version="custom"
    ):
        rules = tuple(rules)
        exceptions = MappingProxyType(dict(exceptions))
        vowels = frozenset(latin_vowels)
        _check_chars("".join(sorted(vowels)), LATIN_RULE_CHARS, "vowel set")
        # What an @version line gives back: parse_rules reads NFC text, ends
        # the line at a newline and strips the value.
        read_back = unicodedata.normalize("NFC", version).strip()
        if not read_back or "\n" in read_back or read_back != version:
            raise MalformedLine(f"version {version!r} would not parse back from a rule file")
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
        self._set_fields(rules, exceptions, vowels, version)
        set_attribute = object.__setattr__
        regex, outputs, letters = _compile(rules, vowels)
        set_attribute(self, "_regex", regex)
        set_attribute(self, "_group_output", lambda match: outputs[match.lastindex])
        set_attribute(self, "_letters", letters)
        # The word memo of _outputs, the line memo and their one lock.
        set_attribute(self, "_word_cache", {})
        set_attribute(self, "_line_cache", {})
        set_attribute(self, "_word_lock", threading.Lock())

    def _outputs(self, words: list) -> tuple:
        """(the output of each raw word, how many distinct words missed the memo).

        The misses are folded and rewritten in one batch and memoized, unless
        the batch has ``_UNIQUE_BATCH`` words or more and every one of them
        missed: no word of it repeats or is in the memo, so memoizing them
        would cost memory and time for no hit.
        """
        # The lock keeps one thread's clear from landing between another
        # thread's fill and its reads.
        with self._word_lock:
            cache = self._word_cache
            try:  # every word a hit: no Python code runs per word
                return list(map(cache.__getitem__, words)), 0
            except KeyError:
                pass
            missing = set(words).difference(cache)
            if len(missing) == len(words) >= _UNIQUE_BATCH:  # kept, it would never hit
                return self._rewrite(words), len(words)
            if len(cache) + len(missing) > _CACHE_LIMIT:
                cache.clear()
                missing = set(words)
                if len(missing) > _CACHE_LIMIT:  # too many to keep: this call only
                    cache = {}
            missing = list(missing)
            # _rewrite folds the misses with one fold_word call, which
            # perfbench's tracer times as one pass per batch.
            cache.update(zip(missing, self._rewrite(missing)))
            return list(map(cache.__getitem__, words)), len(missing)

    def _line_outputs(self, lines: list):
        """The memoized rewrite of each line of text, or None if one is missing."""
        with self._word_lock:
            try:
                return list(map(self._line_cache.__getitem__, lines))
            except KeyError:
                return None

    def _keep_lines(self, rewrites: dict) -> None:
        """Memoize lines as given (keys) with the words of their NFC forms rewritten (values).

        Only lines whose every word matched a rule may enter, so a hit is
        clean for strict mode too (the engine checks).
        """
        with self._word_lock:
            cache = self._line_cache
            if len(cache) + len(rewrites) > _CACHE_LIMIT:
                cache.clear()
                if len(rewrites) > _CACHE_LIMIT:  # too many to keep
                    return
            cache.update(rewrites)

    def _rewrite(self, words: list) -> list:
        """The output of each raw word of a batch.

        One fold pass, one regex pass, one ``str.replace`` per single-letter
        ``any`` rule, one split; the exception lexicon is looked up only for a
        batch holding one of its words.

        The fold is one ``fold_word`` call over the words joined with
        newlines, split again on them. No word the engine cuts holds a
        newline. NFC never composes or reorders across one, as it is a starter
        that composes with nothing, and ``str.lower`` sees it as neither cased
        nor case-ignorable, so it also bounds the one context ``lower`` looks
        at (final sigma): each piece is the fold of its word alone. A word that
        does hold a newline (a library caller's) gives more pieces than words,
        and then each word is folded alone.
        """
        folded = fold_word("\n".join(words)).split("\n")
        if len(folded) != len(words):
            folded = list(map(fold_word, words))
        rewritten = self._regex.sub(self._group_output, _SEPARATOR.join(folded))
        for letter, output in self._letters.items():
            rewritten = rewritten.replace(letter, output)
        outputs = rewritten.split(_SEPARATOR)
        if self.exceptions.keys().isdisjoint(folded):
            return outputs
        return list(map(self.exceptions.get, folded, outputs))

    def _first_unmatched(self, word: str):
        """(index, char) of the first character of ``fold_word(word)`` no rule matches, or None.

        Unmatched: a character no match of step 1 covers and step 2 lacks.
        Strict mode walks only a word its output check cannot clear (``engine._NOT_ARABIC``).
        """
        folded = fold_word(word)
        if folded in self.exceptions:
            return None
        covered = set()
        for match in self._regex.finditer(folded):
            covered.update(range(match.start(), match.end()))
        for index, char in enumerate(folded):
            if index not in covered and char not in self._letters:
                return index, char
        return None

    def __hash__(self):
        # exceptions is compared but not hashed: a read-only dict view is unhashable.
        return hash((self.rules, self.latin_vowels, self.version))

    def __reduce__(self):
        # Rebuilt through the constructor: the read-only exceptions view does
        # not pickle, and the copy compiles its own regex with empty memos.
        return RuleSet, (self.rules, dict(self.exceptions), self.latin_vowels, self.version)


# Rule-file syntax.
EMPTY_OUTPUT_MARK = "∅"
EXCEPTION_CONTEXT_TOKEN = "word"
_CONTEXT_TOKENS = {context.value: context for context in Context}


def parse_rules(text: str) -> RuleSet:
    """Parse rule-file content into a validated RuleSet.

    A repeated (pattern, context) pair or directive is rejected, never
    silently overridden. Raised errors carry the 1-based line number.
    """
    text = unicodedata.normalize("NFC", text)
    rules = []
    exceptions: dict = {}
    lines: dict = {}  # RuleError.entry -> the line that defined the entry
    version = "custom"
    vowels = HAWAR_VOWELS
    directives = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("@"):
            name, _, value = stripped.partition(" ")
            value = value.strip()
            if name in directives:
                raise DuplicateRule(f"second {name} directive", line=lineno)
            if name == "@version" and value:
                version = value
            elif name == "@vowels":  # no value: the empty vowel set
                vowels = frozenset(value)
                lines[None] = lineno
            else:
                raise MalformedLine(f"bad directive {stripped!r}", line=lineno)
            directives.add(name)
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


def read_data(name: str) -> str:
    """The UTF-8 text of ``data/<name>`` in this package; a BOM at its start is ignored."""
    path = os.path.join(os.path.dirname(__file__), "data", name)
    return __spec__.loader.get_data(path).decode("utf-8-sig")


def default_rules() -> RuleSet:
    """The built-in Hawar-to-Sorani table, shipped as ``data/default.rules``."""
    return parse_rules(read_data("default.rules"))
