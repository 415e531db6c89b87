"""Rule model, word rewriting and rule-file format.

A rule maps a short Latin pattern (one to three letters) to Persian-Arabic
output under a positional condition. A RuleSet owns a text's rewrite: it
compiles its rules once and picks each text's path (``_rewrite_words``): the
word path, which memoizes each raw word's output (``_outputs``); the line
memo, of lines as given to their NFC form with the words rewritten, filled
only from a text whose lines repeat (``_keep_lines``); or a word list's text
rewritten whole. Both memos share one size limit and one lock, which a fill
or a clear takes, never a read. A batch whose first 512 words are distinct
and none in the word memo, such as a word list, is rewritten without filling
either memo: its words would only push out words that do repeat.
The words of a batch that miss travel as one string: folded in one pass
(``fold_word`` over the words joined with newlines, which no word holds),
then one regular expression replaces every whole-word exception and every
match of a longer or context rule, left to right, and one ``str.replace`` per
single-letter ``any`` rule maps each letter left over. Splitting on the
newlines gives each word's output. A word list's text can also be folded and
rewritten whole (``_rewrite_text``), its gaps left in place, under any table.
Every word and gap pattern is stated here: ``_WORD``, which splits a text
into words and gaps, the word boundary ``_GAP`` and the word list's gates.
``_compile`` is the one place that states which exception word or rule wins,
why the two steps agree with it, and why the boundaries keep the words apart.

Rule files are plain UTF-8 text, one rule per line:

    pattern<TAB>context<TAB>output

with context one of ``any``, ``initial``, ``after_vowel``, ``final``, or
``word`` (a whole-word exception), ``#`` comments, the visible marker ``∅``
for empty output, and optional ``@version`` / ``@vowels`` directives. The
built-in table is one such file, ``data/default.rules`` in this package, read
through the loader that imported this module (``read_data``): installed,
editable or zipped, the package needs no temporary file.
"""

import itertools
import os
import re
import threading
import unicodedata
from enum import Enum
from types import MappingProxyType

from .alphabets import (
    APOSTROPHES,
    ARABIC_LETTERS,
    CANONICAL_APOSTROPHE,
    HAWAR_VOWELS,
    KURDISH_LATIN_LETTERS,
    LATIN_RULE_CHARS,
    WORD_CHARS,
    char_class,
)


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
    if not allowed.issuperset(text):
        ch = next(ch for ch in text if ch not in allowed)
        raise IllegalCharacter(
            f"{ch!r} (U+{ord(ch):04X}) not allowed in {side}", entry=entry, char=ch, side=side
        )


def _check_string(value, field: str, entry=None) -> None:
    if not isinstance(value, str):
        raise MalformedLine(f"{field} {value!r} is not a string", entry=entry)


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

    __hash__ = object.__hash__  # a member is equal only to itself: hashed in C


class Rule(_Value):
    """One Latin-pattern to Arabic-output mapping."""

    __match_args__ = ("pattern", "context", "output")

    def __init__(self, pattern: str, context: Context | str, output: str):
        try:
            context = Context(context)  # a member or its value ("any", "initial", ...)
        except ValueError:
            raise MalformedLine(f"unknown context {context!r}") from None
        _check_string(pattern, "pattern")
        if not pattern:
            raise MalformedLine("empty pattern")
        if len(pattern) > 3:
            raise PatternTooLong(f"pattern {pattern!r} is longer than three characters")
        _check_chars(pattern, LATIN_RULE_CHARS, "pattern")
        _check_string(output, "output")
        if len(output) > 3:
            raise OutputTooLong(f"output {output!r} is longer than three characters")
        _check_chars(output, ARABIC_LETTERS, "output")
        self._set_fields(pattern, context, output)


_OTHER_APOSTROPHES = tuple(sorted(APOSTROPHES - {CANONICAL_APOSTROPHE}))


def fold_word(word: str) -> str:
    """NFC-normalize, lowercase, and canonicalize apostrophes."""
    # str.replace, not str.translate, which is slow on non-ASCII text.
    folded = unicodedata.normalize("NFC", word).lower()
    for apostrophe in _OTHER_APOSTROPHES:
        folded = folded.replace(apostrophe, CANONICAL_APOSTROPHE)
    return unicodedata.normalize("NFC", folded)


# A word opens with a letter, or with apostrophes a letter follows. A class, not
# [A]*, opens it, so re skips gaps in C; a lookbehind per apostrophe, not a letter
# class (0.1 ms more to compile), tells a letter. Its group makes split() keep words.
_WORD = re.compile(
    "({word}(?:{not_apostrophe}|(?=[{apostrophes}]*[{letters}])){word}*)".format(
        word=f"[{char_class(WORD_CHARS)}]",
        not_apostrophe="".join(f"(?<!{a})" for a in sorted(APOSTROPHES)),
        apostrophes=char_class(APOSTROPHES),
        letters=char_class(KURDISH_LATIN_LETTERS),
    )
)
# Word boundaries, as a class body: every Latin-1 character that is no word
# character and that the fold leaves as it is (not an upper-case letter such as
# À). A batch of folded words is joined with "\n", one of them, which no folded
# word holds. Step 1 puts the class in its initial and final checks and its
# guards; like every class of step 1 it stays in Latin-1, as a class past U+00FF
# costs about 0.1 ms more compile each time it appears. So a word list's text is
# folded and rewritten whole (_rewrite_text) only where every gap is made of
# these: its gates refuse any other character that is no word character (about
# 5 ms per MB) and a run of apostrophes alone, which is a gap (about 1 ms per MB,
# on the fold). Pattern strings: re compiles each on first use, so a run that
# meets no word list skips their 0.4 ms of compile.
_GAP = char_class(
    char for char in map(chr, range(256)) if char not in WORD_CHARS and fold_word(char) == char
)
_NOT_GAP_OR_WORD = f"[^{_GAP}{char_class(WORD_CHARS)}]"
_APOSTROPHES_ALONE = f"'(?<![^{_GAP}]')'*(?![^{_GAP}])"

# Word outputs memoized per RuleSet, keyed on the raw word text so repeats
# skip case folding too; real text repeats words heavily. The limit is checked
# once per batch: one whose misses would overflow it clears the memo. A word
# list fills nothing (see _UNIQUE_BATCH). The line memo has the same limit and
# the same clear.
_CACHE_LIMIT = 1 << 17
# Shorter texts take the word path alone (RuleSet._rewrite_words): there the
# other two paths cost more than they save. The line memo misses every one-line
# text, as _keep_lines keeps none, and a word list needs _UNIQUE_BATCH words.
# Through the long path's probe, per-line NFC, verdict and keep test, api-short's
# 5,000 sentences take 6.6-7.0 us each, against 3.5 us on the word path (seed
# 101, best of 9, one process on 2 vCPUs).
_LONG_TEXT = 4096
# Longer lines are never kept in the line memo, which bounds each entry. On
# seed 101 the longest line that repeats as given has 56 characters on
# repeat-block and 24 on strict-lines, and unique-words repeats no line.
_LONGEST_LINE = 64
# A batch whose first this many words are distinct and none in the memo is a
# word list (RuleSet._is_word_list), rewritten without hashing its other words
# or filling the memo, even if a later word repeats; a long text of one is
# folded and rewritten whole where it can be (RuleSet._rewrite_text). Prose
# never starts such a batch: in the benchmark's repeat-block and strict-lines
# texts (seeds 101 and 523) the longest run of words with no repeat is 31-33
# words, and api-short's sentences have 2-9. Every 32 KB CLI batch of
# unique-words has 3,872 words or more; filling the memo from them never gave a
# hit, and skipping the fill cut the CLI's peak RSS on that input from 40.7 to
# 16.5 MB.
_UNIQUE_BATCH = 512


def _compile(rules: tuple, vowels: frozenset, exceptions) -> tuple:
    """The two rewrite steps of a table and its whole-word exceptions.

    Precedence: a whole-word exception beats every rule. Elsewhere, at every
    position the longest pattern wins, then a rule whose context holds beats
    ``any``, then the earlier rule.

    Both steps run over folded words with a boundary, a ``_GAP`` character,
    between any two: a batch of words joined by newlines, or a word list's
    text folded whole, its gaps in place. No pattern, output or vowel holds
    a boundary, so no match spans two words, the outputs split apart again
    and the gaps pass unchanged. Word-initial is "not after a character other
    than a boundary", word-final "not before one": on a lone word, the start
    and the end of the string.

    Step 1 is one regex alternation over the exception words and every rule
    but the single-letter ``any`` ones, grouped by first letter (no two first
    letters match at one position) and ranked by precedence, so ``re`` takes
    the first alternative that matches. A group's exception words come first:
    one word-initial check, the words' rests, each with its own empty group,
    and one word-final check, which ``re`` backtracks into the next rest until
    one ends a whole folded word (a rest holds no boundary, so at most one
    can); each rule is its pattern, a lookaround for its context and an
    empty group. So ``match.lastindex`` names the winner. ``re`` skips in C
    where no group's letter stands: an exception word whose first letter
    begins no rule of step 1 makes it stop at that letter everywhere. One
    word-final check per group, not per word, builds a table with 1,000
    exception words in about 18 ms, not 68. A group of two or more
    ``initial`` or ``after_vowel`` rules has a guard, a lookbehind rejecting
    the letter after anything but a boundary or a vowel: a vowel after a
    consonant fails one check, not two. Past it, a rule with the pattern of
    an earlier rule needs no check: it is reached only where that rule, of
    the other context, fails. The guard passes every exception word, which
    is word-initial, and only the rules decide whether a group has one.

    Step 2 is one ``str.replace`` per single-letter ``any`` rule (a
    ``str.translate`` table would raise and clear a ``KeyError`` for each
    Arabic letter step 1 wrote). The two steps give what one alternation over
    all rules would: a single-letter ``any`` rule sorts after every other rule
    for its letter, so it wins exactly where no alternative of step 1 matches,
    and there step 1 moves on by one character, as the rule consumes one. Step
    1 writes only Arabic letters, which step 2 leaves alone, and its
    lookarounds see the Latin words. The order of step 2's replacements does
    not matter: each replaces one Latin letter with Arabic ones.

    Step 2 leaves a character with no rule as it is, so every character no
    rule matched reaches the output unchanged; strict mode relies on that (see
    ``RuleSet._unmatched``), and ``RuleSet._first_unmatched`` finds where one
    stood.

    Returns (step 1 regex, output of each group by index, step 2's
    ``{letter: output}``).
    """
    vowel_class = "".join(sorted(vowels))  # no rule letter is special to re
    anywhere = Context.ANY  # a local: each read of a member off the Enum class costs 0.1 us
    checks = {
        anywhere: "",
        Context.WORD_INITIAL: f"(?<![^{_GAP}]{{0}})",
        Context.AFTER_VOWEL: f"(?<=[{vowel_class}]{{0}})" if vowels else "(?!)",
        Context.WORD_FINAL: f"(?![^{_GAP}])",
    }
    letters, groups, words = {}, {}, {}
    for order, rule in enumerate(rules):
        if len(rule.pattern) == 1 and rule.context is anywhere:
            letters[rule.pattern] = rule.output
        else:
            key = (-len(rule.pattern), rule.context is anywhere, order, rule)
            groups.setdefault(rule.pattern[0], []).append(key)
    for word, output in exceptions.items():
        words.setdefault(word[0], []).append((word[1:], output))
    branches, outputs, guardable = [], [None], (Context.WORD_INITIAL, Context.AFTER_VOWEL)
    for first in dict.fromkeys([*groups, *words]):
        group = [rule for *_, rule in sorted(groups.get(first, ()))]  # no Rule is compared
        guarded = len(group) > 1 and all(rule.context in guardable for rule in group)
        seen, alternatives = set(), []
        if first in words:
            rests = "|".join(rest + "()" for rest, _ in words[first])
            initial, final = checks[Context.WORD_INITIAL].format(first), checks[Context.WORD_FINAL]
            alternatives.append(f"{initial}(?:{rests}){final}")
            outputs += [output for _, output in words[first]]
        for rule in group:
            check = "" if guarded and rule.pattern in seen else checks[rule.context]
            alternatives.append(rule.pattern[1:] + check.format(rule.pattern) + "()")
            seen.add(rule.pattern)
            outputs.append(rule.output)
        guard = f"(?<![^{_GAP}{vowel_class}]{first})" if guarded else ""
        body = "|".join(alternatives)
        branches.append(f"{first}{guard}(?:{body})" if len(alternatives) > 1 else first + body)
    return re.compile("|".join(branches) or "(?!)"), tuple(outputs), letters


class RuleSet(_Value):
    """Ordered, validated rule collection plus a whole-word exception lexicon.

    Immutable but for two private memos, which only a fill or a clear locks:
    words to their outputs, and lines as given to their NFC form with the
    words rewritten (see ``_rewrite_words``); safe to share across threads.
    Construction validates the table as a whole and compiles it (see
    ``_compile`` for the precedence policy).
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
            key = (rule.pattern, rule.context)
            if key in seen:
                raise DuplicateRule(f"second rule for ({key[0]!r}, {key[1].value})", entry=index)
            seen.add(key)
        for word, output in exceptions.items():
            _check_string(word, "exception word", entry=word)
            if not word:
                raise MalformedLine("empty exception word", entry=word)
            _check_chars(word, LATIN_RULE_CHARS, "exception word", entry=word)
            _check_string(output, "exception output", entry=word)
            _check_chars(output, ARABIC_LETTERS, "exception output", entry=word)
        self._set_fields(rules, exceptions, vowels, version)
        set_attribute = object.__setattr__
        regex, outputs, letters = _compile(rules, vowels, exceptions)
        set_attribute(self, "_regex", regex)
        set_attribute(self, "_group_output", lambda match: outputs[match.lastindex])
        set_attribute(self, "_letters", letters)
        # Rules write only Arabic letters and a word folds to LATIN_RULE_CHARS, so
        # only a rule letter with no single-letter any rule can reach an output
        # unmatched. A pattern string; "" where none can (the built-in table).
        unmatched = char_class(LATIN_RULE_CHARS.difference(letters))
        set_attribute(self, "_unmatched", unmatched and f"[{unmatched}]")
        # The word memo of _outputs, the line memo and their one lock.
        set_attribute(self, "_word_cache", {})
        set_attribute(self, "_line_cache", {})
        set_attribute(self, "_word_lock", threading.Lock())

    def _rewrite_words(self, text: str) -> str:
        """``text`` in NFC with each word replaced by its output.

        A text shorter than ``_LONG_TEXT`` takes the word path: it is split
        into words and gaps with ``_WORD``, ``_outputs`` gives the words'
        outputs, and the pieces are joined again. A longer text is joined from
        the line memo when it holds every line as given (its keys), else
        normalized line by line. A word list (``_is_word_list``) then fills
        neither memo: it is folded and rewritten as one string where
        ``_rewrite_text`` can, else its words go to ``_rewrite``. Any other
        text takes the word path, and the line memo keeps its lines if they
        repeat (``_keep_lines``).

        A newline is a starter that composes with nothing, so the NFC lines join
        to the NFC of the whole text; an NFD letter makes ``normalize`` rewrite
        only its own line. Words and their outputs never hold a newline (rules
        write only Arabic letters, and a character passed through is a word
        character), so a rewritten text splits on newlines into the rewrites of
        its lines, one for one.
        """
        if len(text) < _LONG_TEXT:
            pieces = _WORD.split(unicodedata.normalize("NFC", text))
            pieces[1::2] = self._outputs(pieces[1::2])
            return "".join(pieces)
        lines = text.split("\n")
        try:
            return "\n".join(map(self._line_cache.__getitem__, lines))
        except KeyError:  # a line missing, or a read that raced another thread's clear
            pass
        text = "\n".join([unicodedata.normalize("NFC", line) for line in lines])
        word_list = self._is_word_list(match[0] for match in _WORD.finditer(text))
        if word_list and (rewritten := self._rewrite_text(text)) is not None:
            return rewritten
        pieces = _WORD.split(text)
        pieces[1::2] = (self._rewrite if word_list else self._outputs)(pieces[1::2])
        rewritten = "".join(pieces)
        if not word_list:
            self._keep_lines(lines, rewritten)
        return rewritten

    def _outputs(self, words: list) -> list:
        """The output of each raw word.

        The misses are folded and rewritten in one batch and memoized, unless
        the batch is a word list (``_is_word_list``): its words are not
        memoized, as none would hit.
        """
        try:  # every word a hit: no Python code runs per word
            return list(map(self._word_cache.__getitem__, words))
        except KeyError:  # a miss, or a read that raced another thread's clear
            pass
        if self._is_word_list(words):
            return self._rewrite(words)  # no word of it would hit
        # Under the lock no other thread's clear lands between this fill and its reads.
        with self._word_lock:
            cache = self._word_cache
            missing = set(words).difference(cache)
            if len(cache) + len(missing) > _CACHE_LIMIT:
                cache.clear()
                missing = set(words)
                if len(missing) > _CACHE_LIMIT:  # too many to keep: this call only
                    cache = {}
            missing = list(missing)
            # _rewrite folds the misses with one fold_word call, which
            # perfbench's tracer times as one pass per batch.
            cache.update(zip(missing, self._rewrite(missing)))
            return list(map(cache.__getitem__, words))

    def _is_word_list(self, words) -> bool:
        """Whether the words of a batch (an iterable) make a word list: its
        first ``_UNIQUE_BATCH`` words are distinct and none is in the word memo.

        No word past the first repeat or memo hit is read, so prose is told
        from its first few dozen words. No lock: a racing clear changes no output.
        """
        seen, cache = set(), self._word_cache
        for word in itertools.islice(words, _UNIQUE_BATCH):
            if word in seen or word in cache:
                return False
            seen.add(word)
        return len(seen) == _UNIQUE_BATCH

    def _keep_lines(self, lines: list, rewritten: str) -> None:
        """Memoize a text's lines as given with the words of their NFC forms
        rewritten (the lines of ``rewritten``) if at most half of those not
        blank (empty, or a lone CR of CRLF) are distinct: lines that do not
        repeat, such as prose past a warm word memo, would never hit, and a
        one-line text is never kept; nor is a line over ``_LONGEST_LINE``."""
        if (len({*lines, "", "\r"}) - 2) * 2 > len(lines) - lines.count("") - lines.count("\r"):
            return
        pairs = zip(lines, rewritten.split("\n"))
        rewrites = {line: rewrite for line, rewrite in pairs if len(line) <= _LONGEST_LINE}
        with self._word_lock:
            cache = self._line_cache
            if len(cache) + len(rewrites) > _CACHE_LIMIT:
                cache.clear()
                if len(rewrites) > _CACHE_LIMIT:  # too many to keep
                    return
            cache.update(rewrites)

    def _rewrite(self, words: list) -> list:
        """The output of each raw word of a batch, which travels as one string.

        One ``fold_word`` pass over the words joined with newlines, steps 1
        and 2 of ``_compile`` (``_apply``), one split. No word holds a
        newline; NFC never composes or reorders across one, and ``str.lower``
        sees it as neither cased nor case-ignorable, so it also bounds final
        sigma: each line folds alone, and step 1 finds an exception word on
        its own line.
        """
        if not words:
            return []
        return self._apply(fold_word("\n".join(words))).split("\n")

    def _rewrite_text(self, text: str):
        """``text``, a word list in NFC, folded whole with each word replaced
        by its output; or None where the text fails the gates at ``_GAP``.

        Past the gates, every gap is made of ``_GAP`` characters, which the
        fold leaves as they are, so the words are the runs between them and
        ``_apply`` rewrites them as it rewrites a batch, whatever the table.
        """
        if re.search(_NOT_GAP_OR_WORD, text):
            return None
        folded = fold_word(text)
        if re.search(_APOSTROPHES_ALONE, folded):
            return None
        return self._apply(folded)

    def _apply(self, folded: str) -> str:
        """Steps 1 and 2 of ``_compile`` over folded text."""
        rewritten = self._regex.sub(self._group_output, folded)
        for letter, output in self._letters.items():
            rewritten = rewritten.replace(letter, output)
        return rewritten

    def _first_unmatched(self, word: str) -> tuple:
        """(index, char) of the first character of ``fold_word(word)`` no rule matches.

        It is the first letter of ``_unmatched`` left once step 1's matches are
        blanked to as many spaces; strict mode walks only words whose outputs hold one.
        """
        blank = lambda match: " " * len(match[0])  # no rule letter is a space
        match = re.search(self._unmatched, self._regex.sub(blank, fold_word(word)))
        return match.start(), match[0]

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
        pattern, context_token, output = map(str.strip, fields)
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
        try:
            rules.append(Rule(pattern, context_token, output))
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
