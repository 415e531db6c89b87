"""Reference transliterator the benchmark checks every output against.

It shares no code with the package: the alphabet, the rule table and the
exception lexicon are restated here, and each word is rewritten by scanning
the whole table at every position and keeping the best applicable rule by
the documented precedence (longest pattern, then a specific context over
``any``, then table order). Callers apply it to the distinct words of an input
and reuse the results.
"""

import functools
import re
import unicodedata

LETTERS = "abcçdeêfghiîjklmnopqrsştuûvwxyzḧẍ"
APOSTROPHES = "'’ʼ"
VOWELS = frozenset("aeêiîouû")
RLM = "‏"
BOM = "﻿"

ANY, INITIAL, AFTER_VOWEL, FINAL = "any", "initial", "after_vowel", "final"

# (pattern, context, output) in the built-in table's order.
TABLE = (
    ("ll", ANY, "ڵ"), ("rr", ANY, "ڕ"),
    ("b", ANY, "ب"), ("c", ANY, "ج"), ("ç", ANY, "چ"), ("d", ANY, "د"),
    ("f", ANY, "ف"), ("g", ANY, "گ"), ("h", ANY, "ه"), ("ḧ", ANY, "ح"),
    ("j", ANY, "ژ"), ("k", ANY, "ک"), ("l", ANY, "ل"), ("m", ANY, "م"),
    ("n", ANY, "ن"), ("p", ANY, "پ"), ("q", ANY, "ق"), ("r", ANY, "ر"),
    ("s", ANY, "س"), ("ş", ANY, "ش"), ("t", ANY, "ت"), ("v", ANY, "ڤ"),
    ("w", ANY, "و"), ("x", ANY, "خ"), ("ẍ", ANY, "غ"), ("y", ANY, "ی"),
    ("z", ANY, "ز"), ("'", ANY, "ع"),
    ("a", ANY, "ا"), ("a", INITIAL, "ئا"), ("a", AFTER_VOWEL, "ئا"),
    ("e", ANY, "ە"), ("e", INITIAL, "ئە"), ("e", AFTER_VOWEL, "ئە"),
    ("ê", ANY, "ێ"), ("ê", INITIAL, "ئێ"), ("ê", AFTER_VOWEL, "ئێ"),
    ("i", ANY, ""), ("i", INITIAL, "ئ"),
    ("î", ANY, "ی"), ("î", INITIAL, "ئی"), ("î", AFTER_VOWEL, "ئی"),
    ("o", ANY, "ۆ"), ("o", INITIAL, "ئۆ"), ("o", AFTER_VOWEL, "ئۆ"),
    ("u", ANY, "و"), ("u", INITIAL, "ئو"), ("u", AFTER_VOWEL, "ئو"),
    ("û", ANY, "وو"), ("û", INITIAL, "ئوو"), ("û", AFTER_VOWEL, "ئوو"),
)
EXCEPTIONS = {"û": "و"}

_WORD_CHARS = LETTERS + LETTERS.upper() + APOSTROPHES
# A maximal run of word characters is a word unless it is apostrophes only.
_WORD_RUN = re.compile("[%s]+" % re.escape(_WORD_CHARS))
_PUNCT = str.maketrans({",": "،", ";": "؛", "?": "؟"})
_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_FOLD_APOSTROPHES = str.maketrans({"’": "'", "ʼ": "'"})


def fold(word):
    """NFC, lowercase, canonical apostrophe."""
    lowered = unicodedata.normalize("NFC", word).lower()
    return unicodedata.normalize("NFC", lowered.translate(_FOLD_APOSTROPHES))


_LONGEST = max(len(pattern) for pattern, _, _ in TABLE)


@functools.lru_cache(maxsize=None)
def _best_rule(window, at_start, after_vowel, remaining):
    """Full table scan for the winning rule, or None.

    A rule can only see the next ``_LONGEST`` characters, whether the
    position starts the word or follows a vowel, and how many characters
    remain; those are the arguments, so the scan is memoized on them.
    """
    best = None
    for order, (pattern, context, output) in enumerate(TABLE):
        if not window.startswith(pattern):
            continue
        if context == INITIAL and not at_start:
            continue
        if context == AFTER_VOWEL and not after_vowel:
            continue
        if context == FINAL and len(pattern) != remaining:
            continue
        key = (-len(pattern), context == ANY, order)
        if best is None or key < best[0]:
            best = (key, pattern, output)
    return best and (len(best[1]), best[2])


def clear_cache():
    _best_rule.cache_clear()


def word(raw):
    """Reference output for one word token."""
    folded = fold(raw)
    if folded in EXCEPTIONS:
        return EXCEPTIONS[folded]
    out = []
    pos = 0
    end = len(folded)
    while pos < end:
        best = _best_rule(
            folded[pos : pos + _LONGEST],
            pos == 0,
            pos > 0 and folded[pos - 1] in VOWELS,
            min(end - pos, _LONGEST + 1),
        )
        if best is None:
            out.append(folded[pos])
            pos += 1
        else:
            out.append(best[1])
            pos += best[0]
    return "".join(out)


def distinct_words(text):
    """Distinct word tokens of ``text`` after NFC, in first-seen order."""
    seen = dict.fromkeys(_WORD_RUN.findall(unicodedata.normalize("NFC", text)))
    return [w for w in seen if w.strip(APOSTROPHES)]


def word_count(text):
    """Number of word tokens in ``text`` after NFC."""
    return sum(
        1
        for m in _WORD_RUN.finditer(unicodedata.normalize("NFC", text))
        if m.group().strip(APOSTROPHES)
    )


def text(src, words, *, digits_arabic=False, rlm=False, strip_bom=False):
    """Reference output for a whole input.

    ``words`` maps each word token to its reference output (see ``word``).
    Punctuation is mapped after the words are replaced, which is safe
    because no word contains or emits ``,;?`` or ASCII digits.
    """
    if strip_bom and src.startswith(BOM):
        src = src[len(BOM):]
    src = unicodedata.normalize("NFC", src)

    def replace(match):
        run = match.group()
        return words[run] if run.strip(APOSTROPHES) else run

    out = _WORD_RUN.sub(replace, src).translate(_PUNCT)
    if digits_arabic:
        out = out.translate(_DIGITS)
    if rlm:
        lines = out.split("\n")
        for i, line in enumerate(lines):
            body = line.rstrip("\r")
            if body.endswith("."):
                lines[i] = body + RLM + line[len(body):]
        out = "\n".join(lines)
    return out
