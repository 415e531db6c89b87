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

# Both cases, for the engine's word pattern. The target script is caseless, so the
# engine folds case before matching.
KURDISH_LATIN_LETTERS = LOWER_LETTERS | {letter.upper() for letter in LOWER_LETTERS}

# Sorani Persian-Arabic alphabet accepted on the output side of rules.
ARABIC_LETTERS = frozenset("ئابپتجچحخدرڕزژسشعغفڤقکگلڵمنهەوۆیێ")
