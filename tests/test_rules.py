import itertools
import pickle

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hawar2sorani import rules
from hawar2sorani.alphabets import HAWAR_VOWELS, LATIN_RULE_CHARS
from hawar2sorani.rules import (
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
    parse_rules,
    serialize_rules,
)
from hawar2sorani.engine import (
    EngineConfig,
    UnmatchedCharacter,
    transliterate_text,
    transliterate_word,
)
from helpers import naive_fold, naive_parse, naive_transliterate_text, outcome


# ---------------------------------------------------------------- parsing

def test_parse_single_rule():
    rs = parse_rules("b\tany\tب")
    assert len(rs.rules) == 1
    assert rs.rules[0] == Rule("b", Context.ANY, "ب")


def test_parse_keeps_file_order():
    rs = parse_rules("b\tany\tب\nt\tany\tت\nd\tany\tد")
    assert [r.pattern for r in rs.rules] == ["b", "t", "d"]


def test_parse_rejects_duplicate():
    with pytest.raises(DuplicateRule) as exc_info:
        parse_rules("b\tany\tب\nb\tany\tب")
    assert exc_info.value.line == 2


def test_parse_same_pattern_other_context_ok():
    rs = parse_rules("a\tany\tا\na\tinitial\tئا")
    assert len(rs.rules) == 2


def test_parse_pattern_too_long():
    with pytest.raises(PatternTooLong) as exc_info:
        parse_rules("xxxx\tany\tخ")
    assert "PatternTooLong" in str(exc_info.value)
    assert exc_info.value.line == 1


def test_parse_output_too_long():
    with pytest.raises(OutputTooLong):
        parse_rules("x\tany\tخخخخ")


def test_parse_illegal_pattern_char():
    with pytest.raises(IllegalCharacter) as exc_info:
        parse_rules("b1\tany\tب")
    assert exc_info.value.char == "1"
    assert exc_info.value.side == "pattern"


def test_parse_illegal_output_char():
    with pytest.raises(IllegalCharacter) as exc_info:
        parse_rules("b\tany\tb")
    assert exc_info.value.side == "output"


def test_parse_uppercase_pattern_rejected():
    with pytest.raises(IllegalCharacter):
        parse_rules("B\tany\tب")


def test_parse_malformed_line_number():
    with pytest.raises(MalformedLine) as exc_info:
        parse_rules("b\tany\tب\nnonsense line\nt\tany\tت")
    assert exc_info.value.line == 2


def test_parse_unknown_context():
    with pytest.raises(MalformedLine):
        parse_rules("b\tmedial\tب")


def test_parse_empty_output_field_needs_marker():
    with pytest.raises(MalformedLine):
        parse_rules("i\tany\t")


def test_parse_empty_output_marker():
    rs = parse_rules("i\tany\t∅")
    assert rs.rules[0].output == ""


def test_parse_comments_blanks_and_crlf():
    rs = parse_rules("# comment\n\nb\tany\tب\r\n   # indented comment\nt\tany\tت\n")
    assert len(rs.rules) == 2


def test_parse_directives():
    rs = parse_rules("@version test-7\n@vowels aeiou\nb\tany\tب")
    assert rs.version == "test-7"
    assert rs.latin_vowels == frozenset("aeiou")


def test_parse_bad_directive():
    with pytest.raises(MalformedLine):
        parse_rules("@speed fast\nb\tany\tب")


def test_parse_word_exception_line():
    rs = parse_rules("û\tword\tو\nçawan\tword\tچۆن")
    assert rs.exceptions == {"û": "و", "çawan": "چۆن"}
    # exception words are whole words, not patterns: no 3-char bound
    assert "çawan" in rs.exceptions


def test_parse_duplicate_exception():
    with pytest.raises(DuplicateRule) as exc_info:
        parse_rules("û\tword\tو\nû\tword\tوو")
    assert exc_info.value.line == 2


@pytest.mark.parametrize(
    ("text", "error", "line"),
    [
        ("b\tany\tب\n@vowels a1\n", IllegalCharacter, 2),
        ("b\tany\tب\nt\tany\tت\nb\tany\tپ\nt\tany\tپ", DuplicateRule, 3),
        ("b\tany\tب\nx1\tword\tخ", IllegalCharacter, 2),
        ("b\tany\tب\nxa\tword\tب\nax\tword\tb", IllegalCharacter, 3),
        ("b\tany\tب\n\tword\tب", MalformedLine, 2),
        ("@vowels ae\n@vowels io\nb\tany\tب", DuplicateRule, 2),
        ("@version one\n@version two\n", DuplicateRule, 2),
    ],
)
def test_parse_table_errors_name_their_line(text, error, line):
    # Errors found when the whole table is built still name the line of the
    # entry at fault, in the message too.
    with pytest.raises(error) as exc_info:
        parse_rules(text)
    assert exc_info.value.line == line
    assert str(exc_info.value).endswith(f"(line {line})")


def test_parse_normalizes_nfc():
    # pattern written with combining diaeresis must land on the composed letter
    rs = parse_rules("ḧ\tany\tح")
    assert rs.rules[0].pattern == "ḧ"


# ----------------------------------------------------------- construction

def test_rule_takes_a_context_or_its_value():
    for context in Context:
        by_value = Rule("b", context.value, "ب")
        assert by_value == Rule("b", context, "ب") and by_value.context is context
    assert RuleSet((Rule("a", "any", "ا"),)) == RuleSet((Rule("a", Context.ANY, "ا"),))
    for context in ("medial", "ANY", "word", "", None, Context, []):
        with pytest.raises(MalformedLine, match="unknown context"):
            Rule("b", context, "ب")


def test_rule_validates_itself():
    with pytest.raises(PatternTooLong):
        Rule("abcd", Context.ANY, "ب")
    with pytest.raises(IllegalCharacter):
        Rule("b", Context.ANY, "x")
    with pytest.raises(MalformedLine):
        Rule("", Context.ANY, "ب")


def test_ruleset_rejects_duplicates():
    with pytest.raises(DuplicateRule):
        RuleSet((Rule("b", Context.ANY, "ب"), Rule("b", Context.ANY, "پ")))


def test_ruleset_is_frozen(rs):
    with pytest.raises(AttributeError):
        rs.rules = (Rule("b", Context.ANY, "پ"),)
    assert transliterate_word("bab", rs) == "باب"


def test_ruleset_exceptions_are_read_only():
    exceptions = {"û": "و"}
    table = RuleSet((Rule("m", Context.ANY, "م"), Rule("n", Context.ANY, "ن")), exceptions)
    exceptions["mn"] = "ب"  # the caller's dict is copied, not shared
    with pytest.raises(TypeError):
        table.exceptions["mn"] = "ب"
    assert table.exceptions == {"û": "و"}
    assert transliterate_word("mn", table) == transliterate_word("Mn", table) == "من"


@pytest.mark.parametrize(
    "build, arguments, message",
    [
        (Rule, ("b", "any", None), "output None is not a string"),
        (Rule, (5, "any", "ب"), "pattern 5 is not a string"),
        (Rule, ("b", "any", 5), "output 5 is not a string"),
        (RuleSet, ((), {5: "ب"}), "exception word 5 is not a string"),
        (RuleSet, ((), {"b": None}), "exception output None is not a string"),
        (RuleSet, ((), {"b": 5}), "exception output 5 is not a string"),
    ],
)
def test_non_string_field_raises_malformed_line(build, arguments, message):
    with pytest.raises(MalformedLine) as exc_info:
        build(*arguments)
    assert exc_info.value.args == (message,)


def test_ruleset_rejects_empty_exception_word():
    with pytest.raises(MalformedLine):
        RuleSet((), {"": "ب"})


def test_ruleset_hashes():
    first, second = default_rules(), default_rules()
    assert hash(first) == hash(second)
    assert {first: "built-in"}[second] == "built-in"


# --------------------------------------------------------- value semantics
# Rule and RuleSet are immutable values: construction, equality, hash, repr,
# pickling and the order of validation errors are pinned here.

_B = Rule("b", Context.ANY, "ب")
_B_REPR = "Rule(pattern='b', context=<Context.ANY: 'any'>, output='ب')"


def test_rule_constructs_positionally_and_by_keyword():
    assert (_B.pattern, _B.context, _B.output) == ("b", Context.ANY, "ب")
    assert Rule(output="ب", pattern="b", context=Context.ANY) == _B
    assert Rule("b", Context.ANY, output="ب") == _B
    with pytest.raises(TypeError):
        Rule("b", Context.ANY)
    with pytest.raises(TypeError):
        Rule("b", Context.ANY, "ب", "پ")


def test_rule_equality_and_hash():
    same = Rule("b", Context.ANY, "ب")
    assert same == _B and not same != _B and hash(same) == hash(_B)
    assert _B != Rule("b", Context.WORD_INITIAL, "ب")
    assert _B != Rule("p", Context.ANY, "ب")
    assert _B != Rule("b", Context.ANY, "پ")
    # Equal only to a Rule, not to a tuple of the same fields.
    assert _B != ("b", Context.ANY, "ب")
    assert _B.__eq__(("b", Context.ANY, "ب")) is NotImplemented
    assert len({_B, same, Rule("p", Context.ANY, "پ")}) == 2


def test_rule_repr():
    assert repr(_B) == _B_REPR
    assert repr(Rule("ll", Context.ANY, "ڵ")) == (
        "Rule(pattern='ll', context=<Context.ANY: 'any'>, output='ڵ')"
    )
    assert repr(Rule("i", Context.WORD_INITIAL, "")) == (
        "Rule(pattern='i', context=<Context.WORD_INITIAL: 'initial'>, output='')"
    )


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_rule_pickles(protocol):
    copy = pickle.loads(pickle.dumps(_B, protocol))
    assert type(copy) is Rule and copy == _B and hash(copy) == hash(_B)
    assert repr(copy) == _B_REPR


@pytest.mark.parametrize(
    "pattern, output, error",
    [
        # The pattern is checked before the output, its length before its
        # characters, and so is the output.
        ("", "خخخخ", MalformedLine),
        ("abcd", "x", PatternTooLong),
        ("B", "خخخخ", IllegalCharacter),
        ("b", "xxxx", OutputTooLong),
        ("b", "x", IllegalCharacter),
    ],
)
def test_rule_validation_order(pattern, output, error):
    with pytest.raises(RuleError) as exc_info:
        Rule(pattern, Context.ANY, output)
    assert type(exc_info.value) is error


def test_ruleset_constructs_with_defaults_and_by_keyword():
    table = RuleSet([_B])
    assert table.rules == (_B,)  # any iterable, kept as a tuple
    assert table.exceptions == {} and table.latin_vowels == HAWAR_VOWELS
    assert table.version == "custom"
    keyword = RuleSet(version="t1", latin_vowels="ae", exceptions={"û": "و"}, rules=(_B,))
    assert keyword == RuleSet((_B,), {"û": "و"}, frozenset("ae"), "t1")
    assert keyword.latin_vowels == frozenset("ae")  # any iterable, kept as a frozenset
    assert type(keyword.latin_vowels) is frozenset
    with pytest.raises(TypeError):
        RuleSet()
    with pytest.raises(TypeError):
        RuleSet((_B,), {}, HAWAR_VOWELS, "t1", "extra")


def test_ruleset_equality_and_hash():
    plain = RuleSet((_B,))
    assert plain == RuleSet((_B,)) and hash(plain) == hash(RuleSet((_B,)))
    assert plain != RuleSet((_B,), version="t1")
    assert plain != RuleSet((_B,), latin_vowels=frozenset("a"))
    assert plain != RuleSet((Rule("b", Context.ANY, "پ"),))
    # exceptions are compared but not hashed.
    with_exception = RuleSet((_B,), {"û": "و"})
    assert with_exception != plain and hash(with_exception) == hash(plain)
    assert len({plain, with_exception, RuleSet((_B,))}) == 2
    # Equal only to a RuleSet, not to a tuple of the same fields.
    fields = (plain.rules, plain.exceptions, plain.latin_vowels, plain.version)
    assert plain != fields and plain.__eq__(fields) is NotImplemented


def test_ruleset_repr():
    table = RuleSet((_B,), {"û": "و"}, frozenset("a"), "t1")
    assert repr(table) == (
        f"RuleSet(rules=({_B_REPR},), exceptions=mappingproxy({{'û': 'و'}}), "
        "latin_vowels=frozenset({'a'}), version='t1')"
    )
    assert repr(RuleSet((), latin_vowels=())) == (
        "RuleSet(rules=(), exceptions=mappingproxy({}), latin_vowels=frozenset(), "
        "version='custom')"
    )


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_ruleset_pickles_with_every_protocol(protocol):
    table = RuleSet((_B, Rule("a", Context.WORD_FINAL, "ا")), {"û": "و"}, frozenset("a"), "t1")
    copy = pickle.loads(pickle.dumps(table, protocol))
    assert type(copy) is RuleSet and copy == table and hash(copy) == hash(table)
    assert repr(copy) == repr(table)
    assert transliterate_text("ba û", copy) == "با و"


@pytest.mark.parametrize(
    "arguments, error, entry",
    [
        # The vowel set is checked first, then the version, then duplicate
        # rules, then each exception.
        (((_B, _B), {"": "ب"}, frozenset("1"), ""), IllegalCharacter, None),
        (((_B, _B), {"": "ب"}, HAWAR_VOWELS, ""), MalformedLine, None),
        (((_B, _B), {"": "ب"}, HAWAR_VOWELS, "t1"), DuplicateRule, 1),
        (((_B,), {"": "ب"}, HAWAR_VOWELS, "t1"), MalformedLine, ""),
        (((_B,), {"b": "x"}, HAWAR_VOWELS, "t1"), IllegalCharacter, "b"),
    ],
)
def test_ruleset_validation_order(arguments, error, entry):
    with pytest.raises(RuleError) as exc_info:
        RuleSet(*arguments)
    assert (type(exc_info.value), exc_info.value.entry) == (error, entry)


_FIELDS = {
    Rule: ("pattern", "context", "output"),
    RuleSet: ("rules", "exceptions", "latin_vowels", "version"),
}


@pytest.mark.parametrize(
    "value", [_B, RuleSet((_B,), {"û": "و"})], ids=lambda value: type(value).__name__
)
def test_values_refuse_every_assignment_and_deletion(value):
    names = _FIELDS[type(value)]
    before = repr(value), [getattr(value, name) for name in names]
    for name in names + ("not_a_field", "_word_cache"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert (repr(value), [getattr(value, name) for name in names]) == before
    assert not hasattr(value, "not_a_field")


# -------------------------------------------------------------- defaults

def test_default_contains_bizroke_rule(rs):
    assert Rule("i", Context.ANY, "") in rs.rules


def test_default_covers_pharyngeals(rs):
    assert Rule("ḧ", Context.ANY, "ح") in rs.rules
    assert Rule("'", Context.ANY, "ع") in rs.rules
    assert Rule("ẍ", Context.ANY, "غ") in rs.rules


def test_default_contains_geminate_digraphs(rs):
    assert Rule("ll", Context.ANY, "ڵ") in rs.rules
    assert Rule("rr", Context.ANY, "ڕ") in rs.rules


def test_default_exception_lexicon(rs):
    assert rs.exceptions == {"û": "و"}
    assert rs.version == "builtin-1.0"
    assert rs.latin_vowels == HAWAR_VOWELS


# ------------------------------------------------------------ round trip

def test_default_round_trips_exactly(rs):
    assert parse_rules(serialize_rules(rs)) == rs


def test_ruleset_pickles(rs):
    transliterate_text("min", rs)  # the original's word memo is not empty
    assert rs._word_cache
    copy = pickle.loads(pickle.dumps(rs))
    assert copy == rs
    assert copy._word_cache == {}
    assert transliterate_word("min", copy) == "من"


def test_synthetic_round_trip_with_three_to_three():
    text = "@version t1\nxwe\tany\tخوە\ni\tfinal\t∅\nû\tword\tو\n"
    rs = parse_rules(text)
    assert rs.rules[0].pattern == "xwe" and len(rs.rules[0].output) == 3
    assert parse_rules(serialize_rules(rs)) == rs


@pytest.mark.parametrize("version", ["", " x", "a\nb", "e\u0301"])
def test_ruleset_rejects_version_a_rule_file_cannot_hold(version):
    # Empty, surrounding space, a newline, not NFC: none parses back the same.
    with pytest.raises(MalformedLine):
        RuleSet((), version=version)


@given(st.text(max_size=8))
def test_version_round_trips_or_is_rejected(version):
    try:
        table = RuleSet((), version=version)
    except MalformedLine:
        pass
    else:
        assert parse_rules(serialize_rules(table)) == table
    # parse_rules reads no version that RuleSet rejects.
    try:
        parse_rules(f"@version {version}\n")
    except RuleError as error:
        assert error.line is not None


@st.composite
def rulesets(draw):
    letters = sorted(LATIN_RULE_CHARS)
    n = draw(st.integers(min_value=1, max_value=12))
    seen = set()
    rules = []
    for _ in range(n):
        pattern = draw(st.text(st.sampled_from(letters), min_size=1, max_size=3))
        context = draw(st.sampled_from(list(Context)))
        if (pattern, context) in seen:
            continue
        seen.add((pattern, context))
        output = draw(st.text(st.sampled_from("بتجحعغڵڕەوئ"), min_size=0, max_size=3))
        rules.append(Rule(pattern, context, output))
    exceptions = draw(
        st.dictionaries(
            st.text(st.sampled_from(letters), min_size=1, max_size=6),
            st.text(st.sampled_from("بتجو"), min_size=0, max_size=6),
            max_size=3,
        )
    )
    version = draw(st.text(st.sampled_from("abc123.-"), min_size=1, max_size=8))
    vowels = draw(st.frozensets(st.sampled_from(letters)))  # the empty set too
    return RuleSet(tuple(rules), exceptions, vowels, version)


@given(rulesets())
def test_round_trip_property(ruleset):
    assert parse_rules(serialize_rules(ruleset)) == ruleset


@st.composite
def tables_and_texts(draw):
    # Words over the rule alphabet plus a character no rule matches and an
    # Arabic letter, or the table's exception words; some upper-cased.
    table = draw(rulesets())
    word = st.text(st.sampled_from(sorted(LATIN_RULE_CHARS) + ["0", "ب"]), min_size=1, max_size=8)
    if table.exceptions:
        word |= st.sampled_from(sorted(table.exceptions))
    word = st.builds(lambda text, upper: text.upper() if upper else text, word, st.booleans())
    words = draw(st.lists(word, min_size=1, max_size=8))
    text = words[0]
    for following in words[1:]:
        text += draw(st.sampled_from([" ", "\n", ", ", " 7 "])) + following
    return table, text


# Strict mode places an error by the words' outputs, not by their folds.
# Neither table has a rule: in "' b" the gap ' is unmatched and the exception
# word b is not, so nothing raises; in "A AA" the exception word A matches
# and AA raises.
_APOSTROPHE_GAP = (RuleSet((), {"b": "ب"}), "' b")
_EXCEPTION_WORD = (RuleSet((), {"a": "ا"}), "A AA")


@given(tables_and_texts())
@example(_APOSTROPHE_GAP)
@example(_EXCEPTION_WORD)
def test_random_tables_match_naive_text(table_and_text):
    table, text = table_and_text
    for strict in (False, True):
        # An empty word memo: every word misses.
        fresh = RuleSet(table.rules, table.exceptions, table.latin_vowels, table.version)
        assert outcome(transliterate_text, text, fresh, strict=strict) == outcome(
            naive_transliterate_text, text, table, EngineConfig(), strict=strict
        ), text


# ------------------------------------------------------- rule precedence
# Precedence is checked through the engine: the output, and the index of the
# first unmatched character as strict mode reports it.

def _parse(word, table):
    """(output, index of the first unmatched character or -1) for a word."""
    try:
        transliterate_word(word, table, strict=True)
        unmatched = -1
    except UnmatchedCharacter as exc:
        unmatched = exc.offset
    return transliterate_word(word, table), unmatched


def test_lookup_prefers_digraph_over_single(rs):
    assert _parse("dillop", rs) == ("دڵۆپ", -1)  # not دللۆپ


def test_lookup_bizroke(rs):
    assert _parse("min", rs) == ("من", -1)


def test_lookup_post_vowel_carrier(rs):
    assert _parse("diînine", rs) == ("دئیننە", -1)
    assert _parse("dîn", rs) == ("دین", -1)  # î after a consonant: no carrier


def test_lookup_initial_beats_any(rs):
    assert _parse("a", rs) == ("ئا", -1)
    assert _parse("ba", rs) == ("با", -1)


def test_lookup_none_for_foreign_char(rs):
    assert _parse("mot", rs) == ("مۆت", -1)
    with pytest.raises(ValueError):  # not one word
        _parse("m0t", rs)


def test_exceptions_inside_a_batch():
    # Each text is its table's first batch, so every word misses: one batch
    # holds no exception word, the other holds one in both cases.
    assert transliterate_text("ûa dû", default_rules()) == "ئووئا دوو"
    assert transliterate_text("Û û ûa dû", default_rules()) == "و و ئووئا دوو"


def test_exception_word_has_no_unmatched_character():
    table = RuleSet((Rule("b", Context.ANY, "ب"),), {"qb": "ق"})
    assert _parse("qb", table) == naive_parse("qb", table) == ("ق", -1)
    assert _parse("qbq", table) == naive_parse("qbq", table) == ("qبq", 0)


def test_lookup_completeness_all_letters_all_flags(rs):
    # Each letter word-initially, after a vowel, after a consonant and
    # word-finally.
    for letter in sorted(LATIN_RULE_CHARS):
        for word in (letter, letter + "b", "a" + letter, "b" + letter):
            assert _parse(word, rs)[1] == -1, word


_WORD_FINAL_SET = RuleSet(
    (
        Rule("n", Context.WORD_FINAL, "ین"),
        Rule("n", Context.ANY, "ن"),
        Rule("an", Context.ANY, "ا"),
        Rule("a", Context.AFTER_VOWEL, "ئا"),
        Rule("a", Context.ANY, "ا"),
        Rule("i", Context.ANY, ""),
        Rule("m", Context.ANY, "م"),
        Rule("ima", Context.WORD_INITIAL, "ئەم"),
        Rule("ian", Context.WORD_FINAL, "یان"),
    )
)


_DEFAULT = default_rules()
# A letter with a context rule but no single-letter ``any`` rule: unmatched
# except word-initially.
_CONTEXT_ONLY_SET = RuleSet(
    tuple(rule for rule in _DEFAULT.rules if rule != Rule("q", Context.ANY, "ق"))
    + (Rule("q", Context.WORD_INITIAL, "ق"),),
    _DEFAULT.exceptions,
)
# Single-letter ``any`` rules alone: step 2's replacements do all the work.
_LETTERS_ONLY_SET = RuleSet(
    tuple(rule for rule in _DEFAULT.rules if len(rule.pattern) == 1 and rule.context is Context.ANY)
)
_PARTIAL_TABLES = {"context-only": _CONTEXT_ONLY_SET, "letters-only": _LETTERS_ONLY_SET}


@given(st.text(st.sampled_from("aminx"), min_size=1, max_size=8))
def test_lookup_matches_naive_scan(word):
    assert _parse(word, _WORD_FINAL_SET) == naive_parse(word, _WORD_FINAL_SET)


def _assert_matches_naive(word, table, *, as_text=False):
    # A word matches the oracle's parse; with ``as_text`` strict mode is
    # checked on it as a text too, which reads the unmatched characters off
    # the output instead of walking it. A string holding a character no rule
    # matches (0) or an Arabic letter, which the rule outputs look like, is
    # not a word: transliterate_word refuses it, and as a strict text it
    # matches the oracle.
    if "0" in word or "ب" in word:
        with pytest.raises(ValueError):
            _parse(word, table)
        as_text = True
    else:
        assert _parse(word, table) == naive_parse(word, table), word
    if as_text:
        assert outcome(transliterate_text, word, table, strict=True) == outcome(
            naive_transliterate_text, word, table, EngineConfig(), strict=True
        ), word


@pytest.mark.parametrize("name", sorted(_PARTIAL_TABLES))
@given(word=st.text(st.sampled_from(sorted(LATIN_RULE_CHARS) + ["0", "ب"]), min_size=1, max_size=8))
def test_partial_tables_match_naive_scan(name, word):
    _assert_matches_naive(word, _PARTIAL_TABLES[name])


def _assert_matches_naive_parse_exhaustive(table, *, as_text=False):
    # Every string of length up to 3 over the rule alphabet plus 0 and ب.
    alphabet = sorted(LATIN_RULE_CHARS) + ["0", "ب"]
    for length in range(1, 4):
        for chars in itertools.product(alphabet, repeat=length):
            _assert_matches_naive("".join(chars), table, as_text=as_text)


def test_lookup_matches_naive_scan_on_default_exhaustive(rs):
    # Whole-text strict mode on the built-in table: test_acceptance's sweep.
    _assert_matches_naive_parse_exhaustive(rs)


def test_synthetic_table_matches_naive_scan_exhaustive():
    _assert_matches_naive_parse_exhaustive(_WORD_FINAL_SET, as_text=True)


@pytest.mark.parametrize("name", sorted(_PARTIAL_TABLES))
def test_partial_tables_match_naive_scan_exhaustive(name):
    _assert_matches_naive_parse_exhaustive(_PARTIAL_TABLES[name], as_text=True)


def test_empty_vowel_set_never_fires_after_vowel():
    table = RuleSet(_WORD_FINAL_SET.rules, latin_vowels=frozenset())
    assert _parse("aa", table) == naive_parse("aa", table) == ("اا", -1)


# ------------------------------------------------ batches as one string
# RuleSet._rewrite folds a batch of words as one string and runs step 1,
# grouped by first letter, which finds the exception words among the rules.

_COLLIDING = "b\tany\tب\np\tany\tب\nbb\tword\tق\n"


def test_rewrite_of_no_words_is_no_outputs(rs):
    assert rs._rewrite([]) == []
    assert RuleSet(())._rewrite([]) == []


def test_exception_among_words_with_its_rule_output():
    # pp and bb have one rule output, so an output of the exception word's
    # does not make a word the exception: step 1 finds it by its folded word.
    table = parse_rules(_COLLIDING)
    assert table._rewrite(["pp"]) == ["بب"]
    assert transliterate_text("pp bb Pp", table) == "بب ق بب"
    assert transliterate_text("BB pP", parse_rules(_COLLIDING)) == "ق بب"


@pytest.mark.parametrize("unique_batch", [rules._UNIQUE_BATCH, 2])
def test_batch_with_exception_words_and_their_rule_output(monkeypatch, unique_batch):
    # The exception words win over their rule output, which other words of
    # the batch share. With a unique_batch of 2, the batch takes the path
    # that memoizes nothing.
    monkeypatch.setattr(rules, "_UNIQUE_BATCH", unique_batch)
    words = ["pp", "BB", "bb", "Pb"]
    expected = ["بب", "ق", "ق", "بب"]
    assert parse_rules(_COLLIDING)._outputs(words) == expected


@st.composite
def small_tables(draw):
    # Two or three letters, so that most first letters have several rules:
    # groups of initial and after_vowel rules alone (guarded, often with one
    # pattern in both contexts) and groups that mix in any and final. The
    # vowel set may be empty or leave out a group's letter.
    letters = draw(st.sampled_from(["ab", "ae", "ea", "abe", "aeb"]))
    patterns = st.text(st.sampled_from(letters), min_size=1, max_size=2)
    contexts = st.sampled_from([Context.WORD_INITIAL, Context.AFTER_VOWEL] * 2 + list(Context))
    keys = draw(st.lists(st.tuples(patterns, contexts), min_size=1, max_size=10, unique=True))
    output = st.text(st.sampled_from("بتج"), max_size=2)
    table = [Rule(pattern, context, draw(output)) for pattern, context in keys]
    words = st.text(st.sampled_from(letters), min_size=1, max_size=3)
    exceptions = draw(st.dictionaries(words, output, max_size=2))
    return RuleSet(tuple(table), exceptions, draw(st.frozensets(st.sampled_from(letters))))


# Words over the table's letters, one with no rule and an upper case.
_small_words = st.lists(
    st.text(st.sampled_from("abeoAE"), min_size=1, max_size=6), min_size=1, max_size=12
)


@given(small_tables(), _small_words)
@example(_APOSTROPHE_GAP[0], ["'", "b"])
@example(_EXCEPTION_WORD[0], ["A", "AA"])
def test_grouped_step_one_matches_naive_text(table, words):
    text = " ".join(words)
    for strict in (False, True):
        fresh = RuleSet(table.rules, table.exceptions, table.latin_vowels)  # every word misses
        assert outcome(transliterate_text, text, fresh, strict=strict) == outcome(
            naive_transliterate_text, text, table, EngineConfig(), strict=strict
        ), text
    for word in words:
        assert _parse(word, table)[1] == naive_parse(naive_fold(word), table)[1], word
