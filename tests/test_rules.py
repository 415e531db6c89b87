import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hawar2sorani.alphabets import HAWAR_VOWELS, LATIN_RULE_CHARS
from hawar2sorani.rules import (
    Context,
    DuplicateRule,
    IllegalCharacter,
    MalformedLine,
    OutputTooLong,
    PatternTooLong,
    Rule,
    RuleSet,
    default_rules,
    parse_rules,
    serialize_rules,
)
from hawar2sorani.engine import UnmatchedCharacter, transliterate_word
from helpers import naive_parse


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
    with pytest.raises(dataclasses.FrozenInstanceError):
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


def test_ruleset_rejects_empty_exception_word():
    with pytest.raises(MalformedLine):
        RuleSet((), {"": "ب"})


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
    transliterate_word("min", rs)  # the original's word memo is not empty
    copy = pickle.loads(pickle.dumps(rs))
    assert copy == rs
    assert copy._word_cache == {}
    assert transliterate_word("min", copy) == "من"


def test_synthetic_round_trip_with_three_to_three():
    text = "@version t1\nxwe\tany\tخوە\ni\tfinal\t∅\nû\tword\tو\n"
    rs = parse_rules(text)
    assert rs.rules[0].pattern == "xwe" and len(rs.rules[0].output) == 3
    assert parse_rules(serialize_rules(rs)) == rs


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
    return RuleSet(tuple(rules), exceptions, frozenset("aeêiîouû"), version)


@given(rulesets())
def test_round_trip_property(ruleset):
    assert parse_rules(serialize_rules(ruleset)) == ruleset


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
    assert _parse("m0t", rs) == ("م0ت", 1)


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
# Single-letter ``any`` rules alone: the translate step does all the work.
_LETTERS_ONLY_SET = RuleSet(
    tuple(rule for rule in _DEFAULT.rules if len(rule.pattern) == 1 and rule.context is Context.ANY)
)
_PARTIAL_TABLES = {"context-only": _CONTEXT_ONLY_SET, "letters-only": _LETTERS_ONLY_SET}


@given(st.text(st.sampled_from("aminx"), min_size=1, max_size=8))
def test_lookup_matches_naive_scan(word):
    assert _parse(word, _WORD_FINAL_SET) == naive_parse(word, _WORD_FINAL_SET)


@pytest.mark.parametrize("name", sorted(_PARTIAL_TABLES))
@given(word=st.text(st.sampled_from(sorted(LATIN_RULE_CHARS) + ["0", "ب"]), min_size=1, max_size=8))
def test_partial_tables_match_naive_scan(name, word):
    table = _PARTIAL_TABLES[name]
    assert _parse(word, table) == naive_parse(word, table)


def _assert_matches_naive_parse_exhaustive(table):
    # Every word of length up to 3 over the rule alphabet plus a character no
    # rule matches and an Arabic letter, which the rule outputs look like.
    alphabet = sorted(LATIN_RULE_CHARS) + ["0", "ب"]
    for length in range(1, 4):
        for chars in itertools.product(alphabet, repeat=length):
            word = "".join(chars)
            assert _parse(word, table) == naive_parse(word, table), word


def test_lookup_matches_naive_scan_on_default_exhaustive(rs):
    _assert_matches_naive_parse_exhaustive(rs)


def test_synthetic_table_matches_naive_scan_exhaustive():
    _assert_matches_naive_parse_exhaustive(_WORD_FINAL_SET)


@pytest.mark.parametrize("name", sorted(_PARTIAL_TABLES))
def test_partial_tables_match_naive_scan_exhaustive(name):
    _assert_matches_naive_parse_exhaustive(_PARTIAL_TABLES[name])


def test_empty_vowel_set_never_fires_after_vowel():
    table = RuleSet(_WORD_FINAL_SET.rules, latin_vowels=frozenset())
    assert _parse("aa", table) == naive_parse("aa", table) == ("اا", -1)
