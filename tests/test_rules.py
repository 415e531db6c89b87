import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hawar2sorani.alphabets import LATIN_RULE_CHARS
from hawar2sorani.rules import (
    Context,
    DuplicateRule,
    IllegalCharacter,
    MalformedLine,
    OutputTooLong,
    PatternTooLong,
    Rule,
    RuleMatch,
    RuleSet,
    default_rules,
    lookup,
    parse_rules,
    serialize_rules,
)
from helpers import naive_lookup


# ---------------------------------------------------------------- parsing

def test_parse_single_rule():
    rs = parse_rules("b\tany\tب")
    assert len(rs.rules) == 1
    assert rs.rules[0] == Rule("b", Context.ANY, "ب")


def test_parse_keeps_file_order():
    rs = parse_rules("b\tany\tب\nt\tany\tت\nd\tany\tد")
    assert [r.pattern for r in rs.rules] == ["b", "t", "d"]


def test_parse_rejects_duplicate():
    with pytest.raises(DuplicateRule):
        parse_rules("b\tany\tب\nb\tany\tب")


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
    with pytest.raises(DuplicateRule):
        parse_rules("û\tword\tو\nû\tword\tوو")


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


def test_rulematch_consumed_must_match():
    rule = Rule("ll", Context.ANY, "ڵ")
    assert RuleMatch(rule, 2).consumed == 2
    with pytest.raises(ValueError):
        RuleMatch(rule, 1)


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


def test_default_has_no_coverage_gaps(rs):
    assert rs.coverage_gaps() == []


def test_coverage_gaps_reports_missing():
    rs = parse_rules("b\tany\tب")
    gaps = rs.coverage_gaps()
    assert any("'a'" in gap for gap in gaps)
    assert any("'ح'" in gap for gap in gaps)


# ------------------------------------------------------------ round trip

def test_default_round_trips_exactly(rs):
    assert parse_rules(serialize_rules(rs)) == rs


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


# ---------------------------------------------------------------- lookup

def test_lookup_prefers_digraph_over_single(rs):
    match = lookup(rs, "dillop", 2, is_word_initial=False, prev_is_vowel=False)
    assert match.rule.pattern == "ll"
    assert match.rule.output == "ڵ"
    assert match.consumed == 2


def test_lookup_bizroke(rs):
    match = lookup(rs, "min", 1, is_word_initial=False, prev_is_vowel=False)
    assert match.rule.output == ""
    assert match.consumed == 1


def test_lookup_post_vowel_carrier(rs):
    match = lookup(rs, "diînine", 2, is_word_initial=False, prev_is_vowel=True)
    assert match.rule.context is Context.AFTER_VOWEL
    assert match.rule.output == "ئی"


def test_lookup_initial_beats_any(rs):
    match = lookup(rs, "a", 0, is_word_initial=True, prev_is_vowel=False)
    assert match.rule.context is Context.WORD_INITIAL
    assert match.rule.output == "ئا"


def test_lookup_none_for_foreign_char(rs):
    assert lookup(rs, "mot", 1, is_word_initial=False, prev_is_vowel=False) is not None
    assert lookup(rs, "m0t", 1, is_word_initial=False, prev_is_vowel=False) is None


def test_lookup_completeness_all_letters_all_flags(rs):
    for letter in sorted(LATIN_RULE_CHARS):
        for initial, after_vowel in itertools.product([False, True], repeat=2):
            match = lookup(rs, letter, 0, is_word_initial=initial, prev_is_vowel=after_vowel)
            assert match is not None, (letter, initial, after_vowel)


_WORD_FINAL_SET = RuleSet(
    (
        Rule("n", Context.WORD_FINAL, "ین"),
        Rule("n", Context.ANY, "ن"),
        Rule("an", Context.ANY, "ا"),
        Rule("a", Context.AFTER_VOWEL, "ئا"),
        Rule("a", Context.ANY, "ا"),
        Rule("i", Context.ANY, ""),
        Rule("m", Context.ANY, "م"),
    )
)


@given(
    st.text(st.sampled_from("amin"), min_size=1, max_size=6),
    st.data(),
)
def test_lookup_matches_naive_scan(word, data):
    pos = data.draw(st.integers(min_value=0, max_value=len(word) - 1))
    initial = pos == 0
    after_vowel = pos > 0 and word[pos - 1] in _WORD_FINAL_SET.latin_vowels
    fast = lookup(_WORD_FINAL_SET, word, pos, is_word_initial=initial, prev_is_vowel=after_vowel)
    slow = naive_lookup(_WORD_FINAL_SET, word, pos, initial, after_vowel)
    if slow is None:
        assert fast is None
    else:
        assert fast.rule == slow and fast.consumed == len(slow.pattern)


def test_lookup_matches_naive_scan_on_default_exhaustive(rs):
    # Exhaustive 3-letter words over a mixed sub-alphabet, every position.
    alphabet = "lraî'"
    for chars in itertools.product(alphabet, repeat=3):
        word = "".join(chars)
        for pos in range(3):
            initial = pos == 0
            after_vowel = pos > 0 and word[pos - 1] in rs.latin_vowels
            fast = lookup(rs, word, pos, is_word_initial=initial, prev_is_vowel=after_vowel)
            slow = naive_lookup(rs, word, pos, initial, after_vowel)
            assert (fast.rule if fast else None) == slow, (word, pos)
