"""Files of several CLI batches through ``python -m hawar2sorani.cli``.

Each input is over six 32 KB batches, so the CLI reads it in many batches
while the reference is one library call over the whole text, or one
``transliterate_word`` call per word, which never folds two words together
as a batch does.
"""

import io
import itertools
import os
import subprocess
import sys
import unicodedata

import pytest

from hawar2sorani import DigitMode, EngineConfig, UnmatchedCharacter, default_rules, parse_rules
from hawar2sorani import serialize_rules, transliterate_text, transliterate_word
from hawar2sorani import cli
from hawar2sorani.cli import _BATCH_BYTES
from helpers import split_words

TRANSLIT = [sys.executable, "-m", "hawar2sorani.cli"]
RUNS = {
    "plain": ([], EngineConfig(), False),
    "strict-rlm-digits": (
        ["--strict", "--rlm", "--digits", "arabic"],
        EngineConfig(DigitMode.ARABIC_INDIC, emit_rlm=True),
        True,
    ),
}

# One of the block's lines is in NFD, and the line memo keeps it as given.
BLOCK = (
    "Gelî kurdan, rojbaş! Ez diînine dibêjim; min û tu diçin.\r\n"
    "Se’îd li Kurdistanê dijî, 1984 sal in, ne wisa?\n"
    "ÇIYA bilind in û şerr xirab e; ḧal çawa ye.\r\n"
    + unicodedata.normalize("NFD", "Çiya bilind in û şerr xirab e; ḧal çawa ye?\n")
)
SYLLABLES = [c + v for c in "bcçdfghjklmnpqrsştvwxyzḧẍ" for v in "aeêiîouû"]
WORDS = ["".join(pair) for pair in itertools.product(SYLLABLES, repeat=2)]
WORDS = [word.title() if i % 7 == 0 else word for i, word in enumerate(WORDS)]


def _translit(args, cwd, **kwargs):
    return subprocess.run([*TRANSLIT, *args], cwd=cwd, capture_output=True, **kwargs)


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _batches(text):
    """The batches of ``text`` as the CLI reads them."""
    return list(cli._batches(io.BytesIO(text.encode("utf-8"))))


# ------------------------------------------------------------ whole texts

def _wide():
    """The block's lines, each over 64 characters and so never kept in the line memo."""
    wide = "".join(line.rstrip("\r\n") + " " + line for line in BLOCK.splitlines(True))
    assert min(map(len, unicodedata.normalize("NFC", wide).splitlines())) > 64
    return wide * 1000


STREAMED = {
    # The line memo is filled by the first batch.
    "batches.txt": lambda: BLOCK * 1500,
    # Wholly in NFD: batches are joined from lines kept in NFD.
    "batches-nfd.txt": lambda: unicodedata.normalize("NFD", BLOCK * 1500),
    # No batch is joined from the line memo.
    "long-lines.txt": _wide,
    # Distinct words: every batch skips the word memo.
    "words.txt": lambda: "".join(
        " ".join(WORDS[i : i + 10]) + ".\n" for i in range(0, len(WORDS), 10)
    ),
}


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("name", sorted(STREAMED))
def test_streamed_file_equals_one_call(tmp_path, name, run):
    text = STREAMED[name]()
    assert len(text.encode("utf-8")) > 6 * _BATCH_BYTES, name
    _write(tmp_path / name, text)
    flags, cfg, strict = RUNS[run]
    got = _translit([*flags, name], tmp_path, check=True).stdout
    assert got == transliterate_text(text, default_rules(), cfg, strict=strict).encode("utf-8")


def test_list_of_distinct_words_equals_one_call_per_word(tmp_path):
    _write(tmp_path / "words.txt", STREAMED["words.txt"]())
    rules = default_rules()
    one_by_one = "".join(
        " ".join(transliterate_word(word, rules) for word in WORDS[i : i + 10]) + ".\n"
        for i in range(0, len(WORDS), 10)
    )
    got = _translit(["words.txt"], tmp_path, check=True).stdout
    assert got == one_by_one.encode("utf-8")


# A table whose b and p share an output, with the exception word bb: many
# words' outputs are the exception's rule output. One file of distinct words,
# one whose lines repeat words, so that batches take both word-memo paths.
COLLIDE = "b\tany\tب\np\tany\tب\nbb\tword\tق\n"
_SPELLINGS = ["".join(chars) for n in range(1, 9) for chars in itertools.product("bpBP", repeat=n)]
_COLLIDE_LINES = [_SPELLINGS[i : i + 10] for i in range(0, len(_SPELLINGS), 10)]
COLLIDING = {
    "collide.txt": _COLLIDE_LINES,
    "collide-repeats.txt": [["bb", *line, "pp", "bb"] for line in _COLLIDE_LINES],
}


@pytest.mark.parametrize("name", sorted(COLLIDING))
def test_colliding_table_equals_one_call_per_word(tmp_path, name):
    _write(tmp_path / "collide.rules", COLLIDE)
    table = parse_rules(COLLIDE)
    lines = COLLIDING[name]
    text = "".join(" ".join(line) + "\n" for line in lines)
    assert len(text.encode("utf-8")) > 6 * _BATCH_BYTES, name
    _write(tmp_path / name, text)
    expected = "".join(
        " ".join(transliterate_word(word, table) for word in line) + "\n" for line in lines
    )
    assert "ق" in expected, name
    got = _translit(["--rules", "collide.rules", name], tmp_path, check=True).stdout
    assert got == expected.encode("utf-8")


def test_strict_stop_in_a_later_batch(tmp_path):
    # The built-in table maps every letter, so --strict does not scan its
    # outputs; without the q rule it must, and a q in the fourth batch stops
    # the run at the position transliterate_text reports, with no output file.
    # With the built-in table the same file passes.
    no_q = serialize_rules(default_rules()).replace("q\tany\tق\n", "")
    assert "q\tany" not in no_q
    _write(tmp_path / "no-q.rules", no_q)
    lines = BLOCK.splitlines() * 1500
    assert not any("q" in line.lower() for line in lines)
    ends = itertools.accumulate(len(line.encode("utf-8")) + 1 for line in lines)
    at = next(i for i, end in enumerate(ends) if end > 7 * _BATCH_BYTES // 2)
    lines[at] = "Min qelem heye."
    text = "\n".join(lines) + "\n"
    assert len(text.encode("utf-8")) > 6 * _BATCH_BYTES
    batches = _batches(text)[:4]
    assert [b"qelem" in batch for batch in batches] == [False] * 3 + [True]
    _write(tmp_path / "strict-q.txt", text)
    with pytest.raises(UnmatchedCharacter) as error:
        transliterate_text(text, parse_rules(no_q), strict=True)
    assert (error.value.char, error.value.line, error.value.column) == ("q", at + 1, 5)
    args = ["--strict", "--rules", "no-q.rules", "strict-q.txt", "-o", "out.txt"]
    run = _translit(args, tmp_path, text=True)
    exists = os.path.exists(tmp_path / "out.txt")
    assert (run.returncode, run.stderr, exists) == (4, f"translit: {error.value}\n", False), run
    got = _translit(["--strict", "strict-q.txt"], tmp_path, check=True).stdout
    assert got == transliterate_text(text, default_rules(), strict=True).encode("utf-8")


# ------------------------------------------------------------- word lists
# A batch whose first 512 words are distinct, whose every character is ASCII
# or a word character and which holds no apostrophe standing alone is folded
# and rewritten as one string. Each output equals one transliterate_word call
# per word, with every gap between words transliterated on its own.

_GAPS = [" ", " ", ", ", " 12 ", "; ", " ", "? ", " ", " - ", ".\n"]
# Tokens of each line: gaps at even indices, words at odd ones.
BASE = [list(itertools.chain([""], *zip(WORDS[i : i + 10], _GAPS))) for i in range(0, len(WORDS), 10)]


def _text_of(lines):
    return "".join(itertools.chain.from_iterable(lines))


def _wrap(line, index, before, after):
    line = list(line)
    line[index - 1] += before
    line[index + 1] = after + line[index + 1]
    return line


def _with_u():
    """The list with a "û", an exception word, after word 512 of each batch.

    "(û)" and spaces in place of a line's first word, of four bytes or more,
    keep every batch's bytes, so the batches are cut where they are cut from
    the base text.
    """
    with_u, batch_bytes, batch_words, placed = [], 0, 0, False
    for line in BASE:
        if batch_words > 600 and not placed:
            line = _wrap(line, 1, "(", ")" + " " * (len(line[1].encode("utf-8")) - 4))
            line[1] = "û"
            placed = True
        with_u.append(line)
        batch_bytes += len(_text_of([line]).encode("utf-8"))
        batch_words += len(line) // 2
        if batch_bytes >= _BATCH_BYTES:
            batch_bytes, batch_words, placed = 0, 0, False
    return with_u


def _quoted(line):
    """``line`` with its second word in "«…»" and that word's first letter an a.

    Only a vowel tells a word-initial rule from the others («agir» gives
    «ئاگر», agir after a letter اگر), so a gap character that did not bound
    words would show in the output.
    """
    line = _wrap(line, 3, "«", "»")
    line[3] = ("A" if line[3][0].isupper() else "a") + line[3][1:]
    return line


# A table whose exception words begin with two letters.
TWO_LETTERS = serialize_rules(default_rules()) + "ba\tword\tق\n"
LISTS = {
    "list-u.txt": (_with_u, None),
    # A "«…»" pair in every line, around a word that starts with a vowel.
    "list-quotes.txt": (lambda: [_quoted(line) for line in BASE], None),
    # A lone "'" in every line.
    "list-apostrophe.txt": (lambda: [_wrap(line, 5, "", " '") for line in BASE], None),
    "list.txt two-letters.rules": (lambda: BASE, TWO_LETTERS),
    "list-u.txt two-letters.rules": (_with_u, TWO_LETTERS),
}


def test_word_list_has_an_exception_word_after_word_512_of_each_batch():
    for batch in _batches(_text_of(_with_u())):
        batch_words = split_words(batch.decode("utf-8"))[1::2]
        assert "û" in batch_words[600:] and "û" not in batch_words[:512]


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("case", sorted(LISTS))
def test_word_list_equals_one_call_per_word(tmp_path, case, run):
    name = case.split()[0]
    build, rule_file = LISTS[case]
    lines = build()
    text = _text_of(lines)
    assert len(text.encode("utf-8")) > 6 * _BATCH_BYTES, name
    _write(tmp_path / name, text)
    table, rules_flags = default_rules(), []
    if rule_file is not None:
        _write(tmp_path / "two-letters.rules", rule_file)
        table, rules_flags = parse_rules(rule_file), ["--rules", "two-letters.rules"]
    flags, cfg, strict = RUNS[run]
    expected = "".join(
        transliterate_word(token, table, strict=strict) if i % 2 else transliterate_text(token, table, cfg)
        for line in lines
        for i, token in enumerate(line)
    )
    got = _translit([*rules_flags, *flags, name], tmp_path, check=True).stdout
    assert got == expected.encode("utf-8")
