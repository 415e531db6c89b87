"""Seeded input generators, one per workload.

Every generator takes a ``random.Random`` seeded from ``--seed`` and a
``scale`` factor (1.0 for measurement, small for the smoke mode), and
returns the exact text the program is given. Words are built from Hawar
syllables so that they exercise the context rules: word-initial vowels and
vowel hiatus (carrier hamza), bizroke ``i``, ``ll``/``rr`` digraphs, ``ḧ``,
``ẍ`` and both apostrophe glyphs.
"""

import random
import unicodedata
from dataclasses import dataclass

# Acceptance criterion 6's block: 34 distinct words, so the word cache
# answers nearly every lookup.
BLOCK_LINES = (
    "Gelî kurdan, rojbaş! Ez diînine dibêjim; min û tu diçin.\n",
    "Se'îd li Kurdistanê dijî, 1984 sal in, ne wisa?\n",
    "Çiya bilind in û şerr xirab e; ḧal çawa ye?\n",
    "Birrîn, gull, sall, dill: ev peyvên ll û rr in.\n",
)

_ONSETS = (
    "b c ç d f g h ḧ j k l m n p q r s ş t v w x ẍ y z ' b d k m n r s t "
    "x w".split()
) + ["", "", ""]  # an empty onset makes a word-initial vowel or a hiatus
_VOWELS = tuple("aaeeêiiîouû")
_CODAS = tuple("n r l s t k m ş z d ll rr".split()) + ("",) * 8


def _syllable(rng):
    return rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)


def _vocabulary(rng, count, syllables=(1, 2, 2, 3, 3, 4)):
    """``count`` distinct lowercase Hawar words, each of a number of
    syllables drawn from ``syllables``."""
    words = dict()
    while len(words) < count:
        word = "".join(_syllable(rng) for _ in range(rng.choice(syllables)))
        if word.strip("'"):
            words[word] = None
    return list(words)


def _surface(rng, word, *, mixed_case=True, nfd_share=0.0):
    """Mixed case, both apostrophe glyphs and optionally NFD letters."""
    roll = rng.random() if mixed_case else 1.0
    if roll < 0.03:
        word = word.upper()
    elif roll < 0.18:
        word = word[:1].upper() + word[1:]
    if "'" in word and rng.random() < 0.4:
        word = word.replace("'", "’")
    if nfd_share and rng.random() < nfd_share:
        word = unicodedata.normalize("NFD", word)
    return word


# The Zipf workloads draw from one fixed vocabulary and the seed picks the
# sample. A vocabulary drawn per seed would let the lengths of the few most
# frequent words swing bytes per word by 10% or more from seed to seed.
_VOCABULARY_SEED = 1984


def _zipf_sampler(rng, count, exponent=1.0):
    vocab = _vocabulary(random.Random(_VOCABULARY_SEED), count)
    weights = []
    total = 0.0
    for rank in range(1, len(vocab) + 1):
        total += 1.0 / rank**exponent
        weights.append(total)
    return lambda k: rng.choices(vocab, cum_weights=weights, k=k)


def repeat_block(rng, scale):
    """The criterion-6 block repeated to ~1 MB; the seed orders its lines."""
    lines = list(BLOCK_LINES)
    rng.shuffle(lines)
    block = "".join(lines)
    repeats = max(1, int(1_000_000 * scale) // len(block.encode("utf-8")))
    return block * repeats


def unique_words(rng, scale):
    """150,000 distinct words: more than the package's 131,072-entry word
    cache holds, so the cache fills and is cleared during a run."""
    count = max(50, int(150_000 * scale))
    # Shorter words than the Zipf vocabulary keep a run short enough to take
    # several samples per run; every word still misses the cache.
    vocab = _vocabulary(rng, count, syllables=(1, 2, 2))
    rng.shuffle(vocab)
    out = []
    line_left = rng.randint(6, 16)
    for word in vocab:
        out.append(_surface(rng, word))
        roll = rng.random()
        if roll < 0.05:
            out.append(",")
        elif roll < 0.08:
            out.append(".")
        elif roll < 0.09:
            out.append("?")
        line_left -= 1
        if line_left == 0:
            out.append("\n")
            line_left = rng.randint(6, 16)
        else:
            out.append(" ")
    return "".join(out).rstrip(" ") + "\n"


def strict_lines(rng, scale):
    """Short Zipf sentences with digits, CRLF, NFD letters and a BOM."""
    sample = _zipf_sampler(rng, 20_000, exponent=1.2)
    target = max(2_000, int(1_000_000 * scale))
    lines = []
    size = 0
    while size < target:
        words = [
            _surface(rng, w, mixed_case=False, nfd_share=0.05)
            for w in sample(rng.randint(3, 10))
        ]
        words[0] = words[0][:1].upper() + words[0][1:]
        if rng.random() < 0.15:
            words.insert(rng.randrange(len(words) + 1), str(rng.choice((7, 12, 1984, 2021, 300))))
        line = " ".join(words)
        roll = rng.random()
        if roll < 0.6:
            line += "."
        elif roll < 0.7:
            line += "?"
        elif roll < 0.75:
            line += ","
        line += "\r\n" if rng.random() < 0.3 else "\n"
        lines.append(line)
        size += len(line.encode("utf-8"))
    return "﻿" + "".join(lines)


def api_sentences(rng, scale):
    """Short Zipf sentences, one per library call."""
    sample = _zipf_sampler(rng, 20_000)
    sentences = []
    for _ in range(max(50, int(5_000 * scale))):
        sentence = " ".join(_surface(rng, w) for w in sample(rng.randint(2, 9)))
        sentences.append(sentence + rng.choice((".", ".", "?", ",", "")))
    return sentences


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: object  # (rng, scale) -> str, or a list of sentences for the API
    cli_flags: tuple = ()
    api: bool = False

    @property
    def digits_arabic(self):
        return "--digits arabic" in " ".join(self.cli_flags)

    @property
    def rlm(self):
        return "--rlm" in self.cli_flags


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "repeat-block",
            "34 distinct words: word-cache hits, so the scanner, the engine's "
            "per-token loop and map_symbols do the work and rules almost none",
            repeat_block,
        ),
        Workload(
            "unique-words",
            "every word distinct and more words than the word cache holds: each "
            "word misses, so rules.lookup and fold_word dominate",
            unique_words,
        ),
        Workload(
            "strict-lines",
            "--strict --rlm --digits arabic on Zipf sentences: the per-line path "
            "(RLM, digits, NFC branch) at about a 91% cache hit ratio",
            strict_lines,
            cli_flags=("--strict", "--rlm", "--digits", "arabic"),
        ),
        Workload(
            "api-short",
            "one closed-loop library caller on short sentences after a warm-up "
            "pass: the per-call fixed costs the CLI batches amortise away",
            api_sentences,
            api=True,
        ),
    )
}
