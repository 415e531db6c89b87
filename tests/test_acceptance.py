"""Acceptance suite: one test per shipped criterion, printing a PASS line
each. Run with `pytest tests/test_acceptance.py -v -s`."""

import itertools
import random
import subprocess
import sys
import time

from hawar2sorani import (
    Context,
    DigitMode,
    EngineConfig,
    PunctMode,
    Rule,
    RuleSet,
    parse_rules,
    serialize_rules,
    transliterate_text,
    transliterate_word,
)
from hawar2sorani.alphabets import KURDISH_LATIN_LETTERS
from hawar2sorani.cli import run
from helpers import naive_transliterate_text, naive_transliterate_word, outcome


def _best_time(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_min(rs, cfg):
    transliterate_text("min", rs, cfg)  # warm-up
    assert transliterate_text("min", rs, cfg) == "من"
    assert _best_time(lambda: transliterate_text("min", rs, cfg)) < 0.001
    print("ACCEPTANCE 1: PASS - 'min' -> 'من' in under 1 ms")


def test_criterion_2_diinine(rs, cfg):
    out = transliterate_text("diînine", rs, cfg)
    assert out == "دئیننە"
    assert out != "دیننه"  # the broken online-converter output
    assert _best_time(lambda: transliterate_text("diînine", rs, cfg)) < 0.001
    print("ACCEPTANCE 2: PASS - 'diînine' -> 'دئیننە' in under 1 ms")


def test_criterion_3_letter_coverage(rs):
    assert transliterate_word("ḧ", rs) == "ح"
    assert transliterate_word("'", rs) == "ع"
    assert transliterate_word("ẍ", rs) == "غ"
    print("ACCEPTANCE 3: PASS - ḧ/'/ẍ emit ح/ع/غ")


def test_criterion_4_rule_categories(rs):
    by_key = {(rule.pattern, rule.context): rule.output for rule in rs.rules}
    assert by_key[("i", Context.ANY)] == ""            # one-to-zero
    assert by_key[("b", Context.ANY)] == "ب"           # one-to-one
    assert by_key[("û", Context.ANY)] == "وو"          # one-to-two
    assert by_key[("û", Context.WORD_INITIAL)] == "ئوو"  # one-to-three
    assert by_key[("ll", Context.ANY)] == "ڵ"          # two-to-one
    # the format accepts and round-trips a synthetic three-to-three rule
    synthetic = parse_rules("xwe\tany\tخوە\n")
    assert synthetic.rules[0] == Rule("xwe", Context.ANY, "خوە")
    assert parse_rules(serialize_rules(synthetic)) == synthetic
    print("ACCEPTANCE 4: PASS - every rule category present; 3-to-3 round-trips")


def test_criterion_5_property_suite(rs, cfg):
    started = time.perf_counter()
    rng = random.Random(20240601)

    # 10,000 random Unicode strings: the engine equals the character-by-
    # character oracle, strict off and on, under the full table and under one
    # missing some letters so that strict mode fails.
    pool = (
        [chr(cp) for cp in range(0x20, 0x7F)]
        + [chr(cp) for cp in range(0x600, 0x6FF)]
        + list("çêîşûḧẍÇÊÎŞÛḦẌ'’ʼ")
        + list("\t\n\r    ​‏﻿\x1c\x85")
        + [chr(rng.randrange(0x80, 0x2FFF)) for _ in range(64)]
        + [chr(rng.randrange(0x1F300, 0x1F600)) for _ in range(16)]
    )
    partial = RuleSet(tuple(r for r in rs.rules if r.pattern not in ("q", "x", "'")), rs.exceptions)
    arabic, keep = DigitMode.ARABIC_INDIC, PunctMode.KEEP
    configs = [
        cfg,
        EngineConfig(digit_mode=arabic, emit_rlm=True),
        EngineConfig(punct_mode=keep, emit_rlm=True),
        EngineConfig(punct_mode=keep, digit_mode=arabic),
    ]
    for i in range(10_000):
        text = "".join(rng.choices(pool, k=rng.randrange(0, 80)))
        config = configs[i % len(configs)]
        for table in (rs, partial):
            for strict in (False, True):
                got = outcome(transliterate_text, text, table, config, strict=strict)
                want = outcome(naive_transliterate_text, text, table, config, strict=strict)
                assert got == want, (text, config, strict)

    # 10,000 random Hawar words: idempotence, case invariance, determinism,
    # and no Latin residue.
    letters = sorted(KURDISH_LATIN_LETTERS) + ["'"]
    lower = sorted({c.lower() for c in letters})
    for _ in range(10_000):
        word = "".join(rng.choices(lower, k=rng.randrange(1, 13)))
        out = transliterate_word(word, rs)
        assert transliterate_word(word, rs) == out
        assert transliterate_word(word.upper(), rs) == out
        assert transliterate_text(out, rs, cfg) == out
        assert not any(c in KURDISH_LATIN_LETTERS for c in out), (word, out)

    # Greedy engine equals the enumerating oracle on every word of length
    # up to 5 over an 8-letter sub-alphabet.
    sub_alphabet = "lriîamn'"
    count = 0
    for length in range(1, 6):
        for chars in itertools.product(sub_alphabet, repeat=length):
            word = "".join(chars)
            assert transliterate_word(word, rs) == naive_transliterate_word(word, rs), word
            count += 1
    assert count == 8 + 64 + 512 + 4096 + 32768

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"property suite took {elapsed:.1f}s"
    print(f"ACCEPTANCE 5: PASS - property suite in {elapsed:.1f}s (< 60s)")


def test_criterion_6_throughput(tmp_path, rs, cfg):
    block = (
        "Gelî kurdan, rojbaş! Ez diînine dibêjim; min û tu diçin.\n"
        "Se'îd li Kurdistanê dijî, 1984 sal in, ne wisa?\n"
        "Çiya bilind in û şerr xirab e; ḧal çawa ye?\n"
        "Birrîn, gull, sall, dill: ev peyvên ll û rr in.\n"
    )
    target = 10 * 1024 * 1024
    repeats = target // len(block.encode("utf-8")) + 1
    src = tmp_path / "big.txt"
    src.write_text(block * repeats, encoding="utf-8")
    assert src.stat().st_size >= target
    dst = tmp_path / "big.out"

    # Peak memory is sampled from /proc while the CLI runs; getrusage's
    # ru_maxrss is unreliable on this kernel (it can report the parent's
    # footprint at fork time).
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "hawar2sorani.cli", str(src), "-o", str(dst)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    peak_kb = 0
    samples = 0
    while True:
        try:
            with open(f"/proc/{proc.pid}/status") as status:
                for line in status:
                    if line.startswith("VmRSS:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
                        samples += 1
                        break
        except OSError:
            pass
        if proc.poll() is not None:
            break
        time.sleep(0.002)
    returncode = proc.wait(timeout=60)
    elapsed = time.perf_counter() - started
    stderr = proc.stderr.read().decode("utf-8")
    proc.stderr.close()
    assert returncode == 0, stderr
    assert samples > 0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    assert peak_kb < 100 * 1024, f"peak memory {peak_kb} KB"
    with open(dst, encoding="utf-8") as handle:
        first = handle.readline()
    assert first == transliterate_text(block.split("\n")[0] + "\n", rs, cfg)
    print(
        f"ACCEPTANCE 6: PASS - 10 MB in {elapsed:.1f}s (< 10s), peak {peak_kb // 1024} MB (< 100 MB)"
    )


def test_criterion_7_seed_corpus(capsys):
    assert run(["check"]) == 0
    out = capsys.readouterr().out
    assert "pairs passed" in out
    print(f"ACCEPTANCE 7: PASS - shipped corpus check exits 0 ({out.strip().splitlines()[-1]})")
