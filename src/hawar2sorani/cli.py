"""Command-line front end and the gold-pair corpus check harness.

``translit [options] [IN]`` transliterates a UTF-8 file (or stdin) to a
UTF-8 file (or stdout), streaming line by line so memory stays bounded by
line length rather than file size. ``translit check [CORPUS]`` runs the
regression harness over tab-separated (latin, expected) pairs and exits
nonzero when any pair disagrees.

Exit codes: 0 success, 1 corpus-check failures, 2 an input or output file
cannot be read or written, or invalid UTF-8, 3 rule-file errors, 4 unmatched
character in --strict mode. A run that fails leaves an existing output file
as it was and creates none.
"""

import argparse
import contextlib
import os
import stat
import sys
import tempfile
import unicodedata
from importlib import resources
from typing import Optional

from .engine import (
    DigitMode,
    EngineConfig,
    PunctMode,
    UnmatchedCharacter,
    transliterate_text,
)
from .rules import RuleError, RuleSet, default_rules, load_rules

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_RULES = 3
EXIT_STRICT = 4

BOM = "﻿"


# As with RuleError, ``args`` holds the reason alone, so these errors pickle.
class MalformedPairLine(ValueError):
    """Corpus line that is not exactly `latin<TAB>expected`; ``line`` is 1-based."""

    def __init__(self, reason: str, *, line: Optional[int] = None):
        super().__init__(reason)
        self.line = line

    def __str__(self) -> str:
        return f"MalformedPairLine: {self.args[0]} (line {self.line})"


class InvalidInputBytes(ValueError):
    """Input that is not valid UTF-8; ``offset`` is the global byte offset."""

    def __init__(self, reason: str, *, offset: Optional[int] = None):
        super().__init__(reason)
        self.offset = offset

    def __str__(self) -> str:
        return f"invalid UTF-8 at byte offset {self.offset}: {self.args[0]}"


def load_corpus(text: str) -> list:
    """Parse corpus text into (line, latin, expected) tuples, line 1-based.

    One pair per line, exactly one TAB between the Latin input and the
    expected output; ``#`` comments and blank lines are skipped. Both fields
    are stored NFC.
    """
    pairs = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if line.count("\t") != 1:
            raise MalformedPairLine("expected exactly one TAB", line=lineno)
        latin, expected = (f.strip() for f in line.split("\t"))
        if not latin or not expected:
            raise MalformedPairLine("empty field", line=lineno)
        pairs.append(
            (lineno, unicodedata.normalize("NFC", latin), unicodedata.normalize("NFC", expected))
        )
    return pairs


def check_corpus(path, rs: RuleSet, cfg: EngineConfig) -> tuple:
    """Transliterate every pair's Latin side and compare NFC-exact.

    Returns (number of pairs, failures as (line, latin, expected, actual)).
    """
    with open(path, "r", encoding="utf-8-sig") as handle:
        pairs = load_corpus(handle.read())
    failures = []
    for line, latin, expected in pairs:
        actual = unicodedata.normalize("NFC", transliterate_text(latin, rs, cfg))
        if actual != expected:
            failures.append((line, latin, expected, actual))
    return len(pairs), failures


def seed_corpus_path():
    """The corpus shipped with the package, as an ``importlib.resources`` file.

    ``resources.as_file`` gives a real path for it, also when the package is
    imported from a zip.
    """
    return resources.files("hawar2sorani").joinpath("data/seed_corpus.tsv")


def _add_shared_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rules", metavar="FILE", help="rule file replacing the built-in table")
    parser.add_argument(
        "--digits",
        choices=[mode.value for mode in DigitMode],
        default="keep",
        help="digit handling (default: keep)",
    )
    parser.add_argument(
        "--punct",
        choices=[mode.value for mode in PunctMode],
        default="arabic",
        help="punctuation handling (default: arabic)",
    )
    parser.add_argument(
        "--rlm",
        action="store_true",
        help="append a right-to-left mark after a line-final full stop",
    )


def _build_main_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="translit",
        description="Transliterate Kurdish text in Hawar Latin script into Sorani Persian-Arabic script.",
    )
    _add_shared_options(parser)
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on the first in-word character no rule matches",
    )
    parser.add_argument("-o", "--output", metavar="OUT", default="-", help="output file (default: stdout)")
    parser.add_argument("input", metavar="IN", nargs="?", default="-", help="input file (default: stdin)")
    return parser


def _build_check_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="translit check",
        description="Check a gold-pair corpus against the transliterator.",
    )
    _add_shared_options(parser)
    parser.add_argument(
        "corpus",
        metavar="CORPUS",
        nargs="?",
        default=None,
        help="pairs file `latin<TAB>expected` (default: the shipped seed corpus)",
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> EngineConfig:
    return EngineConfig(DigitMode(args.digits), PunctMode(args.punct), args.rlm)


# Batch size for streaming reads. readlines() returns whole lines, so memory
# stays bounded by max(batch size, longest line), never by file size.
_BATCH_BYTES = 1 << 17


def _stream(infile, outfile, rs: RuleSet, cfg: EngineConfig, strict: bool) -> None:
    """Transliterate ``infile`` to ``outfile`` in line batches (both binary)."""
    consumed = 0
    lines_done = 0
    while True:
        batch = infile.readlines(_BATCH_BYTES)
        if not batch:
            break
        raw = b"".join(batch)
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidInputBytes(exc.reason, offset=consumed + exc.start) from None
        if not consumed:
            text = text.removeprefix(BOM)
        try:
            out = transliterate_text(text, rs, cfg, strict=strict)
        except UnmatchedCharacter as exc:
            raise UnmatchedCharacter(
                exc.char, exc.offset, lines_done + exc.line, exc.column
            ) from None
        outfile.write(out.encode("utf-8"))
        consumed += len(raw)
        lines_done += text.count("\n")
    outfile.flush()


@contextlib.contextmanager
def _output(path: str):
    """Binary output for ``path`` that replaces an existing file only on success.

    ``-`` is stdout. A path that exists but is not a regular file, such as
    /dev/null, is opened directly. Anything else is written to a temporary
    file beside the target (a symlink's file, not the link) that takes the
    target's mode, is renamed over it when the block succeeds and is removed
    when the block raises.
    """
    if path == "-":
        yield sys.stdout.buffer
        return
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    else:
        if not stat.S_ISREG(mode):
            with open(target, "wb") as outfile:
                yield outfile
            return
    fd, tmp = tempfile.mkstemp(prefix=".translit-", dir=os.path.dirname(target))
    try:
        with os.fdopen(fd, "wb") as outfile:
            os.fchmod(fd, stat.S_IMODE(mode))  # mkstemp creates the file 0600
            yield outfile
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _run_transliterate(args: argparse.Namespace, rs: RuleSet, cfg: EngineConfig) -> int:
    # The input opens first, so a missing input creates no output file.
    if args.input == "-":
        infile = contextlib.nullcontext(sys.stdin.buffer)
    else:
        infile = open(args.input, "rb")
    with infile as source, _output(args.output) as sink:
        _stream(source, sink, rs, cfg, args.strict)
    return EXIT_OK


def _run_check(args: argparse.Namespace, rs: RuleSet, cfg: EngineConfig) -> int:
    if args.corpus is None:
        corpus = resources.as_file(seed_corpus_path())
    else:
        corpus = contextlib.nullcontext(args.corpus)
    with corpus as path:
        total, failures = check_corpus(path, rs, cfg)
    for line, latin, expected, actual in failures:
        print(f"line {line}: {latin!r} -> {actual!r} (expected {expected!r})")
    print(f"check: {total - len(failures)}/{total} pairs passed")
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def run(argv: Optional[list] = None) -> int:
    """CLI entry point, returning the exit status."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "check":
        args, command = _build_check_parser().parse_args(argv[1:]), _run_check
    else:
        args, command = _build_main_parser().parse_args(argv), _run_transliterate
    try:
        rs = default_rules() if args.rules is None else load_rules(args.rules)
    except (RuleError, OSError, UnicodeDecodeError) as exc:
        print(f"translit: {exc}", file=sys.stderr)
        return EXIT_RULES
    try:
        return command(args, rs, _config_from_args(args))
    except UnmatchedCharacter as exc:
        print(f"translit: {exc}", file=sys.stderr)  # names line:column
        return EXIT_STRICT
    except (OSError, UnicodeDecodeError, InvalidInputBytes, MalformedPairLine) as exc:
        print(f"translit: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
