"""Command-line front end and the gold-pair corpus check harness.

``translit [options] [IN]`` transliterates a UTF-8 file (or stdin) to a
UTF-8 file (or stdout) in batches of whole lines, so memory stays bounded
by line length rather than file size. ``translit check [CORPUS]`` runs the
regression harness over tab-separated (latin, expected) pairs and exits
nonzero when any pair disagrees.

Exit codes: 0 success, 1 corpus-check failures, 2 an input or output file
cannot be read or written, or invalid UTF-8, 3 rule-file errors, 4 unmatched
character in --strict mode, 141 (128 + SIGPIPE, what a shell reports for a
filter that SIGPIPE ended) when the reader of the output goes away, as in
``translit big.txt | head``, with nothing printed. A run that fails leaves an
existing output file as it was and creates none.
"""

import contextlib
import gc
import os
import stat
import sys
import tempfile
import unicodedata

from .engine import (
    DigitMode,
    EngineConfig,
    PunctMode,
    UnmatchedCharacter,
    transliterate_text,
)
from .rules import RuleError, RuleSet, default_rules, load_rules, read_data

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_RULES = 3
EXIT_STRICT = 4
EXIT_BROKEN_PIPE = 128 + 13

BOM = "﻿"


# As with RuleError, ``args`` holds the reason alone, so these errors pickle.
class MalformedPairLine(ValueError):
    """Corpus line that is not exactly `latin<TAB>expected`; ``line`` is 1-based."""

    def __init__(self, reason: str, *, line: int | None = None):
        super().__init__(reason)
        self.line = line

    def __str__(self) -> str:
        return f"MalformedPairLine: {self.args[0]} (line {self.line})"


class InvalidInputBytes(ValueError):
    """Input that is not valid UTF-8; ``offset`` is the global byte offset."""

    def __init__(self, reason: str, *, offset: int | None = None):
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

    ``path`` None checks the corpus shipped with the package. Returns (number
    of pairs, failures as (line, latin, expected, actual)).
    """
    if path is None:
        text = read_data("seed_corpus.tsv")
    else:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    pairs = load_corpus(text)
    failures = []
    for line, latin, expected in pairs:
        actual = transliterate_text(latin, rs, cfg)
        if actual != expected:
            failures.append((line, latin, expected, actual))
    return len(pairs), failures


# Each grammar is one table, (prog, description, options), and each option a
# row of flags and the keywords argparse.add_argument takes; the dest is the
# last flag without its dashes. A run reads its arguments from the table with
# _parse_exact. argparse is imported and built only for what that declines
# (help, usage errors, abbreviations): with gettext and locale, which it
# imports, and its parser, it costs about 3.5 ms of every run.
_SHARED_OPTIONS = (
    (("--rules",), dict(metavar="FILE", help="rule file replacing the built-in table")),
    (
        ("--digits",),
        dict(
            choices=[mode.value for mode in DigitMode],
            default="keep",
            help="digit handling (default: keep)",
        ),
    ),
    (
        ("--punct",),
        dict(
            choices=[mode.value for mode in PunctMode],
            default="arabic",
            help="punctuation handling (default: arabic)",
        ),
    ),
    (
        ("--rlm",),
        dict(action="store_true", help="append a right-to-left mark after a line-final full stop"),
    ),
)
_TRANSLIT = (
    "translit",
    "Transliterate Kurdish text in Hawar Latin script into Sorani Persian-Arabic script.",
    _SHARED_OPTIONS
    + (
        (
            ("--strict",),
            dict(action="store_true", help="fail on the first in-word character no rule matches"),
        ),
        (("-o", "--output"), dict(metavar="OUT", default="-", help="output file (default: stdout)")),
        (("input",), dict(metavar="IN", nargs="?", default="-", help="input file (default: stdin)")),
    ),
)
_CHECK = (
    "translit check",
    "Check a gold-pair corpus against the transliterator.",
    _SHARED_OPTIONS
    + (
        (
            ("corpus",),
            dict(
                metavar="CORPUS",
                nargs="?",
                default=None,
                help="pairs file `latin<TAB>expected` (default: the shipped seed corpus)",
            ),
        ),
    ),
)


def _parse_exact(argv: list, grammar: tuple) -> dict | None:
    """``vars()`` of argparse's namespace for ``argv``, or None to let argparse decide.

    It reads each option by its full flag with its value as the next
    argument, and at most one positional. It declines every other form
    argparse reads or rejects (``-h``, prefix abbreviations, ``--opt=value``,
    ``-oOUT``, ``--``, a value starting with ``-`` other than ``-`` itself, a
    missing value, an invalid choice, a second positional), so argparse
    gives their help, errors and exit status.
    """
    # positional is the dest a plain argument fills, None once one has.
    values, flags, positional = {}, {}, None
    for names, keywords in grammar[2]:
        dest = names[-1].lstrip("-")
        switch = keywords.get("action") == "store_true"
        values[dest] = False if switch else keywords.get("default")
        if names[0].startswith("-"):
            flags.update(dict.fromkeys(names, (dest, switch, keywords.get("choices"))))
        else:
            positional = dest
    arguments = iter(argv)
    for argument in arguments:
        if argument in flags:
            dest, switch, choices = flags[argument]
            if switch:
                values[dest] = True
                continue
            value = next(arguments, None)
            if value is None or value != "-" and value.startswith("-"):
                return None
            if choices is not None and value not in choices:
                return None
            values[dest] = value
        elif argument != "-" and argument.startswith("-") or positional is None:
            return None
        else:
            values[positional], positional = argument, None
    return values


def _argparser(grammar: tuple):
    """The argparse parser of ``grammar``, built for what _parse_exact declines."""
    import argparse

    prog, description, options = grammar
    parser = argparse.ArgumentParser(prog=prog, description=description)
    for names, keywords in options:
        parser.add_argument(*names, **keywords)
    return parser


def _parse(argv: list, grammar: tuple) -> dict:
    """The options of ``argv`` by dest; argparse exits where the arguments are wrong."""
    args = _parse_exact(argv, grammar)
    return vars(_argparser(grammar).parse_args(argv)) if args is None else args


def _config_from_args(args: dict) -> EngineConfig:
    return EngineConfig(args["digits"], args["punct"], args["rlm"])


# Batch size for streaming reads. Each batch is cut after its last line end,
# so memory stays bounded by max(batch size, longest line), never by file
# size. The word path holds every word of a prose batch as its own string at
# once, so 32 KB keeps that small; a word list's batch may be folded and
# rewritten as one string (see RuleSet._rewrite_words). The per-batch cost is
# paid once per ~5,000 words.
_BATCH_BYTES = 1 << 15


def _batches(infile):
    """Yield the bytes of binary ``infile`` in batches of whole lines.

    Each read of ``_BATCH_BYTES`` is cut after its last newline and the rest
    begins the next batch; a read with no newline is finished by reading to
    the end of its line. The last batch may lack a final newline. A cut after
    a newline never splits a UTF-8 sequence.
    """
    tail = b""
    while block := infile.read(_BATCH_BYTES):
        block = tail + block
        cut = block.rfind(b"\n") + 1
        if cut:
            tail = block[cut:]
            yield block[:cut]
        else:
            tail = b""
            yield block + infile.readline()
    if tail:
        yield tail


def _stream(infile, outfile, rs: RuleSet, cfg: EngineConfig, strict: bool) -> None:
    """Transliterate ``infile`` to ``outfile`` in line batches (both binary)."""
    consumed = 0
    lines_done = 0
    for raw in _batches(infile):
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


def _run_transliterate(args: dict, rs: RuleSet, cfg: EngineConfig) -> int:
    # The input opens first, so a missing input creates no output file.
    if args["input"] == "-":
        infile = contextlib.nullcontext(sys.stdin.buffer)
    else:
        infile = open(args["input"], "rb")
    with infile as source, _output(args["output"]) as sink:
        _stream(source, sink, rs, cfg, args["strict"])
    return EXIT_OK


def _run_check(args: dict, rs: RuleSet, cfg: EngineConfig) -> int:
    total, failures = check_corpus(args["corpus"], rs, cfg)
    for line, latin, expected, actual in failures:
        print(f"line {line}: {latin!r} -> {actual!r} (expected {expected!r})")
    print(f"check: {total - len(failures)}/{total} pairs passed")
    sys.stdout.flush()  # a broken pipe raises here, not at exit
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def run(argv: list | None = None) -> int:
    """CLI entry point, returning the exit status."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "check":
        args, command = _parse(argv[1:], _CHECK), _run_check
    else:
        args, command = _parse(argv, _TRANSLIT), _run_transliterate
    try:
        rs = default_rules() if args["rules"] is None else load_rules(args["rules"])
    except (RuleError, OSError, UnicodeDecodeError) as exc:
        print(f"translit: {exc}", file=sys.stderr)
        return EXIT_RULES
    try:
        return command(args, rs, _config_from_args(args))
    except UnmatchedCharacter as exc:
        print(f"translit: {exc}", file=sys.stderr)  # names line:column
        return EXIT_STRICT
    except BrokenPipeError:
        # Python flushes stdout at exit; pointed at /dev/null, that flush
        # cannot fail again and print "Exception ignored".
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (OSError, UnicodeDecodeError, InvalidInputBytes, MalformedPairLine) as exc:
        print(f"translit: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    """The ``translit`` command: ``run()``, then exit with its status."""
    status = run()
    # The full collections of the interpreter's exit skip what the run left.
    # Cycles it left uncollected are frozen too, so their finalizers never
    # run: nothing of a run may need one at exit (OUT is closed and in place
    # before run() returns). Exit handlers, stdio flushes and deallocation
    # still run; run() freezes nothing for a library caller.
    gc.freeze()
    raise SystemExit(status)


if __name__ == "__main__":
    main()
