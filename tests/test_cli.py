import errno
import gc
import io
import os
import pickle
import stat
import subprocess
import sys
import zipfile
from pathlib import Path, PurePosixPath
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hawar2sorani import cli
from hawar2sorani.alphabets import KURDISH_LATIN_LETTERS
from hawar2sorani.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CHECK_FAILED,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_RULES,
    EXIT_STRICT,
    InvalidInputBytes,
    MalformedPairLine,
    check_corpus,
    load_corpus,
    run,
)
from hawar2sorani.engine import (
    DigitMode,
    EngineConfig,
    PunctMode,
    UnmatchedCharacter,
    transliterate_text,
)
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
)
from helpers import outcome

TINY_RULES = "b\tany\tب\na\tany\tا\nn\tany\tن\n"


def _write(path, data):
    mode = "wb" if isinstance(data, bytes) else "w"
    kwargs = {} if isinstance(data, bytes) else {"encoding": "utf-8"}
    with open(path, mode, **kwargs) as handle:
        handle.write(data)
    return str(path)


# ------------------------------------------------------------- transliterate

def test_stdin_to_stdout(monkeypatch, capsysbinary):
    monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=io.BytesIO("min".encode())))
    assert run([]) == EXIT_OK
    assert capsysbinary.readouterr().out == "من".encode()


def test_file_to_file(tmp_path):
    src = _write(tmp_path / "in.txt", "min û tu\n")
    dst = tmp_path / "out.txt"
    assert run([src, "-o", str(dst)]) == EXIT_OK
    assert dst.read_text(encoding="utf-8") == "من و تو\n"


def test_invalid_utf8_reports_byte_offset(tmp_path, capsys):
    src = _write(tmp_path / "in.txt", b"min\n\xffab")
    assert run([src, "-o", str(tmp_path / "out.txt")]) == EXIT_INPUT
    assert "byte offset 4" in capsys.readouterr().err


def test_bad_rule_file_exit_code(tmp_path, capsys):
    rules = _write(tmp_path / "bad.rules", "xxxx\tany\tخ\n")
    src = _write(tmp_path / "in.txt", "min")
    assert run(["--rules", rules, src]) == EXIT_RULES
    assert "PatternTooLong" in capsys.readouterr().err


def test_missing_rule_file(tmp_path, capsys):
    src = _write(tmp_path / "in.txt", "min")
    assert run(["--rules", str(tmp_path / "nope.rules"), src]) == EXIT_RULES


def test_unreadable_input(tmp_path, capsys):
    assert run([str(tmp_path / "missing.txt")]) == EXIT_INPUT


def test_strict_mode_exit_and_position(tmp_path, capsys):
    rules = _write(tmp_path / "tiny.rules", TINY_RULES)
    src = _write(tmp_path / "in.txt", "ban\nbaq na\n")
    dst = tmp_path / "out.txt"
    assert run(["--rules", rules, "--strict", src, "-o", str(dst)]) == EXIT_STRICT
    assert "2:3" in capsys.readouterr().err


def test_non_strict_passes_through(tmp_path):
    rules = _write(tmp_path / "tiny.rules", TINY_RULES)
    src = _write(tmp_path / "in.txt", "baq\n")
    dst = tmp_path / "out.txt"
    assert run(["--rules", rules, src, "-o", str(dst)]) == EXIT_OK
    assert dst.read_text(encoding="utf-8") == "باq\n"


def test_bom_consumed_and_not_emitted(tmp_path):
    src = _write(tmp_path / "in.txt", "﻿min\n".encode())
    dst = tmp_path / "out.txt"
    assert run([src, "-o", str(dst)]) == EXIT_OK
    assert dst.read_bytes() == "من\n".encode()


def test_streaming_equals_whole_text(tmp_path, rs, cfg):
    text = "min û tu.\nrojbaş, se'îd?\n\nదీనికి 12 «mixed» ḧal.\nno final newline"
    src = _write(tmp_path / "in.txt", text)
    dst = tmp_path / "out.txt"
    assert run([src, "-o", str(dst)]) == EXIT_OK
    assert dst.read_text(encoding="utf-8") == transliterate_text(text, rs, cfg)


@pytest.mark.parametrize("batch_bytes", [1, 7, 64])
def test_streaming_many_batches(tmp_path, monkeypatch, capsys, rs, batch_bytes):
    # BOM, CRLF and LF mixed, decomposed letters, line-final stops
    text = "min \u00fb tu.\r\nh\u0308al 1984?\nSe'i\u0302d.\r\r\n\nrojbas\u0327, gull; dill.\nno final"
    monkeypatch.setattr(cli, "_BATCH_BYTES", batch_bytes)
    src = _write(tmp_path / "in.txt", "\ufeff" + text)
    dst = tmp_path / "out.txt"
    flags = ["--strict", "--rlm", "--digits", "arabic"]
    assert run(flags + [src, "-o", str(dst)]) == EXIT_OK
    config = EngineConfig(digit_mode=DigitMode.ARABIC_INDIC, emit_rlm=True)
    expected = transliterate_text(text, rs, config, strict=True)
    assert dst.read_bytes() == expected.encode("utf-8")

    # a strict failure several batches in reports the global position
    rules = _write(tmp_path / "tiny.rules", TINY_RULES)
    bad = "ban.\r\nna\n\nban nab\nban baq\n"
    with pytest.raises(UnmatchedCharacter) as exc_info:
        transliterate_text(bad, parse_rules(TINY_RULES), strict=True)
    assert (exc_info.value.line, exc_info.value.column) == (5, 7)
    src = _write(tmp_path / "bad.txt", "\ufeff" + bad)
    assert run(flags + ["--rules", rules, src, "-o", str(dst)]) == EXIT_STRICT
    assert "'q' at 5:7" in capsys.readouterr().err


# Lines of both cases of every letter, NFD diaeresis and cedilla, digits and
# the mapped punctuation, each ended by LF, CRLF, a lone CR or nothing.
_STREAM_TEXT = st.lists(
    st.tuples(
        st.lists(
            st.sampled_from(
                sorted(KURDISH_LATIN_LETTERS)
                + ["h\u0308", "X\u0308", "s\u0327", "C\u0327", "'", " "]
                + list("07,.?;")
            ),
            max_size=12,
        ),
        st.sampled_from(["\n", "\r\n", "\r", ""]),
    ),
    max_size=12,
).map(lambda lines: "".join("".join(pieces) + end for pieces, end in lines))
_DEFAULT_TABLE = default_rules()
# Under --strict the tiny table fails on almost any word and the table
# without ẍ on few, so that a strict error often comes lines into the text.
_STREAM_TABLES = [
    _DEFAULT_TABLE,
    parse_rules(TINY_RULES),
    RuleSet(
        tuple(rule for rule in _DEFAULT_TABLE.rules if rule.pattern != "ẍ"),
        _DEFAULT_TABLE.exceptions,
    ),
]


def _streamed(data, batch_bytes, table, config, strict):
    """The text cli._stream writes for ``data``, read in ``batch_bytes`` batches."""
    sink = io.BytesIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_BATCH_BYTES", batch_bytes)
        cli._stream(io.BytesIO(data), sink, table, config, strict)
    return sink.getvalue().decode("utf-8")


@given(
    batch_bytes=st.integers(min_value=1, max_value=64),
    bom=st.booleans(),
    text=_STREAM_TEXT,
    config=st.sampled_from(
        [
            EngineConfig(),
            EngineConfig(digit_mode=DigitMode.ARABIC_INDIC, emit_rlm=True),
            EngineConfig(punct_mode=PunctMode.KEEP, emit_rlm=True),
        ]
    ),
)
def test_streaming_property(batch_bytes, bom, text, config):
    # Any batch size gives the whole-text output, or the same strict error.
    data = (("\ufeff" if bom else "") + text).encode("utf-8")
    for table in _STREAM_TABLES:
        for strict in (False, True):
            streamed = outcome(_streamed, data, batch_bytes, table, config, strict)
            assert streamed == outcome(transliterate_text, text, table, config, strict=strict)


@pytest.mark.parametrize(
    ("data", "status"),
    [
        ("ban\nbaq\n".encode(), EXIT_STRICT),
        (b"ban\nb\xffa\n", EXIT_INPUT),
        (b"ban\nnab\n", EXIT_INPUT),  # OSError on the second batch
    ],
)
def test_failed_run_leaves_output_alone(tmp_path, monkeypatch, data, status):
    def transliterate_or_fail(text, *args, **kwargs):
        if text == "nab\n":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return transliterate_text(text, *args, **kwargs)

    # one line per batch, so the first line is written before the failure
    monkeypatch.setattr(cli, "_BATCH_BYTES", 1)
    monkeypatch.setattr(cli, "transliterate_text", transliterate_or_fail)
    rules = _write(tmp_path / "tiny.rules", TINY_RULES)
    src = _write(tmp_path / "in.txt", data)
    dst = tmp_path / "out.txt"
    argv = ["--rules", rules, "--strict", src, "-o", str(dst)]
    assert run(argv) == status
    assert not dst.exists()
    dst.write_bytes(b"old")
    assert run(argv) == status
    assert dst.read_bytes() == b"old"
    assert sorted(os.listdir(tmp_path)) == ["in.txt", "out.txt", "tiny.rules"]


def test_output_keeps_mode_and_follows_symlink(tmp_path):
    src = _write(tmp_path / "in.txt", "min\n")
    real = tmp_path / "real.txt"
    real.write_bytes(b"old")
    real.chmod(0o640)
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    assert run([src, "-o", str(link)]) == EXIT_OK
    assert link.is_symlink()
    assert real.read_text(encoding="utf-8") == "من\n"
    assert stat.S_IMODE(real.stat().st_mode) == 0o640


def _buffered_env():
    """This process's environment without PYTHONUNBUFFERED, so a child's
    stdout is buffered, as in a shell."""
    return {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}


def _run_cli_process(argv, stdout_bytes=None):
    """(exit status, stderr) of ``python -m hawar2sorani.cli`` in a new process.

    With ``stdout_bytes`` set, stdout is a pipe closed after that many bytes.
    The child's stdout is buffered, as in a shell, even where PYTHONUNBUFFERED
    is set here.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "hawar2sorani.cli", *argv],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL if stdout_bytes is None else subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_buffered_env(),
    )
    if stdout_bytes is not None:
        assert len(proc.stdout.read(stdout_bytes)) == stdout_bytes
        proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    return proc.returncode, err.decode("utf-8")


def _assert_one_diagnostic(err):
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("translit: "), err


def test_closed_stdout_ends_quietly(tmp_path):
    # As `translit big.txt | head -c 100`: the reader leaves after 100 bytes.
    big = _write(tmp_path / "big.txt", "min û tu, rojbaş.\n" * 60_000)  # 1.2 MB
    # As `translit small.txt | true`: the reader leaves before the child's
    # first write, whose bytes stay buffered for the flush at exit.
    small = _write(tmp_path / "small.txt", "min û tu\n")
    for argv, stdout_bytes in (([big], 100), ([small], 0), (["check"], 0)):
        status, err = _run_cli_process(argv, stdout_bytes=stdout_bytes)
        assert status == EXIT_BROKEN_PIPE == 141
        assert err == ""  # no message, and no "Exception ignored" from that flush


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_exits_2(tmp_path):
    src = _write(tmp_path / "in.txt", "min\n")
    status, err = _run_cli_process([src, "-o", "/dev/full"])
    assert status == EXIT_INPUT
    _assert_one_diagnostic(err)


# ------------------------------------------------------------- exit path
# main() freezes the collector once run() is over, so the interpreter's exit
# collections skip what the run left. This process never freezes: gc.freeze
# is replaced by a recorder here, and the real one runs only in a child.

_BAD_RULES = "b\tnowhere\tب\n"


@pytest.mark.parametrize(
    "options, status",
    [
        ([], EXIT_OK),
        (["--rules", "bad.rules"], EXIT_RULES),
        (["--rules", "tiny.rules", "--strict"], EXIT_STRICT),
    ],
)
def test_exit_path_freezes_once_after_the_run(tmp_path, monkeypatch, capsys, options, status):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "bad.rules", _BAD_RULES)
    _write(tmp_path / "tiny.rules", TINY_RULES)
    text = "ban\nbaq na\n"
    src, dst = _write(tmp_path / "in.txt", text), tmp_path / "out.txt"
    # What OUT holds when the collector is frozen: False where the run made none.
    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(dst.exists() and dst.read_text("utf-8")))
    monkeypatch.setattr(sys, "argv", ["translit", *options, src, "-o", str(dst)])
    with pytest.raises(SystemExit) as exit:
        cli.main()
    assert exit.value.code == status
    assert frozen == [transliterate_text(text, default_rules()) if status == EXIT_OK else False]


def test_exit_path_run_leaves_the_collector_unfrozen(tmp_path, capsys):
    src = _write(tmp_path / "in.txt", "min û tu\n")
    before = gc.get_freeze_count()
    assert run([src, "-o", str(tmp_path / "out.txt")]) == EXIT_OK
    assert run(["check"]) == EXIT_OK
    assert gc.get_freeze_count() == before


def test_exit_path_keeps_exit_handlers_and_buffered_stdout(tmp_path):
    # In a child with a buffered stdout: a handler registered before main()
    # prints after the run, and its line and the CLI's 54 KB arrive whole.
    text = "min û tu, rojbaş.\n" * 3000
    src = _write(tmp_path / "in.txt", text)
    child = (
        "import atexit, sys\n"
        "from hawar2sorani import cli\n"
        "atexit.register(print, 'exit handler ran')\n"
        f"sys.argv = ['translit', {src!r}]\n"
        "cli.main()\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", child], env=_buffered_env(), capture_output=True, timeout=60
    )
    assert (result.returncode, result.stderr) == (EXIT_OK, b"")
    expected = transliterate_text(text, default_rules()) + "exit handler ran\n"
    assert result.stdout.decode("utf-8") == expected


def test_digit_and_punct_flags(tmp_path):
    src = _write(tmp_path / "in.txt", "1984? min,\n")
    dst = tmp_path / "out.txt"
    assert run(["--digits", "arabic", "--punct", "keep", src, "-o", str(dst)]) == EXIT_OK
    assert dst.read_text(encoding="utf-8") == "١٩٨٤? من,\n"


def test_rlm_flag(tmp_path):
    src = _write(tmp_path / "in.txt", "min.\n")
    dst = tmp_path / "out.txt"
    assert run(["--rlm", src, "-o", str(dst)]) == EXIT_OK
    assert dst.read_text(encoding="utf-8") == "من.‏\n"


def test_custom_rules_replace_table(tmp_path):
    rules = _write(tmp_path / "swap.rules", "b\tany\tپ\na\tany\tا\n")
    src = _write(tmp_path / "in.txt", "ba")
    dst = tmp_path / "out.txt"
    assert run(["--rules", rules, src, "-o", str(dst)]) == EXIT_OK
    assert dst.read_text(encoding="utf-8") == "پا"


def test_rule_file_bom_ignored(tmp_path):
    rules = _write(tmp_path / "tiny.rules", "\ufeff" + TINY_RULES)
    src = _write(tmp_path / "in.txt", "ban\n")
    dst = tmp_path / "out.txt"
    assert run(["--rules", rules, src, "-o", str(dst)]) == EXIT_OK
    assert dst.read_text(encoding="utf-8") == "بان\n"


# -------------------------------------------------------------------- check

def test_check_passing_corpus(tmp_path, capsys):
    corpus = _write(tmp_path / "pairs.tsv", "min\tمن\n# comment\n\ntu\tتو\n")
    assert run(["check", corpus]) == EXIT_OK
    assert "2/2 pairs passed" in capsys.readouterr().out


def test_check_failure_lists_actual(tmp_path, capsys):
    # the wrong output some online converters produce
    corpus = _write(tmp_path / "pairs.tsv", "diînine\tدیننه\n")
    assert run(["check", corpus]) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert "دئیننە" in out
    assert "0/1 pairs passed" in out


def test_check_empty_corpus(tmp_path, capsys):
    corpus = _write(tmp_path / "pairs.tsv", "# nothing here\n")
    assert run(["check", corpus]) == EXIT_OK
    assert "0/0 pairs passed" in capsys.readouterr().out


def test_check_malformed_pair(tmp_path, capsys):
    corpus = _write(tmp_path / "pairs.tsv", "min من\n")
    assert run(["check", corpus]) == EXIT_INPUT
    assert "MalformedPairLine" in capsys.readouterr().err


def test_check_seed_corpus_by_default(capsys):
    assert run(["check"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "pairs passed" in out


def test_check_seed_corpus_from_zip_import(tmp_path, monkeypatch):
    # Imported from a zip, the packaged corpus is no file of its own.
    package = Path(cli.__file__).resolve().parent
    archive = tmp_path / "pkg.zip"
    with zipfile.ZipFile(archive, "w") as bundle:
        for path in package.rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                bundle.write(path, PurePosixPath("hawar2sorani", *path.relative_to(package).parts))
    monkeypatch.setenv("PYTHONPATH", str(archive))
    result = subprocess.run(
        [sys.executable, "-m", "hawar2sorani.cli", "check"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        EXIT_OK,
        "check: 48/48 pairs passed\n",
        "",
    )


def test_check_corpus_bom_ignored(tmp_path, capsys):
    corpus = _write(tmp_path / "pairs.tsv", "\ufeffmin\tمن\n")
    assert run(["check", corpus]) == EXIT_OK
    assert "1/1 pairs passed" in capsys.readouterr().out


def test_check_respects_flags(tmp_path, capsys):
    corpus = _write(tmp_path / "pairs.tsv", "1?\t١؟\n")
    assert run(["check", "--digits", "arabic", corpus]) == EXIT_OK


# ------------------------------------------------------------ harness units

def test_load_corpus_pairs():
    pairs = load_corpus("min\tمن\nmin û tu\tمن و تو\n")
    assert pairs == [
        (1, "min", "من"),
        (2, "min û tu", "من و تو"),
    ]


def test_load_corpus_nfc_normalizes():
    pairs = load_corpus("ḧeft\tحەفت\n")
    assert pairs[0][1] == "ḧeft"


def test_load_corpus_rejects_double_tab():
    with pytest.raises(MalformedPairLine) as exc_info:
        load_corpus("min\tمن\textra\n")
    assert exc_info.value.line == 1


def test_load_corpus_rejects_empty_field():
    with pytest.raises(MalformedPairLine):
        load_corpus("min\t\n")


def test_check_corpus_report_shape(tmp_path, rs, cfg):
    corpus = _write(tmp_path / "pairs.tsv", "min\tمن\ntu\tWRONG\n")
    total, failures = check_corpus(corpus, rs, cfg)
    assert (total, total - len(failures)) == (2, 1)
    line, latin, expected, actual = failures[0]
    assert (line, latin, actual) == (2, "tu", "تو")


def test_seed_corpus_path_exists(rs, cfg):
    total, _ = check_corpus(None, rs, cfg)  # the shipped corpus
    assert total >= 22  # the regression pairs plus 20+ hand-checked ones


_HEAVY_MODULES = {"dataclasses", "inspect", "importlib.resources", "typing", "pathlib"}


def test_start_up_imports_no_heavy_module():
    # Every run pays for start-up before it converts a word. Without site, as
    # in a clean environment, nothing is preloaded: importing the CLI and
    # reading the built-in table and the shipped corpus must load none of
    # these modules. The child prints what it had before, then what it loaded.
    child = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from hawar2sorani import cli\n"
        "cli.check_corpus(None, cli.default_rules(), cli.EngineConfig())\n"
        "print(*sorted(before))\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-S", "-c", child],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    before, loaded = map(set, map(str.split, result.stdout.splitlines()))
    assert not before & _HEAVY_MODULES, sorted(before & _HEAVY_MODULES)
    assert "hawar2sorani.cli" in loaded
    assert not loaded & _HEAVY_MODULES, sorted(loaded & _HEAVY_MODULES)


def test_package_data_covers_data_files():
    # The tests import from src/, so a data file that pyproject.toml does not
    # ship would pass them and be missing only from the installed package.
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as handle:
        globs = tomllib.load(handle)["tool"]["setuptools"]["package-data"]["hawar2sorani"]
    package = root / "src" / "hawar2sorani"
    files = [path.relative_to(package) for path in (package / "data").rglob("*") if path.is_file()]
    assert files
    for path in files:
        assert any(PurePosixPath(path.as_posix()).match(glob) for glob in globs), path


# ------------------------------------------------------------------- errors

def _raised(function, *args, **kwargs):
    with pytest.raises(Exception) as exc_info:
        function(*args, **kwargs)
    return exc_info.value


def _package_exception_classes():
    """Every exception class defined in a module of the package."""
    found, todo = set(), [Exception]
    while todo:
        for subclass in todo.pop().__subclasses__():
            if subclass not in found:
                found.add(subclass)
                todo.append(subclass)
    return {cls for cls in found if cls.__module__.split(".")[0] == "hawar2sorani"}


def test_every_package_error_pickles(rs):
    # One instance per class, each raised by the code that raises it in use;
    # a class added to the package without a case here fails the test.
    errors = {
        RuleError: RuleError("no table", line=3, entry=0),
        MalformedLine: _raised(parse_rules, "b\tmedial\tب"),
        DuplicateRule: _raised(parse_rules, "b\tany\tب\nb\tany\tپ"),
        IllegalCharacter: _raised(parse_rules, "b\tany\tب\n@vowels a1"),
        PatternTooLong: _raised(Rule, "xxxx", Context.ANY, "خ"),
        OutputTooLong: _raised(parse_rules, "x\tany\tخخخخ"),
        UnmatchedCharacter: _raised(
            transliterate_text, "ban\nbaq", parse_rules(TINY_RULES), strict=True
        ),
        MalformedPairLine: _raised(load_corpus, "min\tمن\nmin من\n"),
        InvalidInputBytes: _raised(
            cli._stream, io.BytesIO(b"min\n\xff"), io.BytesIO(), rs, EngineConfig(), False
        ),
    }
    assert set(errors) == _package_exception_classes()
    for cls, error in errors.items():
        assert type(error) is cls
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is cls
        assert str(copy) == str(error)
        assert copy.__dict__ == error.__dict__
