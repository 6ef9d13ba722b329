"""What a fresh interpreter pays to start absix, and what it prints.

``import absix.cli`` generates no code: no ``dataclasses``, so no
``inspect``.  The built-in corpus is imported only by a target that names it
(``@name``) and by ``absix corpus``, never by a file target.  The report
bytes are the same in every interpreter on the path from Python 3.10 on.
Every check runs ``absix`` in a child process, so nothing this test process
imported can hide an import.
"""

import ast
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import absix
from absix.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(absix.__file__).resolve().parents[1]
WATCHED = ("dataclasses", "inspect", "absix.corpus")
FILE_TARGET = "perfbench/inputs/kunneth-surface_resolution-gm.atlas.json"

# The modules of WATCHED that running ``main(argv)`` imported, on stderr.
_REPORT_IMPORTS = """
import sys
before = set(sys.modules)
from absix.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
sys.stderr.write(repr(sorted(m for m in {watched!r} if m in set(sys.modules) - before)))
sys.exit(code)
""".format(watched=WATCHED)

# sha256 of stdout, recorded before the value classes and the corpus import changed.
PINNED = {
    ("compute", "@gm"): "6e108cff2f25f5e5c0a7204b9f76961c4db19c29c2074b855a86cf46e275750e",
    ("corpus",): "37706334213cbce8f69ea7ab110a5a13a93159924d1c9078fcdc8e894b1def3f",
    ("compute", "@surface_resolution", "--what", "all", "--format", "json"):
        "2875b1255f50e21a4204e3439d584f7653fca21e98501324ba9e85bb11c216c3",
    ("compute", FILE_TARGET, "--what", "all"):
        "86b5111b4525fa0d6856f7e28f07c381f1fe53db8577b5b34296d2bb0f525167",
}


def _run(python, *args):
    """``python *args`` from the repository root, importing this package.

    ``-S`` keeps the site hooks of the interpreter's installation out of
    the child, so that its modules are the ones absix imports.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([python, "-S", *args], capture_output=True, text=True,
                          timeout=120, env=env, cwd=ROOT)


def _imports(*argv):
    proc = _run(sys.executable, "-c", _REPORT_IMPORTS, *argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, ast.literal_eval(proc.stderr.splitlines()[-1])


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_importing_the_cli_generates_no_code():
    assert _imports() == ("", [])


def test_a_file_target_does_not_import_the_corpus():
    out, imported = _imports("compute", FILE_TARGET, "--what", "all")
    assert imported == []
    assert _sha(out) == PINNED[("compute", FILE_TARGET, "--what", "all")]


@pytest.mark.parametrize("argv", [("compute", "@gm"), ("corpus",)])
def test_corpus_commands_import_it_and_print_the_same_bytes(argv):
    out, imported = _imports(*argv)
    assert imported == ["absix.corpus"]
    assert _sha(out) == PINNED[argv]


def _interpreters() -> list:
    """The python3.10 .. python3.13 on the path that start and are >= 3.10."""
    found = []
    for minor in range(10, 14):
        exe = shutil.which(f"python3.{minor}")
        if exe is None:
            continue
        probe = subprocess.run(
            [exe, "-S", "-c", "import sys; print(sys.version_info >= (3, 10))"],
            capture_output=True, text=True, timeout=60)
        if probe.returncode == 0 and probe.stdout.strip() == "True":
            found.append(exe)
    return found


@pytest.mark.parametrize("argv", [
    ("compute", "@surface_resolution", "--what", "all", "--format", "json"),
    ("compute", FILE_TARGET, "--what", "all"),
])
def test_every_interpreter_prints_the_same_bytes(argv, capsys, monkeypatch):
    interpreters = _interpreters()
    if not interpreters:
        pytest.skip("no python3.10 .. python3.13 runs here")
    monkeypatch.chdir(ROOT)  # a file target names the report by its path
    code = main(list(argv))
    here, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert _sha(here) == PINNED[argv]
    for exe in interpreters:
        proc = _run(exe, "-m", "absix.cli", *argv)
        assert (proc.returncode, proc.stderr) == (0, ""), exe
        assert proc.stdout == here, exe
