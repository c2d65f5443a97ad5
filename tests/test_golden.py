"""Replay the golden CLI corpus (``tests/golden``) through ``cli.main``.

Every entry's exit code, standard output, standard error and written files
must match the manifest byte for byte.  ``tests/golden/generate.py`` says
how an entry whose output changes on purpose is regenerated.
"""

import json

import pytest

from golden.generate import MANIFEST, replay

ENTRIES = json.loads(MANIFEST.read_text())


def test_corpus_covers_both_subcommands_and_exit_codes():
    kinds = {("solve-horn" if "solve-horn" in entry["argv"] else "eliminate",
              entry["code"]) for entry in ENTRIES.values()}
    assert kinds == {("solve-horn", 0), ("eliminate", 0), ("eliminate", 1)}


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_replay(name, tmp_path):
    entry = ENTRIES[name]
    got = replay(entry["argv"], tmp_path)
    assert got == {k: entry[k] for k in ("code", "stdout", "stderr", "files")}
