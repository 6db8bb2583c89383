"""Each subcommand's digest over the corpus of ``cli_corpus.py`` equals its pin;
that module's docstring says how to regenerate the pins."""

import json
from pathlib import Path

import pytest

from cli_corpus import CASES, group_digest

PINS = json.loads((Path(__file__).parent / "cli_corpus.json").read_text())


def test_every_group_is_pinned():
    assert sorted(PINS) == sorted(CASES)


@pytest.mark.parametrize("group", sorted(CASES))
def test_group_digest_is_pinned(group):
    assert group_digest(group) == PINS[group]
