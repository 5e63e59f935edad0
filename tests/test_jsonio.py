from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hhcert.jsonio import dumps

TEXTS = ['"', '\\', '"\\"', "\x00\x01\x1f\x7f", "\b\f\n\r\t", "é, 漢字, 😀", "  ",
         "\ud800", "</script>", ""]


@pytest.mark.parametrize("text", TEXTS)
def test_strings_and_keys_quote_as_json_dumps(text):
    assert dumps(text) == json.dumps(text)
    assert dumps({text: [text, 1]}) == "{" + json.dumps(text) + ": [" + json.dumps(text) + ", 1]}"


@given(st.dictionaries(st.text() | st.integers(), st.text() | st.none() | st.booleans()))
def test_any_text_quotes_as_json_dumps(obj):
    # dict keys print as their str, as json.dumps prints an int key
    assert dumps(obj) == json.dumps(obj, separators=(", ", ": "))
