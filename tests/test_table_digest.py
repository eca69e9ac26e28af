"""The table digests of ``tools/table_digest.py`` repeat."""

import importlib.util
import re
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "table_digest.py"
_spec = importlib.util.spec_from_file_location("table_digest", _PATH)
table_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(table_digest)


def test_one_size_gives_the_same_lines_twice():
    first = table_digest.main([24])
    cases = len(table_digest.CHAINS) * 3 * len(table_digest.LEVELS)
    assert len(first) == cases == len(set(first))
    assert all(re.fullmatch(r"[0-9a-f]{64}  n=24 l=[123] grid=\w+ level=\S+", line) for line in first)
    assert table_digest.main([24]) == first
