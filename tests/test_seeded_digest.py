"""The seeded-output digests of ``tools/seeded_digest.py`` repeat."""

import importlib.util
import re
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "seeded_digest.py"
_spec = importlib.util.spec_from_file_location("seeded_digest", _PATH)
seeded_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seeded_digest)


def test_one_case_gives_the_same_line_twice():
    first = seeded_digest.main(["power-bands"])
    assert re.fullmatch(r"[0-9a-f]{64}  power-bands", first[0])
    assert seeded_digest.main(["power-bands"]) == first


def test_a_case_that_reads_the_stored_grid_gives_the_same_line_twice():
    first = seeded_digest.main(["test-interpolated-48"])
    assert re.fullmatch(r"[0-9a-f]{64}  test-interpolated-48", first[0])
    assert seeded_digest.main(["test-interpolated-48"]) == first


def test_repeat_prints_each_round_and_memo_hits_keep_the_bytes():
    # the second round's calibrations are served from the process's memo
    lines = seeded_digest.main(["test-4x80-t1", "power-stats"], repeat=2)
    assert [line.split()[1] for line in lines] == ["test-4x80-t1", "power-stats"] * 2
    assert lines[:2] == lines[2:]
