import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "csv_digests.py"


@pytest.fixture(scope="module")
def csv_digests():
    spec = importlib.util.spec_from_file_location("csv_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_differing_names_a_changed_a_missing_and_an_extra_csv(csv_digests):
    listing = "aa  one.csv\nbb  two.csv\ncc  three.csv\n\n"
    rows = [("aa", "one.csv"), ("bx", "two.csv"), ("dd", "four.csv")]
    assert csv_digests.differing(rows, listing) == ["four.csv", "three.csv", "two.csv"]
    assert csv_digests.differing([("aa", "one.csv")], "aa  one.csv\n") == []


def test_compare_exits_nonzero_only_when_a_digest_differs(csv_digests, tmp_path, monkeypatch, capsys):
    rows = [("aa", "one.csv"), ("bb", "two.csv")]
    monkeypatch.setattr(csv_digests, "digests", lambda out: rows)
    same, other = tmp_path / "same.txt", tmp_path / "other.txt"
    same.write_text("aa  one.csv\nbb  two.csv\n")
    other.write_text("aa  one.csv\nbc  two.csv\n")
    assert csv_digests.main(["--compare", str(same)]) == 0
    assert capsys.readouterr().out == ""
    assert csv_digests.main(["--compare", str(other)]) == 1
    assert capsys.readouterr().out == "two.csv\n"
    assert csv_digests.main([]) == 0
    assert capsys.readouterr().out == "aa  one.csv\nbb  two.csv\n"
