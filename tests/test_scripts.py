"""Smoke runs of the scripts in scripts/: exit codes and printed columns."""

import pathlib
import runpy
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, capsys, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exc.value.code, capsys.readouterr().out.splitlines()


def test_period_scan(monkeypatch, capsys):
    code, lines = run_script(monkeypatch, capsys, "period_scan.py", "--max-wt", "2", "--max-dep", "1")
    rows = [line.split() for line in lines[:-1]]
    # (1) and (2) at each of (p, l) = (2, 1), (3, 1), (2, 2)
    assert code == 0 and len(rows) == 6 and lines[-1] == "failures: 0"
    assert all(row[3] == "pass" for row in rows), lines


def test_shell_sampling(monkeypatch, capsys):
    argv = ("--fields", "3,2", "--samples", "10", "--rational")
    code, lines = run_script(monkeypatch, capsys, "shell_sampling.py", *argv)
    assert code == 0 and lines[0] == "index set: (1); (2); (1,2)"
    assert [line.split()[:3] for line in lines[1:]] == [
        ["F_(3^2)", "closure", "pass"],
        ["F_(3^2)", "commutator", "pass"],
        ["F_3(t)", "closure", "pass"],
        ["F_3(t)", "commutator", "pass"],
    ]
    # every row ends with the seconds its run took
    assert all(line.endswith(" s") and float(line.split()[-2]) >= 0 for line in lines[1:])
    # F_2 draws 1 nonzero value, no more than the degree bound 7, so its runs
    # certify nothing; F_2(t) draws 31 distinct fractions and both laws pass.
    # A run that is not `pass` makes the script exit 1
    code, lines = run_script(monkeypatch, capsys, "shell_sampling.py", "--fields", "2,1", "--rational")
    assert code == 1
    assert [line.split()[2] for line in lines[1:]] == ["incomparable", "incomparable", "pass", "pass"]


def test_src_lines(monkeypatch, capsys):
    code, lines = run_script(monkeypatch, capsys, "src_lines.py")
    rows = [line.split() for line in lines[1:]]
    package = SCRIPTS.parent / "src" / "ffmzv"
    assert code == 0 and [row[0] for row in rows] == sorted(p.name for p in package.glob("*.py")) + ["total"]
    # blank, docstring-and-comment and code lines add up to each module's
    # lines, and the total row is the sum of the module rows
    for row in rows[:-1]:
        assert sum(map(int, row[1:4])) == int(row[4]) == len((package / row[0]).read_text().splitlines())
    assert [sum(int(row[k]) for row in rows[:-1]) for k in range(1, 5)] == [int(x) for x in rows[-1][1:]]
    # a line of a string continued inside code counts with the docstrings
    counts = runpy.run_path(str(SCRIPTS / "src_lines.py"))["counts"]
    text = (
        '"""Doc."""\n\nx = 1  # code\n# comment\n'
        'def f():\n    """Two\n    lines."""\n    return ("a"\n            "b"\n    )\n'
    )
    assert counts(text) == (1, 5, 4)


def test_field_tables(monkeypatch, capsys):
    code, lines = run_script(monkeypatch, capsys, "field_tables.py")
    header, rows = lines[0].split(), [line.split() for line in lines[1:]]
    assert code == 0 and header[:3] == ["field", "build_s", "peak_kb"]
    assert "add" not in header and "mul" not in header and "zech" in header
    assert [row[0] for row in rows] == ["F_(3^4)", "F_(2^8)", "F_(5^3)", "F_(3^6)", "F_(2^12)"]
    for row, n in zip(rows, (81, 256, 125, 729, 4096)):
        sizes = dict(zip(header[3:], map(int, row[3:])))
        # no n^2 list is left: every list is at most 8n entries
        assert float(row[1]) >= 0 and float(row[2]) > 0, row
        assert sizes["log"] == n and max(sizes.values()) <= 8 * n, row
