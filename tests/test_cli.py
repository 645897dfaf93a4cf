import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import sqk
from helpers import all_involutions, all_quandle_tables, bf_good_involutions
from sqk import cosets
from sqk.catalog import (
    build_entry,
    conj_symmetric_quandle,
    dihedral_group,
    trivial_quandle,
)
from sqk.cli import run
from sqk.errors import SizeBoundExceeded
from sqk.fileio import format_qnd
from sqk.perm import perm_line
from sqk.quandle import quandle_from_table
from sqk.symmetric import enumerate_good_involutions, good_involution_walk
from test_perm import _old_array_string, _old_cycle_string

README = Path(__file__).resolve().parent.parent / "README.md"


def _catalog_file(tmp_path, name, *spec):
    path = tmp_path / name
    code, text = run(["catalog", *spec, "-o", str(path)])
    assert code == 0, text
    return str(path)


def cli_involution_lines(tmp_path, Q):
    """The lines `involutions` prints for Q after its order and count."""
    p = tmp_path / "q.qnd"
    p.write_text(format_qnd(Q))
    code, text = run(["involutions", str(p), "--max-n", str(Q.order)])
    assert code == 0, text
    lines = text.splitlines()
    assert lines[0] == f"order: {Q.order}"
    assert lines[1] == f"count: {len(lines) - 2}"
    return lines[2:]


def test_check_dihedral(tmp_path):
    p = _catalog_file(tmp_path, "r4.qnd", "dihedral-quandle", "4")
    code, text = run(["check", p])
    assert code == 0
    assert "quandle: yes" in text
    assert "kei: yes" in text
    assert "rho: absent" in text


def test_check_with_good_rho(tmp_path):
    p = _catalog_file(tmp_path, "a4.qnd", "antipodal", "4")
    code, text = run(["check", p])
    assert code == 0
    assert "good involution: yes" in text


def test_check_bad_rho(tmp_path):
    p = tmp_path / "bad.qnd"
    p.write_text("quandle 2\n0 0\n1 1\nrho: 0 1\n")
    code, text = run(["check", str(p)])
    assert code == 0  # identity is good on the trivial quandle
    p.write_text("quandle 4\n" +
                 "\n".join(" ".join(map(str, r))
                           for r in [[0, 2, 0, 2], [3, 1, 3, 1],
                                     [2, 0, 2, 0], [1, 3, 1, 3]]) +
                 "\nrho: 1 0 3 2\n")
    code, text = run(["check", str(p)])
    assert code == 1
    assert "good involution: no" in text


def test_check_axiom_failure(tmp_path):
    p = tmp_path / "bad.qnd"
    p.write_text("quandle 2\n1 1\n0 0\n")
    code, text = run(["check", str(p)])
    assert code == 1
    assert "rack: yes" in text
    assert "quandle: no" in text


def test_check_rack_header(tmp_path):
    p = tmp_path / "r.qnd"
    p.write_text("rack 2\n1 1\n0 0\n")
    code, text = run(["check", str(p)])
    assert code == 0
    assert "rack: yes" in text


@pytest.mark.parametrize("text,verdicts", [
    ("quandle 3\n0 2 1\n1 1 0\n2 0 2\n",
     ["rack: no (self-distributivity fails at (0, 1, 2))", "quandle: no",
      "kei: no", "rho: absent"]),
    ("quandle 3\n0 2 1\n2 1 0\n1 0 2\nrho: 1 2 0\n",
     ["rack: yes", "quandle: yes", "kei: yes", "rho: present",
      "good involution: no (not an involution at 0)"]),
    (format_qnd(build_entry("conj", ["sym", "3"])[1].quandle)
     + "rho: 0 1 2 3 4 5\n",
     ["rack: yes", "quandle: yes", "kei: no", "rho: present",
      "good involution: no (dual compatibility fails at (1, 3))"]),
    ("quandle 2\n1 0\n1 0\n",
     ["rack: no (column 0 is not a bijection)", "quandle: no", "kei: no",
      "rho: absent"]),
], ids=["Q3 fails", "rho not an involution", "Conj(S3) rho=id",
        "column not a bijection"])
def test_check_names_the_failing_verdict(tmp_path, text, verdicts):
    p = tmp_path / "q.qnd"
    p.write_text(text)
    assert run(["check", str(p)]) == \
        (1, "\n".join([f"order: {text.split()[1]}"] + verdicts) + "\n")


def test_check_malformed(tmp_path):
    p = tmp_path / "short.qnd"
    p.write_text("quandle 3\n0 1\n1 0 2\n2 2 1\n")
    code, text = run(["check", str(p)])
    assert code == 2


def test_missing_file():
    code, text = run(["check", "/nonexistent/x.qnd"])
    assert code == 2


def test_involutions_r4(tmp_path):
    p = _catalog_file(tmp_path, "r4.qnd", "dihedral-quandle", "4")
    code, text = run(["involutions", p])
    assert code == 0
    assert "count: 4" in text
    assert "(0 2)(1 3)  [2 3 0 1]" in text


@pytest.mark.parametrize("name", ["trivial-7", "conj-d12"])
def test_involutions_lines_keep_their_bytes(tmp_path, name):
    if name == "trivial-7":
        Q = trivial_quandle(7)
        expected = all_involutions(7)
    else:
        Q = conj_symmetric_quandle(dihedral_group(12)).quandle
        expected = bf_good_involutions(Q.op)
    p = tmp_path / f"{name}.qnd"
    p.write_text(format_qnd(Q))
    code, text = run(["involutions", str(p), "--max-n", "24"])
    assert code == 0
    assert text.splitlines() == [f"order: {Q.order}",
                                 f"count: {len(expected)}"] + [
        f"{_old_cycle_string(rho)}  {_old_array_string(rho)}"
        for rho in expected]


def test_output_is_its_lines_each_ending_in_a_newline(tmp_path):
    # a verb that writes its result to a file prints nothing at all
    prs, qnd = tmp_path / "pe.prs", tmp_path / "pe.qnd"
    assert run(["catalog", "paper-example", "-o", str(prs)]) == (0, "")
    assert run(["build", str(prs), "-o", str(qnd)]) == (0, "")
    code, text = run(["involutions", str(qnd)])
    assert code == 0
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert text == "".join(line + "\n" for line in text.splitlines())


def test_involutions_of_a_rack_exit_1(tmp_path):
    p = tmp_path / "rack.qnd"
    p.write_text("rack 2\n1 1\n0 0\n")
    code, text = run(["involutions", str(p)])
    assert code == 1
    assert text == "error: good involutions require a quandle; " \
        "this table is a rack\n"
    p.write_text("rack 2\n1 1\n0 0\nrho: 1 0\n")
    assert run(["aut", str(p), "--symmetric"]) == (code, text)


def test_involutions_size_bound(tmp_path, r4):
    p = _catalog_file(tmp_path, "r4.qnd", "dihedral-quandle", "4")
    assert run(["involutions", p, "--max-n", "2"]) == \
        (3, "error: order 4 exceeds the exhaustive-search bound 2\n")
    # the walk raises at its first step, before it makes any write
    writes = []
    walk = good_involution_walk(r4, 2, lambda a, b: writes.append((a, b)) or ())
    with pytest.raises(SizeBoundExceeded):
        next(walk)
    assert writes == []


def test_involutions_lines_are_perm_lines(tmp_path):
    # every labelled quandle of order at most 5, the trivial one of
    # order 1 among them
    for n in range(1, 6):
        for table in all_quandle_tables(n):
            Q = quandle_from_table(table)
            assert cli_involution_lines(tmp_path, Q) == \
                list(map(perm_line, enumerate_good_involutions(Q, n))), table
    assert cli_involution_lines(tmp_path, trivial_quandle(1)) == ["()  [0]"]


def test_python_m_sqk_cli_runs_the_verb(tmp_path):
    (tmp_path / "bad.qnd").write_text(BAD_ENTRY_QND)
    src = str(Path(sqk.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-m", "sqk.cli", "check", "bad.qnd"],
                          cwd=tmp_path, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (2, "error: entry 3 in row 0 not in 0..1\n", "")


def test_aut_and_inn(tmp_path):
    p = _catalog_file(tmp_path, "a4.qnd", "antipodal", "4")
    code, text = run(["aut", p])
    assert code == 0 and "order: 8" in text
    code, text = run(["aut", p, "--symmetric"])
    assert code == 0 and "order: 8" in text
    code, text = run(["inn", p])
    assert code == 0 and "order: 4" in text
    assert "orbits (2):" in text


def test_inn_requires_rho(tmp_path):
    p = _catalog_file(tmp_path, "r4.qnd", "dihedral-quandle", "4")
    code, text = run(["inn", p])
    assert code == 2
    assert "no rho" in text


def test_orbits(tmp_path):
    p = _catalog_file(tmp_path, "a4.qnd", "antipodal", "4")
    code, text = run(["orbits", p])
    assert code == 0
    assert "orbit 0: rep 0, size 2: 0 2" in text
    code, text = run(["orbits", p, "--group", "aut"])
    assert code == 0
    assert "orbit 0: rep 0, size 4: 0 1 2 3" in text


def test_decompose_exit_code_and_report(tmp_path):
    p = _catalog_file(tmp_path, "a4.qnd", "antipodal", "4")
    code, text = run(["decompose", p])
    assert code == 0
    assert "result: ok" in text
    assert "C5: pass" in text
    code2, text2 = run(["decompose", p, "--group", "aut"])
    assert code2 == 0
    assert "orbits (1):" in text2


def test_decompose_emit_prs_then_build(tmp_path):
    p = _catalog_file(tmp_path, "a4.qnd", "antipodal", "4")
    prs = tmp_path / "a4.prs"
    code, _ = run(["decompose", p, "--emit-prs", str(prs)])
    assert code == 0
    out = tmp_path / "rebuilt.qnd"
    code, _ = run(["build", str(prs), "-o", str(out)])
    assert code == 0
    code, text = run(["iso", str(out), p, "--symmetric"])
    assert code == 0
    assert "isomorphism: [" in text


def test_build_paper_example(tmp_path):
    prs = _catalog_file(tmp_path, "pe.prs", "paper-example")
    code, text = run(["build", prs])
    assert code == 0
    assert "quandle 4" in text
    assert "rho: 1 0 3 2" in text
    assert "# 0: H0[e]" in text


def test_build_reads_the_group_file_relative_to_the_presentation(
        tmp_path, monkeypatch):
    # the paper example with its group block moved into pe.grp
    inline = Path(_catalog_file(tmp_path, "inline.prs", "paper-example"))
    lines = inline.read_text().splitlines(keepends=True)
    orbits = "".join(line for line in lines if line.startswith("orbit"))
    d = tmp_path / "d"
    d.mkdir()
    (d / "pe.grp").write_text("".join(lines[1:]).replace(orbits, ""))
    (d / "pe.prs").write_text(lines[0] + "group pe.grp\n" + orbits)
    expected = run(["build", str(inline)])
    assert expected[0] == 0
    assert run(["build", str(d / "pe.prs")]) == expected
    monkeypatch.chdir(tmp_path)
    assert run(["build", os.path.join("d", "pe.prs")]) == expected
    (d / "pe.grp").unlink()
    code, text = run(["build", str(d / "pe.prs")])
    assert code == 2
    assert text.startswith(f"error: cannot read group file '{d / 'pe.grp'}': ")
    assert text.count("\n") == 1


def test_build_level_rejection(tmp_path):
    prs = tmp_path / "bad.prs"
    # Z4 with H = {0,2}, z = 1: rack only
    prs.write_text("presentation 1\ngroup 4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n"
                   "3 0 1 2\norbit 0: H = 0 2 ; z = 1 ; r = 0 ; kappa = 0\n")
    code, text = run(["build", str(prs), "--level", "rack"])
    assert code == 0
    assert "rack 2" in text
    code, text = run(["build", str(prs), "--level", "quandle"])
    assert code == 1
    assert "C2: fail" in text


def test_iso_paper_example_vs_antipodal(tmp_path):
    prs = _catalog_file(tmp_path, "pe.prs", "paper-example")
    built = tmp_path / "built.qnd"
    assert run(["build", prs, "-o", str(built)])[0] == 0
    a4 = _catalog_file(tmp_path, "a4.qnd", "antipodal", "4")
    code, text = run(["iso", str(built), a4, "--symmetric"])
    assert code == 0
    assert "isomorphism: [0 2 1 3]" in text


def test_iso_not_found(tmp_path):
    r4 = _catalog_file(tmp_path, "r4.qnd", "dihedral-quandle", "4")
    t4 = _catalog_file(tmp_path, "t4.qnd", "conj", "cyclic", "4")
    code, text = run(["iso", r4, t4])
    assert code == 1
    assert "isomorphism: none" in text


def test_iso_of_quandles_of_different_orders_is_none(tmp_path):
    # the map search stops before any key is made when the orders differ
    r4 = _catalog_file(tmp_path, "r4.qnd", "antipodal", "4")
    cs3 = _catalog_file(tmp_path, "cs3.qnd", "conj", "sym", "3")
    assert run(["iso", r4, cs3]) == (1, "isomorphism: none\n")


def test_check_of_a_rho_on_a_table_that_is_not_a_quandle(tmp_path):
    p = tmp_path / "q3.qnd"
    p.write_text("quandle 3\n0 2 1\n1 1 0\n2 0 2\nrho: 0 1 2\n")
    assert run(["check", str(p)]) == (1, (
        "order: 3\nrack: no (self-distributivity fails at (0, 1, 2))\n"
        "quandle: no\nkei: no\nrho: present\n"
        "good involution: no (table is not a quandle)\n"))


@pytest.mark.parametrize("args", [["aut", "--symmetric"],
                                  ["orbits", "--group", "aut"],
                                  ["decompose", "--group", "aut"]],
                         ids=["aut", "orbits", "decompose"])
def test_an_automorphism_search_above_the_bound_exits_3(tmp_path, args):
    d7 = _catalog_file(tmp_path, "d7.qnd", "conj", "dihedral-group", "7")
    assert run([args[0], d7, *args[1:]]) == \
        (3, "error: order 14 exceeds the exhaustive-search bound 12\n")


def test_a_header_size_that_is_not_an_integer_is_malformed(tmp_path):
    p = tmp_path / "x.qnd"
    p.write_text("quandle x\n0\n")
    assert run(["check", str(p)]) == \
        (2, "error: header size 'x' is not an integer\n")


def test_build_over_a_set_that_is_not_a_subgroup_exits_1(tmp_path):
    prs = tmp_path / "h.prs"
    prs.write_text(Z4_PRS.format("H = 0 1 3 ; z = 0 ; r = 0 ; kappa = 0"))
    assert run(["build", str(prs)]) == \
        (1, "error: not a subgroup: product 1*1 escapes the set\n")


def test_catalog_unknown():
    code, text = run(["catalog", "nonsense"])
    assert code == 2


def test_catalog_order_bound_is_a_usage_error():
    code, text = run(["catalog", "dihedral-group", "513"])
    assert code == 2
    assert text == ("usage error: table order 1026 exceeds the catalog "
                    "bound 1024\n")


def test_usage_error():
    code, text = run(["frobnicate"])
    assert code == 2
    code, text = run([])
    assert code == 2


def test_output_determinism(tmp_path):
    p = _catalog_file(tmp_path, "a4.qnd", "antipodal", "4")
    for args in (["check", p], ["involutions", p], ["decompose", p],
                 ["aut", p, "--symmetric"], ["inn", p], ["orbits", p]):
        first = run(args)
        second = run(args)
        assert first == second


Z4_PRS = ("presentation 1\ngroup 4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n"
          "orbit 0: {}\n")


def test_build_out_of_range_subgroup_index_is_malformed(tmp_path):
    prs = tmp_path / "bad.prs"
    prs.write_text(Z4_PRS.format("H = 0 4 ; z = 1 ; r = 0 ; kappa = 0"))
    code, text = run(["build", str(prs), "--level", "rack"])
    assert code == 2
    assert text == "error: orbit 0 H: element index 4 not in 0..3\n"


def test_build_out_of_range_z_is_malformed(tmp_path):
    prs = tmp_path / "bad.prs"
    prs.write_text(Z4_PRS.format("H = 0 ; z = 4 ; r = 0 ; kappa = 0"))
    code, text = run(["build", str(prs), "--level", "rack"])
    assert code == 2
    assert text == "error: orbit 0 z: element index 4 not in 0..3\n"


def test_build_out_of_range_r_is_malformed(tmp_path):
    prs = tmp_path / "bad.prs"
    prs.write_text(Z4_PRS.format("H = 0 ; z = 0 ; r = -1 ; kappa = 0"))
    code, text = run(["build", str(prs), "--level", "rack"])
    assert code == 2
    assert text == "error: orbit 0 r: element index -1 not in 0..3\n"


def test_build_out_of_range_kappa_is_malformed(tmp_path):
    prs = tmp_path / "bad.prs"
    prs.write_text(Z4_PRS.format("H = 0 ; z = 0 ; r = 0 ; kappa = 1"))
    code, text = run(["build", str(prs), "--level", "rack"])
    assert code == 2
    assert text == "error: orbit 0 kappa: orbit index 1 not in 0..0\n"


def test_build_out_of_range_group_entry_is_malformed(tmp_path):
    prs = tmp_path / "bad.prs"
    prs.write_text("presentation 1\ngroup 2\n0 2\n1 0\n"
                   "orbit 0: H = 0 ; z = 0 ; r = 0 ; kappa = 0\n")
    assert run(["build", str(prs), "--level", "rack"]) == \
        (2, "error: entry 2 in row 0 not in 0..1\n")


BAD_ENTRY_QND = "quandle 2\n0 3\n1 1\n"


def test_check_out_of_range_entry_is_malformed(tmp_path):
    p = tmp_path / "bad.qnd"
    p.write_text(BAD_ENTRY_QND)
    assert run(["check", str(p)]) == \
        (2, "error: entry 3 in row 0 not in 0..1\n")


def test_iso_with_an_out_of_range_entry_second_is_malformed(tmp_path):
    good, bad = tmp_path / "good.qnd", tmp_path / "bad.qnd"
    good.write_text("quandle 2\n0 0\n1 1\n")
    bad.write_text(BAD_ENTRY_QND)
    assert run(["iso", str(good), str(bad)]) == \
        (2, "error: entry 3 in row 0 not in 0..1\n")


def test_build_repeated_orbit_field_is_malformed(tmp_path):
    prs = tmp_path / "bad.prs"
    prs.write_text(Z4_PRS.format("H = 0 2 ; z = 1 ; z = 3 ; r = 0 ; kappa = 0"))
    code, text = run(["build", str(prs), "--level", "rack"])
    assert code == 2
    assert text == "error: orbit 0: field 'z' given twice\n"


def test_negative_max_n_is_a_usage_error(tmp_path):
    p = _catalog_file(tmp_path, "r4.qnd", "dihedral-quandle", "4")
    for verb in ("involutions", "aut", "orbits", "decompose"):
        code, text = run([verb, p, "--max-n", "-1"])
        assert code == 2, verb
        assert text.startswith("usage error: argument --max-n: must be "
                               "non-negative"), verb
    code, text = run(["involutions", p, "--max-n", "x"])
    assert (code, text) == (2, "usage error: argument --max-n: invalid int "
                               "value: 'x'\n")


def test_build_validates_the_presentation_once(tmp_path, monkeypatch):
    good = _catalog_file(tmp_path, "pe.prs", "paper-example")
    bad = tmp_path / "z4.prs"
    bad.write_text("presentation 1\ngroup 4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n"
                   "3 0 1 2\norbit 0: H = 0 2 ; z = 1 ; r = 0 ; kappa = 0\n")
    calls = [0]
    real = cosets.validate_presentation

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(cosets, "validate_presentation", counting)
    for path, level, code, last in ((good, "symmetric", 0, "# 3: H1[a]"),
                                    (str(bad), "symmetric", 1, "C6: pass"),
                                    (str(bad), "rack", 0, "# 1: H0[1]")):
        calls[0] = 0
        got, text = run(["build", path, "--level", level])
        assert (got, calls[0]) == (code, 1), text
        assert text.splitlines()[-1] == last


def _cli_tour():
    """The command lines of the README's CLI tour block, comments dropped."""
    block = README.read_text(encoding="utf-8").split("## CLI tour", 1)[1]
    block = block.split("```", 2)[1]
    return [shlex.split(line, comments=True)
            for line in block.splitlines() if line.strip()]


def test_readme_cli_tour(tmp_path, monkeypatch):
    # every line of the tour runs as written, and the worked example's
    # claims hold: iso finds [0 2 1 3], and (R_4, antipodal) decomposes
    # into two orbits over a group of order 4 (inn), one of order 8 (aut),
    # with |H| = 2 each time
    monkeypatch.chdir(tmp_path)
    tour = _cli_tour()
    assert len(tour) == 10
    out = {}
    for argv in tour:
        assert argv[0] == "sqk"
        code, text = run(argv[1:])
        assert code == 0, (argv, text)
        out[argv[1]] = text
    assert "isomorphism: [0 2 1 3]\n" in out["iso"]
    assert "group order: 4\n" in out["decompose"]
    assert "orbits (2):\n" in out["decompose"]
    assert out["decompose"].count("|H|=2\n") == 2
    code, text = run(["decompose", "r4.qnd", "--group", "aut"])
    assert code == 0
    assert "group order: 8\n" in text
    assert "orbits (1):\n" in text
    assert text.count("|H|=2\n") == 1


def _one_error_line(code, text):
    assert code == 2
    assert text.startswith("error: ") and text.count("\n") == 1, text


def test_check_of_a_file_that_is_not_utf8_is_malformed(tmp_path):
    p = tmp_path / "latin1.qnd"
    p.write_bytes("quandle 1\n0 # \xe9\n".encode("latin-1"))
    _one_error_line(*run(["check", str(p)]))


def test_build_with_a_group_file_that_is_not_utf8_is_malformed(tmp_path):
    (tmp_path / "g.grp").write_bytes("group 1\n0 # \xe9\n".encode("latin-1"))
    prs = tmp_path / "g.prs"
    prs.write_text("presentation 1\ngroup g.grp\n"
                   "orbit 0: H = 0 ; z = 0 ; r = 0 ; kappa = 0\n")
    code, text = run(["build", str(prs)])
    _one_error_line(code, text)
    assert "cannot read group file" in text


@pytest.mark.parametrize("verb", ["catalog", "build", "decompose"])
def test_output_into_a_missing_directory_is_malformed(tmp_path, verb):
    target = str(tmp_path / "missing" / "out")
    if verb == "catalog":
        argv = ["catalog", "antipodal", "4", "-o", target]
    elif verb == "build":
        argv = ["build", _catalog_file(tmp_path, "pe.prs", "paper-example"),
                "-o", target]
    else:
        argv = ["decompose", _catalog_file(tmp_path, "a4.qnd", "antipodal", "4"),
                "--emit-prs", target]
    code, text = run(argv)
    _one_error_line(code, text)
    assert text.startswith(f"error: cannot write {target!r}")
