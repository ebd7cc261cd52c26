import subprocess
import sys

import pytest

from char2lie import cli
from char2lie import liesuper as ls


def run_cli(*argv):
    return cli.main(list(argv))


def test_sca_roundtrip(tmp_path, built):
    for args in [("h", "Pi", 0, 4), ("h", "II", 2, 2), ("le", "", 0, 0, 2), ("h", "Pi", 0, 5)]:
        fam, g, B = built(*args)
        text = cli.sca_dump(g, B)
        g2, B2 = cli.sca_parse(text)
        assert g2.brk == g.brk
        assert g2.sq == g.sq
        assert g2.diag == g.diag
        assert [b.name for b in g2.basis] == [b.name for b in g.basis]
        assert [b.degree for b in g2.basis] == [b.degree for b in g.basis]
        assert B2.gram == B.gram and B2.parity == B.parity
        assert cli.sca_dump(g2, B2) == text


def test_sca_leibniz_diag_roundtrip(built):
    fam, g, B = built("h", "I", 0, 4)
    po, Bpo = ls.poisson_algebra(fam.space())
    text = cli.sca_dump(po, Bpo)
    po2, _ = cli.sca_parse(text)
    assert po2.diag == po.diag
    assert po2.is_leibniz


def test_cmd_build_and_derivations(tmp_path, capsys):
    out = str(tmp_path)
    assert run_cli("build", "--family", "h", "--form", "Pi", "--even", "0", "--odd", "4", "--out", out) == 0
    assert (tmp_path / "h_Pi_0_4.sca").exists()
    assert run_cli("derivations", "--family", "h", "--form", "Pi", "--even", "0", "--odd", "4", "--out", out) == 0
    text = capsys.readouterr().out
    assert "outer 7" in text


def _drop_form_lines(text):
    return "".join(ln for ln in text.splitlines(True) if not ln.startswith("B "))


def _bad_square(text):
    return text.replace("squarings\n", "squarings\nsq 0 999\n", 1)


def _non_integer_bracket(text):
    head, sep, rest = text.partition("brackets\n")
    first, nl, tail = rest.partition("\n")
    return head + sep + " ".join([first.split()[0], "x", first.split()[2]]) + nl + tail


@pytest.mark.parametrize("corrupt", [_drop_form_lines, _bad_square, _non_integer_bracket])
def test_corrupt_sca_rejected(tmp_path, capsys, corrupt):
    args = ["--family", "h", "--form", "Pi", "--even", "0", "--odd", "4", "--out", str(tmp_path)]
    assert run_cli("build", *args) == 0
    path = tmp_path / "h_Pi_0_4.sca"
    text = path.read_text()
    path.write_text(corrupt(text))
    assert path.read_text() != text
    capsys.readouterr()
    assert run_cli("derivations", *args) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cmd_derivations_missing_input(tmp_path):
    assert run_cli("derivations", "--family", "h", "--form", "Pi", "--even", "0", "--odd", "4", "--out", str(tmp_path)) == 1


def test_range_guard(tmp_path):
    assert run_cli("build", "--family", "h", "--form", "Pi", "--even", "0", "--odd", "8", "--out", str(tmp_path)) == 1
    assert run_cli(
        "build", "--family", "h", "--form", "Pi", "--even", "0", "--odd", "2", "--out", str(tmp_path), "--override-size"
    ) == 0


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as e:
        cli.main(["nonsense"])
    assert e.value.code == 2


def test_cmd_dex_and_determinism(tmp_path, capsys):
    out1, out2 = (tmp_path / d for d in ("a", "b"))
    for out in (out1, out2):
        args = ["--form", "I", "--even", "0", "--odd", "4", "--out", str(out)]
        assert run_cli("build", "--family", "h", *args) == 0
        assert run_cli("dex", "--family", "h", *args) == 0
    capsys.readouterr()
    for name in ("h_I_0_4.dex.txt", "h_I_0_4.dex.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    sca1 = sorted(p.name for p in out1.glob("*.sca"))
    sca2 = sorted(p.name for p in out2.glob("*.sca"))
    assert sca1 == sca2
    for name in sca1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_dex_rows_i_form_size4(tmp_path):
    fam = ls.family("h", "I", 0, 4)
    an, rows, exts = cli.dex_family(fam)
    by_label = {r.label: r for r in rows}
    assert by_label["D0"].built and by_label["D0"].preserves
    assert by_label["Db"].built
    assert not by_label["Dtheta"].preserves and not by_label["Dtheta"].built
    assert by_label["D(+2)"].identified == "po"
    assert by_label["D(-2)"].built


def test_cmd_identify_and_fingerprint(tmp_path, capsys):
    out = str(tmp_path)
    args = ["--form", "Pi", "--even", "0", "--odd", "4", "--out", out]
    assert run_cli("build", "--family", "h", *args) == 0
    assert run_cli("identify", "--family", "h", *args) == 0
    assert run_cli("fingerprint", "--family", "h", *args) == 0
    text = capsys.readouterr().out
    assert "identified = po" in text
    assert "sdim 6|8" in text


def test_cmd_bench_small(capsys):
    assert run_cli("bench", "--family", "h", "--form", "Pi", "--even", "0", "--odd", "4") == 0
    text = capsys.readouterr().out
    assert "speedup" in text


def test_console_entrypoint():
    res = subprocess.run(
        [sys.executable, "-m", "char2lie", "fingerprint", "--family", "h", "--form", "Pi", "--even", "0", "--odd", "4"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0
    assert "sdim" in res.stdout


def test_standard_families_enumeration():
    fams4 = cli.standard_families(4)
    slugs = {cli.family_slug(f) for f in fams4}
    assert slugs == {
        "h_Pi_0_4", "h_Pi_4_0", "h_I_0_4", "h_I_4_0",
        "h_PiPi_1_3", "h_PiPi_2_2", "h_PiPi_3_1",
        "h_PiI_2_2", "h_IPi_2_2", "h_II_2_2", "le_2",
    }
    fams5 = cli.standard_families(5)
    assert {cli.family_slug(f) for f in fams5} == {
        "h_Pi_0_5", "h_Pi_5_0",
        "h_PiPi_1_4", "h_PiPi_2_3", "h_PiPi_3_2", "h_PiPi_4_1",
    }
