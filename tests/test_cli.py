import contextlib
import functools
import hashlib
import io
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from char2lie import cli
from char2lie import deriv as dv
from char2lie import doubleext as dx
from char2lie import invariants as inv
from char2lie import liesuper as ls
from char2lie import pipeline
from char2lie import superfunc as sf
from tests.test_acceptance import REPORT_4_5_SHA256


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


@st.composite
def _random_objects(draw):
    """An object with n <= 8: random parities, degrees and weights,
    symmetric off-diagonal brackets, a diagonal, squares, a symmetric Gram
    matrix, a form parity and a graded flag."""
    n = draw(st.integers(1, 8))
    vec = st.integers(0, (1 << n) - 1)
    element = st.tuples(st.integers(0, 1), st.integers(-3, 3), st.lists(st.integers(-2, 2), max_size=2).map(tuple))
    basis = [ls.BasisElement(f"e{i}", *draw(element)) for i in range(n)]
    brk = [[0] * n for _ in range(n)]
    gram = [0] * n
    for i in range(n):
        brk[i][i] = draw(vec)
        gram[i] |= draw(st.integers(0, 1)) << i
        for j in range(i + 1, n):
            brk[i][j] = brk[j][i] = draw(vec)
            if draw(st.booleans()):
                gram[i] |= 1 << j
                gram[j] |= 1 << i
    sq = [draw(vec) for _ in range(n)]
    meta = {"graded": True} if draw(st.booleans()) else {}
    return ls.StructureConstants(basis, brk, sq, meta), ls.BilinearFormTable(tuple(gram), draw(st.integers(0, 1)))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_random_objects())
def test_sca_roundtrip_random_tables(obj):
    # the diagonal brk[i][i] goes out as "d" records and comes back there
    g, B = obj
    text = cli.sca_dump(g, B)
    g2, B2 = cli.sca_parse(text)
    assert cli._sca_mismatch(g, B, g2, B2) == ""
    assert cli.sca_dump(g2, B2) == text


@pytest.mark.parametrize("kind", ["brackets", "sq", "d", "B", "parity"])
def test_sca_record_with_extra_field_rejected(kind):
    # po of hI(0|4) has records of every kind: brackets, squares, the
    # Leibniz diagonal and the form; one extra field on the first record of
    # a kind makes the file invalid
    po, B = ls.poisson_algebra(ls.family("h", "I", 0, 4).space())
    lines = cli.sca_dump(po, B).splitlines()
    if kind == "brackets":
        k = lines.index("brackets") + 1
    else:
        k = next(k for k, ln in enumerate(lines) if ln.startswith(kind + " "))
    lines[k] += " 0"
    with pytest.raises(ValueError, match="indices|parity"):
        cli.sca_parse("\n".join(lines))


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


def _bracket_above_basis(text):
    return text.replace("basis ", "0 1 2\nbasis ", 1)


def _huge_index_bracket(text):
    return text.replace("brackets\n", "brackets\n0 1 100000000000000000000\n", 1)


def _huge_basis_count(text):
    return text.replace("basis 14\n", "basis 100000000000000000000\n", 1)


def _huge_family(text):
    return text.replace("family h Pi 0 4\n", "family h Pi 0 400000000\n", 1)


def _swapped_bracket(text):
    return text.replace("brackets\n0 2 0\n", "brackets\n2 0 0\n", 1)


def _diagonal_bracket(text):
    return text.replace("brackets\n", "brackets\n3 3 0\n", 1)


def _wrong_sdim(text):
    return text.replace("sdim 6 8\n", "sdim 5 9\n", 1)


def _swapped_form(text):
    return text.replace("B 0 13\n", "B 13 0\n", 1)


def _field_not_gf2(text):
    return text.replace("field GF2\n", "field sq\n", 1)


def _bracket_extra_field(text):
    return text.replace("\n1 4 3\n", "\n1 4 3 end\n", 1)


def _form_extra_field(text):
    return text.replace("B 3 10\n", "B 3 10 14\n", 1)


def _parity_not_even_odd(text):
    return text.replace("parity even\n", "parity 0\n", 1)


def _parity_extra_field(text):
    return text.replace("parity even\n", "parity even odd\n", 1)


def _basis_parity_not_even_odd(text):
    return text.replace("b 2 xi1.eta1 even ", "b 2 xi1.eta1 foo ", 1)


@pytest.mark.parametrize(
    "corrupt",
    [
        _drop_form_lines,
        _bad_square,
        _non_integer_bracket,
        _bracket_above_basis,
        _huge_index_bracket,
        _huge_basis_count,
        _huge_family,
        _swapped_bracket,
        _diagonal_bracket,
        _wrong_sdim,
        _swapped_form,
        _field_not_gf2,
        _bracket_extra_field,
        _form_extra_field,
        _parity_not_even_odd,
        _parity_extra_field,
        _basis_parity_not_even_odd,
    ],
)
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


@functools.cache
def _size4_sca() -> str:
    return cli.sca_dump(*ls.build_algebra(ls.family("h", "Pi", 0, 4)))


_TOKENS = ("0", "1", "13", "14", "-1", "x", "odd", "even", "GF2", "b", "B", "sq", "d", "nis", "end", "9" * 20)


@st.composite
def _corrupted_sca(draw):
    """The size-4 .sca of hPi(0|4) with 1-3 edits, each deleting,
    duplicating or retokenizing a line (one token dropped, repeated,
    replaced or inserted)."""
    lines = _size4_sca().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "retokenize"]))
        if op == "delete":
            del lines[k]
        elif op == "duplicate":
            lines.insert(k, lines[k])
        else:
            toks = lines[k].split()
            t = draw(st.integers(0, len(toks)))
            edit = draw(st.sampled_from(["drop", "repeat", "replace", "insert"]))
            new = draw(st.one_of(st.sampled_from(_TOKENS), st.integers(-2, 20).map(str)))
            if t == len(toks) or edit == "insert":
                toks.insert(t, new)
            elif edit == "drop":
                del toks[t]
            elif edit == "repeat":
                toks.insert(t, toks[t])
            else:
                toks[t] = new
            lines[k] = " ".join(toks)
    return "".join(ln + "\n" for ln in lines)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_corrupted_sca())
def test_corrupt_sca_property(text):
    # no traceback; exit 1 or 2 with an error line, or exit 0 only when
    # the corrupted file parses to the original object
    args = ["derivations", "--family", "h", "--form", "Pi", "--even", "0", "--odd", "4"]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        (Path(out) / "h_Pi_0_4.sca").write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(args + ["--out", out])
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("error: ")
    else:
        assert cli._sca_mismatch(*cli.sca_parse(_size4_sca()), *cli.sca_parse(text)) == ""


def test_commands_build_the_family_once(tmp_path, capsys, monkeypatch):
    args = ["--family", "h", "--form", "Pi", "--even", "0", "--odd", "4", "--out", str(tmp_path)]
    assert run_cli("build", *args) == 0
    # the pipeline looks the build and the solver up on their modules, so
    # a wrapper set there sees each call; the generating set the solver
    # finds is the one the closed-form filter of `derivations` uses
    calls = []
    build, solve, gens = ls.build_algebra, dv.derivation_space_blocked, dv.generating_set
    monkeypatch.setattr(ls, "build_algebra", lambda fam: calls.append("build") or build(fam))
    monkeypatch.setattr(dv, "derivation_space_blocked", lambda g: calls.append("solve") or solve(g))
    monkeypatch.setattr(dv, "generating_set", lambda g: calls.append("gens") or gens(g))
    for cmd in ("derivations", "dex", "identify"):
        calls.clear()
        assert run_cli(cmd, *args) == 0
        assert sorted(calls) == ["build", "gens", "solve"], cmd


def test_cmd_derivations_missing_input(tmp_path):
    assert run_cli("derivations", "--family", "h", "--form", "Pi", "--even", "0", "--odd", "4", "--out", str(tmp_path)) == 1


def test_range_guard(tmp_path):
    assert run_cli("build", "--family", "h", "--form", "Pi", "--even", "0", "--odd", "8", "--out", str(tmp_path)) == 1
    assert run_cli(
        "build", "--family", "h", "--form", "Pi", "--even", "0", "--odd", "2", "--out", str(tmp_path), "--override-size"
    ) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--sizes", "0"],
        ["report", "--sizes", "1"],
        ["report", "--sizes", "-2"],
        ["report", "--sizes", "3"],
        ["report", "--sizes", "4", "3"],
        ["report", "--sizes", "4", "4"],
        ["build", "--family", "le", "--n", "0"],
        ["build", "--family", "h", "--form", "Pi", "--even", "-1", "--odd", "5"],
        ["fingerprint", "--family", "h", "--form", "PiPi", "--even", "-1", "--odd", "6"],
        ["build", "--family", "h", "--form", "PiPi", "--even", "-3", "--odd", "9"],
        ["build", "--family", "h", "--form", "II", "--even", "-2", "--odd", "6"],
        ["build", "--family", "h", "--form", "PiPi", "--even", "0", "--odd", "4"],
        ["fingerprint", "--family", "h", "--form", "I", "--even", "0", "--odd", "5"],
        ["build", "--family", "h", "--form", "Pi", "--even", "0", "--odd", "1", "--override-size"],
        ["derivations", "--family", "h", "--form", "Pi", "--even", "0", "--odd", "1", "--override-size"],
        ["fingerprint", "--family", "h", "--form", "Pi", "--even", "1", "--odd", "0", "--override-size"],
        ["report", "--sizes", "4", "--out", "/dev/null/x"],
        ["build", "--family", "h", "--form", "Pi", "--even", "0", "--odd", "4", "--out", "FILE"],
    ],
    ids=lambda argv: "_".join(argv).replace("--", "").replace("/", ""),
)
def test_bad_arguments_rejected(tmp_path, capsys, argv):
    # no such family, a size outside the guard, or an output directory
    # that cannot be made (under a device, or at a regular file FILE):
    # exit 1 with an error line, and (report) nothing computed or written
    blocker = tmp_path / "file"
    blocker.write_text("x")
    argv = [str(blocker) if a == "FILE" else a for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path)]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "x"


def test_unwritable_dex_output_rejected(tmp_path, capsys):
    # dex cannot write its table where a directory has the table's name
    args = ["--family", "h", "--form", "Pi", "--even", "0", "--odd", "4", "--out", str(tmp_path)]
    assert run_cli("build", *args) == 0
    (tmp_path / "h_Pi_0_4.dex.txt").mkdir()
    capsys.readouterr()
    assert run_cli("dex", *args) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.fixture
def no_child_left():
    """Fail a report that does not end within 30 s, and require that no
    child process is left after it and that the process has the affinity
    mask it had before, also when the report failed."""

    def timeout(signum, frame):
        raise TimeoutError("report did not end")

    mask = os.sched_getaffinity(0)
    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(30)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.sched_getaffinity(0) == mask


ABSENT_CPU = 1 << 16  # above any kernel's CPU limit: pinning to it fails with EINVAL


def _cpus(monkeypatch, n):
    """Deal the report over n CPU ids: at most two of the real mask, then
    ids no host has, so that the third of n = 3 cannot be pinned and runs
    unpinned. os.sched_getaffinity stays real, so the parent saves and
    restores the real mask on a host with any number of CPUs."""
    ids = (sorted(os.sched_getaffinity(0))[:2] + [ABSENT_CPU + i for i in range(n)])[:n]
    parts = cli._dex_report_parts
    monkeypatch.setattr(cli, "_dex_report_parts", lambda fams, cpus: parts(fams, ids))
    return ids


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_report_split_over_cpus_keeps_its_bytes(tmp_path, capsys, monkeypatch, no_child_left, cpus):
    # the families are dealt out to min(cpus, families) processes and the
    # results merged in family order: the same bytes for any count. Worker
    # k, whose share starts with family k, runs pinned to the k-th CPU id,
    # or unpinned when the kernel refuses that id; a single worker leaves
    # the mask alone
    mask = os.sched_getaffinity(0)
    ids = _cpus(monkeypatch, cpus)
    fams = cli.standard_families(4)
    dex = cli.dex_family
    seen = tmp_path / "masks"
    seen.mkdir()

    def watched(fam):
        if fam in fams[:cpus]:
            (seen / str(fams.index(fam))).write_text(repr(sorted(os.sched_getaffinity(0))))
        return dex(fam)

    monkeypatch.setattr(cli, "dex_family", watched)
    out = tmp_path / "out"
    assert run_cli("report", "--sizes", "4", "5", "--out", str(out)) == 0
    for name, want in REPORT_4_5_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want, name
    assert capsys.readouterr().out == (out / "report.txt").read_text()
    want = [mask] if cpus == 1 else [{c} if c in mask else mask for c in ids]
    assert [(seen / str(k)).read_text() for k in range(cpus)] == [repr(sorted(m)) for m in want]


@pytest.mark.parametrize("where", ["parent", "child"])
def test_report_family_error_in_a_share(tmp_path, capsys, monkeypatch, no_child_left, where):
    # on 2 CPUs family 0 is in the parent's share and family 1 in the
    # child's. A VerificationError in either is exit 1 and an error line;
    # when the parent's share raises, the child (here stuck) is killed
    _cpus(monkeypatch, 2)
    fams = cli.standard_families(4)
    bad = fams[0 if where == "parent" else 1]
    dex = cli.dex_family

    def failing(fam):
        if fam == bad:
            raise cli.VerificationError(f"{cli.family_slug(bad)} failed")
        if where == "parent" and fam == fams[1]:
            time.sleep(600)
        return dex(fam)

    monkeypatch.setattr(cli, "dex_family", failing)
    assert run_cli("report", "--sizes", "4", "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err == f"error: {cli.family_slug(bad)} failed\n"
    assert not (tmp_path / "report.txt").exists()


def test_report_child_that_dies_is_an_error(tmp_path, capsys, monkeypatch, no_child_left):
    _cpus(monkeypatch, 2)
    fams = cli.standard_families(4)
    dex = cli.dex_family
    monkeypatch.setattr(cli, "dex_family", lambda fam: os._exit(3) if fam == fams[1] else dex(fam))
    assert run_cli("report", "--sizes", "4", "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exit code 3" in err and cli.family_slug(fams[1]) in err
    assert not (tmp_path / "report.txt").exists()


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
    an, rows = cli.dex_family(fam)
    by_label = {r.label: r for r in rows}
    assert by_label["D0"].built and by_label["D0"].preserves
    assert by_label["Db"].built
    assert not by_label["Dtheta"].preserves and not by_label["Dtheta"].built
    assert by_label["D(+2)"].identified == "po"
    assert by_label["D(-2)"].built


def test_truncated_search_is_the_identified_cell(monkeypatch):
    # with the cap below 0 even a 0-dimensional solution set is not
    # searched; the top row says so in the table and the CSV
    monkeypatch.setattr(dx, "MAX_KERNEL_DIM", -1)
    fam = ls.family("h", "Pi", 0, 4)
    an, rows = cli.dex_family(fam)
    assert [r.identified for r in rows if r.identified] == ["search-truncated"]
    assert "search-truncated" in cli.render_dex_table(fam, an, rows)
    assert ",search-truncated," in cli.render_dex_csv(fam, rows)


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
    # the symmetries of hPi(0|4) leave 14 of its 55 blocks to solve
    assert "blocks 55 solved 14 " in text


def test_console_entrypoint():
    res = subprocess.run(
        [sys.executable, "-m", "char2lie", "fingerprint", "--family", "h", "--form", "Pi", "--even", "0", "--odd", "4"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0
    assert "sdim" in res.stdout


def test_cli_import_pulls_in_no_numpy():
    # the library is pure Python: importing the CLI, which imports every
    # char2lie module, must not load numpy, nor dataclasses and the inspect
    # it imports (the records are named tuples and plain classes, which
    # cost nothing at start-up); and the pipeline, which the CLI imports,
    # must not load the front-end
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    lean = ["numpy", "dataclasses", "inspect"]
    for module, absent in [("char2lie.cli", lean), ("char2lie.pipeline", lean + ["argparse", "char2lie.cli"])]:
        code = f"import sys\nimport {module}\nprint([m for m in {absent!r} if m in sys.modules])\n"
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]", module


def test_records_compare_by_value_and_own_their_containers():
    # the frozen records are equal, and hash equally, exactly when their
    # values are (Space is an lru_cache key, and _sca_mismatch compares
    # basis lists); a pickled copy, as report's children send back, is
    # equal to the original and reads the same
    fam = ls.family("h", "Pi", 0, 4)
    space = fam.space()
    g, _ = ls.build_algebra(fam)
    D = dv.LinearMap((0,) * g.n, 0, (0, 0), 0)
    for r in [fam, space, D, g.basis[0], inv.SuperRank(2, 3), inv.fingerprint(g)]:
        twin = pickle.loads(pickle.dumps(r))
        assert twin is not r and twin == r and hash(twin) == hash(r) and repr(twin) == repr(r)
    assert sf.Space(space.variables, space.kind) == space and space.parity_shift == 0
    assert fam != ls.family("h", "Pi", 4, 0) and D != dv.LinearMap(D.cols, 0, (0, 0), 1)
    assert len({inv.SuperRank(2, 3), inv.SuperRank(2, 3), inv.SuperRank(3, 2)}) == 2
    assert repr(inv.SuperRank(2, 3)) == "SuperRank(even_rank=2, odd_rank=3)"
    # a mutable record gets a fresh container for each instance, not one
    # default shared by all
    for make, name in [
        (lambda: ls.AxiomReport(True), "failures"),
        (lambda: dv.DerivationSpace([], [], {}), "block_stats"),
        (lambda: dx.RecognitionReport(False, False, False, False), "witnesses"),
        (lambda: pipeline.DerivationRow("D0", 0, 0, 0, True, True), "reps"),
        (lambda: pipeline.DexRow("D0", 0, 0, 0, True, "", ""), "built"),
    ]:
        a, b = getattr(make(), name), getattr(make(), name)
        assert a == b and not a and a is not b, name


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
