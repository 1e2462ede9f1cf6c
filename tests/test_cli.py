import argparse
import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from binposet import cli
from binposet.cli import main
from binposet.construct import m_interval, poset_from_string
from binposet.core import poset_from_json, poset_to_json, verify_binomial


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows(out):
    table = {}
    for line in out.splitlines():
        key, _, value = line.partition("\t")
        table.setdefault(key, value)
    return table


@pytest.fixture
def cube_file(tmp_path, cube):
    path = tmp_path / "cube.json"
    path.write_text(poset_to_json(cube))
    return str(path)


@pytest.fixture
def butterfly_file(tmp_path, butterfly):
    path = tmp_path / "butterfly.json"
    path.write_text(poset_to_json(butterfly))
    return str(path)


class TestBuild:
    def test_string_to_stdout(self, capsys):
        code, out, _ = run(capsys, "build", "string", "--word", "1")
        assert code == 0
        p = poset_from_json(out)
        assert p.widths[:2] == (1, 2)

    def test_out_and_dot_files(self, capsys, tmp_path):
        out = tmp_path / "p.json"
        dot = tmp_path / "p.dot"
        code, _, _ = run(
            capsys, "build", "m-interval", "--m", "3",
            "--out", str(out), "--dot", str(dot),
        )
        assert code == 0
        assert poset_from_json(out.read_text()).widths == (1, 4, 4, 1)
        assert "rankdir=BT" in dot.read_text()

    def test_missing_argument(self, capsys):
        code, _, err = run(capsys, "build", "string")
        assert code == 2 and "--word" in err

    def test_construction_error(self, capsys):
        code, _, err = run(
            capsys, "build", "divisible", "--seq", "1,2,3", "--height", "3"
        )
        assert code == 2 and "multiple" in err

    @pytest.mark.parametrize(
        "kind, line",
        [
            ("debruijn", "build debruijn needs --m, --n, and --height"),
            ("boolean-strip", "build boolean-strip needs --n and --k"),
            ("m-interval", "build m-interval needs --m"),
            ("divisible", "build divisible needs --seq and --height"),
        ],
    )
    def test_each_kind_names_its_missing_flags(self, capsys, kind, line):
        code, out, err = run(capsys, "build", kind)
        assert (code, out, err) == (2, "", line + "\n")

    def test_boolean_strip_verifies(self, capsys, tmp_path):
        path = tmp_path / "strip.json"
        code, _, _ = run(
            capsys, "build", "boolean-strip", "--n", "3", "--k", "2", "--out", str(path)
        )
        assert code == 0
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert rows(out)["atoms"] == "1,2,6"

    def test_debruijn(self, capsys):
        code, out, _ = run(
            capsys, "build", "debruijn", "--m", "1", "--n", "2", "--height", "3"
        )
        assert code == 0
        assert poset_from_json(out).widths == (1, 2, 2, 2)


class TestVerify:
    def test_pass(self, capsys, cube_file):
        code, out, _ = run(capsys, "verify", cube_file)
        table = rows(out)
        assert code == 0
        assert table["ok"] == "true"
        assert table["atoms"] == "1,2,3"
        assert table["chains"] == "1,1,2,6"

    def test_fail(self, capsys, tmp_path, not_binomial):
        path = tmp_path / "bad.json"
        path.write_text(poset_to_json(not_binomial))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 1
        assert rows(out)["ok"] == "false"
        assert "chains" in err

    def test_stdin(self, capsys, monkeypatch, cube):
        monkeypatch.setattr(sys, "stdin", io.StringIO(poset_to_json(cube)))
        code, out, _ = run(capsys, "verify", "-")
        assert code == 0 and rows(out)["ok"] == "true"

    def test_corrupt_json(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2 and err

    @pytest.mark.parametrize(
        "doc",
        [
            '{"height":0,"levels":[5],"covers":[]}',
            '{"height":1,"levels":[["a"],["b"]],"covers":[[["a"],"b"]]}',
            '{"height":0,"levels":[[1]],"covers":[]}',
            pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000-deep"),
            pytest.param(
                '{"height":' + "1" * 5000 + ',"levels":[["a"]],"covers":[]}',
                id="integer-of-5000-digits",
            ),
        ],
    )
    def test_malformed_poset(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2 and not out
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "absent.json"))
        assert code == 2 and "cannot read" in err


class TestClassify:
    def test_round_trip(self, capsys, tmp_path):
        out = tmp_path / "w.json"
        assert run(capsys, "build", "string", "--word", "12", "--out", str(out))[0] == 0
        code, text, _ = run(capsys, "classify", str(out))
        assert code == 0 and rows(text)["phi"] == "12"

    def test_unclassifiable(self, capsys, cube_file):
        code, out, err = run(capsys, "classify", cube_file)
        assert code == 1 and not out and err


class TestIntervals:
    def test_counts(self, capsys, tmp_path):
        src = tmp_path / "w.json"
        run(capsys, "build", "string", "--word", "1", "--out", str(src))
        code, out, _ = run(capsys, "intervals", str(src), "--length", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "length\t2"
        assert lines[1] == "classes\t1"
        class_lines = [l for l in lines if l.startswith("class\t")]
        assert len(class_lines) == 1
        assert len(class_lines[0].split("\t")) == 5

    def test_bad_length(self, capsys, cube_file):
        code, _, err = run(capsys, "intervals", cube_file, "--length", "9")
        assert code == 2 and err


class TestCheckSeq:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "check-seq", "1,2,6")
        assert code == 0 and rows(out)["ok"] == "true"

    def test_fail_with_witness(self, capsys):
        code, out, err = run(capsys, "check-seq", "1,2,3,3")
        table = rows(out)
        assert code == 1
        assert table["ok"] == "false"
        assert table["kind"] == "ratio"
        assert table["witness"] == "2,2"
        assert table["value"] == "9/2"
        assert "integer" in err

    def test_bad_horizon(self, capsys):
        code, _, err = run(capsys, "check-seq", "1,2", "--horizon", "9")
        assert code == 2 and "horizon" in err

    def test_unparseable(self, capsys):
        code, _, err = run(capsys, "check-seq", "bananas")
        assert code == 2 and err


class TestDecide:
    def test_realizable_with_witness(self, capsys, tmp_path):
        out = tmp_path / "w.json"
        code, text, _ = run(capsys, "decide", "1,3,4", "--out", str(out))
        table = rows(text)
        assert code == 0
        assert table["verdict"] == "realizable"
        assert table["recipe"] == "m_interval(3)"
        witness = poset_from_json(out.read_text())
        rep = verify_binomial(witness)
        assert rep.ok and rep.atoms.head == (1, 3, 4)

    def test_non_realizable(self, capsys):
        code, out, _ = run(capsys, "decide", "1,2,3,6")
        assert code == 1 and rows(out)["verdict"] == "non-realizable"

    def test_unknown(self, capsys):
        code, out, _ = run(capsys, "decide", "1,2,5")
        assert code == 3 and rows(out)["verdict"] == "unknown"


class TestSearchExtension:
    def test_found(self, capsys, tmp_path, butterfly_file):
        out = tmp_path / "ext.json"
        code, text, _ = run(
            capsys, "search-extension", butterfly_file,
            "--target", "1,2,2,2", "--out", str(out),
        )
        table = rows(text)
        assert code == 0
        assert table["verdict"] == "found"
        assert table["classes"] == "1"
        rep = verify_binomial(poset_from_json(out.read_text()))
        assert rep.ok and rep.atoms.head == (1, 2, 2, 2)

    def test_exhausted(self, capsys, tmp_path):
        base = tmp_path / "m3.json"
        base.write_text(poset_to_json(m_interval(3)))
        code, out, _ = run(
            capsys, "search-extension", str(base), "--target", "1,3,4,6"
        )
        assert code == 1 and rows(out)["verdict"] == "exhausted"

    def test_capped(self, capsys, butterfly_file):
        code, out, err = run(
            capsys, "search-extension", butterfly_file,
            "--target", "1,2,2,2", "--max-nodes", "1",
        )
        assert code == 3
        assert rows(out)["verdict"] == "capped"
        assert "budget" in err

    def test_negative_node_budget(self, capsys, butterfly_file):
        code, out, err = run(
            capsys, "search-extension", butterfly_file,
            "--target", "1,2,2,2", "--max-nodes", "-1",
        )
        assert code == 2 and not out
        assert "max_nodes" in err

    def test_target_mismatch(self, capsys, cube_file):
        code, _, err = run(
            capsys, "search-extension", cube_file, "--target", "1,2,4,8"
        )
        assert code == 2 and "do not match" in err


class TestExportDot:
    def test_stdout(self, capsys, cube_file):
        code, out, _ = run(capsys, "export-dot", cube_file)
        assert code == 0 and "rankdir=BT" in out


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def small_posets(draw):
    """Small bounded-below diagrams with no dangling element, sometimes
    spoiled: a repeated id, a cover that skips a level, a wrong height, or
    an arbitrary JSON value in place of one part."""
    widths = [1] + draw(st.lists(st.integers(1, 3), max_size=3))
    levels = [[f"{r}:{i}" for i in range(w)] for r, w in enumerate(widths)]
    covers = []
    for lo, hi in zip(levels, levels[1:]):
        row = [[a, b] for a in lo for b in hi if draw(st.booleans())]
        row += [[lo[0], b] for b in hi if not any(c[1] == b for c in row)]
        row += [[a, hi[0]] for a in lo if not any(c[0] == a for c in row)]
        covers += row
    height = len(levels) - 1
    spoil = draw(st.sampled_from(["none", "none", "id", "cover", "height", "value", "value"]))
    if spoil == "id":
        levels[-1].append("0:0")
    elif spoil == "cover":
        covers.append([levels[0][0], levels[-1][0]])
    elif spoil == "height":
        height += 1
    elif spoil == "value":
        # any JSON value in place of one level, one id, one cover or one endpoint
        junk = draw(json_values)
        spot = draw(st.sampled_from(["level", "id", "cover", "endpoint"]))
        if spot == "level":
            levels[-1] = junk
        elif spot == "id":
            levels[-1][-1] = junk
        elif covers:
            c = draw(st.sampled_from(covers))
            if spot == "cover":
                covers[covers.index(c)] = junk
            else:
                c[draw(st.integers(0, 1))] = junk
    return {"height": height, "levels": levels, "covers": covers}


def small_binomial_posets():
    return st.sampled_from([m_interval(2), m_interval(3), poset_from_string("12112")]).map(
        lambda p: json.loads(poset_to_json(p))
    )


junk_documents = (
    json_values
    | st.fixed_dictionaries({"height": json_values, "levels": json_values, "covers": json_values})
    | st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30)
    | st.binary(max_size=30)
)
commands = st.sampled_from(
    [["verify"], ["classify"], ["intervals", "--length", "1"], ["export-dot"]]
)


def run_on_file(tmp_path_factory, doc, command) -> int:
    path = tmp_path_factory.mktemp("doc") / "poset.json"
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    argv = [command[0], str(path), *command[1:]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


class TestArbitraryInput:
    """Whatever a poset file holds, each command ends with an exit code."""

    @given(doc=junk_documents, command=commands)
    @example(doc=b"\xff\xfe{}", command=["verify"])
    def test_junk(self, tmp_path_factory, doc, command):
        assert run_on_file(tmp_path_factory, doc, command) in {0, 1, 2, 3}

    @given(doc=small_posets() | small_binomial_posets(), command=commands)
    def test_small_posets(self, tmp_path_factory, doc, command):
        assert run_on_file(tmp_path_factory, doc, command) in {0, 1, 2, 3}


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "m-interval", "--m", "3", "--out", "{missing}"],
        ["build", "m-interval", "--m", "3", "--dot", "{missing}"],
        ["decide", "1,2,6", "--out", "{missing}"],
        ["search-extension", "{base}", "--target", "1,2,2,2", "--out", "{missing}"],
        ["export-dot", "{base}", "--out", "{missing}"],
    ],
    ids=["build --out", "build --dot", "decide --out", "search-extension --out", "export-dot --out"],
)
def test_output_into_a_missing_directory(capsys, tmp_path, butterfly_file, argv):
    missing = tmp_path / "no-such-dir" / "out"
    code, _, err = run(capsys, *(a.format(missing=missing, base=butterfly_file) for a in argv))
    assert code == 2
    assert len(err.splitlines()) == 1 and str(missing) in err
    assert not missing.parent.exists()


# each subcommand, in help order, with arguments it accepts and a bad option
# value (verify and classify take no option, so theirs is one they lack)
SUBCOMMANDS = (
    ("build", ["string"], ["string", "--height", "x"]),
    ("verify", ["p.json"], ["p.json", "--length", "1"]),
    ("classify", ["p.json"], ["p.json", "--out", "x"]),
    ("intervals", ["p.json", "--length", "1"], ["p.json", "--length", "x"]),
    ("check-seq", ["1,2"], ["1,2", "--horizon", "x"]),
    ("decide", ["1,2"], ["1,2", "--height", "x"]),
    (
        "search-extension",
        ["p.json", "--target", "1"],
        ["p.json", "--target", "1", "--max-nodes", "x"],
    ),
    ("export-dot", ["p.json"], ["p.json", "--out"]),
)
PARITY_CASES = [
    argv
    for name, accepted, bad in SUBCOMMANDS
    # help, a missing required argument, a bad option value, and an
    # unrecognized argument, which the top parser reports with its usage
    for argv in ([name, "-h"], [name], [name, *bad], [name, *accepted, "--bogus"])
] + [[], ["-h"], ["--help", "verify"], ["--", "verify", "x"], ["bogus"], ["bogus", "-h"]]


class TestOneSubparser:
    """A call that names a subcommand builds that subparser alone, and says
    what a parser holding every subcommand says."""

    @staticmethod
    def full_tree(monkeypatch, capsys, call):
        every = cli._parser
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", lambda command=None: every())
            code = call()
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("argv", PARITY_CASES, ids=" ".join)
    def test_same_as_the_full_tree(self, monkeypatch, capsys, tmp_path, argv):
        monkeypatch.chdir(tmp_path)  # "-- verify x" reads x, which is absent
        want = self.full_tree(monkeypatch, capsys, lambda: main(list(argv)))
        assert run(capsys, *argv) == want

    @pytest.mark.parametrize("argv", [["verify", "-h"], ["check-seq", "1,2,6"], ["-h"], []])
    def test_argv_from_sys(self, monkeypatch, capsys, argv):
        monkeypatch.setattr(sys, "argv", ["binposet", *argv])
        want = self.full_tree(monkeypatch, capsys, lambda: main(None))
        code = main(None)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == want

    def test_subparsers_built(self, monkeypatch):
        built = []
        add_parser = argparse._SubParsersAction.add_parser

        def spy(self, name, **kwargs):
            built.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        for name, _, _ in SUBCOMMANDS:
            built.clear()
            assert main([name, "-h"]) == 0
            assert built == [name]
        built.clear()
        assert main(["-h"]) == 0
        assert built == [name for name, _, _ in SUBCOMMANDS]


class TestTopLevel:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_entry_point(self):
        # Start the console script declared in pyproject.toml the way an
        # installed wrapper does, so no install is needed: import the
        # target, put the script name in argv[0] and exit with its result.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["binposet"]
        match = re.fullmatch(r"(?P<module>[\w.]+):(?P<attr>\w+)", target)
        assert match, target
        code = (
            "import importlib, sys\n"
            f"module = importlib.import_module({match['module']!r})\n"
            f"target = getattr(module, {match['attr']!r})\n"
            "sys.argv[0] = 'binposet'\n"
            "sys.exit(target())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, "check-seq", "1,1,2..."],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ok\ttrue" in proc.stdout

    @pytest.mark.skipif(
        shutil.which("binposet") is None,
        reason="binposet console script not installed",
    )
    def test_installed_console_script(self):
        proc = subprocess.run(
            ["binposet", "check-seq", "1,1,2..."],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "ok\ttrue" in proc.stdout

    def test_module_invocation(self, tmp_path, cube):
        path = tmp_path / "cube.json"
        path.write_text(poset_to_json(cube))
        proc = subprocess.run(
            [sys.executable, "-m", "binposet.cli", "classify", str(path)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.strip()
