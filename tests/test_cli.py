"""Command-line interface behavior: formats, exit codes, determinism."""

from __future__ import annotations

import importlib
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from inspect import isclass, isfunction
from pathlib import Path

import pytest

import apolarity
from apolarity.cli import build_parser, run

from test_readme import readme_cli_examples

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def capture(capsys, argv):
    status = run(argv)
    out = capsys.readouterr()
    return status, out.out, out.err


class TestDiff:
    def test_worked_example(self, capsys):
        status, out, _ = capture(capsys, ["diff", "--f", "x1^2*x2 + x2^2", "--nvars", "2"])
        assert status == 0
        assert "dim_Diff = 6" in out
        assert "hilbert = (1,2,2,1)" in out

    def test_json(self, capsys):
        status, out, _ = capture(
            capsys, ["diff", "--f", "x1^2*x2 + x2^2", "--nvars", "2", "--json"]
        )
        data = json.loads(out)
        assert data["dim"] == 6 and data["hilbert"] == [1, 2, 2, 1]


class TestHilbert:
    def test_arrow_output(self, capsys):
        status, out, _ = capture(capsys, ["hilbert", "--f", "x1^6 + x1^3*x2", "--nvars", "2"])
        assert status == 0
        assert "(1,2,1,1,1,1,1) -> (1,1,1,1,1,1,1),(0,1,0)" in out


class TestEnumerate:
    def test_nonsmoothable_14_7(self, capsys):
        status, out, _ = capture(
            capsys,
            ["enumerate", "--length", "14", "--n", "7", "--nonsmoothable-only"],
        )
        assert status == 0
        assert "(1,6,6,1) -> (1,6,6,1)" in out
        assert "total = 1" in out

    def test_json_lines(self, capsys):
        status, out, _ = capture(
            capsys,
            ["enumerate", "--length", "14", "--n", "7", "--nonsmoothable-only", "--json"],
        )
        lines = [json.loads(line) for line in out.splitlines() if line]
        assert len(lines) == 1
        assert lines[0]["H"] == [1, 6, 6, 1]
        assert lines[0]["d"] == 3
        assert lines[0]["deltas"] == [[1, 6, 6, 1], [0, 0, 0]]

    def test_json_lines_to_file(self, capsys, tmp_path):
        target = tmp_path / "candidates.jsonl"
        status, out, _ = capture(
            capsys,
            ["enumerate", "--length", "14", "--n", "7", "--nonsmoothable-only",
             "--json", "--out", str(target)],
        )
        assert status == 0 and out == ""
        lines = [json.loads(line) for line in target.read_text().splitlines()]
        assert lines and lines[0]["H"] == [1, 6, 6, 1]


class TestVerifyTheorem:
    def test_n7_pass(self, capsys):
        status, out, _ = capture(capsys, ["verify-theorem", "--n", "7"])
        assert status == 0
        assert "PASS n=7 cactus_rank=15" in out

    def test_n7_json(self, capsys):
        status, out, _ = capture(capsys, ["verify-theorem", "--n", "7", "--json"])
        data = json.loads(out)
        assert data["passed"] is True
        assert data["cactus_rank"] == 15
        assert data["rows"][0]["v"] == 97 and data["rows"][0]["threshold"] == 113

    def test_a_failed_margin_exits_1(self, capsys, monkeypatch):
        # n = 7 has one row, threshold 113: v = 113 leaves margin 0, which fails
        monkeypatch.setattr("apolarity.bounds._v", lambda decomposition, n, h: (113,))
        status, out, _ = capture(capsys, ["verify-theorem", "--n", "7"])
        assert status == 1
        assert out.endswith("worst margin = 0\nFAIL n=7 cactus_rank=15\n")

    def test_determinism(self, capsys):
        _, first, _ = capture(capsys, ["verify-theorem", "--n", "8"])
        _, second, _ = capture(capsys, ["verify-theorem", "--n", "8"])
        assert first == second


class TestLocalLength:
    def test_degree_two(self, capsys):
        status, out, _ = capture(
            capsys,
            ["local-length", "--f", "x0^2*x1", "--nvars", "2", "--at", "x0"],
        )
        assert status == 0
        assert "length = 2" in out
        assert "hilbert = (1,1)" in out
        assert "apolarity_checked = True" in out
        # the generators are dual polynomials of f dehomogenized, indexed from y1
        assert out.endswith("annihilator (3 generators):\n  y1^2\n  y1^3\n  y1^4\n")

    def test_json_schema(self, capsys):
        status, out, _ = capture(
            capsys,
            ["local-length", "--f", "x0^2*x1", "--nvars", "2", "--at", "x0", "--json"],
        )
        data = json.loads(out)
        assert set(data) >= {"length", "hilbert", "annihilator", "apolarity_checked"}
        assert data["annihilator"] == ["y1^2", "y1^3", "y1^4"]


class TestEachModeBuildsOnlyItsOutput:
    """A command builds the text lines or the --json payload, only the one
    it writes."""

    @pytest.fixture
    def no_payloads(self, monkeypatch):
        """Make every payload builder of `local-length`, `verify-theorem` and
        `hilbert` raise: once `symmetric_decomposition` has returned, the
        decomposition's `hilbert()` and `trimmed_rows()` may run only inside
        `arrow_str`, the text line that reads them."""
        from apolarity import hilbert
        from apolarity.apolar import ApolarScheme
        from apolarity.bounds import TheoremReport
        from apolarity.hilbert import SymmetricDecomposition

        def refuse(*args, **kwargs):
            raise AssertionError("a payload was built in text mode")

        monkeypatch.setattr(ApolarScheme, "as_dict", refuse)
        monkeypatch.setattr(TheoremReport, "as_dict", refuse)
        returned, inside = [], []
        decompose, arrow_str = hilbert.symmetric_decomposition, SymmetricDecomposition.arrow_str

        def recorded(f):
            returned.append(decompose(f))
            return returned[-1]

        def in_arrow_str(self):
            inside.append(self)
            try:
                return arrow_str(self)
            finally:
                inside.pop()

        def guarded(method):
            return lambda self: refuse() if returned and not inside else method(self)

        for name in ("hilbert", "trimmed_rows"):
            monkeypatch.setattr(SymmetricDecomposition, name,
                                guarded(getattr(SymmetricDecomposition, name)))
        monkeypatch.setattr(SymmetricDecomposition, "arrow_str", in_arrow_str)
        monkeypatch.setattr(hilbert, "symmetric_decomposition", recorded)

    @pytest.mark.parametrize("argv", [a for a in readme_cli_examples()
                                      if a[0] in ("local-length", "verify-theorem", "hilbert")],
                             ids=" ".join)
    def test_text_mode_builds_no_payload(self, argv, capsys, request):
        status, expected, _ = capture(capsys, list(argv))
        assert status == 0
        request.getfixturevalue("no_payloads")
        assert capture(capsys, list(argv)) == (0, expected, "")

    def test_payload_builders_raise_under_the_fixture(self, no_payloads, capsys):
        # the fixture is live: the same commands with --json reach a payload
        for argv in (["verify-theorem", "--n", "7"], ["hilbert", "--f", "x1^3", "--nvars", "1"],
                     ["local-length", "--f", "x0^2*x1", "--nvars", "2", "--at", "x0"]):
            assert capture(capsys, argv + ["--json"])[0] == 3

    def test_local_length_json_formats_each_generator_once(self, monkeypatch, capsys):
        from apolarity import apolar, poly

        original, calls = poly.poly_str, []

        def counted(f, base=1):
            calls.append(f)
            return original(f, base)

        monkeypatch.setattr(poly, "poly_str", counted)
        monkeypatch.setattr(apolar, "poly_str", counted)
        F = "x0^3 + 2*x1^3 - x2^3 + 3*x0*x1*x2 + x1^2*x2"
        status, out, _ = capture(capsys, ["local-length", "--f", F, "--nvars", "3",
                                          "--at", "x0 + x1 - x2", "--json"])
        assert status == 0
        generators = json.loads(out)["annihilator"]
        assert len(generators) > 3
        assert [original(g) for g in calls] == generators


class TestAnnihilator:
    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_default_degree_bound_is_deg_f_plus_1(self, capsys, mode):
        status, out, _ = capture(
            capsys, ["annihilator", "--f", "x1^6 + x1^3*x2", "--nvars", "2"] + mode)
        assert status == 0
        if mode:
            assert json.loads(out)["max_degree"] == 7
        else:
            assert out.startswith("kernel dimension (degree <= 7) = ")


class TestWitnessCommands:
    def test_exotic_extend(self, capsys):
        status, out, _ = capture(
            capsys,
            ["exotic-extend", "--f", "x1^6 + x1^3*x2", "--nvars", "2", "--phi", "y1^2"],
        )
        assert status == 0
        assert "x1^6 + x1^4*x3 + x1^3*x2 + x1^2*x3^2 + x1*x2*x3 + x3^3" in out
        assert "hilbert preserved = True" in out

    def test_exotic_extend_json(self, capsys):
        status, out, _ = capture(
            capsys,
            ["exotic-extend", "--f", "x1^6 + x1^3*x2", "--nvars", "2", "--phi", "y1^2", "--json"],
        )
        assert status == 0
        data = json.loads(out)
        assert data["hilbert_preserved"] is True and data["nvars"] == 3

    def test_cusp_witness_fixed_input(self, capsys):
        status, out, _ = capture(capsys, ["cusp-witness", "--f", "x0^3 + x1^3 + x2^3"])
        assert status == 0
        assert out.startswith("input: f = x0^3 + x1^3 + x2^3\n  length_G_scheme = 7 (<= 7: True),")
        assert "failures = 0 / 1" in out

    def test_a_witness_that_fails_its_check_is_counted(self, capsys, monkeypatch):
        original = apolarity.cusp_witness
        # the length, 7, passes its check: failing apolarity alone must fail the report
        monkeypatch.setattr("apolarity.witness.cusp_witness",
                            lambda f: replace(original(f), apolar_ok=False))
        status, out, _ = capture(capsys, ["cusp-witness", "--f", "x0^3 + x1^3 + x2^3"])
        assert status == 1
        assert out.endswith("failures = 1 / 1\n")

    def test_cusp_witness_seed_defaults_to_0(self, capsys):
        _, default, _ = capture(capsys, ["cusp-witness", "--trials", "2"])
        _, seeded, _ = capture(capsys, ["cusp-witness", "--trials", "2", "--seed", "0"])
        assert default == seeded

    def test_cusp_witness_trials_deterministic(self, capsys):
        argv = ["cusp-witness", "--trials", "3", "--seed", "11", "--json"]
        _, first, _ = capture(capsys, argv)
        _, second, _ = capture(capsys, argv)
        assert first == second
        data = json.loads(first)
        assert data["failures"] == 0 and len(data["reports"]) == 3


class TestBoundsCommand:
    def test_candidate_table(self, capsys):
        status, out, _ = capture(
            capsys,
            ["bounds", "--n", "7", "--length", "14", "--nonsmoothable-only"],
        )
        assert status == 0
        assert "H=(1,6,6,1) v=97" in out
        assert "w=113 margin=16" in out

    def test_from_polynomial(self, capsys):
        status, out, _ = capture(
            capsys,
            ["bounds", "--n", "8", "--f", "x1^6 + x1^3*x2", "--nvars", "2"],
        )
        assert status == 0
        assert "v=" in out

    def test_one_line_and_one_record_per_candidate(self, capsys):
        argv = ["bounds", "--n", "7", "--length", "14", "--nonsmoothable-only"]
        _, out, _ = capture(capsys, argv)
        assert out == "H=(1,6,6,1) v=97 (v_theta=91 d_flag=6 d_infty=7) w=113 margin=16\n"
        status, out, _ = capture(capsys, argv + ["--json"])
        assert status == 0
        assert [sorted(record) for record in json.loads(out)] == [sorted((
            "n", "length", "d", "H", "deltas", "embedding_dims", "v_theta", "d_infty",
            "d_flag", "v", "w", "margin"))]


def rename_to_base_0(text: str) -> str:
    """x1, x2, x3 -> x0, x1, x2 (single-digit indices)."""
    for i in range(1, 4):
        text = text.replace(f"x{i}", f"x{i - 1}")
    return text


class TestBase:
    def test_base_defaults(self):
        # README: x0 for the homogeneous forms of local-length and cusp-witness, else x1
        commands = next(a for a in build_parser()._actions if a.dest == "command")
        defaults = {name: sub.get_default("base") for name, sub in commands.choices.items()}
        expected = dict.fromkeys(commands.choices, 1)
        expected.update({"local-length": 0, "cusp-witness": 0})
        # commands that read and print no polynomial take no --base
        expected.update(dict.fromkeys(("enumerate", "verify-theorem", "selftest")))
        assert defaults == expected

    @pytest.mark.parametrize("argv", [["verify-theorem", "--n", "7", "--base", "0"],
                                      ["enumerate", "--length", "14", "--n", "7", "--base", "1"]])
    def test_commands_without_polynomials_refuse_base(self, capsys, argv):
        status, out, err = capture(capsys, argv)
        assert status == 2 and out == ""
        assert "unrecognized arguments: --base" in err

    @pytest.mark.parametrize("command", ["diff", "hilbert"])
    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_base_0_renames_the_base_1_output(self, capsys, command, mode):
        f = "x1^3*x2 + x2^2*x3 + x1^2"
        _, base_1, _ = capture(capsys, [command, "--f", f, "--nvars", "3"] + mode)
        status, base_0, _ = capture(
            capsys, [command, "--f", rename_to_base_0(f), "--nvars", "3", "--base", "0"] + mode)
        assert status == 0
        assert base_0 == rename_to_base_0(base_1)

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_local_length_base_1_matches_the_default(self, capsys, mode):
        default = ["local-length", "--f", "x0^2*x1 + x1^2*x2", "--nvars", "3", "--at", "x0"]
        _, expected, _ = capture(capsys, default + mode)
        status, out, _ = capture(
            capsys, ["local-length", "--f", "x1^2*x2 + x2^2*x3", "--nvars", "3", "--at", "x1",
                     "--base", "1"] + mode)
        assert status == 0
        assert out == expected


class TestErrorsAndPlumbing:
    def test_usage_error_exit_2(self, capsys):
        assert run(["diff", "--nvars", "2"]) == 2  # --f missing

    @pytest.mark.parametrize("argv", [["--help"], ["verify-theorem", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        status, out, _ = capture(capsys, argv)
        assert status == 0
        assert out.startswith("usage: ")

    def test_unknown_flag_exit_2(self, capsys):
        assert run(["diff", "--f", "x1", "--nvars", "1", "--bogus"]) == 2

    def test_parse_error_exit_2(self, capsys):
        status, _, err = capture(capsys, ["diff", "--f", "x9", "--nvars", "2"])
        assert status == 2
        assert "error" in err

    def test_bounds_requires_input(self, capsys):
        status, _, err = capture(capsys, ["bounds", "--n", "7"])
        assert status == 2

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        status, out, _ = capture(
            capsys,
            ["verify-theorem", "--n", "7", "--json", "--out", str(target)],
        )
        assert status == 0
        assert out == ""
        data = json.loads(target.read_text())
        assert data["cactus_rank"] == 15

    def test_selftest_passes(self, capsys):
        status, out, _ = capture(capsys, ["selftest"])
        assert status == 0
        assert "11/11 checks passed" in out

    def test_selftest_json(self, capsys):
        status, out, _ = capture(capsys, ["selftest", "--json"])
        data = json.loads(out)
        assert status == 0 and data["passed"] is True
        assert all(check["ok"] for check in data["checks"])

    def test_out_of_scope_n_is_informational(self, capsys):
        status, out, _ = capture(capsys, ["verify-theorem", "--n", "5"])
        assert status == 0
        assert "informational" in out

    @pytest.mark.parametrize("n", [4, 9])
    def test_out_of_scope_n_claims_no_rank(self, capsys, n):
        status, out, _ = capture(capsys, ["verify-theorem", "--n", str(n)])
        assert status == 0
        assert "PASS" not in out and "cactus_rank=" not in out
        assert out.splitlines()[-1].startswith(f"INFORMATIONAL n={n} rows=")

    def test_unwritable_out_path_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "report.txt"
        status, _, err = capture(capsys, ["verify-theorem", "--n", "7", "--out", str(target)])
        assert status == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv, message", [
        (["bounds", "--n", "7"], "one of --length or --f is required"),
        (["bounds", "--n", "7", "--f", "x1^3"], "--nvars is required with --f"),
        (["cusp-witness"], "provide --f and/or --trials N"),
        (["cusp-witness", "--trials", "0"], "provide --f and/or --trials N"),
        (["diff", "--f", "0", "--nvars", "2"], "diff_space of the zero polynomial is undefined"),
        (["hilbert", "--f", "0", "--nvars", "2"],
         "decomposition of the zero polynomial is undefined"),
        (["annihilator", "--f", "x1^2", "--nvars", "2", "--max-degree", "0"],
         "max_degree must be at least 1"),
        (["local-length", "--f", "0", "--nvars", "2", "--at", "x0"], "F must be nonzero"),
        (["local-length", "--f", "x0^2*x1", "--nvars", "2", "--at", "x0^2"], "l must be linear"),
        (["enumerate", "--length", "14", "--n", "0"], "length and n must be positive"),
        (["enumerate", "--length", "0", "--n", "7"], "length and n must be positive"),
        (["bounds", "--n", "7", "--length", "0"], "length and n must be positive"),
        (["bounds", "--n", "7", "--f", "5", "--nvars", "2"],
         "the bound needs socle degree at least 3"),
        (["verify-theorem", "--n", "0"], "n must be positive"),
        (["exotic-extend", "--f", "0", "--nvars", "2", "--phi", "y1^2"], "f must be nonzero"),
    ])
    def test_checked_usage_errors(self, capsys, argv, message):
        status, out, err = capture(capsys, argv)
        assert (status, out, err) == (2, "", f"error: {message}\n")

    # degenerate inputs without a fixed message; the rest are pinned above
    @pytest.mark.parametrize("argv", [
        [command, "--f", text, "--nvars", "2"] + extra
        for command, extra in (("diff", []), ("hilbert", []), ("annihilator", []),
                               ("bounds", ["--n", "7"]),
                               ("exotic-extend", ["--phi", "y1^2"]))
        for text in ("5", "x3")
    ] + [
        ["local-length", "--f", text, "--nvars", "2", "--at", "x0"] for text in ("5", "x2")
    ] + [
        ["cusp-witness", "--f", text] for text in ("0", "5", "x3^3")
    ] + [
        ["bounds", "--n", "7", "--f", "0", "--nvars", "2"],
        ["bounds", "--n", "0", "--length", "14"],
        ["bounds", "--n", "0", "--f", "x1^3", "--nvars", "2"],
        ["local-length", "--f", "x0^2*x1", "--nvars", "2", "--at", "x0*x1"],
        ["exotic-extend", "--f", "x1^6 + x1^3*x2", "--nvars", "2", "--phi", "x1^2"],
    ], ids=" ".join)
    def test_degenerate_inputs_are_never_internal_errors(self, capsys, argv):
        status, _, err = capture(capsys, argv)
        assert status != 3
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_zero_polynomial_annihilator_is_a_usage_error(self, capsys, mode):
        argv = ["annihilator", "--f", "0", "--nvars", "2"] + mode
        status, out, err = capture(capsys, argv)
        assert (status, out) == (2, "")
        assert err == "error: annihilator of the zero polynomial is the whole ring\n"
        assert "Traceback" not in err

    def test_seeded_mutations_of_readme_examples_are_never_internal_errors(self, capsys):
        """Drop, duplicate or replace tokens of README's example lines.

        Sizes that are slow by design (a million variables, length 100) are
        capped by the generator, so no case needs a timeout.  An error is one
        line on stderr; argparse prints its usage lines before it.
        """
        rng = random.Random(20241018)
        examples = readme_cli_examples()
        pool = sorted({token for argv in examples for token in argv} | {
            "", "0", "-1", "1", "3", "x0", "x9", "y1", "x1^", "x1*", "+", "1/0", "2.5",
            "--json", "--base", "--nvars", "--f", "--n", "--length", "--trials", "--seed",
            "--max-degree", "--at", "--phi", "--no-filter", "--nonsmoothable-only"})
        caps = {"--nvars": 6, "--length": 20, "--n": 9, "--trials": 3, "--max-degree": 10}
        seen = {}
        for _ in range(300):
            argv = list(rng.choice(examples))
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(argv))
                action = rng.choice(("drop", "duplicate", "replace"))
                if action == "drop" and len(argv) > 1:
                    del argv[i]
                elif action == "duplicate":
                    argv.insert(i, argv[i])
                else:
                    argv[i] = rng.choice(pool)
            for i in range(1, len(argv)):
                cap = caps.get(argv[i - 1])
                if cap is not None and argv[i].lstrip("-").isdigit() and int(argv[i]) > cap:
                    argv[i] = str(cap)
            status, _, err = capture(capsys, argv)
            seen[status] = seen.get(status, 0) + 1
            assert status in (0, 1, 2), (argv, err)
            assert "Traceback" not in err, argv
            if status == 2:
                lines = err.splitlines()
                message = lines[-1]
                assert message.startswith("error: ") or ": error: " in message, (argv, err)
                assert lines[:-1] == [] or lines[0].startswith("usage: "), (argv, err)
        assert seen.get(0) and seen.get(2)  # the mutations reach both outcomes

    def test_unwritable_selftest_out_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "report.txt"
        status, out, err = capture(capsys, ["selftest", "--out", str(target)])
        assert status == 2 and out == ""
        assert err.startswith("error: ")

    def test_internal_error_is_not_a_fail(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise AssertionError("bound composition routes disagree")

        monkeypatch.setattr("apolarity.bounds.verify_theorem", broken)
        status, out, err = capture(capsys, ["verify-theorem", "--n", "7"])
        assert status == 3
        assert out == ""
        assert err.startswith("internal error: AssertionError: bound composition routes disagree")


class TestPublicSurface:
    def test_all_names_resolve(self):
        missing = [name for name in apolarity.__all__ if not hasattr(apolarity, name)]
        assert missing == []
        for name in apolarity.__all__:
            value = getattr(apolarity, name)
            # a function or class names its defining module; a constant, its owner in the table
            defined = isclass(value) or isfunction(value)
            module = value.__module__ if defined else f"apolarity.{apolarity._OWNERS[name]}"
            assert getattr(importlib.import_module(module), name) is value, name
        assert set(apolarity.__all__) <= set(dir(apolarity))
        with pytest.raises(AttributeError):
            apolarity.no_such_name
        # a name is looked up on every read, never stored in the package,
        # so a binding swapped in its submodule never goes stale here
        assert apolarity.diff_space is not None
        assert "diff_space" not in vars(apolarity)

    def test_removed_option_is_rejected(self, capsys):
        argv = ["enumerate", "--length", "15", "--n", "8", "--threads", "3"]
        status, _, err = capture(capsys, argv)
        assert status == 2
        assert "unrecognized arguments: " + " ".join(argv[-2:]) in err


def source_env() -> dict:
    """The environment for a child that imports the same source tree as this process."""
    package_root = str(Path(apolarity.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


# Runs one command (or only builds the parser) and prints the package's
# modules, and `json` if the run loaded it.
LIST_MODULES = """\
import contextlib, io, sys
before = set(sys.modules)
import apolarity.cli
status = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        status = apolarity.cli.run(sys.argv[1:])
else:
    apolarity.cli.build_parser()
print(" ".join(sorted(name for name in sys.modules if name.startswith("apolarity")
                     or (name in ("json", "dataclasses", "inspect") and name not in before))))
sys.exit(status)
"""


def loaded_modules(*argv) -> set:
    """The `apolarity` modules a fresh interpreter loads to run `argv`, and
    those of `json`, `dataclasses` and `inspect` that were not loaded before
    `apolarity.cli` was imported."""
    result = subprocess.run([sys.executable, "-c", LIST_MODULES, *argv],
                            capture_output=True, text=True, env=source_env())
    assert result.returncode == 0, result.stderr
    return {name.removeprefix("apolarity.") for name in result.stdout.split()}


class TestImportsPerCommand:
    """Each command compiles only the modules it runs: start-up dominates a CLI run."""

    def test_parser_alone_loads_only_the_cli(self):
        assert loaded_modules() == {"apolarity", "cli"}  # and no json

    def test_verifier_loads_no_polynomial_code(self):
        loaded = loaded_modules("verify-theorem", "--n", "7")
        assert "bounds" in loaded
        assert loaded.isdisjoint(
            {"apolar", "linalg", "poly", "scalars", "witness", "selftest", "json"})

    def test_local_length_loads_no_verifier_code(self):
        [argv] = [a for a in readme_cli_examples() if a[0] == "local-length"]
        loaded = loaded_modules(*argv)
        assert "apolar" in loaded
        assert loaded.isdisjoint(
            {"bounds", "enumeration", "hilbert", "macaulay", "witness", "selftest", "json"})

    @pytest.mark.parametrize("argv", [("verify-theorem", "--n", "7"),
                                      ("enumerate", "--length", "14", "--n", "7")])
    def test_only_json_output_loads_json(self, argv):
        assert "json" not in loaded_modules(*argv)
        assert "json" in loaded_modules(*argv, "--json")

    @pytest.mark.parametrize("argv", [
        ("verify-theorem", "--n", "8", "--json"),
        ("hilbert", "--f", "x1^150 + x2^150", "--nvars", "2"),
        *(a for a in readme_cli_examples()
          if a[0] in ("local-length", "diff", "annihilator", "enumerate", "bounds")),
    ], ids=" ".join)
    def test_value_classes_load_no_dataclasses(self, argv):
        # `dataclasses` imports `inspect`, with `ast`, `dis` and `tokenize`
        assert loaded_modules(*argv).isdisjoint({"dataclasses", "inspect"})

    def test_a_witness_command_loads_dataclasses(self):
        # witness.WitnessReport is a dataclass, and the guard above sees it
        [argv] = [a for a in readme_cli_examples() if a[0] == "cusp-witness"]
        assert {"dataclasses", "inspect"} <= loaded_modules(*argv)


class TestInstalledEntryPoint:
    def test_subprocess_invocation(self):
        # Run the console script declared in pyproject.toml as its own process,
        # with the body a pip-generated launcher executes, so no install is needed.
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["apolarity"]
        module, attr = target.split(":")
        launcher = (
            f"import sys; from {module} import {attr}; "
            f"sys.argv[0] = 'apolarity'; sys.exit({attr}())"
        )
        result = subprocess.run(
            [sys.executable, "-c", launcher, "verify-theorem", "--n", "7"],
            capture_output=True,
            text=True,
            env=source_env(),
        )
        assert result.returncode == 0, result.stderr
        assert "PASS n=7 cactus_rank=15" in result.stdout

    @pytest.mark.skipif(
        shutil.which("apolarity") is None, reason="apolarity console script not installed"
    )
    def test_installed_launcher(self):
        result = subprocess.run(
            ["apolarity", "verify-theorem", "--n", "7"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "PASS n=7 cactus_rank=15" in result.stdout
