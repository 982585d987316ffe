import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sl3tensor.cli import main
from sl3tensor.weights import _PRIME_BOUND


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_facet_command(capsys):
    code, out, _ = run(capsys, "facet", "--p", "5", "--weight", "4,4")
    assert code == 0 and out.strip() == "Vrho"
    code, out, _ = run(capsys, "facet", "--p", "5", "--weight", "6,2")
    assert code == 0 and out.strip() == "W3|4"
    code, out, _ = run(capsys, "facet", "--p", "5", "--weight", "0,0")
    assert code == 0 and out.strip() == "C1"


def test_facet_json(capsys):
    code, out, _ = run(capsys, "facet", "--p", "5", "--weight", "6,2", "--json")
    assert code == 0
    assert json.loads(out) == {"p": 5, "weight": [6, 2], "facet": "W3|4"}


def test_facet_parse_error(capsys):
    code, _, err = run(capsys, "facet", "--p", "5", "--weight", "4;4")
    assert code == 2
    assert err


@pytest.mark.parametrize("argv, message", [
    (["facet", "--weight=-1,3"], "non-dominant weight (-1, 3)"),
    (["decompose", "--lhs=-1,0", "--rhs", "0,0"], "weight (-1, 0) is not restricted for p=5"),
])
def test_a_negative_first_entry_is_joined_to_its_flag(capsys, argv, message):
    # argparse reads a separate "-1,3" as an option, so the help says to join
    # the value to its flag with "="; the weight then reaches the library
    code, out, err = run(capsys, argv[0], "--p", "5", *argv[1:])
    assert code == 2 and out == "" and err == message + "\n"
    flag, value = argv[1].split("=")
    code, out, err = run(capsys, argv[0], "--p", "5", flag, value, *argv[2:])
    assert code == 2 and out == "" and f"argument {flag}: expected one argument" in err
    code, out, _ = run(capsys, argv[0], "--help")
    assert f"{flag}=-1,3 when a < 0" in out


def test_dim_command(capsys):
    code, out, _ = run(capsys, "dim", "--p", "5", "--weight", "0,5", "--kind", "simple")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "dim", "--p", "5", "--weight", "4,4", "--kind", "weyl")
    assert code == 0 and out.strip() == "125"
    code, out, _ = run(capsys, "dim", "--p", "5", "--weight", "1,3", "--kind", "m")
    assert code == 0 and out.strip() == "63"
    code, out, _ = run(capsys, "dim", "--p", "5", "--weight", "6,2", "--kind", "tilting")
    assert code == 0 and out.strip() == "165"
    # a Weyl module needs no facet data, so a weight outside the region works
    code, out, _ = run(capsys, "dim", "--p", "5", "--weight", "20,20", "--kind", "weyl")
    assert code == 0 and out.strip() == "9261"
    code, out, _ = run(capsys, "dim", "--p", "7", "--kind", "simple", "--weight",
                       "6,6", "--json")
    assert code == 0
    assert json.loads(out) == {"p": 7, "kind": "simple", "weight": [6, 6], "dim": 343}


def test_char_command(capsys):
    code, out, _ = run(capsys, "char", "--p", "5", "--weight", "6,2",
                       "--kind", "tilting")
    assert code == 0 and out.strip() == "X(6,2) + X(2,4)"
    code, out, _ = run(capsys, "char", "--p", "5", "--weight", "7,0",
                       "--kind", "weyl", "--basis", "simple", "--json")
    data = json.loads(out)
    assert data["basis"] == "simple"
    assert data["terms"] == [
        {"weight": [7, 0], "coeff": 1}, {"weight": [1, 3], "coeff": 1}
    ]


def test_m_char_command_in_both_bases(capsys):
    # M is built from the m record; its output is pinned in both bases
    base = ("--p", "5", "--kind", "m", "--weight", "1,3")
    code, out, _ = run(capsys, "char", *base)
    assert code == 0 and out == "X(7,0) + X(0,5) + X(0,2)\n"
    code, out, _ = run(capsys, "char", *base, "--basis", "simple")
    assert code == 0 and out == "Xp(7,0) + Xp(0,5) + 2*Xp(1,3) + Xp(0,2)\n"
    for basis, terms in (("weyl", [((7, 0), 1), ((0, 5), 1), ((0, 2), 1)]),
                         ("simple", [((7, 0), 1), ((0, 5), 1), ((1, 3), 2), ((0, 2), 1)])):
        code, out, _ = run(capsys, "char", *base, "--basis", basis, "--json")
        assert code == 0 and json.loads(out) == {
            "basis": basis, "terms": [{"weight": list(w), "coeff": k} for w, k in terms]}
    code, out, _ = run(capsys, "dim", *base)
    assert code == 0 and out == "63\n"
    code, out, _ = run(capsys, "dim", *base, "--json")
    assert code == 0 and json.loads(out) == {"p": 5, "kind": "m", "weight": [1, 3], "dim": 63}


def test_decompose_command(capsys):
    code, out, _ = run(capsys, "decompose", "--p", "5", "--lhs", "3,1", "--rhs", "3,1")
    assert code == 0
    line = out.strip()
    assert line.endswith("[dim 324, verified]")
    parts = set(line.split("  [")[0].split(" + "))
    assert parts == {"M(1,3)", "T(0,2)", "T(6,2)", "T(4,3)"}

    code, out, _ = run(capsys, "decompose", "--p", "5", "--lhs", "2,2", "--rhs", "1,1")
    assert code == 0
    parts = set(out.strip().split("  [")[0].split(" + "))
    assert parts == {"L(3,3)", "T(1,4)", "T(4,1)", "L(2,2)"}
    assert "dim 152" in out

    code, out, _ = run(capsys, "decompose", "--p", "5", "--lhs", "0,0", "--rhs", "0,0")
    assert code == 0 and out.strip().startswith("T(0,0)")


def test_decompose_json_schema(capsys):
    code, out, _ = run(capsys, "decompose", "--p", "5", "--lhs", "3,1",
                       "--rhs", "3,1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["p"] == 5 and data["lhs"] == [3, 1] and data["rhs"] == [3, 1]
    assert data["dim"] == 324 and data["verified"] is True
    summands = {(s["kind"], tuple(s["weight"]), s["mult"]) for s in data["summands"]}
    assert summands == {
        ("M", (1, 3), 1), ("T", (0, 2), 1), ("T", (6, 2), 1), ("T", (4, 3), 1)
    }
    # canonical order: weights by decreasing (t, r)
    weights = [tuple(s["weight"]) for s in data["summands"]]
    keys = [(-(a + b), -a) for a, b in weights]
    assert keys == sorted(keys)


def test_decompose_rejects_unrestricted(capsys):
    code, _, err = run(capsys, "decompose", "--p", "5", "--lhs", "5,0", "--rhs", "0,0")
    assert code == 2 and "restricted" in err


COMMANDS_TAKING_P = (
    ["facet", "--weight", "1,1"],
    ["dim", "--kind", "simple", "--weight", "1,1"],
    ["char", "--weight", "1,1"],
    ["decompose", "--lhs", "1,1", "--rhs", "1,1"],
    ["sweep"],
    ["diagram", "--kind", "delta", "--weight", "1,1"],
)


def test_every_command_rejects_a_non_prime(capsys):
    for argv in COMMANDS_TAKING_P:
        code, out, err = run(capsys, argv[0], "--p", "9", *argv[1:])
        assert code == 2 and out == "", argv
        assert "p must be a prime >= 5, got 9" in err, argv


def test_every_command_rejects_a_non_integer_prime(capsys):
    for argv in COMMANDS_TAKING_P:
        for p in ("x", "1.5", ""):
            code, out, err = run(capsys, argv[0], "--p", p, *argv[1:])
            assert code == 2 and out == "", (argv, p)
            assert f"argument --p: p must be a prime >= 5, got {p}\n" in err, (argv, p)
            assert "int()" not in err and "_prime" not in err, (argv, p)


def test_every_command_rejects_a_prime_that_is_not_ascii_digits(capsys):
    # int() would read these as 11, 11 and 7: the underscore, the
    # Arabic-Indic digits and the fullwidth digit
    for argv in COMMANDS_TAKING_P:
        for p in ("1_1", "\u0661\u0661", "\uff17"):
            code, out, err = run(capsys, argv[0], "--p", p, *argv[1:])
            assert code == 2 and out == "", (argv, p)
            assert f"argument --p: p must be a prime >= 5, got {p}\n" in err, (argv, p)


def test_a_prime_too_large_for_a_float_is_a_usage_error(capsys):
    p = "1" + "0" * 400
    code, out, err = run(capsys, "decompose", "--p", p, "--lhs", "1,0", "--rhs", "0,0")
    assert code == 2 and out == ""
    assert f"argument --p: p must be below {_PRIME_BOUND} for an exact primality test, got {p}\n" in err


def test_a_probable_prime_above_the_primality_bound_is_refused_by_name(capsys):
    # it passes every Miller-Rabin base up to 41, but lies above the bound
    # below which those bases decide primality
    p = "3317044064679887385962123"
    code, out, err = run(capsys, "facet", "--p", p, "--weight", "0,0")
    assert code == 2 and out == ""
    assert f"argument --p: p must be below {_PRIME_BOUND} for an exact primality test, got {p}\n" in err


@pytest.mark.parametrize("lhs, rhs", [("1_0,0", "0,0"), ("1,0", "\u0663,0")])
def test_decompose_rejects_a_weight_that_is_not_ascii_digits(capsys, lhs, rhs):
    code, out, err = run(capsys, "decompose", "--p", "11", "--lhs", lhs, "--rhs", rhs)
    assert code == 2 and out == ""
    assert "expected 'a,b' with integer entries" in err


def test_sweep_rejects_non_prime(capsys):
    code, _, err = run(capsys, "sweep", "--p", "4")
    assert code == 2 and err


def test_sweep_command_and_determinism(capsys):
    code, out1, _ = run(capsys, "sweep", "--p", "5", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "sweep", "--p", "5", "--json")
    assert out1 == out2
    data = json.loads(out1)
    assert data["pairs"] == 625
    assert data["failures"] == []
    assert set(data["summand_counts"]) == {"T", "L", "M"}


def test_sweep_jobs_flag_matches_serial(capsys):
    code, serial, _ = run(capsys, "sweep", "--p", "5", "--no-verify", "--json")
    assert code == 0
    code, parallel, _ = run(capsys, "sweep", "--p", "5", "--no-verify",
                            "--json", "--jobs", "2")
    assert code == 0
    assert serial == parallel


def test_sweep_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-3"):
        code, out, err = run(capsys, "sweep", "--p", "5", "--no-verify",
                             "--jobs", jobs)
        assert code == 2 and out == ""
        assert f"expected a worker count >= 1, got {jobs}" in err


def test_sweep_rejects_non_integer_jobs(capsys):
    for jobs in ("x", "1.5", "", "0_1", "\u0662"):
        code, out, err = run(capsys, "sweep", "--p", "5", "--no-verify",
                             "--jobs", jobs)
        assert code == 2 and out == ""
        assert f"argument --jobs: expected a worker count >= 1, got {jobs}\n" in err
        assert "_jobs" not in err


def test_char_help_lists_the_bases(capsys):
    code, out, _ = run(capsys, "char", "--help")
    assert code == 0
    assert "[--basis {weyl,simple}]" in out and "None" not in out
    code, _, err = run(capsys, "char", "--p", "5", "--weight", "1,1", "--basis", "None")
    assert code == 2 and "invalid choice: 'None'" in err


def test_quiver_verify(capsys):
    code, out, _ = run(capsys, "quiver", "verify")
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().splitlines()[-1].endswith("checks passed")


def test_quiver_dot(capsys):
    code, out, _ = run(capsys, "quiver", "dot", "P2", "--basis", "a'a,b2'b2")
    assert code == 0
    assert out.startswith("digraph")
    assert "(-1)" in out
    code, _, err = run(capsys, "quiver", "dot", "P9")
    assert code == 2 and "unknown module" in err


@pytest.mark.parametrize("argv, message", [
    (("verify", "P1"), "verify takes no module and no --basis"),
    (("verify", "--basis", "zz"), "verify takes no module and no --basis"),
    (("dot", "M2", "--basis", "zz"), "--basis picks the bottom layer of P2 only, not of M2"),
])
def test_quiver_refuses_arguments_it_would_ignore(capsys, argv, message):
    code, out, err = run(capsys, "quiver", *argv)
    assert code == 2 and out == ""
    assert err == message + "\n"


@pytest.mark.parametrize("argv, digest", [
    (("dot", "P1"), "e96c71bf2578ddfdef024a8a409171f9b369525106417d44fb37664019723282"),
    (("dot", "P2"), "fa0b8934b6d0a2f49d3f007b38425ef82241b512e4e03a8804bd662293a13197"),
    (("dot", "P2", "--basis", "a'a,b1'b1"),
     "65cc875cb200daf75265dad1f069bdefe02cc8f19130b960a2cc7bf34f7cd182"),
    (("dot", "P2", "--basis", "a'a,b2'b2"),
     "3a21551b79651ff4380ccfd5586451a4f591e070c288fead099dc53597326382"),
    (("dot", "P3"), "0f90dabc81fe045697a625a22b5df0fd1f32acc2cde8c91f01708b9c7b84846e"),
    (("dot", "P3p"), "e579be49f5ce58a64d659e59328d59346f17935482d9c567821f894288619587"),
    (("dot", "M2"), "f40c3467ffa632d6a9a506501f382e7dcc5eb23032906ce43efb24af86b3c84f"),
    (("verify",), "07c4108e10b140793d22329c2fa3041eb404a24c531e8fef11d672db79944915"),
])
def test_quiver_output_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "quiver", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_diagram_command(capsys):
    code, out, _ = run(capsys, "diagram", "--p", "5", "--kind", "tilting",
                       "--weight", "6,2")
    assert code == 0
    assert out.count('label="2,4"') == 2 and out.count('label="6,2"') == 1

    code, out, _ = run(capsys, "diagram", "--p", "5", "--kind", "m",
                       "--weight", "1,3")
    assert code == 0
    for label in ("1,3", "7,0", "0,2", "0,5"):
        assert f'label="{label}"' in out

    code, out, _ = run(capsys, "diagram", "--p", "5", "--kind", "delta",
                       "--weight", "0,0")
    assert code == 0 and out.count("label=") == 1

    code, _, err = run(capsys, "diagram", "--p", "5", "--kind", "m",
                       "--weight", "0,0")
    assert code == 2 and err


def test_cli_import_does_not_load_numpy():
    """A fresh interpreter loads only what its command runs: neither the
    package nor the CLI loads numpy, dataclasses or the quiver engine, and
    ``quiver`` still finds the engine in a clean process."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    unused = ("numpy", "dataclasses", "inspect", "fractions",
              "sl3tensor.quiver", "sl3tensor.sprime")
    for module in ("sl3tensor", "sl3tensor.cli"):
        code = f"import sys, {module}; print(sorted(set({unused!r}) & set(sys.modules)))"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]", (module, out)
    proc = subprocess.run([sys.executable, "-m", "sl3tensor.cli", "quiver", "verify"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0 and "32/32 checks passed" in proc.stdout
