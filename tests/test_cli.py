"""Command-line interface: JSON shapes, exit codes, error reporting."""

import argparse
import collections
import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

from padiclie import cli, errors, normal_forms, selfsim
from padiclie.cli import main
from padiclie.padic_core import PrimeContext

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"


def readme_commands():
    """The argv of every padiclie line in the README's command-line section."""
    text = README.read_text()
    section = text[text.index("## Command line"):text.index("## Python API")]
    lines = [
        line
        for line in section.replace("\\\n", " ").splitlines()
        if line.startswith("padiclie ")
    ]
    return [shlex.split(line, comments=True)[1:] for line in lines]


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    payload = json.loads(out) if out.strip() else None
    error = json.loads(err) if err.strip() else None
    return code, payload, error


def test_classify_json_shape(capsys):
    code, out, err = run(
        capsys, "classify", "--prime", "5", "--matrix", "1,0,0;0,0,2;0,2,0"
    )
    assert code == 0 and err is None
    assert out["family"] == 4
    assert out["s"] == [0, 0, 0]
    assert out["eps"] == [None, None]
    assert out["eta"] == 0
    assert out["qp_type"] == "sl2"
    assert out["canonical_matrix"][0][0] == "1*p^0"
    assert out["canonical_matrix"][0][1] == "0"


def test_classify_roundtrip_of_emitted_matrix(capsys):
    code, out, _ = run(
        capsys, "classify", "--prime", "3", "--matrix", "3,0,0;0,-6,0;0,0,27"
    )
    assert code == 0
    rows = out["canonical_matrix"]
    literal = ";".join(",".join(row) for row in rows)
    code2, out2, _ = run(capsys, "classify", "--prime", "3", "--matrix", literal)
    assert code2 == 0 and out2 == out


def test_eta_reports_both_ingredients(capsys):
    code, out, _ = run(
        capsys, "eta", "--prime", "7", "--matrix", "1,0,0;0,-3,0;0,0,7"
    )
    assert code == 0
    assert out["eta"] == 1
    assert out["eta"] == (out["disc_valuation_parity"] + out["hilbert_sum"]) % 2
    assert out["qp_type"] == "sl1d"


def test_selfsim_yes_carries_certificate(capsys):
    code, out, _ = run(
        capsys, "selfsim", "--prime", "5", "--matrix", "1,0,0;0,0,2;0,2,0"
    )
    assert code == 0
    assert out["selfsim"]["index_p_self_similar"] is True
    assert out["selfsim"]["sigma_lower_exponent"] == 1
    assert out["selfsim"]["sigma_upper_exponent"] == 1
    cert = out["certificate"]
    assert cert["is_morphism"] is True
    assert len(cert["domain"]) == 3 and len(cert["phi"]) == 3


def test_selfsim_no_carries_obstruction(capsys):
    code, out, _ = run(
        capsys, "selfsim", "--prime", "5", "--matrix", "1,0,0;0,-2,0;0,0,25"
    )
    assert code == 0
    assert out["selfsim"]["index_p_self_similar"] is False
    assert out["selfsim"]["sigma_lower_exponent"] == 2
    assert out["selfsim"]["sigma_upper_exponent"] == 2
    assert out["selfsim"]["table_row"] == 5
    assert out["selfsim"]["witness_exponents"] == [0, 0, 1]
    assert "certificate" not in out
    assert "index-p subalgebra" in out["obstruction"]


def test_selfsim_eta1_sentinel(capsys):
    code, out, _ = run(
        capsys, "selfsim", "--prime", "3", "--matrix=-1,0,0;0,2,0;0,0,3"
    )
    assert code == 0
    assert out["selfsim"]["sigma_lower_exponent"] == 2
    assert out["selfsim"]["sigma_upper_exponent"] == "conjectured_infinite"


def test_named_positional_with_conjecture_flag(capsys):
    code, out, _ = run(capsys, "named", "sl1_delta", "--prime", "7")
    assert code == 0
    diag = [out["canonical"]["canonical_matrix"][i][i] for i in range(3)]
    assert diag == ["1*p^0", "-3*p^0", "1*p^1"]
    assert out["canonical"]["eta"] == 1
    assert out["selfsim"]["index_p_self_similar"] is False
    assert out["conjectured"] is True


def test_named_congruence_level(capsys):
    code, out, _ = run(
        capsys, "named", "sl2_congruence", "--prime", "3", "--k", "2"
    )
    assert code == 0
    assert out["canonical"]["family"] == 4
    assert out["canonical"]["s"] == [2, 2, 2]
    assert out["selfsim"]["index_p_self_similar"] is True
    assert out["conjectured"] is False


def test_named_lowdim(capsys):
    code, out, _ = run(
        capsys, "named", "dim2", "--prime", "3", "--k", "1", "--s", "0"
    )
    assert code == 0
    assert out["dim"] == 2
    assert out["is_morphism"] is True
    assert out["invariant_ideal_found"] is False
    assert out["domain"] == [["1*p^1", "0"], ["0", "1*p^0"]]
    code, out, _ = run(capsys, "named", "dim1", "--prime", "5", "--k", "3")
    assert code == 0
    assert out["dim"] == 1 and out["k"] == 3
    assert out["invariant_ideal_found"] is False


def test_lcs_command(capsys):
    code, out, _ = run(
        capsys, "lcs", "--prime", "3", "--matrix", "1,0,0;0,3,0;0,0,-3",
        "--depth", "3",
    )
    assert code == 0
    assert out["s"] == [0, 1, 1]
    assert out["gamma_exponents"] == [[0, 1, 1], [1, 1, 1], [1, 2, 2]]


def test_lcs_abelian_saturates(capsys):
    code, out, _ = run(
        capsys, "lcs", "--prime", "3", "--matrix", "1,0,0;0,1,0;0,0,1",
        "--depth", "2",
    )
    assert code == 0
    assert out["gamma_exponents"][0] == [0, 0, 0]


def test_subalgebras_count(capsys):
    code, out, _ = run(
        capsys, "subalgebras", "--prime", "3", "--matrix", "1,0,0;0,3,0;0,0,-3"
    )
    assert code == 0
    assert out["count"] == 13
    assert len(out["subalgebras"]) == 13
    closed = [r for r in out["subalgebras"] if r["is_subalgebra"]]
    assert closed and all(r["sub_s_invariants"] for r in closed)


def test_report_includes_group_section(capsys):
    code, out, _ = run(
        capsys, "report", "--prime", "3", "--matrix", "3,0,0;0,-6,0;0,0,27"
    )
    assert code == 0
    assert out["group"]["name"] == "G2(1, 3, 1)"
    assert out["group"]["threshold_met"] is False
    assert out["group"]["prime_threshold"] == 5
    assert out["canonical"]["family"] == 2
    assert out["selfsim"]["index_p_self_similar"] is False


def test_exit_codes_and_error_json(capsys):
    # composite prime
    code, out, err = run(
        capsys, "classify", "--prime", "9", "--matrix", "1,0,0;0,1,0;0,0,1"
    )
    assert code == 2 and err["error"] == "InvalidParameters"
    # p = 2 unsupported
    code, _, err = run(
        capsys, "classify", "--prime", "2", "--matrix", "1,0,0;0,1,0;0,0,1"
    )
    assert code == 4 and err["error"] == "UnsupportedPrime"
    # malformed matrix literal
    code, _, err = run(capsys, "classify", "--prime", "3", "--matrix", "1,2;3")
    assert code == 2
    # non-Lie input
    code, _, err = run(
        capsys, "classify", "--prime", "3", "--matrix", "0,1,0;0,0,1;1,0,0"
    )
    assert code == 5 and err["error"] == "NotLie"
    # degenerate input
    code, _, err = run(
        capsys, "classify", "--prime", "3", "--matrix", "1,0,0;0,1,0;0,0,0"
    )
    assert code == 5 and err["error"] == "Degenerate"
    # missing matrix and name
    code, _, err = run(capsys, "classify", "--prime", "3")
    assert code == 2 and err["error"] == "InvalidInput"


def test_endo_check_chain_search(capsys):
    args = [
        "--prime", "3",
        "--matrix", "1,0,0;0,0,2;0,2,0",
        "--domain", "1,0,0;0,3,0;0,0,1",
        "--phi", "1,0,0;0,1,0;0,0,3",
    ]
    code, out, _ = run(capsys, "endo", "check", *args)
    assert code == 0
    assert out["is_morphism"] is True
    assert out["index_exponent"] == 1
    code, out, _ = run(capsys, "endo", "chain", *args, "--depth", "4")
    assert code == 0
    assert out["regular"] is True
    assert out["index_exponents"] == [1, 1, 1, 1]
    assert len(out["chain"]) == 5
    code, out, _ = run(capsys, "endo", "search", *args, "--search-bound", "4")
    assert code == 0
    assert out["witness"] is None
    assert out["simple_up_to_bound"] is True
    assert out["bound_exponent"] == 4


def test_selftest_command(capsys):
    code, out, _ = run(capsys, "selftest", "--prime", "3", "--seed", "7")
    assert code == 0
    assert out["passed"] is True
    res = out["results"]
    assert res["orbit_invariance"]["passed"] == res["orbit_invariance"]["trials"]
    assert res["eta_dual_route"]["passed"] == res["eta_dual_route"]["trials"]


def test_depth_and_trials_answer_at_their_bounds(capsys):
    bound = selfsim.DEPTH_BOUND
    code, out, _ = run(capsys, "lcs", *ENDO, "--depth", str(bound))
    assert code == 0 and len(out["gamma_exponents"]) == bound
    code, out, _ = run(capsys, "endo", "chain", *ENDO, *STABLE, "--depth", str(bound))
    assert code == 0 and out["index_exponents"] == [1] + [0] * (bound - 1)
    assert len(out["chain"]) == bound + 1
    code, out, _ = run(capsys, "selftest", "--prime", "5", "--trials", str(cli.TRIALS_BOUND))
    assert code == 0 and out["passed"] is True


def test_selftest_trials_flag(capsys):
    code, out, _ = run(capsys, "selftest", "--prime", "5", "--seed", "11", "--trials", "3")
    assert code == 0 and out["passed"] is True
    assert {r["trials"] for r in out["results"].values()} == {3}
    code, out, err = run(capsys, "selftest", "--prime", "5", "--trials", "0")
    assert code == 2 and out is None and err["error"] == "InvalidInput"


def test_precision_reaches_the_canonical_matrix(capsys):
    matrix = "--matrix=1,0,0;0,1*p^1,0;0,0,1*p^20"
    code, out, err = run(capsys, "classify", "--prime", "3", "--precision", "80", matrix)
    assert code == 0 and err is None
    assert (out["family"], out["s"], out["eta"]) == (1, [0, 1, 20], 1)
    for command in ("selfsim", "report"):
        code, out, _ = run(capsys, command, "--prime", "3", "--precision", "80", matrix)
        assert code == 0 and out["canonical"]["s"] == [0, 1, 20]
    code, _, err = run(capsys, "classify", "--prime", "3", "--precision", "32", matrix)
    assert code == 3
    assert err["message"] == "valuation 20 too close to precision window 32"


def test_pretty_flag_emits_indented_json(capsys):
    code = main(
        ["classify", "--prime", "5", "--matrix", "1,0,0;0,0,2;0,2,0", "--pretty"]
    )
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.startswith("{\n  ")


def test_readme_command_lines_succeed(capsys):
    commands = readme_commands()
    assert commands
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_leading_minus_matrix_values(capsys):
    matrix, domain, phi = "-1,0,0;0,0,2;0,2,0", "-1,0,0;0,3,0;0,0,1", "-1,0,0;0,-1,0;0,0,-3"
    code, joined, _ = run(capsys, "classify", "--prime", "5", "--matrix=" + matrix)
    assert code == 0
    assert run(capsys, "classify", "--prime", "5", "--matrix", matrix) == (0, joined, None)
    tail = ["--prime", "3", "--matrix", "1,0,0;0,0,2;0,2,0"]
    code, joined, _ = run(capsys, "endo", "check", *tail, "--domain=" + domain, "--phi=" + phi)
    assert code == 0
    spaced = run(capsys, "endo", "check", *tail, "--domain", domain, "--phi", phi)
    assert spaced == (0, joined, None)


ENDO = ["--prime", "3", "--matrix", "1,0,0;0,3,0;0,0,-3"]
CERT = ["--domain", "1,0,0;0,3,1;0,0,1", "--phi", "1,0,0;0,5,3;0,4,3"]
SMALL = ["--domain", "1,0;0,3", "--phi", "1,0;0,1"]
# phi is the identity on M = <x0, 3 x1, x2>, so the domain chain stops at M:
# nothing but a depth bound ends a walk along it
STABLE = ["--domain", "1,0,0;0,3,0;0,0,1", "--phi", "1,0,0;0,3,0;0,0,1"]


MALFORMED = {
    "L1-s-not-integers": ["named", "L1", "--prime", "3", "--s", "a,b,c"],
    "dim2-s-not-an-integer": ["named", "dim2", "--prime", "3", "--s", "abc"],
    "dim1-k-0": ["named", "dim1", "--prime", "3", "--k", "0"],
    "dim2-k-0": ["named", "dim2", "--prime", "3", "--k", "0"],
    "L1-eps1-minus-1": ["named", "L1", "--prime", "3", "--s", "0,1,2", "--eps1", "-1"],
    "L1-eps1-2": ["named", "L1", "--prime", "3", "--s", "0,1,2", "--eps1", "2"],
    "L3-eps2-2": ["named", "L3", "--prime", "3", "--s", "0,1", "--eps2", "2"],
    "L2-eps2": ["named", "L2", "--prime", "3", "--s", "0,1", "--eps1", "0", "--eps2", "-1"],
    "L3-eps1": ["named", "L3", "--prime", "3", "--s", "0,1", "--eps1", "0"],
    "L4-eps1": ["named", "L4", "--prime", "3", "--s", "1", "--eps1", "0"],
    "L4-eps2": ["named", "L4", "--prime", "3", "--s", "1", "--eps2", "1"],
    "sl2-eps1": ["named", "sl2", "--prime", "3", "--eps1", "0"],
    "dim1-eps2": ["named", "dim1", "--prime", "3", "--eps2", "0"],
    "classify-name-sl1_delta-eps1": ["classify", "--prime", "3", "--name", "sl1_delta", "--eps1", "1"],
    "selfsim-name-L2-eps2": ["selfsim", "--prime", "5", "--name", "L2", "--s", "0,1", "--eps2", "0"],
    "report-name-L4-eps1": ["report", "--prime", "5", "--name", "L4", "--s", "0", "--eps1", "0"],
    "sl2-k": ["named", "sl2", "--prime", "3", "--k", "5"],
    "sl2_congruence-s": ["named", "sl2_congruence", "--prime", "3", "--k", "1", "--s", "4"],
    "L1-k": ["named", "L1", "--prime", "3", "--s", "0,1,2", "--k", "7"],
    "classify-name-sl1_delta-n": ["classify", "--name", "sl1_delta", "--prime", "5", "--n", "3"],
    "dim1-s": ["named", "dim1", "--prime", "3", "--k", "2", "--s", "4"],
    "L4-two-s-values": ["named", "L4", "--prime", "3", "--s", "2,5"],
    "gamma_sl2_sylow-k": ["named", "gamma_sl2_sylow", "--prime", "3", "--n", "2", "--k", "1"],
    "sl1_congruence-n": ["named", "sl1_congruence", "--prime", "3", "--k", "1", "--n", "1"],
    "precision-above-bound": ["classify", *ENDO, "--precision", "1000000000"],
    "eta-2x2": ["eta", "--prime", "3", "--matrix=1,0;0,3"],
    "eta-4x4": ["eta", "--prime", "3", "--matrix=1,0,0,0;0,3,0,0;0,0,1,0;0,0,0,1"],
    "endo-check-2x2": ["endo", "check", *ENDO, *SMALL],
    "endo-chain-2x2": ["endo", "chain", *ENDO, *SMALL],
    "endo-check-1x1-singular": ["endo", "check", *ENDO, "--domain", "0", "--phi", "1"],
    "endo-check-4x4": [
        "endo", "check", *ENDO, "--domain", "1,0,0,0;0,3,0,0;0,0,1,0;0,0,0,1", "--phi", "1,0;0,1",
    ],
    "endo-check-4x4-singular": [
        "endo", "check", *ENDO, "--domain", "1,0,0,0;0,3,0,0;0,0,1,0;0,0,0,0", "--phi", "1,0;0,1",
    ],
    "endo-chain-depth-minus-1": ["endo", "chain", *ENDO, *CERT, "--depth", "-1"],
    "endo-search-bound-minus-1": ["endo", "search", *ENDO, *CERT, "--search-bound", "-1"],
    "lcs-depth-minus-1": ["lcs", *ENDO, "--depth", "-1"],
    "lcs-depth-above-bound": ["lcs", *ENDO, "--depth", str(selfsim.DEPTH_BOUND + 1)],
    "endo-chain-depth-above-bound": [
        "endo", "chain", *ENDO, *STABLE, "--depth", str(selfsim.DEPTH_BOUND + 1),
    ],
    "endo-search-bound-above-bound": [
        "endo", "search", *ENDO, *STABLE, "--search-bound", str(selfsim.DEPTH_BOUND + 1),
    ],
    "selftest-trials-above-bound": ["selftest", "--prime", "5", "--trials", str(cli.TRIALS_BOUND + 1)],
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_exits_2_with_a_typed_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out is None
    assert issubclass(getattr(errors, err["error"]), errors.InvalidInput), err


# det has valuation 16, and the form's largest valuation, 14, lies past the
# half of the precision window 10 that a decision may use
CANCELLING = [
    "--prime", "7", "--precision", "10",
    "--matrix=6104007655641,2034669218547,8138676874209;"
    "2034669218547,678223072849,2712892291480;8138676874209,2712892291480,10851569165563",
]


@pytest.mark.parametrize("command", ["classify", "eta", "selfsim", "report"])
def test_a_block_that_cancels_to_zero_exits_3(capsys, command):
    code = main([command, *CANCELLING])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == "PrecisionLoss"


def test_any_other_padiclie_error_exits_5(monkeypatch, capsys):
    def broken(args):
        raise errors.PathDisagreement("two routes disagree")

    monkeypatch.setitem(cli.HANDLERS, "classify", broken)
    code, out, err = run(capsys, "classify", *ENDO)
    assert (code, out) == (5, None)
    assert err == {"error": "PathDisagreement", "message": "two routes disagree"}


def test_unread_eps_flag_is_named_and_read_flags_still_work(capsys):
    code, _, err = run(capsys, "named", "L2", "--prime", "3", "--s", "0,1", "--eps2", "0")
    assert code == 2 and err["message"] == "L2 does not read --eps2"
    code, _, err = run(capsys, "classify", "--prime", "3", "--name", "L3", "--s", "0,1", "--eps1", "1")
    assert code == 2 and err["message"] == "L3 does not read --eps1"
    code, out, _ = run(capsys, "named", "L2", "--prime", "3", "--s", "0,1", "--eps1", "1")
    assert code == 0 and out["canonical"]["eps"] == [1, None]
    code, out, _ = run(capsys, "selfsim", "--prime", "5", "--name", "L3", "--s", "0,1", "--eps2", "1")
    assert code == 0 and out["canonical"]["eps"] == [None, 1]
    code, _, err = run(capsys, "named", "sl2", "--prime", "3", "--k", "5")
    assert code == 2 and err["message"] == "sl2 does not read --k"
    code, _, err = run(capsys, "classify", "--prime", "5", "--name", "sl1_delta", "--n", "3")
    assert code == 2 and err["message"] == "sl1_delta does not read --n"
    code, _, err = run(capsys, "named", "nosuch", "--prime", "3", "--eps1", "0")
    assert code == 2 and err["message"] == "unknown catalog name 'nosuch'"


def test_main_builds_its_parser_once(monkeypatch, capsys):
    argv = ["classify", "--prime", "5", "--matrix", "1,0,0;0,5,0;0,0,-5"]
    assert main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(argv) == 0
    capsys.readouterr()
    assert built == []


def test_shared_parser_answers_as_a_fresh_one(monkeypatch, capsys):
    """Every argv gives the same exit code, stdout and stderr through the
    shared parser and its dispatch to one subcommand parser, in either
    order, as a top parser built for it gives, parsing the argv itself."""
    argvs = [
        *readme_commands(),
        *MALFORMED.values(),
        ["--help"],
        *([command, "--help"] for command in cli.HANDLERS),
        ["frobnicate", "--prime", "3"],
        ["classify", "--matrix", "1,0,0;0,3,0;0,0,-3"],
        ["classify", "--prime", "5", "--matrix", "1,0,0;0,0,2;0,2,0", "--pretty"],
        ["classify", "--prime", "5", "--matrix=1,0,0;0,5,0;0,0,-5", "--bogus", "1"],
        ["--prime", "3", "classify", "--matrix", "1,0,0;0,3,0;0,0,-3"],
        [],
        ["endo", "frob"],
    ]

    def outcome(argv):
        code = main(list(argv))
        return (code, *capsys.readouterr())

    fresh_parser = cli.build_parser.__wrapped__
    with monkeypatch.context() as patch:
        # no subcommand parser to dispatch to: the top parser reads every argv
        patch.setattr(cli, "build_parser", lambda: (fresh_parser()[0], {}))
        fresh = [outcome(argv) for argv in argvs]
    assert {code for code, _, _ in fresh} == {0, 2}
    assert [outcome(argv) for argv in argvs] == fresh
    assert [outcome(argv) for argv in reversed(argvs)] == fresh[::-1]


def test_a_subcommand_is_parsed_once(monkeypatch, capsys):
    """A command line that starts with a subcommand makes one
    parse_known_args call, its subcommand parser's; the top parser would
    make a second."""
    calls = []
    parse = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    for argv, prog in (
        (["classify", "--prime", "5", "--matrix", "1,0,0;0,5,0;0,0,-5"], "padiclie classify"),
        (["endo", "check", *ENDO, *CERT], "padiclie endo"),
        (["named", "sl2_sylow", "--prime", "5"], "padiclie named"),
    ):
        calls.clear()
        assert main(argv) == 0
        assert calls == [prog]
    capsys.readouterr()


@pytest.mark.parametrize("argv, spans", [
    (["endo", "check", *ENDO, *CERT], 1),
    (["endo", "chain", *ENDO, *CERT, "--depth", "3"], 1),
    (["endo", "search", *ENDO, *CERT, "--search-bound", "2"], None),
    (["selfsim", *ENDO], 1),
], ids=["endo-check", "endo-chain", "endo-search", "selfsim-yes"])
def test_a_command_builds_one_span_per_domain(monkeypatch, capsys, argv, spans):
    """Every integer span a command reads of a given matrix is built once
    (normal_forms.int_span keeps it on the Mat): endo check's __init__,
    bracket law and index all read the domain's one span.  spans, where
    given, is the number of spans built of matrices not known exact (the
    chain's exact terms each have their own)."""
    built = collections.Counter()
    init = normal_forms.IntSpan.__init__

    def counting(self, M, exact=False):
        built[M.to_literal(), exact] += 1
        init(self, M, exact)

    monkeypatch.setattr(normal_forms.IntSpan, "__init__", counting)
    assert main(argv) == 0
    capsys.readouterr()
    inexact = [n for (_, exact), n in built.items() if not exact]
    assert inexact and set(inexact) == {1}, built
    if spans is not None:
        assert sum(inexact) == spans, built


def test_import_loads_every_module_and_none_of_the_heavy_stdlib():
    """A fresh `import padiclie.cli` loads all ten package modules, and none
    of dataclasses, the modules it pulls in, or random (selftest imports it
    when it runs).  So the start-up saving is work removed, not deferred."""
    probe = "import sys, padiclie.cli; print(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(done.stdout.split())
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize", "random"}
    package = {p.stem for p in (SRC / "padiclie").glob("*.py")} - {"__init__"}
    assert len(package) == 9
    assert {"padiclie"} | {f"padiclie.{m}" for m in package} <= loaded


@pytest.mark.parametrize("argv", [
    ["classify", "--prime", "5", "--matrix", "1,0,0;0,5,0;0,0,-5"],  # one short line
    ["subalgebras", "--prime", "7", "--matrix", "1,0,0;0,7,0;0,0,-7"],  # 13 kB, past stdout's buffer
])
def test_stdout_closed_by_its_reader_exits_1_quietly(argv):
    """A reader that closes stdout before the command writes (as `| head`
    may) ends the command with exit 1 and nothing on stderr."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    child = subprocess.Popen(
        [sys.executable, "-m", "padiclie.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    child.stdout.close()  # long before the child has imported the package
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(timeout=60), err) == (1, b"")


YES = ["--prime", "3", "--matrix", "1,1,0;1,4,3;0,3,0"]  # decide-yes, family 3
ENDO_ARGS = ["--prime", "3", "--matrix", "1,0,0;0,0,1;0,1,0", "--domain", "1,0,0;0,3,0;0,0,1",
             "--phi", "1,0,0;0,1,0;0,0,3"]
CERTIFICATE = {"_congruent_elimination": 1}


@pytest.mark.parametrize("argv, expected", [
    (["classify", *YES], {}),
    (["eta", *YES], {}),
    (["selfsim", *YES], CERTIFICATE),
    (["selfsim", "--prime", "5", "--matrix", "1,0,0;0,0,2;0,2,0"], {}),  # hyperbolic: literal
    (["selfsim", "--prime", "5", "--matrix", "1,0,0;0,-2,0;0,0,25"], {}),  # decide-no
    (["subalgebras", "--prime", "5", "--matrix", "1,0,0;0,5,0;0,0,-5"], {}),
    (["subalgebras", "--prime", "3", "--matrix", "3,0,0;0,9,0;0,0,27"], {}),
    (["endo", "check", *ENDO_ARGS], {}),
    (["endo", "chain", *ENDO_ARGS, "--depth", "15"], {}),
    (["endo", "search", *ENDO_ARGS], {}),
    (["endo", "search", "--prime", "3", "--matrix", "1,0,0;0,0,2;0,2,0",
      "--domain", "3,0,0;0,3,0;0,0,3", "--phi", "3,0,0;0,3,0;0,0,3", "--search-bound", "3"], {}),
    (["lcs", *YES], {}),
    (["named", "sl2_sylow", "--prime", "5"], {}),
    (["named", "L4", "--prime", "3", "--s", "1"], {}),
    (["report", *YES], {}),
    (["selftest", "--prime", "5", "--seed", "1"], {}),
], ids=["classify", "eta", "selfsim-yes", "selfsim-yes-hyperbolic", "selfsim-no",
        "subalgebras-p5", "subalgebras-p3", "endo-check", "endo-chain", "endo-search",
        "endo-search-scalar", "lcs", "named-sl2_sylow", "named-L4", "report", "selftest"])
def test_only_the_decide_yes_certificate_runs_a_windowed_elimination(
        monkeypatch, capsys, argv, expected):
    """Every subcommand takes its forms, preimages, Smith divisors and
    Jordan data in integers: none runs snf, and only selfsim's decide-yes
    certificate on a non-hyperbolic matrix runs _congruent_elimination,
    once."""
    runs = collections.Counter()
    for module, name in ((normal_forms, "snf"), (normal_forms, "_congruent_elimination")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, name=name, original=original:
                            runs.update([name]) or original(*args))
    assert main(argv) == 0
    assert runs == collections.Counter(expected)
    if expected:
        assert "certificate" in capsys.readouterr().out
