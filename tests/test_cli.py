"""Command-line interface: goldens, exit codes, determinism."""

import subprocess
import sys
import time
from pathlib import Path

import pytest

from yokohecke import cli, permcomp, verify
from yokohecke.cli import main
from yokohecke.exactnum import Cyclo, LPoly, cyclotomic_polynomial, root_power
from yokohecke.hecke import HeckeElem, loop_factor, markov_tau
from yokohecke.isomap import BlockMatrix
from yokohecke.links import delta_H, parse_word
from yokohecke.permcomp import Composition
from yokohecke.verify import SuiteConfigError, run_suite
from yokohecke.yokonuma import YElem, e_basis_mul_basis

GOLDEN = Path(__file__).resolve().parent / "golden"
PAIR_A = "1 1 -2 -3 -2 1 1 1 -2 3 -2 1"
PAIR_A_POLY = (
    "2 * u^4 * g^-4 - 8 * u^2 * g^-4 - 4 * v^2 * g^-4 + 8 * g^-4"
    " + 8 * u^-2 * v^2 * g^-4 + 2 * u^-4 * v^4 * g^-4"
)
TREFOIL_POLY = "-1 * u^4 + 2 * u^2 + 1 * v^2"


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# goldens
# ---------------------------------------------------------------------------


def test_invariant_golden(capsys):
    code, out, err = run_main(
        capsys,
        "invariant", "--d", "2", "--n", "4", "--mu0", "1,1", "--word", PAIR_A,
    )
    assert code == 0
    assert err == ""
    assert out == PAIR_A_POLY + "\n"


def test_invariant_all_basic_golden(capsys):
    code, out, err = run_main(
        capsys,
        "invariant", "--d", "2", "--n", "2", "--all-basic", "--word", "1 1 1",
    )
    assert code == 0
    assert out.splitlines() == [
        f"mu0=(0,1) : {TREFOIL_POLY}",
        f"mu0=(1,0) : {TREFOIL_POLY}",
        "mu0=(1,1) : 0",
    ]


def test_invariant_machine_mode(capsys):
    code, out, err = run_main(
        capsys,
        "invariant", "--d", "2", "--n", "2", "--mu0", "1,0",
        "--word", "1 1 1", "--machine",
    )
    assert code == 0
    assert out.splitlines() == ["4 0 0 -1", "2 0 0 2", "0 2 0 1"]


def test_invariant_all_basic_machine_headers(capsys):
    code, out, err = run_main(
        capsys,
        "invariant", "--d", "2", "--n", "2", "--all-basic",
        "--word", "1 1 1", "--machine",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mu0=(0,1)"
    assert "mu0=(1,0)" in lines
    assert lines[-1] == "mu0=(1,1)"  # zero polynomial: header, no terms


def test_invariant_machine_mode_prints_nothing_for_zero(capsys):
    # a support with two letters on a knot: text mode prints 0, machine
    # mode one line per term, that is none
    args = ["invariant", "--d", "3", "--n", "3", "--mu0", "1,0,1", "--word", "1 2"]
    assert run_main(capsys, *args) == (0, "0\n", "")
    assert run_main(capsys, *args, "--machine") == (0, "", "")


def test_homflypt_golden(capsys):
    code, out, err = run_main(capsys, "homflypt", "--n", "2", "--word", "1 1 1")
    assert code == 0
    assert out == TREFOIL_POLY + "\n"


def test_jl_exact_golden(capsys):
    code, out, err = run_main(
        capsys, "jl", "--d", "1", "--S", "1", "--n", "2", "--word", "1 1 1"
    )
    assert code == 0
    assert out == TREFOIL_POLY + "\n"


def test_jl_numeric_unknot(capsys):
    code, out, err = run_main(
        capsys,
        "jl", "--d", "2", "--S", "1,2", "--n", "2", "--word", "1",
        "--q", "0.3+0.4j", "--z", "0.2-0.1j",
    )
    assert code == 0
    assert out == "1+0j\n"


@pytest.mark.parametrize(
    "branch, text",
    [("1", "5.88771379522+3.60071850252j"), ("-1", "-5.88771379522-3.60071850252j")],
    ids=["branch+1", "branch-1"],
)
def test_jl_numeric_hopf_link(capsys, branch, text):
    # The Hopf link has two components, so the branch flips the sign.  Both
    # texts are .12g of the value computed in mpmath at 60 digits.
    code, out, err = run_main(
        capsys,
        "jl", "--d", "2", "--S", "1,2", "--n", "2", "--word", "1 1",
        "--q", "0.3+0.4j", "--z", "0.2-0.1j", "--branch", branch,
    )
    assert (code, err) == (0, "")
    assert out == text + "\n"


def test_list_traces_golden(capsys):
    code, out, err = run_main(capsys, "list-traces", "--d", "2")
    assert code == 0
    assert out.splitlines() == [
        "mu0 = (0,1) ; alpha = 1",
        "mu0 = (1,0) ; alpha = 1",
        "mu0 = (1,1) ; alpha = 1",
    ]


def test_verify_passes_and_prints_lines(capsys):
    code, out, err = run_main(capsys, "verify", "--suite", "markov", "--d", "2", "--n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines
    assert all(line.startswith("PASS ") for line in lines)


def test_verify_iso_small(capsys):
    code, out, err = run_main(capsys, "verify", "--suite", "iso", "--d", "2", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS ") for line in lines)
    assert "PASS iso-embed-d2-n3" in lines


def test_verify_iso_product_compares_nonzero_products(monkeypatch):
    # a product E_chi gt_w * E_chi2 gt_w2 is zero unless chi = w . chi2;
    # half the pairs draw chi2 so, and the check compares real matrices there
    products = []

    def recorded(*args):
        out = e_basis_mul_basis(*args)
        products.append(out)
        return out

    monkeypatch.setattr(verify, "e_basis_mul_basis", recorded)
    results = verify.suite_iso(2, 3, pairs=50)
    assert all(ok for _, ok, _ in results)
    assert len(products) == 50
    assert sum(1 for out in products if out) >= 25


def test_verify_schur_small(capsys):
    code, out, err = run_main(capsys, "verify", "--suite", "schur", "--d", "2", "--n", "2")
    assert code == 0
    assert all(line.startswith("PASS ") for line in out.splitlines())


@pytest.mark.parametrize("d,n", [(1, 2), (2, 3), (3, 3), (4, 4)])
def test_jl_suite_passes(d, n):
    results = run_suite("jl", d, n)
    assert len(results) == 2 * (2**d - 1)
    assert all(ok for _, ok, _ in results), results


def test_verify_jl_prints_only_pass_lines(capsys):
    code, out, err = run_main(capsys, "verify", "--suite", "jl", "--d", "2", "--n", "2")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 6
    assert all(line.startswith("PASS jl-") for line in lines)


def test_verify_jl_fails_when_the_unknot_is_never_defined(capsys, monkeypatch):
    # an undefined value is redrawn a bounded number of times, then fails
    calls = []

    def undefined(*args):
        calls.append(args)
        raise ValueError("undefined")

    monkeypatch.setattr(verify, "jl_numeric", undefined)
    start = time.perf_counter()
    code, out, err = run_main(capsys, "verify", "--suite", "jl", "--d", "2", "--n", "2")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and err == ""
    failed = sorted(line.split(" : ")[0] for line in out.splitlines() if line.startswith("FAIL "))
    assert failed == ["FAIL jl-unknot-S={1,2}", "FAIL jl-unknot-S={1}", "FAIL jl-unknot-S={2}"]
    assert len(calls) == 3 * verify._JL_QZ_DRAWS


# each verify FAIL detail, with the function its check compares broken


def test_verify_iso_product_fail_detail(capsys, monkeypatch):
    calls = []

    def zero_product(*args):
        calls.append(args)
        return {}

    monkeypatch.setattr(verify, "e_basis_mul_basis", zero_product)
    code, out, err = run_main(capsys, "verify", "--suite", "iso", "--d", "2", "--n", "2")
    _, chi, w, chi2, w2 = calls[-1]  # the check stops at its first nonzero product
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if line.startswith("FAIL ")] == [
        f"FAIL iso-product-d2-n2 : psi not multiplicative on E_{chi} gt_{w} * E_{chi2} gt_{w2}"
    ]


def test_verify_markov_fail_details(capsys, monkeypatch):
    draw, drawn, values = verify._random_basis_elem, [], iter(range(100))

    def recorded(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(verify, "_random_basis_elem", recorded)
    monkeypatch.setattr(verify, "rho", lambda spec, x: LPoly.const(spec.d, next(values)))
    code, out, err = run_main(capsys, "verify", "--suite", "markov", "--d", "2", "--n", "2")
    expected = []
    for mu0 in ("(0,1)", "(1,0)", "(1,1)"):  # every value differs: each check fails at once
        x, y, z = drawn[:3]
        del drawn[:3]
        expected += [f"FAIL markov-central-mu0={mu0} : rho(xy) != rho(yx) for {x!r}, {y!r}",
                     f"FAIL markov-stab-mu0={mu0} : stabilization failed for {z!r}"]
    assert (code, err) == (1, "")
    assert out.splitlines() == expected
    assert "<YElem d=2 n=2: [1] t(" in expected[0]


def test_verify_schur_fail_details(capsys, monkeypatch):
    monkeypatch.setattr(verify, "symmetrizing_tilde", lambda x: LPoly.zero(x.d))
    code, out, err = run_main(capsys, "verify", "--suite", "schur", "--d", "2", "--n", "2")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "FAIL schur-identity-d2-n2 : value on 1 is not 4",
        "FAIL schur-basis-d2-n2 : forms differ on t^(0, 0) gt_(1, 2)",
    ]


def test_verify_jl_unknot_value_fail_detail(capsys, monkeypatch):
    calls = []

    def two(*args):
        calls.append(args)
        return 2.0

    monkeypatch.setattr(verify, "jl_numeric", two)
    code, out, err = run_main(capsys, "verify", "--suite", "jl", "--d", "1", "--n", "1")
    q, z = calls[0][3:5]
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "PASS jl-moments-S={1}",
        f"FAIL jl-unknot-S={{1}} : unknot value 2.0 at q={q!r}, z={z!r}",
    ]


# ---------------------------------------------------------------------------
# exit codes and error lines
# ---------------------------------------------------------------------------


def one_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


def test_usage_errors_exit_2(capsys):
    cases = [
        ("frobnicate",),
        ("invariant", "--d", "2", "--n", "2"),  # missing --word and support
        ("invariant", "--d", "2", "--n", "2", "--mu0", "1,1", "--all-basic",
         "--word", "1"),  # mutually exclusive
        ("jl", "--d", "2", "--S", "1,2", "--n", "2", "--word", "1", "--q", "1.5"),
        ("jl", "--d", "2", "--S", "1,2", "--n", "2", "--word", "0", "--q", "0.3"),
        ("jl", "--d", "2", "--S", "x", "--n", "2", "--word", "1", "--q", "0.3"),
        ("verify", "--suite", "nope", "--d", "2", "--n", "2"),
        ("verify", "--suite", "markov", "--d", "9", "--n", "2"),
        ("list-traces", "--d", "0"),
        ("homflypt", "--n", "2"),
    ]
    for argv in cases:
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == "", argv
        assert one_error_line(captured.err), (argv, captured.err)


INVARIANT = ["invariant", "--d", "2", "--n", "2"]
JL = ["jl", "--d", "2", "--S", "1,2", "--n", "2", "--word", "1"]


@pytest.mark.parametrize(
    "argv, text",
    [
        ([], "the following arguments are required: command"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from"
         " 'invariant', 'homflypt', 'jl', 'verify', 'list-traces')"),
        (["homflypt", "--n", "2"], "the following arguments are required: --word"),
        (["homflypt"], "the following arguments are required: --n, --word"),
        (INVARIANT + ["--word", "1"], "one of the arguments --mu0 --all-basic is required"),
        (INVARIANT + ["--mu0", "1,1", "--all-basic", "--word", "1"],
         "argument --all-basic: not allowed with argument --mu0"),
        (["list-traces", "--d", "x"], "argument --d: invalid int value: 'x'"),
        (JL + ["--q", "abc", "--z", "1"], "argument --q: invalid complex value: 'abc'"),
        (["list-traces", "--d"], "argument --d: expected one argument"),
        (["list-traces", "--d", "--n", "2"], "argument --d: expected one argument"),
        (["list-traces", "--d", "2", "extra"], "unrecognized arguments: extra"),
        (["verify", "--suite", "nope", "--d", "2", "--n", "2"],
         "argument --suite: invalid choice: 'nope' (choose from 'iso', 'jl', 'markov', 'schur')"),
        (JL + ["--branch", "2"], "argument --branch: invalid choice: 2 (choose from 1, -1)"),
        (INVARIANT + ["--m", "1,0", "--word", "1"],
         "ambiguous option: --m could match --mu0, --machine"),
        (INVARIANT + ["--all-basic", "--machine=1", "--word", "1"],
         "argument --machine: ignored explicit argument '1'"),
        (["homflypt", "--n", "2", "--word", "1", "--bogus"], "unrecognized arguments: --bogus"),
    ],
)
def test_usage_error_texts(capsys, argv, text):
    assert run_main(capsys, *argv) == (2, "", f"error: {text}\n")


@pytest.mark.parametrize(
    "argv", [["--help"], ["-h"], ["invariant", "-h"], ["jl", "--d", "2", "--he"]]
)
def test_help_prints_the_commands_and_exits_0(capsys, argv):
    code, out, err = run_main(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: yokohecke {invariant,homflypt,jl,verify,list-traces}")
    assert "list-traces --d D" in out


def test_option_grammar(capsys):
    # =value, a value beginning with -, a unique prefix, the last repeat wins
    at_z = ["--z", "0.2-0.1j"]
    expected = run_main(capsys, *JL, "--q", "0.3+0.4j", *at_z)
    assert expected[0] == 0
    assert run_main(capsys, *JL, "--q=0.3+0.4j", *at_z) == expected
    negative = run_main(capsys, *JL, "--q", "-1+2j", *at_z)
    assert negative[0] == 0
    assert run_main(capsys, *JL, "--q=-1+2j", *at_z) == negative
    assert run_main(capsys, "homflypt", "--n", "2", "--word", "-1") == (0, "1\n", "")
    assert run_main(capsys, "homflypt", "--n", "2", "--wo", "1 1 1", "--mach") == run_main(
        capsys, "homflypt", "--n", "2", "--word=1 1 1", "--machine"
    )
    assert run_main(capsys, "homflypt", "--n", "2", "--word", "1", "--word", "1 1 1") == (
        0, TREFOIL_POLY + "\n", "",
    )
    assert run_main(capsys, *INVARIANT, "--all", "--word", "1 1 1") == run_main(
        capsys, *INVARIANT, "--all-basic", "--word", "1 1 1"
    )


def test_computation_errors_exit_1(capsys):
    cases = [
        ("homflypt", "--n", "2", "--word", "t1^1 1"),  # framed word
        ("homflypt", "--n", "2", "--word", "5"),  # strand out of range
        ("invariant", "--d", "2", "--n", "2", "--mu0", "1,2", "--word", "1"),
        ("invariant", "--d", "2", "--n", "2", "--mu0", "0,0", "--word", "1"),
        ("jl", "--d", "2", "--S", "3", "--n", "2", "--word", "1"),
        ("jl", "--d", "2", "--S", "1,2", "--n", "2", "--word", "1",
         "--q", "0", "--z", "1"),
        ("invariant", "--d", "2", "--n", "0", "--mu0", "1,1", "--word", ""),
        ("invariant", "--d", "0", "--n", "2", "--all-basic", "--word", "1"),
        ("invariant", "--d", "2", "--n", "2", "--mu0", "1,x", "--word", "1"),
        ("invariant", "--d", "2", "--n", "2", "--mu0", "1,0,1", "--word", "1"),
        ("jl", "--d", "2", "--S", "1,x", "--n", "2", "--word", "1"),
        ("jl", "--d", "2", "--S", "1,2", "--n", "2", "--word", "1",
         "--q", "3", "--z", "1"),  # lambda vanishes
    ]
    for argv in cases:
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.out == "", argv
        assert one_error_line(captured.err), (argv, captured.err)


@pytest.mark.parametrize("subset,letter", [("0,1", 0), ("1,3", 3)])
def test_jl_subset_outside_the_letters_names_the_letter(capsys, subset, letter):
    code, out, err = run_main(capsys, "jl", "--d", "2", "--S", subset, "--n", "2", "--word", "1 1")
    assert (code, out) == (1, "")
    assert err == f"error: letter {letter} out of range 1..2\n"


@pytest.mark.parametrize("order", ["0", "-2"])
@pytest.mark.parametrize("command", [["invariant", "--all-basic"], ["jl", "--S", "1"]])
def test_order_below_one_names_the_order(capsys, command, order):
    # `parse_word` checks its d with the one order check, `_check_order`
    argv = command + ["--d", order, "--n", "2", "--word", "1"]
    assert run_main(capsys, *argv) == (1, "", f"error: order must be >= 1, got {order}\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--q", "--z"])
def test_jl_rejects_non_finite_input(capsys, flag, value):
    point = {"--q": "0.3+0.4j", "--z": "0.2-0.1j"}
    point[flag] = value
    argv = ["jl", "--d", "2", "--S", "1,2", "--n", "2", "--word", "1 1 1"]
    for name in ("--q", "--z"):
        argv.append(f"{name}={point[name]}")
    code, out, err = run_main(capsys, *argv)
    assert code == 1, argv
    assert out == ""
    assert one_error_line(err), err


def test_jl_non_finite_value_exits_1(capsys):
    # the Hopf link at a tiny q gives nan; the trefoil at a huge q overflows;
    # the two-component unlink at q = 1 has a power of v = 0 below zero
    for word, q, z in (("1 1", "1e-300", "1e-20"), ("1 1 1", "1e300", "0.2"),
                       ("", "1", "0.5")):
        code, out, err = run_main(
            capsys,
            "jl", "--d", "2", "--S", "1,2", "--n", "2", "--word", word,
            "--q", q, "--z", z,
        )
        assert code == 1, word
        assert out == ""
        assert one_error_line(err), err
        assert "not finite" in err, err
    # q*z underflows to 0 although neither is 0
    code, out, err = run_main(
        capsys,
        "jl", "--d", "2", "--S", "1,2", "--n", "2", "--word", "1",
        "--q", "1e-300", "--z", "1e-300",
    )
    assert code == 1
    assert out == ""
    assert one_error_line(err), err
    assert "q=(1e-300+0j), z=(1e-300+0j)" in err, err
    # q*z overflows to inf, where lambda would read as 0
    code, out, err = run_main(
        capsys,
        "jl", "--d", "2", "--S", "1,2", "--n", "2", "--word", "1",
        "--q", "1e308", "--z", "1e308",
    )
    assert code == 1
    assert out == ""
    assert err == "error: q*z overflows at q=(1e+308+0j), z=(1e+308+0j)\n", err


def test_memory_error_is_one_error_line(capsys, monkeypatch):
    def exhausted(word):
        raise MemoryError

    monkeypatch.setattr(cli, "homflypt", exhausted)
    code, out, err = run_main(capsys, "homflypt", "--n", "2", "--word", "1")
    assert code == 1
    assert out == ""
    assert err == "error: out of memory\n"


@pytest.mark.parametrize(
    "call,exc,text",
    [
        (lambda: cyclotomic_polynomial(0), ValueError, "order must be >= 1, got 0"),
        (lambda: Cyclo(3, (1,)), ValueError, "need 2 coefficients for order 3, got 1"),
        (lambda: Cyclo.one(3) + Cyclo.one(4), ValueError, "mixed cyclotomic orders 3 and 4"),
        (lambda: root_power(3, 4, 1), ValueError, "letter 4 out of range 1..3"),
        (lambda: LPoly.one(1) + HeckeElem.one(2), ValueError, "cannot combine LPoly with HeckeElem"),
        (lambda: YElem.one(2, 2) + HeckeElem.one(2), ValueError, "cannot combine YElem with HeckeElem"),
        (lambda: HeckeElem(3, 1, {(1, 2): LPoly.one(1)}), ValueError, "permutation (1, 2) is not in S_3"),
        (
            lambda: BlockMatrix(2, 2, {(Composition((3, 0)), (1, 1, 1), (1, 1, 1), (1, 2, 3)): LPoly.one(2)}),
            ValueError,
            "block (3,0) does not fit level (2,2)",
        ),
        (lambda: permcomp.extend((1, 2), 1), ValueError, "cannot extend to a smaller size"),
        (lambda: permcomp.comp_of((1, 3), 2), ValueError, "letter 3 out of range 1..2"),
        (
            lambda: YElem(2, 2, {((0,), (1, 2)): LPoly.one(2)}),
            ValueError,
            "key ((0,), (1, 2)) does not fit Y_{2,2}",
        ),
        (lambda: YElem.one(2, 3).extend(2), ValueError, "cannot extend to a smaller strand count"),
        (lambda: run_suite("nope", 2, 2), SuiteConfigError, "unknown suite 'nope'"),
        (lambda: run_suite("iso", 2, 9), SuiteConfigError, "suite iso supports 1 <= n <= 4, got 9"),
    ],
)
def test_library_error_texts(call, exc, text):
    # the raises no other in-process test reaches, each with its one text
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == text


# Arabic-Indic digits one, two and three: `int` reads them, a word token does not
ONE, TWO, THREE = "\u0661", "\u0662", "\u0663"


@pytest.mark.parametrize(
    "argv,code,err",
    [
        (["homflypt", "--n", THREE, "--word", "1 2"], 2,
         f"error: argument --n: invalid int value: '{THREE}'"),
        (["homflypt", "--n=1_0", "--word", "1"], 2, "error: argument --n: invalid int value: '1_0'"),
        (["homflypt", "--n", " 3", "--word", "1"], 2, "error: argument --n: invalid int value: ' 3'"),
        (["list-traces", "--d", TWO], 2, f"error: argument --d: invalid int value: '{TWO}'"),
        (JL + ["--q", "0.3", "--z", "0.2", "--branch", ONE], 2,
         f"error: argument --branch: invalid int value: '{ONE}'"),
        (INVARIANT + ["--mu0", f"{ONE},1", "--word", "1"], 1,
         f"error: malformed support '{ONE},1'; expected e.g. 1,0,1"),
        (INVARIANT + ["--mu0", "1,0_0", "--word", "1"], 1,
         "error: malformed support '1,0_0'; expected e.g. 1,0,1"),
        (["jl", "--d", "2", "--S", f" 1,{TWO}", "--n", "2", "--word", "1 1"], 1,
         f"error: malformed subset ' 1,{TWO}'; expected e.g. 1,2"),
        # accepted: one sign, and blanks around a comma-list item
        (["homflypt", "--n", "+2", "--word", "1"], 0, ""),
        (JL + ["--q", "0.3", "--z", "0.2", "--branch", "+1"], 0, ""),
        (INVARIANT + ["--mu0", " 1, 0 ", "--word", "1"], 0, ""),
        (["jl", "--d", "2", "--S", " 1 ,2", "--n", "2", "--word", "1 1"], 0, ""),
    ],
)
def test_integers_are_spelled_as_word_tokens_spell_them(capsys, argv, code, err):
    # every integer of the command line passes `links._is_int`, ASCII digits
    # after at most one sign, the test each word token passes
    got, out, got_err = run_main(capsys, *argv)
    assert (got, got_err) == (code, f"{err}\n" if err else "")
    assert bool(out) == (code == 0)


def test_success_writes_nothing_to_stderr(capsys):
    code, out, err = run_main(capsys, "homflypt", "--n", "2", "--word", "1")
    assert code == 0 and err == ""


# ---------------------------------------------------------------------------
# the installed entry point
# ---------------------------------------------------------------------------


def run_subprocess(*args):
    return subprocess.run(
        [sys.executable, "-m", "yokohecke", *args],
        capture_output=True,
        timeout=120,
    )


def test_entry_point_byte_determinism():
    args = ("invariant", "--d", "2", "--n", "4", "--mu0", "1,1", "--word", PAIR_A)
    first = run_subprocess(*args)
    second = run_subprocess(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.decode() == PAIR_A_POLY + "\n"
    assert first.stderr == b""


def test_entry_point_homflypt_torus_golden():
    # the same command and golden as the installed-package step of CI
    word = " ".join(["1 2 3 4 5 6"] * 8)
    proc = run_subprocess("homflypt", "--machine", "--n", "7", "--word", word)
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == (GOLDEN / "homflypt_torus_7_8.txt").read_bytes()


def test_entry_point_usage_exit():
    proc = run_subprocess("invariant", "--d", "2")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert len(proc.stderr.decode().splitlines()) == 1


def test_commands_import_no_dataclasses_inspect_or_typing():
    # Listed from the child's first statement on, so that whatever the
    # interpreter loads at start-up is not counted.  The command table reads
    # the arguments, so no argparse and none of the gettext and locale it
    # brings along.  Every command but `verify` runs on int coefficients and
    # the sublink formula, so none loads the oracle modules (Y(d,n), psi,
    # the goldens, the suites) or `fractions` and the stdlib it brings; only
    # a numeric `jl` loads `cmath`.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from yokohecke import cli\n"
        "argv = sys.argv[1].split('|')\n"
        "assert cli.main(argv) == 0, argv\n"
        "print(' '.join(sorted(set(sys.modules) - before)), file=sys.stderr)\n"
    )
    commands = [
        "invariant|--d|3|--n|3|--all-basic|--word|1 t2^1 -2 1",
        "jl|--d|2|--S|1,2|--n|2|--word|1 1",
        "jl|--d|2|--S|1,2|--n|2|--word|1 1|--q|0.3+0.4j|--z|0.2-0.1j",
        "homflypt|--n|3|--word|1 -2 1 -2",
        "list-traces|--d|3",
    ]
    banned = {"dataclasses", "inspect", "typing", "argparse", "gettext", "locale",
              "yokohecke.yokonuma", "yokohecke.isomap", "yokohecke._golden",
              "yokohecke.verify", "fractions", "decimal", "numbers"}
    for command in commands:
        proc = subprocess.run(
            [sys.executable, "-c", code, command], capture_output=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stderr.decode().split())
        assert {"yokohecke.cli", "yokohecke.links"} <= loaded
        assert loaded.isdisjoint(banned), (command, sorted(loaded & banned))
        assert ("cmath" in loaded) == ("--q" in command), command


def test_oracle_suites_import_no_fractions_cmath_or_goldens():
    # A suite process, as one `verify` level or one oracle item runs it,
    # counted from its first statement on.  The idempotents' 1/d is an
    # order-d Cyclo, so no suite loads `fractions` and the stdlib it brings;
    # only the jl suite's numeric unknot needs `cmath`, and only iso at
    # (2,4) compares the tabulated goldens.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from yokohecke import verify\n"
        "for level in sys.argv[1:]:\n"
        "    suite, d, n = level.split()\n"
        "    assert all(ok for _, ok, _ in verify.run_suite(suite, int(d), int(n))), level\n"
        "print(' '.join(sorted(set(sys.modules) - before)), file=sys.stderr)\n"
    )
    banned = {"fractions", "decimal", "numbers", "cmath", "yokohecke._golden"}
    for levels, goldens in ((["iso 3 4", "markov 3 3", "schur 3 3"], False),
                            (["iso 2 4"], True)):
        proc = subprocess.run(
            [sys.executable, "-c", code, *levels], capture_output=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stderr.decode().split())
        assert {"yokohecke.verify", "yokohecke.yokonuma", "yokohecke.isomap"} <= loaded
        assert loaded & banned == ({"yokohecke._golden"} if goldens else set()), levels


def test_package_import_runs_no_submodule_and_verify_still_loads():
    code = (
        "import sys\n"
        "import yokohecke\n"
        "print(sorted(m for m in sys.modules if m.startswith('yokohecke.')))\n"
        "from yokohecke import cli\n"
        "sys.exit(cli.main(['verify', '--suite', 'markov', '--d', '2', '--n', '2']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    first, *lines = proc.stdout.splitlines()
    assert first == "[]"
    assert lines and all(line.startswith("PASS ") for line in lines), lines


def split_part(text, n):
    """markov_tau o delta_H of one part of a split union, on its own strands."""
    return markov_tau(delta_H(parse_word(text, n, None)))


def test_large_order_runs_in_small_memory():
    # Q(zeta_4000) has phi = 1600.  A table of x^m mod Phi_d for m < d holds
    # d * phi = 6.4 M ints and peaks past 100 MB; long division keeps none.
    # The empty word on 300 strands is the loop factor to the 299th power.
    # A packed Hecke kernel must count the free loops a term passes, not
    # expand each one on the spot: expanded, a term grows to n keys, each
    # copied again at each of the n levels.
    # On 1000 strands, crossings on strands 1-3 and 999-1000 close to a
    # split union of 997 parts (two sub-braids and 995 unknots), so the
    # trace is the product of the two sub-braid traces and loop_factor **
    # 996, one factor per part after the first; that closed form runs no
    # wide reduction.  With crossings on strands 1-4 the union has 996
    # parts.  The slot width of the packed kernel must follow the crossing
    # count, not n(n-1)/2: at 1000 strands the latter is half a million bits.
    # The child reports the peak of its own address space (VmHWM, Linux):
    # its ru_maxrss would also count this process's RSS at the spawn, which
    # Linux carries across exec, and RUSAGE_CHILDREN here would keep the
    # maximum over every earlier child of this process.
    mu0 = ",".join(["1"] + ["0"] * 3999)
    code = (
        "import re, sys\n"
        "from yokohecke import cli\n"
        "status = cli.main(sys.argv[1:])\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(re.search(r'VmHWM:\\s*(\\d+) kB', fh.read())[1], file=sys.stderr)\n"
        "sys.exit(status)\n"
    )
    runs = [
        (["invariant", "--d", "4000", "--n", "2", "--mu0", mu0, "--word", "1"], "1", 120),
        (["homflypt", "--n", "300", "--word", ""], (loop_factor(1) ** 299).text(), 30),
        (["homflypt", "--n", "1000", "--word", "1 2 1 2 1 2 -999 -999 -999"],
         (split_part("1 2 1 2 1 2", 3) * split_part("-1 -1 -1", 2)
          * loop_factor(1) ** 996).text(), 30),
        (["homflypt", "--n", "1000", "--word", "1 2 3 " * 8 + "-999 -999 -999"],
         (split_part("1 2 3 " * 8, 4) * split_part("-1 -1 -1", 2)
          * loop_factor(1) ** 995).text(), 30),
    ]
    for argv, text, timeout in runs:
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, timeout=timeout
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode() == text + "\n"
        peak_kb = int(proc.stderr.decode().split()[-1])
        assert peak_kb < 64 * 1024, argv[0]
