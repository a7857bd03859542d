import dataclasses
import json
import pathlib
import pickle
import time

import pytest

from aspsigma import cli, logic_to_asp, proofs, soups
from aspsigma.cli import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_NEGATIVE,
    EXIT_OK,
    report_digest,
    roundtrip_asp,
    roundtrip_logic,
    run,
)
from aspsigma.corpus import CorpusSpec, gen_formulas
from aspsigma.errors import CapExceeded, CrossCheckError
from aspsigma.parsing import parse_formula
from aspsigma.syntax import fmt_formula


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def test_solve_no_models(files, capsys):
    path = files("p.lp", "p :- not p.\n")
    assert run(["solve", path]) == EXIT_NEGATIVE
    assert "no stable models" in capsys.readouterr().out


def test_solve_prints_sorted_models(files, capsys):
    path = files("p.lp", "p :- not q. q :- not p. r :- p. r :- q.\n")
    assert run(["solve", path]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["p, r", "q, r"]


def test_solve_json(files, capsys):
    path = files("p.lp", "p.\n")
    assert run(["--json", "solve", path]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data == {"models": [["p"]]}


def test_ground(files, capsys):
    path = files("p.lp", "#domain c, d. p(x) :- not q(x).\n")
    assert run(["ground", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "p(c) :- not q(c)." in out and "p(d) :- not q(d)." in out


def test_entail_verdicts(files, capsys):
    path = files("p.lp", "p :- not q. q :- not p. r :- p. r :- q.\n")
    assert run(["entail", path, "r"]) == EXIT_OK
    assert run(["entail", path, "p"]) == EXIT_NEGATIVE


def test_prove_and_check(files, capsys, tmp_path):
    f = files("f.sig1", "a -> a\n")
    assert run(["prove", f]) == EXIT_OK
    cert = capsys.readouterr().out.strip().splitlines()[-1]
    term = files("cert.term", cert + "\n")
    assert run(["check", term, f]) == EXIT_OK
    assert "ACCEPTED" in capsys.readouterr().out
    bad = files("bad.term", "\\X:b. X\n")
    assert run(["check", bad, f]) == EXIT_NEGATIVE


def test_prove_negative(files):
    f = files("f.sig1", "((a -> b) -> a) -> a\n")
    assert run(["prove", f]) == EXIT_NEGATIVE


def test_parse_error_exit_code(files):
    assert run(["solve", files("p.lp", "p :- \n")]) == EXIT_INPUT
    assert run(["solve", "/nonexistent/x.lp"]) == EXIT_INPUT


def test_cap_exit_code(files):
    # the cap counts atoms that occur negated: five q(c_i) here
    big = files("big.lp", "#domain c1, c2, c3, c4, c5. p(x) :- not q(x).\n")
    assert run(["--cap-base", "4", "solve", big]) == EXIT_BUDGET


# a 50-atom base (e/2 and r/2 over five constants) with no negation
WIDE_POSITIVE = (
    "#domain c1, c2, c3, c4, c5.\n"
    "e(c1, c2). e(c2, c3). e(c3, c4). e(c4, c5).\n"
    "r(x, y) :- e(x, y).\n"
)


def test_solve_wide_negation_free_program(files, capsys):
    path = files("wide.lp", WIDE_POSITIVE)
    assert run(["--json", "solve", path]) == EXIT_OK
    (model,) = json.loads(capsys.readouterr().out)["models"]
    pairs = ["(c1,c2)", "(c2,c3)", "(c3,c4)", "(c4,c5)"]
    assert model == [f"e{x}" for x in pairs] + [f"r{x}" for x in pairs]


def test_entail_wide_negation_free_program(files):
    path = files("wide.lp", WIDE_POSITIVE)
    assert run(["entail", path, "r(c2, c3)"]) == EXIT_OK
    assert run(["entail", path, "r(c1, c3)"]) == EXIT_NEGATIVE
    assert run(["entail", path, "e(c5, c1)"]) == EXIT_NEGATIVE


def test_prove_too_deep_is_budget_not_negative(files, capsys, monkeypatch):
    # provable: a0 -> (a0 -> a1) -> ... -> (a999 -> a1000) -> a1000; its proof
    # is 1000 levels deep, and is found, printed and checked all the same
    steps = [f"(a{i} -> a{i + 1})" for i in range(1000)]
    f = files("chain.sig1", " -> ".join(["a0"] + steps + ["a1000"]) + "\n")
    assert run(["prove", f]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("PROVABLE\n")
    cert = files("chain.cert", out.split("\n", 1)[1])
    assert run(["check", cert, f]) == EXIT_OK
    assert capsys.readouterr().out == "ACCEPTED (long normal form)\n"

    # a command that runs out of stack gives no verdict: exit 3, not 1
    def too_deep(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "_cmd_prove", too_deep)
    assert run(["prove", f]) == EXIT_BUDGET
    assert capsys.readouterr().err.startswith("error: input too deep")


def test_cross_check_failure_is_a_disagreement(files, capsys, monkeypatch):
    def disagree(args):
        raise CrossCheckError("realized model is not stable; translation bug")

    monkeypatch.setattr(cli, "_cmd_soup_to_model", disagree)
    f = files("f.sig1", "a -> a\n")
    assert run(["soup-to-model", f, f]) == EXIT_NEGATIVE
    assert capsys.readouterr().err == (
        "error: cross-check failed: realized model is not stable; translation bug\n"
    )


def test_translate_asp_output_proves(files, capsys, tmp_path):
    p = files("p.lp", "p :- not p.\n")
    out = str(tmp_path / "out.sig1")
    assert run(["translate-asp", p, "--goal", "omega", "-o", out]) == EXIT_OK
    assert run(["prove", out]) == EXIT_OK


def test_translate_asp_stats(files, capsys):
    p = files("p.lp", "p :- not p.\n")
    assert run(["--json", "translate-asp", p, "--goal", "omega"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["axioms"] == 11


def test_translate_formula_header(files, capsys, tmp_path):
    f = files("f.sig1", "b -> a\n")
    out = str(tmp_path / "out.lp")
    assert run(["translate-formula", f, "-o", out]) == EXIT_OK
    text = pathlib.Path(out).read_text()
    assert text.startswith("% source formula: b -> a")
    assert "addresses of length" in text


def test_translate_formula_json_counts_the_clauses(files, capsys):
    # the count is read off the rows, with no clause decoded
    for phi in gen_formulas(CorpusSpec(count=600, seed=0, formula_max_size=20)):
        f = files("f.sig1", fmt_formula(phi) + "\n")
        assert run(["--json", "translate-formula", f]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        t = logic_to_asp.translate(
            parse_formula(fmt_formula(phi)), addr_len=data["addr_len"]
        )
        assert data["clauses"] == len(t.program.clauses)


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "formula, flags, golden",
    [
        # propositional, with a descendant premise (Peirce's law)
        ("((a -> b) -> a) -> a", [], "peirce.lp"),
        ("(forall x. P(x) -> Q(x)) -> P(c) -> Q(d)", [], "forall.lp"),
        (
            "(forall x. P(x) -> Q(x)) -> (forall y. Q(y) -> P(y)) -> P(c) -> Q(d)",
            ["--full-facts"],
            "full_facts.lp",
        ),
    ],
)
def test_translate_formula_text_is_pinned(files, tmp_path, formula, flags, golden):
    f = files("f.sig1", formula + "\n")
    out = tmp_path / "out.lp"
    assert run(["translate-formula", f, *flags, "-o", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


# a mixed-sign body with its positive atom first, a negated 0-ary atom in a
# clause with a variable, a duplicate instance, two clauses that differ only
# in body order, and base atoms (m(d), n(c)) that occur in no clause
GROUND_PROGRAM = """\
#domain c, d.
p(x) :- q(x), not r(x).
k(x) :- not g, q(x).
t(x) :- q(x), s(x).
t(c) :- q(c), s(c).
a :- b, not c.
a :- not c, b.
m(c) :- n(d).
"""


@pytest.mark.hash_seed
@pytest.mark.parametrize(
    "flags, golden", [([], "ground.txt"), (["--json"], "ground.json")]
)
def test_ground_output_is_pinned(files, capsys, flags, golden):
    path = files("p.lp", GROUND_PROGRAM)
    assert run([*flags, "ground", path]) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_soup_pipeline(files, capsys, tmp_path):
    f = files("f.sig1", "((a -> b) -> a) -> a\n")
    soup = str(tmp_path / "z.soup")
    assert run(["soup-find", f, "-o", soup]) == EXIT_OK
    assert run(["soup-check", f, soup]) == EXIT_OK
    capsys.readouterr()
    assert run(["soup-to-model", f, soup]) == EXIT_OK
    model_lines = capsys.readouterr().out
    model = files("m.model", model_lines)
    soup2 = str(tmp_path / "z2.soup")
    assert run(["--addr-len", "1", "model-to-soup", f, model, "-o", soup2]) == EXIT_OK
    assert run(["soup-check", f, soup2]) == EXIT_OK


def test_soup_to_model_at_another_address_length_is_input_error(files, capsys, tmp_path):
    f = files("f.sig1", "b -> a\n")
    soup = str(tmp_path / "z.soup")
    assert run(["--addr-len", "1", "soup-find", f, "-o", soup]) == EXIT_OK
    assert run(["--addr-len", "2", "soup-to-model", f, soup]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "soup uses addresses of length 1 but the translation has 2" in err


@pytest.mark.parametrize("formula", ["a", "(b -> a) -> a"])
@pytest.mark.parametrize("addr_len", ["0", "-1"])
@pytest.mark.parametrize("command", ["soup-find", "soup-to-model"])
def test_address_lengths_below_one_are_input_errors(
    files, capsys, tmp_path, formula, addr_len, command
):
    f = files("f.sig1", formula + "\n")
    soup = str(tmp_path / "z.soup")
    assert run(["soup-find", f, "-o", soup]) == EXIT_OK
    inputs = [f] if command == "soup-find" else [f, soup]
    assert run([f"--addr-len={addr_len}", command, *inputs]) == EXIT_INPUT
    assert "address length must be at least 1" in capsys.readouterr().err


# the address space and its id tables are sized against the emission cap
# before any is built: these ran out of memory, printed a count too long to
# convert to text, or searched for a feasible length without end
@pytest.mark.parametrize(
    "formula, addr_len, command",
    [
        ("a", "26", "translate-formula"),
        ("a", "30", "model-to-soup"),
        ("(b -> a) -> a", "20000", "translate-formula"),
        ("(b -> a) -> a", "200000", "translate-formula"),
    ],
)
def test_address_spaces_past_the_cap_exit_3(
    files, bounded_cli, formula, addr_len, command
):
    inputs = [files("f.sig1", formula + "\n")]
    if command == "model-to-soup":
        inputs.append(files("m.txt", ""))
    code, _, err = bounded_cli(
        ["--timeout", "3", "--addr-len", addr_len, command, *inputs], timeout=5
    )
    assert code == EXIT_BUDGET and "Traceback" not in err
    assert "exceed the cap" in err


def test_a_formula_without_members_is_capped_by_its_address_table(files, bounded_cli):
    # one row at any address length, but 2^21 addresses and their id tables
    # are past the cap, and 2^20 are not
    f = files("f.sig1", "a\n")
    code, _, err = bounded_cli(["--addr-len", "21", "translate-formula", f], timeout=5)
    assert code == EXIT_BUDGET and "id tables of 2^21 addresses" in err
    with pytest.raises(CapExceeded) as e:
        logic_to_asp.translate(parse_formula("a"), addr_len=21)
    assert e.value.feasible == 20


# the address list and the per-address id tables of 2^20 addresses are
# within the cap but take seconds to build: the set-up checks the deadline
@pytest.mark.parametrize(
    "command", ["translate-formula", "soup-to-model", "model-to-soup"]
)
def test_the_translation_set_up_honours_the_timeout(files, bounded_cli, command):
    inputs = [files("f.sig1", "a\n")]
    if command == "soup-to-model":
        soup = f"addr-len: 20\njudgment:\n  addresses: {'0' * 20}\n  goal: a\n"
        inputs.append(files("z.soup", soup))
    if command == "model-to-soup":
        inputs.append(files("m.txt", ""))
    start = time.monotonic()
    code, _, err = bounded_cli(
        ["--timeout", "1", "--addr-len", "20", command, *inputs], timeout=10
    )
    took = time.monotonic() - start
    assert code == EXIT_BUDGET and "Traceback" not in err
    assert "translation budget exhausted" in err
    assert took < 2, f"{command} took {took:.2f} s"


# each exited 0 or 3 as if the value were meant: a NaN timeout switched
# every deadline off, a negative one ran out at once, a negative cap refused
# every program, a negative count ran nothing and negative workers ran serially
@pytest.mark.parametrize(
    "args",
    [
        ["--cap-base", "-1", "solve"],
        ["--timeout", "nan", "solve"],
        ["--timeout", "-1", "solve"],
        ["roundtrip-asp", "--count", "-3"],
        ["roundtrip-logic", "--workers", "-4"],
    ],
    ids=["cap-base", "timeout-nan", "timeout-negative", "count", "workers"],
)
def test_numeric_flags_out_of_range_are_input_errors(files, bounded_cli, args):
    if args[-1] == "solve":
        args = args + [files("p.lp", "p :- not q.\nq :- not p.\n")]
    code, _, err = bounded_cli(args, timeout=10)
    assert code == EXIT_INPUT and "Traceback" not in err


def test_an_infinite_timeout_sets_no_budget(files, capsys):
    path = files("p.lp", "p :- not q.\nq :- not p.\n")
    assert run(["--timeout", "inf", "solve", path]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["p", "q"]


# the corpus draws formulas of 3 symbols or more, so a smaller cap drew
# forever; 0 was read as the default 8
@pytest.mark.parametrize("max_size", ["1", "2", "-5", "0"])
def test_formula_size_caps_below_3_are_input_errors(bounded_cli, max_size):
    code, _, err = bounded_cli(
        ["roundtrip-logic", "--count", "2", "--max-size", max_size], timeout=5
    )
    assert code == EXIT_INPUT and "Traceback" not in err
    assert "formula size cap must be at least 3" in err


def test_soup_check_non_sigma1_is_input_error(files):
    f = files("f.sig1", "P(c) -> ((forall y. P(y)) -> g) -> g\n")
    soup = files("z.soup", "addr-len: 1\njudgment:\n  addresses: 0\n  goal: g\n")
    assert run(["soup-check", f, soup]) == EXIT_INPUT


_JUDGMENT = "judgment:\n  addresses: 0\n  goal: a\n  context:\n    (a -> b) -> a\n"
# (text before the bad line, the bad line)
MALFORMED_SOUPS = {
    "addresses-outside-a-judgment": ("addr-len: 1\n", "addresses: 0"),
    "addr-len-not-a-number": ("", "addr-len: x"),
    "answer-with-three-targets": (
        "addr-len: 1\n" + _JUDGMENT,
        "answer: (psi1, [], [], 0) -> (1, 0, 0)",
    ),
    "member-id-not-a-number": (
        "addr-len: 1\n" + _JUDGMENT,
        "answer: (psiX, [], [], 0) -> (1, 0)",
    ),
    "premise-index-not-a-number": (
        "addr-len: 1\n" + _JUDGMENT,
        "answer: (psi1, [], [], 0) -> (x, 0)",
    ),
}


@pytest.mark.parametrize("command", ["soup-check", "soup-to-model"])
@pytest.mark.parametrize("case", sorted(MALFORMED_SOUPS))
def test_malformed_soup_files_are_input_errors(files, capsys, command, case):
    before, bad_line = MALFORMED_SOUPS[case]
    f = files("f.sig1", "((a -> b) -> a) -> a\n")
    soup = files("z.soup", before + bad_line + "\n")
    assert run([command, f, soup]) == EXIT_INPUT
    assert bad_line in capsys.readouterr().err


# the soup soup-find writes for ((a -> b) -> a) -> a
_PEIRCE_SOUP = (
    "addr-len: 1\n"
    "judgment:\n  addresses: 0\n  goal: a\n  context:\n    (a -> b) -> a\n"
    "judgment:\n  addresses: 1\n  goal: b\n  context:\n    (a -> b) -> a\n    a\n"
    "answer: (psi1, [], [], 0) -> (1, 1)\n"
)
# (the Peirce soup with lines added where write_soup puts none, the line
# reported out of place); the bad line need not come last, and each of these
# files used to read as a valid soup
MISPLACED_SOUP_LINES = {
    "goal-before-the-first-judgment": (
        _PEIRCE_SOUP.replace("judgment:", "goal: b\njudgment:", 1),
        "goal: b",
    ),
    # the first goal is out of place: the second was the one kept
    "second-goal-in-a-judgment": (
        _PEIRCE_SOUP.replace("  goal: a", "  goal: b\n  goal: a"),
        "goal: a",
    ),
    "second-addr-len-header": ("addr-len: 2\n" + _PEIRCE_SOUP, "addr-len: 1"),
    "context-before-the-first-judgment": (
        _PEIRCE_SOUP.replace("judgment:", "context:\n    a\njudgment:", 1),
        "context:",
    ),
    "judgment-lines-after-the-answers": (
        _PEIRCE_SOUP + "  goal: b\n  context:\n    a\n",
        "goal: b",
    ),
}


@pytest.mark.parametrize("command", ["soup-check", "soup-to-model"])
@pytest.mark.parametrize("case", sorted(MISPLACED_SOUP_LINES))
def test_soup_lines_out_of_place_are_input_errors(files, capsys, command, case):
    text, bad_line = MISPLACED_SOUP_LINES[case]
    f = files("f.sig1", "((a -> b) -> a) -> a\n")
    assert run(["soup-find", f]) == EXIT_OK
    assert capsys.readouterr().out == _PEIRCE_SOUP
    soup = files("z.soup", text)
    assert run([command, f, soup]) == EXIT_INPUT
    assert f"out of place: {bad_line!r}" in capsys.readouterr().err


def test_soup_find_provable(files):
    f = files("f.sig1", "a -> a\n")
    assert run(["soup-find", f]) == EXIT_NEGATIVE


def test_soup_find_refutes_a_2000_deep_left_nested_formula(
    files, capsys, default_recursion_limit
):
    # ((...((a0 -> a1) -> a2) ...) -> a2000) -> b nests its premises 2000
    # deep: the key texts of the analysis and the written soup print them
    # on the printers' own stacks
    text = "(" * 2000 + "a0 -> a1" + "".join(f") -> a{i}" for i in range(2, 2001))
    f = files("deep.sig1", text + ") -> b\n")
    with default_recursion_limit():
        assert run(["soup-find", f]) == EXIT_OK
        soup = files("deep.soup", capsys.readouterr().out)
        assert run(["soup-check", f, soup]) == EXIT_OK


def _quantified_chain(n, every_level):
    """((...(forall x. (a0(c) -> a1(c)) -> a2(x)) ...) -> an(x)) -> b, with
    ``forall x.`` on the even levels, or on every level from 2."""
    text = "a0(c) -> a1(c)"
    for i in range(2, n + 1):
        text = f"({text}) -> a{i}(x)"
        if every_level or i % 2 == 0:
            text = "forall x. " + text
    return f"({text}) -> b\n"


def test_deep_quantified_chains_get_verdicts(files, capsys, default_recursion_limit):
    # parsing renames the repeated binders x, and the prover instantiates
    # them, on stacks of their own: each gives its verdict, not exit 3
    sigma1 = files("deep.sig1", _quantified_chain(2000, every_level=False))
    neither = files("neither.sig1", _quantified_chain(2000, every_level=True))
    smaller = files("smaller.sig1", _quantified_chain(1200, every_level=False))
    with default_recursion_limit():
        assert run(["prove", sigma1]) == EXIT_NEGATIVE
        assert capsys.readouterr().out == "NOT PROVABLE\n"
        # forall x. on an odd level is a quantifier in a Sigma1 position
        assert run(["prove", neither]) == EXIT_INPUT
        assert "got Neither" in capsys.readouterr().err
        assert run(["soup-find", smaller]) == EXIT_OK
        soup = files("smaller.soup", capsys.readouterr().out)
        assert run(["soup-check", smaller, soup]) == EXIT_OK


def test_check_rejects_an_instance_that_would_capture(files, capsys):
    # H y instantiates forall x1. forall y. s(y) -> r(y) at y, so the inner
    # binder is renamed apart from y, and H y c needs s(c), not s(y)
    member = "forall x1. forall y. s(y) -> r(y)"
    goal = files("capture.sig1", f"({member}) -> forall y. s(y) -> r(y)\n")
    cert = files("capture.cert", f"\\H:({member}). \\y. \\S:s(y). H y c S\n")
    assert run(["check", cert, goal]) == EXIT_NEGATIVE
    assert "does not match the expected premise s(c)" in capsys.readouterr().out


def test_roundtrip_asp_driver():
    spec = CorpusSpec(count=25, seed=3)
    reports = roundtrip_asp(spec, timeout=10.0)
    assert len(reports) == 25
    assert all(r.agreed for r in reports if not r.skipped)
    assert [r.instance_id for r in reports] == list(range(25))


def test_roundtrip_logic_driver():
    spec = CorpusSpec(count=15, seed=4)
    reports = roundtrip_logic(spec, timeout=30.0)
    assert len(reports) == 15
    assert all(r.agreed for r in reports if not r.skipped)


SPEC_132 = CorpusSpec(count=132, seed=0, formula_max_size=20)
# seed-0 formula 131 is refutable, so its soup is realized as a model
VERDICTS_131 = {"provable": False, "soup_exists": True, "program_has_model": True}


@pytest.fixture
def realizing_131_fails(monkeypatch):
    """``soups.model_from_soup`` raises a CrossCheckError for formula 131
    only; worker processes forked after the patch see it too."""
    phi_131 = gen_formulas(SPEC_132)[131]
    realize = soups.model_from_soup

    def model_from_soup(z, phi, *args, **kwargs):
        if phi == phi_131:
            raise CrossCheckError("realized model is not stable; translation bug")
        return realize(z, phi, *args, **kwargs)

    monkeypatch.setattr(soups, "model_from_soup", model_from_soup)


def test_roundtrip_logic_records_a_cross_check_failure(realizing_131_fails):
    spec = SPEC_132
    alone = cli._logic_instance((spec, 131, None))
    assert alone.error.startswith("CrossCheckError: ")
    assert alone.verdicts == VERDICTS_131
    reports = roundtrip_logic(spec)
    assert len(reports) == 132
    failed = [r for r in reports if r.skipped or not r.agreed]
    assert [r.instance_id for r in failed] == [131]
    assert failed[0].error.startswith("CrossCheckError: ")
    assert failed[0].to_json()["error"] == failed[0].error
    assert "error" not in reports[0].to_json()
    # the verdicts reached before the failed cross-check are kept
    assert failed[0].verdicts == VERDICTS_131
    assert failed[0].to_json()["verdicts"] == VERDICTS_131
    # the job is sent to worker processes too
    assert report_digest(roundtrip_logic(spec, workers=2)) == report_digest(reports)


def test_roundtrip_cli_finishes_after_a_cross_check_failure(capsys, realizing_131_fails):
    args = ["roundtrip-logic", "--count", "132", "--max-size", "20"]
    assert run(args) == EXIT_NEGATIVE
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 133
    assert out[131].startswith("[0131 logic->asp] error: CrossCheckError: ")
    assert "; provable=False soup_exists=True program_has_model=True DISAGREE |" in out[131]
    assert out[-1].startswith("# 132 instances, 1 disagreements, 0 skipped, digest ")
    assert run(["--json"] + args) == EXIT_NEGATIVE
    data = json.loads(capsys.readouterr().out)
    assert data["reports"][131]["verdicts"] == VERDICTS_131


@pytest.fixture
def cooked_soups_lose_their_judgments(monkeypatch):
    """``soups.soup_from_model`` returns its soup without judgments, which
    ``check_soup`` rejects and ``model_from_soup`` refuses to realize."""
    cook = soups.soup_from_model

    def soup_from_model(m, t):
        return dataclasses.replace(cook(m, t), judgments=())

    monkeypatch.setattr(soups, "soup_from_model", soup_from_model)


def test_roundtrip_cli_finishes_after_an_invalid_cooked_soup(
    capsys, cooked_soups_lose_their_judgments
):
    # the first five seed-0 formulas are refutable: each cooked soup is invalid
    args = ["roundtrip-logic", "--count", "5"]
    assert run(args) == EXIT_NEGATIVE
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 6
    for i, line in enumerate(out[:5]):
        assert line.startswith(f"[000{i} logic->asp] provable=False ")
        assert " DISAGREE | " in line
    assert out[-1].startswith("# 5 instances, 5 disagreements, 0 skipped, digest ")
    assert run(["--json"] + args) == EXIT_NEGATIVE
    for r in json.loads(capsys.readouterr().out)["reports"]:
        assert r["soup_checks"] == {"found_soup_valid": True, "model_soup_valid": False}
        assert r["agreement"]["model_soup_valid"] is False
        assert "soup_model_stable" not in r["agreement"]


def test_logic_checks_analyse_each_formula_once(monkeypatch):
    """``_logic_checks`` builds one question table per formula, for the soup
    search, the translation and both soup checks."""
    calls = []
    build = logic_to_asp.analysis

    def counted(phi):
        calls.append(phi)
        return build(phi)

    # soups calls the name it imported
    monkeypatch.setattr(logic_to_asp, "analysis", counted)
    monkeypatch.setattr(soups, "analysis", counted)
    cooked = provable = 0
    for i, phi in enumerate(gen_formulas(CorpusSpec(count=40, seed=0))):
        calls.clear()
        report = cli.RoundTripReport(i, "logic->asp", "")
        cli._logic_checks(report, phi, None)
        assert len(calls) == 1 and calls[0] is phi, i
        assert report.agreed and not report.skipped, i
        cooked += "model_soup_valid" in report.soup_checks
        provable += report.verdicts["provable"]
    assert cooked and provable


@pytest.mark.parametrize("idx, provable", [(11, True), (0, False)])
def test_logic_instance_searches_each_formula_once(monkeypatch, idx, provable):
    """The certificate and the found soup come from one prover search."""
    runs = []
    search = proofs._run

    def counted(*args):
        runs.append(args)
        return search(*args)

    monkeypatch.setattr(proofs, "_run", counted)
    report = cli._logic_instance((CorpusSpec(count=40, seed=0), idx, None))
    assert report.verdicts["provable"] is provable and report.agreed
    assert len(runs) == 1


def test_logic_checks_check_each_soup_once(monkeypatch):
    """A refutable formula's two soups are checked once each: the found soup
    by ``check_soup`` and the cooked soup inside its realization."""
    calls = []
    check = soups._check

    def counted(z, an):
        calls.append(z)
        return check(z, an)

    monkeypatch.setattr(soups, "_check", counted)
    refutable = 0
    for i, phi in enumerate(gen_formulas(CorpusSpec(count=40, seed=0))):
        calls.clear()
        report = cli.RoundTripReport(i, "logic->asp", "")
        cli._logic_checks(report, phi, None)
        assert report.agreed and not report.skipped, i
        if report.verdicts["provable"]:
            assert calls == [], i
        else:
            assert len(calls) == 2, i
            assert set(report.soup_checks) == {
                "found_soup_valid", "model_soup_valid", "soup_model_stable"
            }
            refutable += 1
    assert refutable


def test_digest_reproducible():
    spec = CorpusSpec(count=10, seed=5)
    a = report_digest(roundtrip_asp(spec, timeout=10.0))
    b = report_digest(roundtrip_asp(spec, timeout=10.0))
    assert a == b
    c = report_digest(roundtrip_asp(CorpusSpec(count=10, seed=6), timeout=10.0))
    assert a != c


def test_roundtrip_cli(capsys):
    assert run(["roundtrip-asp", "--count", "8"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "0 disagreements" in out
    assert run(["--json", "roundtrip-logic", "--count", "5"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["disagreements"] == 0
    assert len(data["reports"]) == 5


def test_roundtrip_workers_agree_with_sequential():
    spec = CorpusSpec(count=8, seed=9)
    seq = roundtrip_asp(spec, timeout=10.0, workers=1)
    par = roundtrip_asp(spec, timeout=10.0, workers=2)
    assert report_digest(seq) == report_digest(par)


def test_reports_have_slots_and_survive_worker_processes():
    # a report has no per-instance __dict__, and pickling (the --workers
    # path) keeps every field
    report = cli.RoundTripReport(7, "logic->asp", "a -> a")
    report.verdicts["provable"] = True
    report.timings["prover"] = 0.5
    report.skipped, report.error = "BudgetExceeded: x", "CrossCheckError: y"
    assert not hasattr(report, "__dict__")
    assert pickle.loads(pickle.dumps(report)) == report
    spec = CorpusSpec(count=6, seed=0, formula_max_size=12)
    seq = roundtrip_logic(spec, workers=1)
    par = roundtrip_logic(spec, workers=2)
    assert [r.digest_fields() for r in par] == [r.digest_fields() for r in seq]
    assert all(isinstance(r, cli.RoundTripReport) for r in par)
