"""Acceptance drive: one test per criterion, each printing a PASS line.

The small-instance corpus is fixed by seed; every check here compares two
independently implemented routes and requires exact agreement.
"""

import math
import time

import pytest

from aspsigma.asp_to_logic import translate as translate_asp
from aspsigma.cli import report_digest, roundtrip_asp, roundtrip_logic
from aspsigma.corpus import CorpusSpec, fresh_goal_atom, gen_programs
from aspsigma.engine import ground, interpretation, program_base, stable_models
from aspsigma.logic_to_asp import translate as translate_formula
from aspsigma.parsing import parse_formula, parse_program
from aspsigma.proofs import Environment, check, is_lnf, prove_sigma1
from aspsigma.syntax import Atom, fmt_formula, formula_length
from lemmas import find_derivation_no_returns, find_refutation, horn_derives, overline
from oracle import naive_stable_models, subsets

CORPUS = CorpusSpec(count=500, seed=0)
FORMULA_CORPUS = CorpusSpec(count=120, seed=0, formula_max_size=8)


@pytest.fixture(scope="module")
def programs():
    return gen_programs(CORPUS)


@pytest.fixture(scope="module")
def asp_reports():
    return roundtrip_asp(CORPUS, timeout=10.0)


@pytest.fixture(scope="module")
def logic_reports():
    return roundtrip_logic(FORMULA_CORPUS, timeout=30.0)


def _announce(capsys, criterion, name, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {criterion} [{name}]: PASS ({detail})")


# ---------------------------------------------------------------------------
# 1. stable-model oracle against a second, naive fixpoint implementation
# ---------------------------------------------------------------------------


def test_acceptance_1_stable_model_oracle(programs, capsys):
    start = time.monotonic()
    assert len(programs) >= 500
    for p in programs:
        assert set(stable_models(p)) == naive_stable_models(p), str(p)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _announce(
        capsys, 1, "stable-model oracle",
        f"{len(programs)} programs, exact agreement, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. derivability from the overline program equals the interpretation
# ---------------------------------------------------------------------------


def test_acceptance_2_overline_identity(programs, capsys):
    start = time.monotonic()
    checked = 0
    for p in programs:
        g = ground(p)
        if len(g.base) > 6:
            continue
        over = overline(g)
        for m in subsets(g.base):
            facts = over.complement(m)
            derived = frozenset(
                a for a in g.base if horn_derives(over.program, facts, a)
            )
            assert derived == interpretation(g, m), (str(p), sorted(map(str, m)))
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    assert checked > 500
    _announce(
        capsys, 2, "overline identity",
        f"{checked} (program, model) pairs, exact, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. entailment equals provability of the translated formula
# ---------------------------------------------------------------------------


def test_acceptance_3_entailment_as_provability(asp_reports, capsys):
    disagreements = [r for r in asp_reports if not r.skipped and not r.agreed]
    skipped = [r for r in asp_reports if r.skipped]
    assert len(asp_reports) >= 500
    assert not disagreements, [r.line() for r in disagreements[:5]]
    completed = len(asp_reports) - len(skipped)
    assert completed >= 490
    _announce(
        capsys, 3, "entailment as provability",
        f"{completed} programs agree, {len(skipped)} over budget",
    )


# ---------------------------------------------------------------------------
# 4. provability, soups, and stable models of the translation, three ways
# ---------------------------------------------------------------------------


def test_acceptance_4_three_way_agreement(logic_reports, capsys):
    disagreements = [r for r in logic_reports if not r.skipped and not r.agreed]
    completed = [r for r in logic_reports if not r.skipped]
    assert not disagreements, [r.line() for r in disagreements[:5]]
    assert len(completed) >= 100
    for r in completed:
        assert r.verdicts["soup_exists"] == (not r.verdicts["provable"])
        assert r.verdicts["program_has_model"] == (not r.verdicts["provable"])
    _announce(
        capsys, 4, "three-way agreement",
        f"{len(completed)} formulas, full address length, exact",
    )


def test_seed0_digests(asp_reports, logic_reports):
    # the verdicts of both round trips on the canonical corpora, pinned
    assert report_digest(asp_reports)[:16] == "cb9da601e7609bda"
    assert report_digest(logic_reports)[:16] == "62eb84e88906af01"


# ---------------------------------------------------------------------------
# 5. every returned certificate checks and is in long normal form
# ---------------------------------------------------------------------------


def test_acceptance_5_certificate_validity(asp_reports, logic_reports, capsys):
    seen = 0
    for r in asp_reports + logic_reports:
        if r.certificate_ok is not None:
            assert r.certificate_ok, r.line()
            seen += 1
    extra = ["a -> a", "(forall x. P(x) -> Q(x)) -> P(c) -> Q(c)", "b -> b"]
    for text in extra:
        phi = parse_formula(text)
        cert = prove_sigma1(phi)
        assert cert is not None
        env = Environment()
        assert check(env, cert, phi) and is_lnf(env, cert, phi)
        seen += 1
    assert seen > 50
    _announce(capsys, 5, "certificate validity", f"{seen} certificates, all valid")


# ---------------------------------------------------------------------------
# 6. refutations and return-free derivations are exact complements
# ---------------------------------------------------------------------------


def test_acceptance_6_refutation_derivation_duality(programs, capsys):
    start = time.monotonic()
    checked = 0
    for p in programs:
        g = ground(p)
        if len(g.base) > 5:
            continue
        for m in subsets(g.base):
            interp = interpretation(g, m)
            for a in sorted(g.base):
                refutation = find_refutation(g, m, a)
                derivation = find_derivation_no_returns(g, m, a)
                assert (refutation is None) != (derivation is None)
                assert (derivation is not None) == (a in interp)
                checked += 1
    assert checked > 1000
    _announce(
        capsys, 6, "refutation/derivation duality",
        f"{checked} (program, model, atom) triples, {time.monotonic()-start:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. soup conversions round-trip on every model found in criterion 4
# ---------------------------------------------------------------------------


def test_acceptance_7_soup_conversions(logic_reports, capsys):
    cooked = 0
    for r in logic_reports:
        if r.skipped or not r.verdicts.get("program_has_model"):
            continue
        assert r.soup_checks.get("model_soup_valid") is True, r.line()
        assert r.soup_checks.get("soup_model_stable") is True, r.line()
        cooked += 1
    assert cooked >= 50
    _announce(
        capsys, 7, "soup conversions",
        f"{cooked} stable models cooked into soups and back",
    )


# ---------------------------------------------------------------------------
# 8. the two instability cases match their fixpoint characterizations
# ---------------------------------------------------------------------------


def test_acceptance_8_case_analysis(programs, capsys):
    start = time.monotonic()
    checked = 0
    for p in programs:
        base = program_base(p)
        if len(base) > 4:
            continue
        t = translate_asp(p, fresh_goal_atom(p))
        for m in subsets(base):
            t.case_a(m)  # raises CrossCheckError on any disagreement
            t.case_b(m)
            checked += 1
    _announce(
        capsys, 8, "case analysis",
        f"{checked} (program, model) pairs, zero cross-check failures, "
        f"{time.monotonic()-start:.1f}s",
    )


# ---------------------------------------------------------------------------
# 9. translation sizes grow polynomially, with frozen reference counts
# ---------------------------------------------------------------------------


def _chain_program(n_clauses):
    names = [f"p{i}" for i in range(n_clauses)]
    lines = [
        f"{names[i]} :- not {names[(i + 1) % n_clauses]}."
        for i in range(n_clauses)
    ]
    return parse_program("\n".join(lines))


def _chain_formula(m):
    parts = ["P(c)"] + [f"a{i}" for i in range(m)] + ["g"]
    return parse_formula(" -> ".join(parts))


# frozen outputs for the scaled families below; the first direction is
# dominated by the cubic transitivity family, the second is near-linear at a
# fixed address length
ASP_GOLDENS = {10: 1513, 20: 10513, 40: 81013}
LOGIC_GOLDENS = {10: 137, 20: 307, 40: 647}


def test_acceptance_9_polynomial_growth(capsys):
    asp_sizes = {}
    for clauses, size in ((5, 10), (10, 20), (20, 40)):
        p = _chain_program(clauses)
        atom_count = sum(1 + len(c.body) for c in p.clauses)
        assert atom_count == size
        t = translate_asp(p, Atom("omega"))
        asp_sizes[size] = formula_length(t.formula)
    logic_sizes = {}
    for m, size in ((3, 10), (8, 20), (18, 40)):
        phi = _chain_formula(m)
        assert formula_length(phi) == size
        t = translate_formula(phi, addr_len=2)
        logic_sizes[size] = sum(
            1 + len(c.body) for c in t.program.clauses
        )
    for sizes, goldens in ((asp_sizes, ASP_GOLDENS), (logic_sizes, LOGIC_GOLDENS)):
        slope = math.log(sizes[40] / sizes[10]) / math.log(4)
        assert slope <= 4.0, sizes
        assert sizes == goldens
    _announce(
        capsys, 9, "polynomial growth",
        f"program->formula {asp_sizes}, formula->program {logic_sizes}",
    )
