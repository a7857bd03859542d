import argparse
import pathlib
import re

import aspsigma
from aspsigma import check_soup, cli, find_soup, parse_formula, parse_soup, write_soup

# every name the package exports; a helper that only tests call belongs in
# tests/ (see lemmas.py and oracle.py), not here
PUBLIC_NAMES = [
    "ArityError",
    "AspSigmaError",
    "Atom",
    "AtomF",
    "BudgetExceeded",
    "CapExceeded",
    "Clause",
    "CrossCheckError",
    "Disjudgment",
    "Environment",
    "Forall",
    "Formula",
    "FormulaError",
    "GroundProgram",
    "Impl",
    "MintsClass",
    "Model",
    "ParseError",
    "Program",
    "ProofTerm",
    "Soup",
    "Term",
    "asp_to_logic",
    "check",
    "check_soup",
    "classify",
    "const",
    "decide_by_translation",
    "engine",
    "errors",
    "find_soup",
    "fmt_formula",
    "fmt_term",
    "ground",
    "has_stable_model",
    "interpretation",
    "is_lnf",
    "is_stable",
    "logic_to_asp",
    "make_program",
    "model_from_soup",
    "parse_formula",
    "parse_ground_atom",
    "parse_program",
    "parse_soup",
    "parse_term",
    "parsing",
    "proofs",
    "prove",
    "prove_sigma1",
    "questions_at",
    "sms_entails",
    "soup_from_model",
    "soups",
    "stable_models",
    "substitute",
    "syntax",
    "translate_formula",
    "translate_program",
    "var",
    "write_soup",
]


def test_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 61
    assert sorted(aspsigma.__all__) == PUBLIC_NAMES


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_shows_the_cli_and_a_soup_as_they_are():
    """README's soup example is the soup soup-find writes for Peirce's law,
    and its CLI table lists the parser's subcommands, each once."""
    text = README.read_text(encoding="utf-8")
    example = text.split("### Soup files\n\n```\n", 1)[1].split("```", 1)[0]
    phi = parse_formula("((a -> b) -> a) -> a")
    assert example == write_soup(find_soup(phi))
    z = parse_soup(example)
    assert z == find_soup(phi) and check_soup(z, phi).ok
    table = text.split("| command | what it does |", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"^\| `([a-z-]+)", table, re.M)
    (subcommands,) = (
        a.choices
        for a in cli._build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    assert sorted(listed) == sorted(subcommands) and len(listed) == 13
