"""The benchmark's four workloads and their correctness gates.

Every workload is a fixed list of requests per round.  A request is one
cross-validated verdict for one instance, built from calls into the public
functions of the layers in the order ``cli._asp_instance`` and
``cli._logic_instance`` use, and it yields a ``cli.RoundTripReport``.

Inputs come from the library's corpus generator at its canonical seed 0 (the
seed the round-trip digests pin).  The workload seed gives the predicates,
constants and variables of each instance fresh names, a new draw per instance
and round, and the renamed text is parsed back.  The new names keep the order
of the old ones, so a renamed instance has the same verdicts and the same cost
as its source: runs with different seeds do the same work, and no round
repeats an earlier input.  At seed 0 the first round is the canonical corpus
itself.
"""

from __future__ import annotations

import itertools
import random
import re
import time

from aspsigma import asp_to_logic, cli, corpus, engine, logic_to_asp, proofs, soups
from aspsigma.cli import RoundTripReport
from aspsigma.corpus import CorpusSpec
from aspsigma.errors import BudgetExceeded, CapExceeded
from aspsigma.parsing import parse_formula, parse_program
from aspsigma.syntax import Atom, AtomF, Formula, const, fmt_formula, formula_length
from spans import Tracer

# the per-instance budgets ``aspsigma roundtrip-asp`` / ``roundtrip-logic`` use
ASP_BUDGET = 10.0
LOGIC_BUDGET = 30.0

# seed-0 digests of the two round-trip drives (ROADMAP: behaviour is "the same"
# while these hold)
ASP_GOLDEN = "cb9da601e7609bda"
LOGIC_GOLDEN = "62eb84e88906af01"
LOGIC_GOLDEN_SPEC = CorpusSpec(count=120, seed=0, formula_max_size=8)

SPAN_NAMES = [
    "request",
    "corpus.generate",
    "engine.ground",
    "engine.sms_entails",
    "engine.stable_models",
    "engine.has_stable_model",
    "engine.interpretation",
    "proofs.prove",
    "proofs.check",
    "asp_to_logic.translate",
    "asp_to_logic.model_context",
    "logic_to_asp.analysis",
    "logic_to_asp.certified_addr_len",
    "logic_to_asp.translate",
    "soups.find_soup",
    "soups.check_soup",
    "soups.soup_from_model",
    "soups.model_from_soup",
]

ASP_SCHEMAS = range(1, 13)
LOGIC_FAMILIES = [
    "01_descendant",
    "02_subgoal",
    "03_head",
    "04_initial_goal",
    "05_initial_env",
    "06_initial_nenv",
    "07_env_propagation",
    "08_env_descendants",
    "09_goal_of_answer",
    "10_env_choice",
    "11_env_conflict",
    "12_answer_choice",
    "13_question",
    "14_must_answer",
    "15_answered",
    "16_unique_goal",
]

# end-to-end metrics of an untraced run: (name, unit, better)
END_TO_END = [
    ("throughput_ips", "1/s", "higher"),
    ("verdict_p50_ms", "ms", "lower"),
    ("verdict_tail_ms", "ms", "lower"),
    ("decided_share", "share", "higher"),
    ("clean_share", "share", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# per span: calls, mean duration, mean self time, calls that raised
SPAN_STATS = [
    ("calls", "count", "higher"),
    ("time_s", "s", "lower"),
    ("self_s", "s", "lower"),
    ("failed", "count", "lower"),
]

# work counters (mean per call of the layer function), with the direction an
# optimisation of that layer would move them
COUNTERS = (
    [
        ("engine.ground.clauses", "count", "lower"),
        ("engine.sms_entails.base_atoms", "count", "lower"),
        ("engine.has_stable_model.neg_atoms", "count", "lower"),
        ("engine.has_stable_model.witness_share", "share", "higher"),
        ("proofs.prove.input_length", "count", "lower"),
        ("proofs.prove.provable_share", "share", "higher"),
        ("proofs.check.term_nodes", "count", "lower"),
        ("asp_to_logic.translate.formula_length", "count", "lower"),
        ("asp_to_logic.translate.axioms", "count", "lower"),
    ]
    + [(f"asp_to_logic.schema.{k}", "count", "lower") for k in ASP_SCHEMAS]
    + [("logic_to_asp.translate.clauses", "count", "lower")]
    + [(f"logic_to_asp.family.{f}", "count", "lower") for f in LOGIC_FAMILIES]
    + [
        ("soups.find_soup.judgments", "count", "lower"),
        ("soups.find_soup.found_share", "share", "higher"),
    ]
)

PER_LAYER = (
    [(f"{span}.{stat}", unit, better) for span in SPAN_NAMES for stat, unit, better in SPAN_STATS]
    + COUNTERS
    + [("trace.overhead_ips", "1/s", "higher")]
)


# ---------------------------------------------------------------------------
# Seeded renaming
# ---------------------------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

def _pool(initials: str) -> list[str]:
    """Two-letter names starting with one of ``initials``."""
    return [a + b for a in initials for b in "abcdefghijklmnopqrstuvwxyz"]


LOWER_PREDICATES = _pool("abcdefghij")
CONSTANTS = _pool("klmnopqrst")
VARIABLES = _pool("uvwxyz")  # program variables must start with u..z
UPPER_PREDICATES = [a.upper() + b for a, b in LOWER_PREDICATES]

# the generator's alphabets, each with the disjoint pool its new names come from
PROGRAM_NAMES = (
    (("p", "q", "r", "s"), LOWER_PREDICATES),
    (("c", "d", "e"), CONSTANTS),
    (("x", "y"), VARIABLES),
)
FORMULA_NAMES = (
    (("a", "b", "g"), LOWER_PREDICATES),
    (("P", "Q"), UPPER_PREDICATES),
    (("c", "d"), CONSTANTS),
    (("x", "y"), VARIABLES),
)


def renaming(seed: int, round_no: int, instance: int, alphabets) -> dict[str, str]:
    """Fresh names for each alphabet, the identity in round 0 of seed 0.

    The new names keep the order of the old ones, so every sorted iteration
    in the library visits the renamed instance in the same order, and its
    cost stays that of the canonical instance.
    """
    if seed == 0 and round_no == 0:
        return {}
    rng = random.Random(f"{seed}/{round_no}/{instance}")
    out: dict[str, str] = {}
    for names, pool in alphabets:
        out.update(zip(names, sorted(rng.sample(pool, len(names)))))
    return out


def rename_text(text: str, mapping: dict[str, str]) -> str:
    if not mapping:
        return text
    return _IDENT.sub(lambda m: mapping.get(m.group(0), m.group(0)), text)


def rename_atom(a: Atom, mapping: dict[str, str]) -> Atom:
    args = tuple(const(mapping.get(t.name, t.name)) for t in a.args)
    return Atom(mapping.get(a.pred, a.pred), args)


# ---------------------------------------------------------------------------
# Layer calls, with work counters taken from their results when tracing
# ---------------------------------------------------------------------------


def _term_nodes(term) -> int:
    n, stack = 0, [term]
    while stack:
        t = stack.pop()
        n += 1
        if isinstance(t, (proofs.PAbs, proofs.OAbs)):
            stack.append(t.body)
        elif isinstance(t, proofs.PApp):
            stack.extend((t.fn, t.arg))
        elif isinstance(t, proofs.OApp):
            stack.append(t.fn)
    return n


def _ground(tr, p):
    g = tr.call("engine.ground", engine.ground, p)
    if tr.enabled:
        tr.count("engine.ground.clauses", len(g.clauses))
    return g


def _has_stable_model(tr, g, deadline, branch_priority=None):
    w = tr.call(
        "engine.has_stable_model",
        engine.has_stable_model,
        g,
        deadline=deadline,
        branch_priority=branch_priority,
    )
    if tr.enabled:
        negated = {b.positive() for c in g.clauses for b in c.body if b.negated}
        tr.count("engine.has_stable_model.neg_atoms", len(negated))
        tr.count("engine.has_stable_model.witness_share", w is not None)
    return w


def _stable(tr, g, m) -> bool:
    return frozenset(m) == tr.call("engine.interpretation", engine.interpretation, g, m)


def _prove(tr, ctx, goal, deadline):
    if ctx:
        cert = tr.call("proofs.prove", proofs.prove, ctx, goal, deadline=deadline)
    else:
        cert = tr.call("proofs.prove", proofs.prove_sigma1, goal, deadline=deadline)
    if tr.enabled:
        size = formula_length(goal) + sum(formula_length(f) for f in ctx)
        tr.count("proofs.prove.input_length", size)
        tr.count("proofs.prove.provable_share", cert is not None)
    return cert


def _certificate_ok(env, cert, phi) -> bool:
    return proofs.check(env, cert, phi) and proofs.is_lnf(env, cert, phi)


def _check(tr, cert, phi) -> bool:
    ok = tr.call("proofs.check", _certificate_ok, proofs.Environment(), cert, phi)
    if tr.enabled:
        tr.count("proofs.check.term_nodes", _term_nodes(cert))
    return ok


def _translate_asp(tr, p, omega):
    t = tr.call("asp_to_logic.translate", asp_to_logic.translate, p, omega)
    if tr.enabled:
        tr.count("asp_to_logic.translate.formula_length", formula_length(t.formula))
        tr.count("asp_to_logic.translate.axioms", len(t.axioms))
        per_schema = t.axiom_counts()
        for k in ASP_SCHEMAS:
            tr.count(f"asp_to_logic.schema.{k}", per_schema.get(k, 0))
    return t


def _translate_formula(tr, phi, **kwargs):
    t = tr.call("logic_to_asp.translate", logic_to_asp.translate, phi, **kwargs)
    if tr.enabled:
        tr.count("logic_to_asp.translate.clauses", len(t.program.clauses))
        for f in LOGIC_FAMILIES:
            tr.count(f"logic_to_asp.family.{f}", t.counts.get(f, 0))
    return t


def _find_soup(tr, phi, deadline):
    z = tr.call("soups.find_soup", soups.find_soup, phi, deadline=deadline)
    if tr.enabled:
        tr.count("soups.find_soup.found_share", z is not None)
        if z is not None:
            tr.count("soups.find_soup.judgments", len(z.judgments))
    return z


# ---------------------------------------------------------------------------
# The two round-trip pipelines, as the CLI driver runs them
# ---------------------------------------------------------------------------


def asp_verdict(tr, idx: int, p) -> RoundTripReport:
    """Entailment versus provability of the translated formula (cli._asp_instance)."""
    omega = corpus.fresh_goal_atom(p)
    report = RoundTripReport(idx, "asp->logic", str(p).replace("\n", " ").strip())
    deadline = time.monotonic() + ASP_BUDGET
    try:
        entails = tr.call(
            "engine.sms_entails", engine.sms_entails, p, omega, deadline=deadline
        )
        if tr.enabled:
            tr.count("engine.sms_entails.base_atoms", len(engine.program_base(p)))
        translation = _translate_asp(tr, p, omega)
        cert = _prove(tr, [], translation.formula, deadline)
        provable = cert is not None
        report.verdicts["entails"] = entails
        report.verdicts["provable"] = provable
        report.agreement["asp_vs_prover"] = entails == provable
        if cert is not None:
            report.certificate_ok = _check(tr, cert, translation.formula)
            report.agreement["certificate"] = report.certificate_ok
    except (BudgetExceeded, CapExceeded) as e:
        report.skipped = f"{type(e).__name__}: {e}"
    return report


def logic_verdict(tr, idx: int, phi) -> RoundTripReport:
    """Provability versus soups versus stable models (cli._logic_instance).

    ``logic_to_asp.decide_by_translation`` is unrolled into its four layer
    calls, with the branching order it uses, so each gets its own span.
    """
    report = RoundTripReport(idx, "logic->asp", fmt_formula(phi))
    deadline = time.monotonic() + LOGIC_BUDGET
    try:
        cert = _prove(tr, [], phi, deadline)
        provable = cert is not None
        if cert is not None:
            report.certificate_ok = _check(tr, cert, phi)
            report.agreement["certificate"] = report.certificate_ok
        soup = _find_soup(tr, phi, deadline)
        an = tr.call("logic_to_asp.analysis", logic_to_asp.analysis, phi)
        addr_len = tr.call(
            "logic_to_asp.certified_addr_len",
            logic_to_asp.certified_addr_len,
            an,
            deadline=deadline,
        )
        t = _translate_formula(tr, phi, addr_len=addr_len, deadline=deadline, an=an)
        witness = _has_stable_model(
            tr, t.ground_program, deadline, logic_to_asp._answers_first
        )
        refutable = witness is not None
        report.verdicts["provable"] = provable
        report.verdicts["soup_exists"] = soup is not None
        report.verdicts["program_has_model"] = refutable
        report.agreement["prover_vs_soup"] = (soup is not None) == (not provable)
        report.agreement["prover_vs_program"] = refutable == (not provable)
        if soup is not None:
            ok = tr.call("soups.check_soup", soups.check_soup, soup, phi).ok
            report.soup_checks["found_soup_valid"] = ok
            report.agreement["found_soup_valid"] = ok
        if witness is not None:
            t = _translate_formula(tr, phi, addr_len=addr_len)
            cooked = tr.call("soups.soup_from_model", soups.soup_from_model, witness, t)
            ok = tr.call("soups.check_soup", soups.check_soup, cooked, phi).ok
            report.soup_checks["model_soup_valid"] = ok
            model = tr.call(
                "soups.model_from_soup", soups.model_from_soup, cooked, phi, translation=t
            )
            stable = _stable(tr, t.ground_program, model)
            report.soup_checks["soup_model_stable"] = stable
            report.agreement["model_soup_valid"] = ok
            report.agreement["soup_model_stable"] = stable
    except (BudgetExceeded, CapExceeded) as e:
        report.skipped = f"{type(e).__name__}: {e}"
    return report


def _outcome(fn, *args):
    """The report of a reference call, or the name of the exception it raised."""
    try:
        return fn(*args)
    except Exception as e:  # compared against the benchmark's own failure
        return type(e).__name__


def _replay(instance, spec: CorpusSpec, budget: float) -> dict:
    """The CLI driver's per-instance pipeline over a whole corpus.

    ``cli.roundtrip_*`` stop at the first exception, so the instances are
    replayed one by one and an exception is kept as the instance's outcome.
    """
    return {i: _outcome(instance, (spec, i, budget)) for i in range(spec.count)}


def _check_digest(who: str, reports: list, expected: str) -> list[str]:
    if all(isinstance(r, RoundTripReport) for r in reports):
        digest = cli.report_digest(reports)[:16]
    else:
        digest = "incomplete: an instance failed"
    if digest == expected:
        return []
    return [f"{who} digest {digest}, expected {expected}"]


def _verdict_fields(r) -> dict | str:
    """What must agree between an instance and its renamed copy."""
    if isinstance(r, str):
        return r
    d = r.digest_fields()
    d.pop("source")
    return d


def _compare(done, reference: dict) -> list[str]:
    """Every completed request against the reference result of its instance."""
    problems = []
    for key, report, error in done:
        mine = _verdict_fields(report) if report is not None else error
        if mine != _verdict_fields(reference[key]):
            problems.append(f"instance {key}: {mine} but the reference gives {reference[key]}")
    return problems


class _Corpus:
    """A corpus workload: one request per corpus instance, in corpus order."""

    def round(self, k: int) -> list:
        return [
            (i, self.parse(rename_text(t, renaming(self.seed, k, i, self.alphabets))))
            for i, t in enumerate(self.texts)
        ]


class AspCorpus(_Corpus):
    name = "asp_corpus"
    spec = CorpusSpec(count=500, seed=0)
    alphabets = PROGRAM_NAMES
    parse = staticmethod(parse_program)

    def setup(self, seed: int, tr) -> None:
        self.seed = seed
        programs = tr.call("corpus.generate", corpus.gen_programs, self.spec)
        self.texts = [str(p) for p in programs]

    def request(self, item, tr) -> RoundTripReport:
        return asp_verdict(tr, *item)

    def gate(self, done, round_size: int) -> list[str]:
        reference = _replay(cli._asp_instance, self.spec, ASP_BUDGET)
        problems = _check_digest("cli", list(reference.values()), ASP_GOLDEN)
        if self.seed == 0:
            own = [r for _, r, _ in done[:round_size]]
            problems += _check_digest("benchmark", own, ASP_GOLDEN)
        return problems + _compare(done, reference)


class LogicCorpus(_Corpus):
    name = "logic_corpus"
    # the generator's full size range, beyond the CLI default cap of 8
    spec = CorpusSpec(count=600, seed=0, formula_max_size=20)
    alphabets = FORMULA_NAMES
    parse = staticmethod(parse_formula)

    def setup(self, seed: int, tr) -> None:
        self.seed = seed
        formulas = tr.call("corpus.generate", corpus.gen_formulas, self.spec)
        self.texts = [fmt_formula(f) for f in formulas]

    def request(self, item, tr) -> RoundTripReport:
        return logic_verdict(tr, *item)

    def gate(self, done, round_size: int) -> list[str]:
        # the 120-formula, size-8 drive the logic digest pins, by both pipelines
        golden = corpus.gen_formulas(LOGIC_GOLDEN_SPEC)
        own = [_outcome(logic_verdict, Tracer(False), i, f) for i, f in enumerate(golden)]
        cli_golden = _replay(cli._logic_instance, LOGIC_GOLDEN_SPEC, LOGIC_BUDGET)
        problems = _check_digest("benchmark", own, LOGIC_GOLDEN)
        problems += _check_digest("cli", list(cli_golden.values()), LOGIC_GOLDEN)
        reference = _replay(cli._logic_instance, self.spec, LOGIC_BUDGET)
        return problems + _compare(done, reference)


class CaseSweep:
    """Acceptance criterion 8: every (program, model) pair of the programs
    whose base has at most four atoms; each program is translated once a round.

    A round runs the pairs in a seeded order.  The pairs of one program cost
    alike, so in program order the slowest pairs would all be timed within one
    stretch of the host's drifting speed; spread out, each is timed at its own
    moment.
    """

    name = "case_sweep"
    spec = CorpusSpec(count=500, seed=0)

    def setup(self, seed: int, tr) -> None:
        self.seed = seed
        programs = tr.call("corpus.generate", corpus.gen_programs, self.spec)
        self.programs = [p for p in programs if len(engine.program_base(p)) <= 4]
        self.texts = [str(p) for p in self.programs]
        self.models = [_subsets(engine.program_base(p)) for p in self.programs]
        self.translations: dict[int, asp_to_logic.AspTranslation] = {}  # program -> this round's translation

    def round(self, k: int) -> list:
        items = []
        for j, text in enumerate(self.texts):
            mapping = renaming(self.seed, k, j, PROGRAM_NAMES)
            p = parse_program(rename_text(text, mapping))
            for q, m in enumerate(self.models[j]):
                renamed = frozenset(rename_atom(a, mapping) for a in m)
                items.append(((j, q), p, renamed))
        random.Random(f"{self.seed}/{k}/order").shuffle(items)
        seen: set[int] = set()
        out = []
        for key, p, m in items:
            # the program's first pair in this round translates it
            out.append((key, p, m, key[0] not in seen))
            seen.add(key[0])
        return out

    def request(self, item, tr) -> RoundTripReport:
        (j, q), p, m, first = item
        if first:
            omega = corpus.fresh_goal_atom(p)
            self.translations[j] = _translate_asp(tr, p, omega)
        t = self.translations[j]
        source = f"{str(p).strip()} | model {{{', '.join(sorted(map(str, m)))}}}"
        report = RoundTripReport(j, "asp->logic:case", source.replace("\n", " "))
        deadline = time.monotonic() + ASP_BUDGET
        try:
            ctx = tr.call("asp_to_logic.model_context", asp_to_logic.model_context, t, m)
            formulas = list(ctx.formulas)
            case_a = _prove(tr, formulas, AtomF(t.vocabulary.case_a), deadline)
            case_b = _prove(tr, formulas, AtomF(t.vocabulary.case_b), deadline)
            interp = tr.call("engine.interpretation", engine.interpretation, p, m)
            report.verdicts["case_a"] = case_a is not None
            report.verdicts["case_b"] = case_b is not None
            report.agreement["case_a_vs_fixpoint"] = (case_a is not None) == bool(interp - m)
            report.agreement["case_b_vs_fixpoint"] = (case_b is not None) == bool(m - interp)
        except (BudgetExceeded, CapExceeded) as e:
            report.skipped = f"{type(e).__name__}: {e}"
        return report

    def gate(self, done, round_size: int) -> list[str]:
        # the library's own case checks, which raise CrossCheckError on a
        # disagreement with the fixpoint test, on the canonical inputs of every
        # fourth program (the requests themselves check every pair)
        reference = {}
        for j in range(self.seed % 4, len(self.programs), 4):
            p = self.programs[j]
            t = asp_to_logic.translate(p, corpus.fresh_goal_atom(p))
            for q, m in enumerate(self.models[j]):
                reference[(j, q)] = _outcome(_case_verdicts, t, m)
        problems = []
        for (j, q), report, error in done:
            mine = error if report is None else report.skipped or report.verdicts
            if (j, q) in reference and mine != reference[(j, q)]:
                problems.append(
                    f"program {j} model {q}: {mine} but the library gives {reference[(j, q)]}"
                )
        return problems


def _case_verdicts(t, m) -> dict[str, bool]:
    return {"case_a": t.case_a(m, deadline=None), "case_b": t.case_b(m, deadline=None)}


def _subsets(atoms) -> list[frozenset]:
    atoms = sorted(atoms)
    return [
        frozenset(a for a, b in zip(atoms, bits) if b)
        for bits in itertools.product((False, True), repeat=len(atoms))
    ]


# ---------------------------------------------------------------------------
# Scaled families
# ---------------------------------------------------------------------------


def cycle_text(n: int, names: list[str]) -> str:
    """n clauses p_i :- not p_{i+1}; no stable model when n is odd, two when even."""
    return "\n".join(f"{names[i]} :- not {names[(i + 1) % n]}." for i in range(n))


def binary_text(n: int, consts: list[str]) -> str:
    """Reachability over a chain of n constants plus two even negation loops;
    grounds to n^3 + 3n^2 + 3n clauses besides the n - 1 edge facts."""
    lines = [f"e({consts[i]}, {consts[i + 1]})." for i in range(n - 1)]
    lines += [
        "r(x, y) :- e(x, z), r(z, y).",
        "r(x, y) :- e(x, y).",
        "a(x, y) :- r(x, y), not b(x, y).",
        "b(x, y) :- r(x, y), not a(x, y).",
        "m(x) :- not n(x).",
        "n(x) :- not m(x).",
        "s(x) :- m(x), not n(x).",
    ]
    return "\n".join(lines)


def loops_text(k: int, names: list[str]) -> str:
    """k/2 even loops over k base atoms: 2^(k/2) stable models."""
    return "\n".join(
        f"{names[2 * i]} :- not {names[2 * i + 1]}.\n{names[2 * i + 1]} :- not {names[2 * i]}."
        for i in range(k // 2)
    )


def chain_formula_text(size: int, names: list[str]) -> str:
    """``scripts/size_growth.py``'s chain P(c) -> a_0 -> ... -> g, of length ``size``."""
    return " -> ".join(["P(c)"] + names[: (size - 4) // 2] + ["g"])


def implication_chain_text(n: int, names: list[str]) -> str:
    """a_0 -> (a_0 -> a_1) -> ... -> (a_{n-1} -> a_n) -> a_n, which is provable."""
    steps = [f"({names[i]} -> {names[i + 1]})" for i in range(n)]
    return " -> ".join([names[0]] + steps + [names[n]])


# (family, input text, parser, sizes).  The sizes stop where one input would
# take a second or more, except for the 1000-step implication chain, which
# keeps the prover's RecursionError in the workload: a round then lasts a few
# seconds, so a run times every input several times at different moments.
SCALED = [
    ("cycle", cycle_text, parse_program, [100, 150, 200, 250, 300, 400, 500, 700]),
    ("cycle", cycle_text, parse_program, [101, 151, 201, 251, 301, 401, 501]),
    ("binary", binary_text, parse_program, [5, 6, 7, 8, 9, 10, 11, 12]),
    ("loops", loops_text, parse_program, [10, 12, 14]),
    ("chain_translate", chain_formula_text, parse_formula, list(range(50, 501, 50))),
    ("implication_chain", implication_chain_text, parse_formula, [100, 150, 200, 250, 300, 1000]),
]


class ScaledFamilies:
    name = "scaled_families"

    def setup(self, seed: int, tr) -> None:
        self.seed = seed

    def round(self, k: int) -> list:
        # one seeded stem for all names keeps their order, and so the cost
        stem = random.Random(f"{self.seed}/{k}").choice(LOWER_PREDICATES)
        items = []
        for family, text, parse, sizes in SCALED:
            for n in sizes:
                names = [f"{stem}{i}" for i in range(n + 1)]
                items.append(((family, n), parse(text(n, names))))
        return items

    def request(self, item, tr) -> RoundTripReport:
        (family, n), x = item
        report = RoundTripReport(n, family, f"{family} of size {n}")
        budget = LOGIC_BUDGET if isinstance(x, Formula) else ASP_BUDGET
        deadline = time.monotonic() + budget
        try:
            if family in ("cycle", "binary"):
                g = _ground(tr, x)
                w = _has_stable_model(tr, g, deadline)
                expected = family == "binary" or n % 2 == 0
                report.verdicts["has_model"] = w is not None
                report.agreement["model_exists"] = (w is not None) == expected
                if w is not None:
                    report.agreement["witness_stable"] = _stable(tr, g, w)
            elif family == "loops":
                g = _ground(tr, x)
                models = tr.call(
                    "engine.stable_models", engine.stable_models, g, deadline=deadline
                )
                report.verdicts["models"] = len(models)
                report.agreement["model_count"] = len(models) == 2 ** (n // 2)
            elif family == "chain_translate":
                t = _translate_formula(tr, x, addr_len=2, deadline=deadline)
                atoms = sum(1 + len(c.body) for c in t.program.clauses)
                # acceptance criterion 9's growth law at address length 2
                report.agreement["size_law"] = atoms == 17 * n - 33
            else:
                cert = _prove(tr, [], x, deadline)
                report.verdicts["provable"] = cert is not None
                report.agreement["provable"] = cert is not None
                if cert is not None:
                    report.agreement["certificate"] = _check(tr, cert, x)
        except (BudgetExceeded, CapExceeded) as e:
            report.skipped = f"{type(e).__name__}: {e}"
        return report

    def gate(self, done, round_size: int) -> list[str]:
        # every request carries its own second route (a known answer)
        return []


WORKLOADS = {w.name: w for w in (AspCorpus, CaseSweep, LogicCorpus, ScaledFamilies)}
