"""Command-line front end and the round-trip verification drivers."""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from . import asp_to_logic, engine, logic_to_asp, proofs, soups
from .corpus import CorpusSpec, fresh_goal_atom, gen_formulas, gen_programs
from .errors import (
    AspSigmaError,
    BudgetExceeded,
    CapExceeded,
    CrossCheckError,
    FormulaError,
)
from .parsing import parse_formula, parse_ground_atom, parse_program
from .syntax import fmt_formula

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

# the round trips' per-instance budgets in seconds, unless --timeout gives one
ASP_BUDGET, LOGIC_BUDGET = 10.0, 30.0


# ---------------------------------------------------------------------------
# Round-trip reports
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class RoundTripReport:
    instance_id: int
    direction: str  # 'asp->logic' | 'logic->asp'
    source: str
    verdicts: dict[str, bool] = field(default_factory=dict)
    agreement: dict[str, bool] = field(default_factory=dict)
    certificate_ok: bool | None = None
    soup_checks: dict[str, bool] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    skipped: str | None = None
    # an exception that ended the instance early, kept as its disagreement
    error: str | None = None

    @property
    def agreed(self) -> bool:
        return all(self.agreement.values())

    def to_json(self) -> dict:
        out = {
            "instance_id": self.instance_id,
            "direction": self.direction,
            "source": self.source,
            "verdicts": self.verdicts,
            "agreement": self.agreement,
            "certificate_ok": self.certificate_ok,
            "soup_checks": self.soup_checks,
            "timings": {k: round(v, 4) for k, v in self.timings.items()},
            "skipped": self.skipped,
        }
        # only when set, so the digests of runs without errors do not move
        if self.error:
            out["error"] = self.error
        return out

    def digest_fields(self) -> dict:
        d = self.to_json()
        d.pop("timings")
        return d

    def line(self) -> str:
        if self.skipped:
            return (
                f"[{self.instance_id:04d} {self.direction}] skipped: "
                f"{self.skipped} | {self.source}"
            )
        verdicts = " ".join(f"{k}={v}" for k, v in self.verdicts.items())
        if self.error:
            verdicts = f"error: {self.error}" + (f"; {verdicts}" if verdicts else "")
        flag = "agree" if self.agreed else "DISAGREE"
        return f"[{self.instance_id:04d} {self.direction}] {verdicts} {flag} | {self.source}"


def _deadline(timeout: float | None) -> float | None:
    return None if timeout is None else time.monotonic() + timeout


def _asp_instance(args: tuple) -> RoundTripReport:
    spec, idx, timeout = args
    p = gen_programs(spec)[idx]
    omega = fresh_goal_atom(p)
    report = RoundTripReport(idx, "asp->logic", str(p).replace("\n", " ").strip())
    deadline = _deadline(timeout)
    try:
        t0 = time.monotonic()
        entails = engine.sms_entails(p, omega, deadline=deadline)
        report.timings["asp"] = time.monotonic() - t0
        t0 = time.monotonic()
        translation = asp_to_logic.translate(p, omega)
        cert = proofs.prove_sigma1(translation.formula, deadline=deadline)
        report.timings["prover"] = time.monotonic() - t0
        provable = cert is not None
        report.verdicts["entails"] = entails
        report.verdicts["provable"] = provable
        report.agreement["asp_vs_prover"] = entails == provable
        if cert is not None:
            env = proofs.Environment()
            report.certificate_ok = proofs.check(
                env, cert, translation.formula
            ) and proofs.is_lnf(env, cert, translation.formula)
            report.agreement["certificate"] = bool(report.certificate_ok)
    except (BudgetExceeded, CapExceeded) as e:
        report.skipped = f"{type(e).__name__}: {e}"
    return report


def _logic_instance(args: tuple) -> RoundTripReport:
    spec, idx, timeout = args
    phi = gen_formulas(spec)[idx]
    report = RoundTripReport(idx, "logic->asp", fmt_formula(phi))
    _logic_checks(report, phi, _deadline(timeout))
    return report


def _logic_checks(report: RoundTripReport, phi, deadline: float | None) -> None:
    """Fill ``report`` with the verdicts and cross-checks of ``phi``."""
    try:
        t0 = time.monotonic()
        # one question table serves the search, the translation and, as the
        # soups carry it, both soup checks
        an = logic_to_asp.analysis(phi)
        found = soups.proof_or_soup(phi, deadline=deadline, an=an)
        report.timings["prover"] = time.monotonic() - t0
        soup = found if isinstance(found, soups.Soup) else None
        provable = soup is None
        if provable:
            env = proofs.Environment()
            report.certificate_ok = proofs.check(env, found, phi) and proofs.is_lnf(
                env, found, phi
            )
            report.agreement["certificate"] = bool(report.certificate_ok)
        t0 = time.monotonic()
        verdict = logic_to_asp.decide_by_translation(phi, deadline=deadline, an=an)
        report.timings["translation"] = time.monotonic() - t0
        report.verdicts["provable"] = provable
        report.verdicts["soup_exists"] = soup is not None
        report.verdicts["program_has_model"] = verdict.refutable
        # definitional, as one search gave both; kept for the pinned digests
        report.agreement["prover_vs_soup"] = (soup is not None) == (not provable)
        report.agreement["prover_vs_program"] = verdict.refutable == (not provable)
        if soup is not None:
            report.soup_checks["found_soup_valid"] = soups.check_soup(soup, phi).ok
            report.agreement["found_soup_valid"] = report.soup_checks[
                "found_soup_valid"
            ]
        if verdict.witness is not None:
            t = verdict.translation
            cooked = soups.soup_from_model(verdict.witness, t)
            # realizing the soup checks it first and refuses an invalid one,
            # which is already this instance's disagreement; a failed
            # cross-check after a passed check leaves the soup valid
            valid = True
            try:
                model = soups.model_from_soup(cooked, phi, translation=t)
            except FormulaError:
                valid = False
            finally:
                report.soup_checks["model_soup_valid"] = valid
                report.agreement["model_soup_valid"] = valid
            if valid:
                stable = engine.is_stable(t.ground_program, model)
                report.soup_checks["soup_model_stable"] = stable
                report.agreement["soup_model_stable"] = stable
    except (BudgetExceeded, CapExceeded) as e:
        report.skipped = f"{type(e).__name__}: {e}"


def _logic_job(job: tuple) -> RoundTripReport:
    """One logic instance; a failed cross-check is that instance's
    disagreement, and the verdicts reached before it stay in the report."""
    spec, idx, timeout = job
    phi = gen_formulas(spec)[idx]
    report = RoundTripReport(idx, "logic->asp", fmt_formula(phi))
    try:
        _logic_checks(report, phi, _deadline(timeout))
    except CrossCheckError as e:
        report.agreement["cross_check"] = False
        report.error = f"CrossCheckError: {e}"
    return report


def _run_instances(worker, spec: CorpusSpec, timeout: float | None, workers: int):
    jobs = [(spec, i, timeout) for i in range(spec.count)]
    if workers <= 1:
        reports = [worker(j) for j in jobs]
    else:
        # imported here: the pool machinery costs about 2 MB of memory
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(worker, jobs))
    reports.sort(key=lambda r: r.instance_id)
    return reports


def roundtrip_asp(
    spec: CorpusSpec, timeout: float | None = ASP_BUDGET, workers: int = 1
) -> list[RoundTripReport]:
    """Entailment versus provability of the translated formula, per program."""
    return _run_instances(_asp_instance, spec, timeout, workers)


def roundtrip_logic(
    spec: CorpusSpec, timeout: float | None = LOGIC_BUDGET, workers: int = 1
) -> list[RoundTripReport]:
    """Provability versus soup existence versus stable models, per formula."""
    return _run_instances(_logic_job, spec, timeout, workers)


def report_digest(reports: list[RoundTripReport]) -> str:
    payload = json.dumps(
        [r.digest_fields() for r in reports], sort_keys=True
    ).encode()
    # imported here: hashlib loads OpenSSL, about 4 MB of memory that only
    # a digest needs
    import hashlib

    return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_out(text: str, path: str | None) -> None:
    if path is None:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit(payload: dict, as_json: bool, human: str) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _cmd_ground(args) -> int:
    p = parse_program(_read(args.program), safe=args.safe)
    g = engine.ground(p)
    lines = [str(c) for c in g.clauses]
    if args.json:
        print(
            json.dumps(
                {"clauses": lines, "base": sorted(str(a) for a in g.base)},
                indent=2,
            )
        )
    else:
        print(f"% {len(g.clauses)} ground clauses, base of {len(g.base)} atoms")
        for line in lines:
            print(line)
    return EXIT_OK


def _cmd_solve(args) -> int:
    p = parse_program(_read(args.program), safe=args.safe)
    models = engine.stable_models(
        p, cap=args.cap_base, deadline=_deadline(args.timeout)
    )
    rendered = [sorted(str(a) for a in m) for m in models]
    if args.json:
        print(json.dumps({"models": rendered}, indent=2))
    else:
        if not models:
            print("no stable models")
        for m in rendered:
            print(", ".join(m) if m else "(empty)")
    return EXIT_OK if models else EXIT_NEGATIVE


def _cmd_entail(args) -> int:
    p = parse_program(_read(args.program), safe=args.safe)
    atom = parse_ground_atom(args.atom)
    verdict = engine.sms_entails(
        p, atom, cap=args.cap_base, deadline=_deadline(args.timeout)
    )
    _emit(
        {"atom": str(atom), "entailed": verdict},
        args.json,
        f"{atom} is {'entailed' if verdict else 'not entailed'}",
    )
    return EXIT_OK if verdict else EXIT_NEGATIVE


def _cmd_prove(args) -> int:
    phi = parse_formula(_read(args.formula))
    cert = proofs.prove_sigma1(phi, deadline=_deadline(args.timeout))
    if cert is None:
        _emit({"provable": False}, args.json, "NOT PROVABLE")
        return EXIT_NEGATIVE
    text = proofs.fmt_term(cert)
    _emit({"provable": True, "certificate": text}, args.json, f"PROVABLE\n{text}")
    return EXIT_OK


def _cmd_check(args) -> int:
    term = proofs.parse_term(_read(args.term))
    phi = parse_formula(_read(args.formula))
    env = proofs.Environment()
    ok, trail = proofs.check_explain(env, term, phi)
    lnf = proofs.is_lnf(env, term, phi) if ok else False
    payload = {"accepted": ok, "long_normal_form": lnf, "trail": trail}
    human = "ACCEPTED" + (" (long normal form)" if lnf else "") if ok else (
        "REJECTED: " + "; ".join(trail)
    )
    _emit(payload, args.json, human)
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_translate_asp(args) -> int:
    p = parse_program(_read(args.program), safe=args.safe)
    goal = parse_ground_atom(args.goal)
    t = asp_to_logic.translate(p, goal)
    header = [
        f"% translation of {args.program} with goal {goal}",
        f"% {len(t.axioms)} axioms; name mangling: bar_/bang_/query_ per predicate,",
        f"% pair_R_Q per predicate pair, k<j>_<i>/kbar<j>_<i> per clause,",
        f"% nullary {t.vocabulary.lupa}, {t.vocabulary.case_a}, {t.vocabulary.case_b},"
        f" {t.vocabulary.circ}, {t.vocabulary.bullet}",
    ]
    body = fmt_formula(t.formula)
    if args.stats or args.json:
        counts = {str(k): v for k, v in sorted(t.axiom_counts().items())}
        if args.json:
            print(
                json.dumps(
                    {"formula": body, "axioms": len(t.axioms), "per_schema": counts},
                    indent=2,
                )
            )
            return EXIT_OK
        for k, v in counts.items():
            print(f"schema {k}: {v}")
    _write_out("\n".join(header) + "\n" + body + "\n", args.output)
    return EXIT_OK


def _cmd_translate_formula(args) -> int:
    phi = parse_formula(_read(args.formula))
    t = logic_to_asp.translate(
        phi,
        addr_len=args.addr_len,
        full_facts=args.full_facts,
        deadline=_deadline(args.timeout),
    )
    if args.json:
        print(
            json.dumps(
                {
                    "addr_len": t.addr_len,
                    "clauses": len(t.ground_program.heads),
                    "per_family": dict(sorted(t.counts.items())),
                },
                indent=2,
            )
        )
        return EXIT_OK
    _write_out(t.header() + "\n" + str(t.program), args.output)
    return EXIT_OK


def _cmd_soup_check(args) -> int:
    phi = parse_formula(_read(args.formula))
    z = soups.parse_soup(_read(args.soup))
    report = soups.check_soup(z, phi)
    _emit(
        {"valid": report.ok, "diagnostics": list(report.diagnostics)},
        args.json,
        "VALID SOUP" if report.ok else "INVALID: " + "; ".join(report.diagnostics),
    )
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _cmd_soup_find(args) -> int:
    phi = parse_formula(_read(args.formula))
    z = soups.find_soup(
        phi, addr_len=args.addr_len, deadline=_deadline(args.timeout)
    )
    if z is None:
        _emit({"soup": None}, args.json, "no soup: the formula is provable")
        return EXIT_NEGATIVE
    text = soups.write_soup(z)
    if args.json:
        print(json.dumps({"soup": text, "judgments": len(z.judgments)}, indent=2))
    else:
        _write_out(text, args.output)
    return EXIT_OK


def _cmd_soup_to_model(args) -> int:
    phi = parse_formula(_read(args.formula))
    z = soups.parse_soup(_read(args.soup))
    addr_len = z.addr_len if args.addr_len is None else args.addr_len
    t = logic_to_asp.translate(phi, addr_len=addr_len)
    model = soups.model_from_soup(z, phi, translation=t)
    atoms = sorted(str(a) for a in model)
    if args.json:
        print(json.dumps({"model": atoms}, indent=2))
    else:
        for a in atoms:
            print(a)
    return EXIT_OK


def _cmd_model_to_soup(args) -> int:
    phi = parse_formula(_read(args.formula))
    t = logic_to_asp.translate(phi, addr_len=args.addr_len)
    atoms = set()
    for line in _read(args.model).splitlines():
        line = line.split("%", 1)[0].strip()
        if line:
            atoms.add(parse_ground_atom(line))
    z = soups.soup_from_model(frozenset(atoms), t)
    _write_out(soups.write_soup(z), args.output)
    return EXIT_OK


def _spec_from_args(args, count_default: int) -> CorpusSpec:
    return CorpusSpec(
        count=args.count if args.count is not None else count_default,
        seed=args.seed,
        formula_max_size=getattr(args, "max_size", 8),
    )


def _cmd_roundtrip(args, direction: str) -> int:
    if direction == "asp":
        spec = _spec_from_args(args, 500)
        reports = roundtrip_asp(spec, timeout=args.timeout, workers=args.workers)
    else:
        spec = _spec_from_args(args, 120)
        reports = roundtrip_logic(spec, timeout=args.timeout, workers=args.workers)
    digest = report_digest(reports)
    disagreements = [r for r in reports if not r.skipped and not r.agreed]
    skipped = [r for r in reports if r.skipped]
    if args.json:
        print(
            json.dumps(
                {
                    "reports": [r.to_json() for r in reports],
                    "digest": digest,
                    "disagreements": len(disagreements),
                    "skipped": len(skipped),
                },
                indent=2,
            )
        )
    else:
        for r in reports:
            print(r.line())
        print(
            f"# {len(reports)} instances, {len(disagreements)} disagreements, "
            f"{len(skipped)} skipped, digest {digest[:16]}"
        )
    return EXIT_OK if not disagreements else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aspsigma",
        description=(
            "Stable model semantics, Sigma1 proof search, and the "
            "translations between them"
        ),
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--seed", type=int, default=0, help="corpus seed")
    parser.add_argument(
        "--timeout", type=float, default=None, help="per-instance budget in seconds"
    )
    parser.add_argument(
        "--cap-base",
        type=int,
        default=engine.ENUM_CAP,
        help="stable-model enumeration cap (atoms that occur negated)",
    )
    parser.add_argument(
        "--addr-len", type=int, default=None, help="address length for soups"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, fn, **kwargs):
        c = sub.add_parser(name, **kwargs)
        c.set_defaults(fn=fn)
        return c

    c = cmd("ground", _cmd_ground, help="print all ground instances")
    c.add_argument("program")
    c.add_argument("--safe", action="store_true")

    c = cmd("solve", _cmd_solve, help="enumerate stable models")
    c.add_argument("program")
    c.add_argument("--safe", action="store_true")

    c = cmd("entail", _cmd_entail, help="stable-model entailment of an atom")
    c.add_argument("program")
    c.add_argument("atom")
    c.add_argument("--safe", action="store_true")

    c = cmd("prove", _cmd_prove, help="decide a Sigma1 formula, print a certificate")
    c.add_argument("formula")

    c = cmd("check", _cmd_check, help="re-verify a certificate against a formula")
    c.add_argument("term")
    c.add_argument("formula")

    c = cmd("translate-asp", _cmd_translate_asp, help="program to Sigma1 formula")
    c.add_argument("program")
    c.add_argument("--goal", required=True, help="nullary goal atom")
    c.add_argument("--stats", action="store_true")
    c.add_argument("-o", "--output", default=None)
    c.add_argument("--safe", action="store_true")

    c = cmd("translate-formula", _cmd_translate_formula, help="Sigma1 formula to program")
    c.add_argument("formula")
    c.add_argument("--full-facts", action="store_true")
    c.add_argument("-o", "--output", default=None)

    c = cmd("soup-check", _cmd_soup_check, help="verify a refutation soup")
    c.add_argument("formula")
    c.add_argument("soup")

    c = cmd("soup-find", _cmd_soup_find, help="refute a formula, print the prover's soup")
    c.add_argument("formula")
    c.add_argument("-o", "--output", default=None)

    c = cmd("soup-to-model", _cmd_soup_to_model, help="realize a soup as a stable model")
    c.add_argument("formula")
    c.add_argument("soup")

    c = cmd("model-to-soup", _cmd_model_to_soup, help="read the soup off a stable model")
    c.add_argument("formula")
    c.add_argument("model")
    c.add_argument("-o", "--output", default=None)

    c = cmd("roundtrip-asp", lambda a: _cmd_roundtrip(a, "asp"),
            help="programs: entailment vs provability")
    c.add_argument("--count", type=int, default=None)
    c.add_argument("--workers", type=int, default=1)

    c = cmd("roundtrip-logic", lambda a: _cmd_roundtrip(a, "logic"),
            help="formulas: provability vs soups vs stable models")
    c.add_argument("--count", type=int, default=None)
    c.add_argument("--workers", type=int, default=1)
    c.add_argument("--max-size", type=int, default=8)

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else EXIT_OK
    if args.timeout is None and args.command in ("roundtrip-asp", "roundtrip-logic"):
        args.timeout = ASP_BUDGET if args.command == "roundtrip-asp" else LOGIC_BUDGET
    try:
        return args.fn(args)
    except (BudgetExceeded, CapExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError as e:
        # every formula and proof walk keeps its own stack, so this is a
        # walk that met the recursion limit all the same: no verdict, so
        # exit 3, not 1
        print(
            f"error: input too deep for the recursive search ({e})", file=sys.stderr
        )
        return EXIT_BUDGET
    except CrossCheckError as e:
        # two routes disagreed: a disagreement, not an input error
        print(f"error: cross-check failed: {e}", file=sys.stderr)
        return EXIT_NEGATIVE
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except AspSigmaError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
