"""The frozen records whose ``__init__`` ``syntax.slot_init`` builds.

Each decorated class is compared with a plain frozen dataclass twin: the
same fields, flags and ``__post_init__``, with the ``__init__`` that
``dataclasses`` generates.  The instances come from real runs of every
layer, gathered by walking their fields.
"""

import dataclasses
import importlib
import inspect
import operator
import pickle
import pkgutil

import pytest

import aspsigma
from aspsigma import asp_to_logic, engine, logic_to_asp, proofs, soups
from aspsigma.corpus import CorpusSpec, fresh_goal_atom
from aspsigma.errors import FormulaError
from aspsigma.parsing import parse_formula, parse_program
from aspsigma.proofs import OAbs, OApp, PAbs, PApp, PVar
from aspsigma.syntax import (
    SLOT_INIT_FILE,
    Atom,
    AtomF,
    Clause,
    Program,
    const,
    occurrences,
    pi1_spine,
    slot_init,
    var,
)

# frozen dataclasses that keep the generated ``__init__``, with the reason
NOT_SLOT_INIT = {
    logic_to_asp.FormulaTranslation: "keeps its __dict__ for the cached_property "
    "`program`, so it has no slots to store through",
}


def _frozen_dataclasses():
    out = []
    for info in pkgutil.iter_modules(aspsigma.__path__):
        module = importlib.import_module(f"aspsigma.{info.name}")
        for obj in vars(module).values():
            if (
                inspect.isclass(obj)
                and obj.__module__ == module.__name__
                and dataclasses.is_dataclass(obj)
                and obj.__dataclass_params__.frozen
            ):
                out.append(obj)
    return sorted(out, key=lambda c: (c.__module__, c.__qualname__))


SLOT_INIT_CLASSES = [c for c in _frozen_dataclasses() if c not in NOT_SLOT_INIT]


def test_every_frozen_record_is_a_slot_init_class():
    assert len(SLOT_INIT_CLASSES) >= 30
    for cls in SLOT_INIT_CLASSES:
        assert "__slots__" in cls.__dict__, cls
        assert cls.__init__.__code__.co_filename == SLOT_INIT_FILE, cls
    for cls in NOT_SLOT_INIT:
        assert cls.__init__.__code__.co_filename != SLOT_INIT_FILE, cls


def _roots():
    """Objects of every layer, from one small run of each."""
    p = parse_program("p(x) :- q(x), not r(x).\nq(a).\nr(b) :- not s.\n#domain c.")
    loops = parse_program("a :- not b.\nb :- not a.")
    translations, contexts = [], []
    for program in (p, loops):
        t = asp_to_logic.translate(program, fresh_goal_atom(program))
        translations.append(t)
        for m in engine.stable_models(engine.ground(program)):
            contexts.append(asp_to_logic.model_context(t, m))
    refutable = parse_formula("((a -> b) -> c) -> ((b -> a) -> c) -> c")
    quantified = parse_formula("(forall x. p(x) -> q(x)) -> p(a) -> q(a)")
    pi1 = parse_formula("forall x. (forall y. r(x, y) -> s(y)) -> p(x) -> q(x)")
    nested = parse_formula("(forall x. (p(x) -> q(x)) -> r(x)) -> (p(a) -> q(a)) -> r(a)")
    z = soups.find_soup(refutable)
    verdicts = [
        logic_to_asp.decide_by_translation(refutable),
        logic_to_asp.decide_by_translation(parse_formula("a -> a")),
    ]
    proof = proofs.prove_sigma1(quantified)
    h, c = PVar("H"), const("c")
    made = [
        PAbs("H", AtomF("a"), h),
        OAbs("y", h),
        OAbs("x", PVar("K")),
        PApp(PVar("f"), h),
        OApp(h, c),
        OApp(h, var("y")),
        Atom("p", (c,), True),
        Clause(Atom("p"), (Atom("q", (c,), True),)),
        CorpusSpec(),
        CorpusSpec(count=7, seed=3),
    ]
    return [
        translations,
        asp_to_logic._normalize_clauses(p),
        contexts,
        logic_to_asp.analysis(quantified),
        logic_to_asp.analysis(nested),
        occurrences(pi1),
        pi1_spine(pi1),
        pi1_spine(pi1.body),
        z,
        soups.Soup(1, (), ()),
        soups.check_soup(z, refutable),
        soups.check_soup(soups.Soup(1, (), ()), refutable),
        verdicts,
        proof,
        made,
    ]


def _gather():
    """Up to eight instances of each record class reachable from the roots,
    in the order a walk over fields, tuples, dicts and sets meets them."""
    found: dict[type, list] = {}
    seen: set[int] = set()
    todo = list(reversed(_roots()))
    while todo:
        x = todo.pop()
        if id(x) in seen or isinstance(x, (str, int, bool, float, type(None))):
            continue
        seen.add(id(x))
        if dataclasses.is_dataclass(x):
            bucket = found.setdefault(type(x), [])
            if len(bucket) < 8:
                bucket.append(x)
            kids = [getattr(x, f.name) for f in dataclasses.fields(x)]
        elif isinstance(x, dict):
            kids = [*x.keys(), *x.values()]
        elif isinstance(x, (tuple, list, frozenset, set)):
            kids = list(x)
        else:
            kids = []
        todo.extend(reversed(kids))
    return found


_INSTANCES = _gather()


def _samples(cls):
    got = _INSTANCES.get(cls, [])
    assert got, f"no instance of {cls.__qualname__} was made"
    return got


def _twin(cls):
    """A plain frozen dataclass with ``cls``'s name, fields, flags, bases
    and ``__post_init__``, whose ``__init__`` ``dataclasses`` generates."""
    params = cls.__dataclass_params__
    fields = [
        (
            f.name,
            f.type,
            dataclasses.field(
                default=f.default,
                default_factory=f.default_factory,
                init=f.init,
                repr=f.repr,
                hash=f.hash,
                compare=f.compare,
                kw_only=f.kw_only,
            ),
        )
        for f in dataclasses.fields(cls)
    ]
    namespace = {}
    if "__post_init__" in cls.__dict__:
        namespace["__post_init__"] = cls.__dict__["__post_init__"]
    return dataclasses.make_dataclass(
        cls.__name__,
        fields,
        bases=cls.__bases__,
        namespace=namespace,
        eq=params.eq,
        order=params.order,
        unsafe_hash=params.unsafe_hash,
        frozen=True,
        slots=True,
    )


def _as_twin(twin, x):
    return twin(**{f.name: getattr(x, f.name) for f in dataclasses.fields(x) if f.init})


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type of what it raises."""
    try:
        return ("value", fn(*args))
    except Exception as e:  # noqa: BLE001 - the twin must raise alike
        return ("raises", type(e))


def _same_fields(a, b):
    return all(
        getattr(a, f.name) is getattr(b, f.name) for f in dataclasses.fields(a)
    )


_classes = pytest.mark.parametrize(
    "cls", SLOT_INIT_CLASSES, ids=lambda c: c.__qualname__
)


@_classes
def test_the_signature_is_the_generated_one(cls):
    twin = _twin(cls)
    assert str(inspect.signature(cls)) == str(inspect.signature(twin))
    assert cls.__init__.__annotations__ == twin.__init__.__annotations__
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


@_classes
def test_positional_and_keyword_construction(cls):
    fields = [f for f in dataclasses.fields(cls) if f.init]
    for x in _samples(cls):
        values = [getattr(x, f.name) for f in fields]
        by_position = cls(*values)
        by_keyword = cls(**{f.name: v for f, v in zip(fields, values)})
        assert _same_fields(by_position, x) and _same_fields(by_keyword, x)
        if cls.__dataclass_params__.eq:
            assert by_position == x and by_keyword == x


@_classes
def test_defaults_and_default_factories(cls):
    x = _samples(cls)[0]
    fields = dataclasses.fields(cls)
    required = {
        f.name: getattr(x, f.name)
        for f in fields
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    }
    a, b = cls(**required), cls(**required)
    for f in fields:
        if f.default is not dataclasses.MISSING:
            assert getattr(a, f.name) is f.default
        elif f.default_factory is not dataclasses.MISSING:
            assert getattr(a, f.name) == f.default_factory()
            assert getattr(a, f.name) is not getattr(b, f.name)


def test_soup_members_default_is_a_fresh_dict():
    a, b = soups.Soup(1, (), ()), soups.Soup(1, (), ())
    assert a.members == {} and a.members is not b.members
    assert a.analysis is None


@_classes
def test_equality_hash_repr_and_order_match_the_twin(cls):
    twin = _twin(cls)
    xs = _samples(cls)
    ts = [_as_twin(twin, x) for x in xs]
    for x, t in zip(xs, ts):
        assert repr(x) == repr(t)
        assert _outcome(hash, x) == _outcome(hash, t)
    compare = [
        operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge
    ]
    for i, (x, t) in enumerate(zip(xs, ts)):
        for y, u in zip(xs[i:], ts[i:]):
            for op in compare:
                assert _outcome(op, x, y) == _outcome(op, t, u), (op, x, y)


def test_sorted_atoms_and_terms_follow_the_fields():
    atoms = [Atom("q", (const("b"),)), Atom("p", (var("x"),), True), Atom("p")]
    assert sorted(atoms) == [Atom("p"), Atom("p", (var("x"),), True), atoms[0]]
    assert sorted([var("a"), const("b"), const("a")]) == [
        const("a"), var("a"), const("b")
    ]


@_classes
def test_assignment_raises_frozen_instance_error(cls):
    x = _samples(cls)[0]
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, f.name, getattr(x, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, f.name)
    assert not hasattr(x, "__dict__")


@_classes
def test_replace_and_pickle_round_trip(cls):
    fields = dataclasses.fields(cls)
    for x in _samples(cls)[:3]:
        y = dataclasses.replace(x)
        assert type(y) is cls and _same_fields(y, x)
        # a record pickles when its fields do (a translation's atom builder
        # holds closures, so a verdict does not)
        if all(_outcome(pickle.dumps, getattr(x, f.name))[0] == "value" for f in fields):
            back = pickle.loads(pickle.dumps(x))
            assert type(back) is cls and back == x
    f = dataclasses.fields(cls)[0]
    other = _samples(cls)[-1]
    y = dataclasses.replace(x, **{f.name: getattr(other, f.name)})
    assert getattr(y, f.name) is getattr(other, f.name)


def test_a_clause_with_a_negated_head_still_raises():
    head = Atom("p", (), True)
    with pytest.raises(FormulaError, match="clause head must be positive"):
        Clause(head)
    with pytest.raises(FormulaError, match="clause head must be positive"):
        Clause(head=head, body=(Atom("q"),))
    with pytest.raises(FormulaError, match="clause head must be positive"):
        dataclasses.replace(Clause(Atom("p")), head=head)


def test_a_program_still_checks_its_domain():
    clause = Clause(Atom("p", (const("a"),)))
    with pytest.raises(FormulaError, match="outside the domain"):
        Program((clause,), frozenset({"b"}))
    with pytest.raises(FormulaError, match="nonempty"):
        Program(domain=frozenset(), clauses=())
    assert Program((clause,), frozenset({"a"})).clauses == (clause,)


def test_slot_init_takes_only_frozen_slots_dataclasses_of_positional_fields():
    @dataclasses.dataclass(frozen=True)
    class WithDict:
        x: int

    @dataclasses.dataclass(slots=True)
    class Mutable:
        x: int

    @dataclasses.dataclass(frozen=True, slots=True)
    class WithInitVar:
        x: int
        y: dataclasses.InitVar[int] = 0

    @dataclasses.dataclass(frozen=True, slots=True)
    class NotInInit:
        x: int = dataclasses.field(default=0, init=False)

    @dataclasses.dataclass(frozen=True, slots=True)
    class KeywordOnly:
        x: int = dataclasses.field(default=0, kw_only=True)

    for cls in (WithDict, Mutable, WithInitVar, NotInInit, KeywordOnly, int):
        with pytest.raises(TypeError):
            slot_init(cls)


def test_slot_init_builds_defaults_factories_and_post_init():
    made = []

    @slot_init
    @dataclasses.dataclass(frozen=True, slots=True, order=True)
    class Record:
        a: int
        b: list = dataclasses.field(default_factory=list)
        c: int = 5

        def __post_init__(self):
            made.append(self.a)

    r = Record(2, c=3)
    assert (r.a, r.b, r.c) == (2, [], 3) and Record(2).b is not r.b
    assert made == [2, 2] and Record(1) < r
    assert str(inspect.signature(Record)) == str(inspect.signature(_twin(Record)))
