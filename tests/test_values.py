"""The immutable value classes behave as frozen dataclasses of their fields.

Each of the 30 classes, ``Word`` and the 29 that were frozen dataclasses,
is checked against a ``dataclasses.make_dataclass`` reference with the
same fields and defaults: repr, equality only within one class, hash,
refusal to set or delete, pickle and copy round trips, and positional,
keyword and default construction, with a missing, unexpected, surplus or
repeated argument refused.  Every value class the package defines is among
them, and only the eleven that check, derive or set their fields on a hot
path write their own constructor.  Values whose memo slots are filled
(compiled letters, a family read by ``normalize_system``, a folded and
educed word) compare, hash and print as fresh ones, and their copies start
with empty memos.  The package itself does not import ``dataclasses``: a
fresh interpreter that imports the CLI loads neither it nor ``inspect``
nor ``ast``.
"""

import copy
import dataclasses
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mcgseq
from mcgseq import fpgroup, model, oracles, sequence, systems, words as w
from mcgseq.textio import parse_word
from mcgseq.values import Value

ROOT = Path(__file__).resolve().parent.parent

S1 = frozenset({model.s_label(1)})
E1 = frozenset({model.e_label(1, 1)})


def _cases(m):
    """Class name -> (class, fields in order, the fields of an unequal
    instance, the defaulted fields).  Built from the mstar manifold, so
    each constructor's checks pass."""
    t = m.type_of(1)
    aut = t.act[0][1]
    word = parse_word(m, "slideIrr(1; x1) spin(1)")
    trivial = oracles.CyclicOracle(1)
    violation = model.Violation("empty-block", (frozenset(),), "empty block")
    klass = model.classify_system(m, model.standard_system(m))
    table = fpgroup.aut_of_word(m, word)
    ab = fpgroup.abelianized_action(m, word)
    rows = [
        (w.SlideIrr, {"summand": 1, "path": (("x", 1, 1),)}, {"summand": 2}),
        (w.SlideEnd, {"handle": 1, "sign": -1, "path": (("x", 2, 1),)}, {"sign": 1}),
        (w.SlideHandle, {"handle": 1, "path": (("x", 2, 1),)}, {"handle": 2}),
        (w.Spin, {"handle": 1}, {"handle": 2}),
        (w.Twist, {"ref": ("assoc", 1)}, {"ref": ("nonsep", 1)}),
        (w.SwapHandles, {"a": 1, "b": 2}, {"b": 3}),
        (w.SwapIrr, {"a": 1, "b": 2}, {"a": 0}),
        (w.Aut, {"summand": 1, "token": "tau"}, {"token": "1"}),
        (w.Word, {"manifold": m, "letters": word.letters}, {"letters": ()}),
        (sequence.EductionImage, {"perm": (2, 1), "tokens": ("1", "tau")}, {"perm": (1, 2)}),
        (sequence.SpottedMarking, {"cap_type": t, "spots": 3}, {"spots": 2}),
        (sequence.SpotSlide, {"spot": 1, "path": 1}, {"path": 0}),
        (sequence.SpotSwap, {"a": 1, "b": 2}, {"b": 3}),
        (sequence.SpotTwist, {"spot": 2}, {"spot": 1}),
        (sequence.CapAut, {"token": "tau"}, {"token": "1"}),
        (
            model.HomeoType,
            {"name": "B", "pi1": oracles.CyclicOracle(3), "mcg": trivial, "act": ()},
            {"name": "C"},
        ),
        (model.PrimeDecomposition, {"summands": m.summands, "handles": 2}, {"handles": 1}),
        (model.LaminarFamily, {"blocks": (S1, E1)}, {"blocks": (S1,)}),
        (
            model.Violation,
            {"code": "empty-block", "blocks": (frozenset(),), "message": "empty block"},
            {"code": "overlap"},
        ),
        (
            model.LaminarReport,
            {"ok": False, "violations": (violation,), "duplicates": ()},
            {"duplicates": (S1,)},
        ),
        (model.BlockInfo, {"block": S1, "separating": True, "census": S1}, {"census": E1}),
        (
            model.SystemClass,
            {
                "per_block": klass.per_block,
                "is_symmetric": True,
                "summand_blocks": klass.summand_blocks,
                "nonsep_blocks": klass.nonsep_blocks,
            },
            {"nonsep_blocks": ()},
        ),
        (model.Assignment, {"entries": model.identity_assignment(m).entries}, {"entries": ()}),
        (oracles.CyclicOracle, {"order": 2}, {"order": 3}),
        (oracles.FreeOracle, {"rank": 1}, {"rank": 2}),
        (oracles.FreeAbelianOracle, {"rank": 1}, {"rank": 2}),
        (
            oracles.TableOracle,
            {"names": t.mcg.names, "table": t.mcg.table},
            {"names": ("e", "t")},
        ),
        (
            oracles.OracleAut,
            {"oracle": aut.oracle, "images": aut.images},
            {"oracle": oracles.CyclicOracle(3), "images": (("g1", 2),)},
        ),
        (fpgroup.AutTable, {"manifold": m, "images": table.images}, {"images": ()}),
        (fpgroup.AbAction, {"manifold": m, "images": ab.images}, {"images": ()}),
    ]
    defaults = {model.HomeoType: {"act": ()}}
    return {
        cls.__name__: (cls, fields, {**fields, **changed}, defaults.get(cls, {}))
        for cls, fields, changed in rows
    }


NAMES = [
    "SlideIrr", "SlideEnd", "SlideHandle", "Spin", "Twist", "SwapHandles",
    "SwapIrr", "Aut", "Word", "EductionImage", "SpottedMarking", "SpotSlide",
    "SpotSwap", "SpotTwist", "CapAut", "HomeoType", "PrimeDecomposition",
    "LaminarFamily", "Violation", "LaminarReport", "BlockInfo", "SystemClass",
    "Assignment", "CyclicOracle", "FreeOracle", "FreeAbelianOracle",
    "TableOracle", "OracleAut", "AutTable", "AbAction",
]


def test_every_value_class_is_checked():
    """Each ``Value`` subclass that names fields, in any module of the
    package, is in ``NAMES``, so no value class skips the suite below."""
    for info in pkgutil.iter_modules(mcgseq.__path__):
        if info.name != "__main__":  # running it runs the CLI
            importlib.import_module(f"mcgseq.{info.name}")
    named, stack = set(), [Value]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls._fields:
                named.add(cls.__name__)
    assert named and named <= set(NAMES), sorted(named - set(NAMES))


@pytest.fixture(scope="module")
def cases(mstar):
    built = _cases(mstar)
    assert sorted(built) == sorted(NAMES)
    return built


# built on hot paths, or checking or deriving their fields
OWN_CONSTRUCTOR = {
    "Word", "EductionImage", "Assignment", "HomeoType", "PrimeDecomposition",
    "SpottedMarking", "CyclicOracle", "FreeOracle", "FreeAbelianOracle",
    "TableOracle", "OracleAut",
}


def test_only_the_named_classes_write_a_constructor(cases):
    """Every other value class takes ``Value``'s, derived from ``_fields``."""
    own = {name for name in NAMES if "__init__" in cases[name][0].__dict__}
    assert own == OWN_CONSTRUCTOR
    assert "__init__" in Value.__dict__


def _reference(cls, fields, defaults):
    spec = [
        (name, object, dataclasses.field(default=defaults[name]))
        if name in defaults
        else name
        for name in fields
    ]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


@pytest.mark.parametrize("name", NAMES)
class TestDataclassConformance:
    def test_repr_hash_and_construction(self, cases, name):
        cls, fields, _, defaults = cases[name]
        reference = _reference(cls, fields, defaults)(**fields)
        value = cls(**fields)
        assert cls(*fields.values()) == value
        assert repr(value) == repr(reference)
        assert hash(value) == hash(reference) == hash(tuple(fields.values()))
        assert not hasattr(value, "__dict__")
        required = [v for k, v in fields.items() if k not in defaults]
        if defaults:
            assert cls(*required) == cls(*required, *defaults.values())
            assert repr(cls(*required)) == repr(_reference(cls, fields, defaults)(*required))

    def test_missing_or_unexpected_argument_is_refused(self, cases, name):
        cls, fields, _, defaults = cases[name]
        first = next(field for field in fields if field not in defaults)
        missing = {k: v for k, v in fields.items() if k != first}
        for make in (cls, _reference(cls, fields, defaults)):
            with pytest.raises(TypeError):
                make(**missing)
            with pytest.raises(TypeError):
                make(**fields, other=None)
            with pytest.raises(TypeError):
                make(*fields.values(), None)
            with pytest.raises(TypeError):
                make(fields[first], **fields)

    def test_equality_within_one_class(self, cases, name):
        cls, fields, changed, defaults = cases[name]
        value, twin, other = cls(**fields), cls(**fields), cls(**changed)
        assert value == twin and not value != twin and hash(value) == hash(twin)
        assert value != other and not value == other
        reference = _reference(cls, fields, defaults)(**fields)
        assert value.__eq__(reference) is NotImplemented
        assert value != reference and reference != value
        assert value != tuple(fields.values())

    def test_fields_cannot_be_set_or_deleted(self, cases, name):
        cls, fields, _, _ = cases[name]
        value = cls(**fields)
        for field in [*fields, "other"]:
            with pytest.raises(AttributeError):
                setattr(value, field, None)
            with pytest.raises(AttributeError):
                delattr(value, field)
        assert value == cls(**fields)
        assert [getattr(value, f) for f in fields] == list(fields.values())

    @pytest.mark.parametrize(
        "clone",
        [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_copies_are_equal(self, cases, name, clone):
        cls, fields, _, _ = cases[name]
        value = cls(**fields)
        twin = clone(value)
        assert type(twin) is cls
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)


UNSET = object()  # a memo slot left unset until it is filled


def _filled(m):
    """Values whose memo slots are filled, each with its memo slots mapped
    to their values in a fresh value."""
    word = parse_word(m, "slideIrr(1; x1) slideEnd(2,+; x1) slideHandle(2; x1) spin(1)")
    letters = word.letters + (w.SwapHandles(1, 2), w.SwapIrr(1, 2))
    for letter in letters:
        systems._compile_letter(m, letter)
    systems.trace_assignment(m, word)
    sequence.is_discrepant(word)
    moved = parse_word(m, "spin(1) slideEnd(2,+; x1)")
    family = systems.act_system(m, moved, model.standard_system(m))
    systems.normalize_system(m, family, systems.trace_assignment(m, moved))
    filled = [(letter, {"_compiled": UNSET}) for letter in letters]
    filled.append((family, {"_nonsep": UNSET}))
    filled.append((word, {"_fold": UNSET, "_image": None}))
    for value, memos in filled:
        for name, empty in memos.items():
            assert getattr(value, name, UNSET) is not empty, (value, name)
    return filled


FILLED = ["SlideIrr", "SlideEnd", "SlideHandle", "Spin", "SwapHandles", "SwapIrr",
          "LaminarFamily", "Word"]


@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy,
                                   copy.copy], ids=["pickle", "deepcopy", "copy"])
@pytest.mark.parametrize("n", range(len(FILLED)), ids=FILLED)
def test_filled_memos_are_not_part_of_the_value(mstar, n, clone):
    value, memos = _filled(mstar)[n]
    assert type(value).__name__ == FILLED[n]
    fresh = type(value)(*[getattr(value, name) for name in value._fields])
    assert value == fresh and fresh == value and hash(value) == hash(fresh)
    assert repr(value) == repr(fresh)
    twin = clone(value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value)
    assert _block_ordered_repr(twin) == _block_ordered_repr(value)
    assert {name: getattr(twin, name, UNSET) for name in memos} == memos


def _block_ordered_repr(x) -> str:
    """``repr(x)`` with the labels of each frozenset in ``block_key`` order.

    A copied frozenset may iterate in another order than its original, as
    the hash seed decides, so the plain reprs of a family and its copy can
    differ."""
    if isinstance(x, frozenset):
        inner = ", ".join(map(repr, sorted(x, key=model.label_key)))
        return f"frozenset({{{inner}}})" if x else "frozenset()"
    if isinstance(x, tuple):
        inner = ", ".join(map(_block_ordered_repr, x))
        return f"({inner},)" if len(x) == 1 else f"({inner})"
    if isinstance(x, Value):
        fields = ", ".join(f"{name}={_block_ordered_repr(getattr(x, name))}"
                           for name in x._fields)
        return f"{type(x).__qualname__}({fields})"
    return repr(x)


@pytest.mark.parametrize("seed", ["6", "14"])
def test_filled_memos_under_other_hash_seeds(seed):
    """The seeds under which a copied family's frozensets once printed in
    another order than the original's."""
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).name}::test_filled_memos_are_not_part_of_the_value"],
        cwd=Path(__file__).parent,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert f"{3 * len(FILLED)} passed" in proc.stdout


def test_letters_of_two_classes_differ():
    assert w.SwapIrr(1, 2) != w.SwapHandles(1, 2)
    assert w.SwapHandles(1, 2) != w.SwapIrr(1, 2)
    assert not w.SwapIrr(1, 2) == sequence.SpotSwap(1, 2)
    assert len({w.SwapIrr(1, 2), w.SwapHandles(1, 2), sequence.SpotSwap(1, 2)}) == 3


def test_cli_import_loads_no_dataclasses():
    """``-S`` skips ``site``, which may import either module on its own."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    code = (
        "import sys, mcgseq.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast'} & sys.modules.keys()))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
