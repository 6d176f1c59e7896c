"""Formula nodes and crisp models are slotted: no per-instance `__dict__`.

An oracle run holds thousands of AST nodes and crisp models at once, so each
carries only its fields.  Slots must not change what a node is: equality,
hashing, copies, pickles and `dataclasses.replace` give equal nodes.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from dasl import oracle
from dasl.lang import ast, check_theory, parse_theory

AST_CLASSES = [v for v in vars(ast).values()
               if dataclasses.is_dataclass(v) and v.__module__ == ast.__name__]

# every node kind of the language, checked, so bare names resolve to
# `Constant` and `BoolVectorConst`
EVERY_KIND = """
sort D card 3;
sort R dim 2;
sort E card 4 dim 2;
const c : D;
const e : E learned;
func f : D -> D extern f;
rel P : D extern P;
rel V : D x R out 3 mlp 4, 2 act tanh;
boolvec b : [1, 0, 1];
data Pool : R x D from "pool.csv";
axiom every : forall (r, x): Pool . exists y: D .
    (P(f(x)) & ~P(c) | P(0) -> x = (y + 1) mod 3) & pi[x](V(y, r)) & b & b(y) & true;
"""


def _nodes(value):
    """Every AST dataclass instance reachable from value, in field order."""
    if isinstance(value, tuple):
        for item in value:
            yield from _nodes(item)
    elif dataclasses.is_dataclass(value):
        yield value
        for f in dataclasses.fields(value):
            yield from _nodes(getattr(value, f.name))


@pytest.fixture(scope="module")
def theory():
    return check_theory(parse_theory(EVERY_KIND))


def _random_formulas(n=200):
    signature, rng = oracle.default_signature(), np.random.default_rng(34)
    return [oracle.random_formula(signature, 4, rng) for _ in range(n)]


@pytest.mark.parametrize("cls", [*AST_CLASSES, oracle.CrispModel], ids=lambda c: c.__name__)
def test_every_class_is_slotted_along_its_mro(cls):
    assert [k for k in cls.__mro__[:-1] if "__slots__" not in vars(k)] == []
    assert "__dict__" not in dir(cls)


def test_the_theory_holds_every_node_kind_and_none_has_a_dict(theory):
    nodes = list(_nodes(theory))
    assert {type(n) for n in nodes} == set(AST_CLASSES)
    assert [n for n in nodes if hasattr(n, "__dict__")] == []


def test_nodes_survive_every_copy_equal_and_hash_equal(theory):
    nodes = list(_nodes(theory)) + [n for f in _random_formulas() for n in _nodes(f)]
    for node in nodes:
        for twin in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node)),
                     dataclasses.replace(node)):
            assert type(twin) is type(node) and twin == node and hash(twin) == hash(node)
            assert not hasattr(twin, "__dict__")


def test_nodes_stay_frozen(theory):
    with pytest.raises(dataclasses.FrozenInstanceError):
        theory.axioms[0].name = "other"
    # a name that is no field has no slot either; CPython 3.10-3.13's frozen
    # __setattr__ for a slotted class raises TypeError for it
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        theory.note = "a field the class does not declare"


def test_a_crisp_model_copies_and_pickles_field_for_field():
    signature = oracle.default_signature()
    model = oracle.random_model(signature, {"D": 3}, np.random.default_rng(0))
    assert not hasattr(model, "__dict__")
    for twin in (copy.deepcopy(model), pickle.loads(pickle.dumps(model)),
                 dataclasses.replace(model)):
        assert type(twin) is oracle.CrispModel and not hasattr(twin, "__dict__")
        assert twin.sizes == model.sizes and twin.constants == model.constants
        for name in ("functions", "relations"):
            mine, theirs = getattr(model, name), getattr(twin, name)
            assert mine.keys() == theirs.keys()
            for key in mine:
                assert mine[key].dtype == theirs[key].dtype
                assert mine[key].tobytes() == theirs[key].tobytes()
