"""Every typed error of checking and binding: source or data in, exception type and message out.

Also the census of every exception class in `dasl`: each one blames the
input (a `DaslError`) or is a pinned defect.
"""

import importlib
import pkgutil
import re
import struct

import numpy as np
import pytest

import dasl
from dasl.data import BadMagic, TruncatedFile, write_csv_table
from dasl.errors import DaslError
from dasl.interp import DataLoadError, MissingExtern, WidthMismatch, bind_theory
from dasl.lang import DuplicateDecl, SortError, UnboundSymbol, check_theory, parse_theory

HEAD = """
sort D card 3;
sort K card 2;
sort R dim 2;
rel P : D extern P;
rel Q : R extern Q;
func f : D -> D extern f;
"""

EXTERNS = {"P": lambda i: i, "Q": lambda r: r, "f": lambda i: i}

CASES = [
    # declarations
    ("card_0", "sort Z card 0;", None, SortError, "Z: expected cardinality >= 1, found 0"),
    ("dim_0", "sort Z dim 0;", None, SortError, "Z: expected dim >= 1, found 0"),
    ("func_mlp_0", "func g : R -> R mlp 0;", None, SortError,
     "g: expected hidden sizes >= 1, found (0,)"),
    ("out_1", "rel V : D out 1 extern V;", None, SortError, "V: expected out >= 2, found 1"),
    ("duplicate_axiom", "axiom a : P(0);\naxiom a : P(1);", None, DuplicateDecl,
     "duplicate declaration of 'a'"),
    ("const_of_undeclared_sort", "const c : Nope;", None, UnboundSymbol,
     "unbound symbol 'Nope'"),
    # terms
    ("unknown_function", "axiom a : forall x: D . P(g(x));", None, UnboundSymbol,
     "unbound symbol 'g'"),
    ("function_arity", "axiom a : forall x: D . P(f(x, x));", None, SortError,
     "f: expected 1 arguments, found 2"),
    ("add_on_data_sort", 'data Pool : R from "mem";\naxiom a : forall r: Pool . Q(r + 1);',
     None, SortError, "arithmetic: expected an index-range sort, found R"),
    ("add_across_index_sorts", "axiom a : forall x: D . forall k: K . P(x + k);", None,
     SortError, "arithmetic: expected one index sort, found ['D', 'K']"),
    ("literal_in_data_slot", "axiom a : Q(1);", None, SortError,
     "Q: expected R, found integer literal"),
    # a literal argument is an id of its slot: [0, card), or a boolvec's bits
    ("literal_past_relation_slot", "rel S : D x K extern S;\naxiom a : S(2, 2);", None,
     SortError, "S: expected argument 1 in [0, 2), found literal 2"),
    ("literal_past_function_slot", "axiom a : P(f(3));", None, SortError,
     "f: expected argument 0 in [0, 3), found literal 3"),
    ("literal_past_boolvec_bits", "boolvec b : [1, 0];\naxiom a : b(2);", None, SortError,
     "b: expected argument 0 in [0, 2), found literal 2"),
    # formulas
    ("equal_literals", "axiom a : 1 = 2;", None, SortError,
     "=: expected a sorted term, found two bare integers"),
    ("literal_beside_data_sort", 'data Pool : R from "mem";\naxiom a : forall r: Pool . r = 1;',
     None, SortError, "=: expected an index-range sort beside a literal, found R"),
    ("literal_past_equality_sort", "axiom a : forall x: D . P(x) | x = 5;", None, SortError,
     "=: expected an id of D in [0, 3), found literal 5"),
    ("equal_across_sorts", "axiom a : forall x: D . forall k: K . x = k;", None, SortError,
     "=: expected D, found K"),
    ("select_by_data_sort", 'rel V : D out 3 extern V;\ndata Pool : R from "mem";\n'
     "axiom a : forall r: Pool . pi[r](V(0));", None, SortError,
     "pi: expected an index-range term, found R"),
    ("boolvec_two_arguments", "boolvec b : [1, 0, 1];\naxiom a : forall x: D . b(x, x);",
     None, SortError, "b: expected one index argument, found 2"),
    ("boolvec_wrong_card", "boolvec b : [1, 0];\naxiom a : forall x: D . b(x);", None,
     SortError, "b: expected index sort of card 2, found D"),
    ("variable_as_relation", "axiom a : forall x: D . x(x);", None, SortError,
     "x: expected a relation, found quantified variable"),
    ("unknown_domain", "axiom a : forall x: Nope . P(x);", None, UnboundSymbol,
     "unbound symbol 'Nope'"),
    ("bound_variable_count", "axiom a : forall (x, y): D . P(x);", None, SortError,
     "D: expected 1 bound variables, found 2"),
    ("repeated_bound_variables", 'data Pairs : D x D from "mem";\n'
     "axiom a : forall (x, x): Pairs . P(x);", None, SortError,
     "Pairs: expected distinct bound variables, found ('x', 'x')"),
    # binding
    ("learned_const_without_dim", "const c : D learned;", None, WidthMismatch,
     "constant c: sort D has no dim to learn"),
    ("const_without_extern", "const c : D;", None, MissingExtern,
     "extern 'c' is not registered"),
    ("mlp_result_without_dim", "func g : R -> D mlp 4;", None, WidthMismatch,
     "function result sort D has no dim"),
    ("missing_file", 'data Pool : R from "nope.csv";', None, DataLoadError,
     "missing data file"),
    ("unparsable_csv", 'data Pool : R from "bad.csv";', None, DataLoadError,
     "bad.csv: could not convert string 'zz'"),
    ("csv_column_count", 'data Pool : R from "three.csv";', None, DataLoadError,
     "three.csv: expected 2 columns, got 3"),
    ("idx_without_magic", 'data Pool : K from "short.idx";', None, DataLoadError,
     "short.idx: missing magic"),
    ("idx_truncated_header", 'data Pool : K from "head.idx";', None, DataLoadError,
     "head.idx: truncated header"),
    ("idx_wrong_magic", 'data Pool : K from "magic.idx";', None, DataLoadError,
     "magic.idx: magic 0x00000802"),
    ("file_count", 'data Pool : R x K from "three.csv";', None, DataLoadError,
     "Pool: 2 sorts but 1 files"),
    ("data_tuple_column_count", 'data Pool : R x K from "mem";',
     {"Pool": (np.zeros((4, 2)),)}, DataLoadError, "Pool: expected 2 columns"),
    ("non_numeric_ids", 'data Pool : K from "mem";', {"Pool": (np.array(["a", "b"]),)},
     DataLoadError, "Pool: column 0 (sort K): ids must be numbers, got <U1"),
]


@pytest.fixture
def data_dir(tmp_path):
    (tmp_path / "bad.csv").write_text("c0,c1\n1,zz\n")
    write_csv_table(tmp_path / "three.csv", np.zeros((4, 3)))
    (tmp_path / "short.idx").write_bytes(b"\x00\x00")
    (tmp_path / "head.idx").write_bytes(struct.pack(">I", 0x00000801) + b"\x00")
    (tmp_path / "magic.idx").write_bytes(struct.pack(">II", 0x00000802, 0))
    return str(tmp_path)


@pytest.mark.parametrize("tail, data, error, message",
                         [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_bad_input_raises_its_typed_error(data_dir, tail, data, error, message):
    with pytest.raises(error, match=re.escape(message)) as caught:
        theory = check_theory(parse_theory(HEAD + tail))
        bind_theory(theory, externs=EXTERNS, data=data, data_dir=data_dir)
    assert isinstance(caught.value, DaslError)


@pytest.mark.parametrize("name, cause", [("short.idx", TruncatedFile),
                                         ("head.idx", TruncatedFile),
                                         ("magic.idx", BadMagic)])
def test_a_broken_idx_file_keeps_the_reader_error_as_cause(data_dir, name, cause):
    theory = check_theory(parse_theory(HEAD + f'data Pool : K from "{name}";'))
    with pytest.raises(DataLoadError) as caught:
        bind_theory(theory, externs=EXTERNS, data_dir=data_dir)
    assert type(caught.value.__cause__) is cause
    assert str(caught.value) == str(caught.value.__cause__)


# the exception classes that blame no input: raising one is a defect in dasl
# or in the code that calls it, so `dasl` shows its traceback and exits 1
DEFECTS = {
    "dasl.tensor.ShapeMismatch", "dasl.tensor.AxisOutOfRange", "dasl.tensor.IndexOutOfRange",
    "dasl.tensor.NotScalar", "dasl.tensor.DetachedNode",
    "dasl.logit.EmptyConjunction", "dasl.logit.EmptyDisjunction",
}


def _exception_classes() -> dict[str, type]:
    found = {}
    for info in pkgutil.walk_packages(dasl.__path__, "dasl."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def test_every_exception_class_blames_the_input_or_is_a_pinned_defect():
    classes = _exception_classes()
    sides = {name: issubclass(cls, DaslError) for name, cls in classes.items()}
    assert {name for name, inside in sides.items() if not inside} == DEFECTS
    assert sum(sides.values()) == 26  # DaslError, InvalidValue and 24 input errors
