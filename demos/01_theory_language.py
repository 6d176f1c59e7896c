"""Walk through the theory language: tokens, parsing, checking, printing, lowering.

A theory file declares sorts, symbol bindings, datasets, and axioms.  This
script builds the digit-triples theory a piece at a time and shows what
each stage of the front end produces.
"""

from dasl.compiler import compile, explain
from dasl.interp import bind_theory
from dasl.lang import (
    check_theory,
    parse_formula,
    parse_theory,
    print_formula,
    print_theory,
    tokenize,
)

SOURCE = """
# ten digit classes, 28x28 images flattened to 784 floats
sort Image dim 784;
sort Digit card 10;

# a classifier producing one logit per digit class
rel digit : Image out 10 mlp 512 act sigmoid;

# labeled pairs and unlabeled triples (bound to arrays at run time)
data Labeled : Image x Digit from "labeled";
data Triples : Image x Image x Image from "triples";

# every labeled image should classify as its label
axiom labels : forall (x, y): Labeled . pi[y](digit(x));

# the modular-arithmetic constraint over unlabeled triples
axiom rule : forall (x1, x2, x3): Triples . forall y1: Digit . forall y2: Digit .
    (pi[y1](digit(x1)) & pi[y2](digit(x2))) -> pi[(y1 + y2) mod 10](digit(x3));
"""

print("=== tokens of the first axiom line ===")
line = 'axiom labels : forall (x, y): Labeled . pi[y](digit(x));'
print([f"{t.kind}:{t.text}" for t in tokenize(line)][:14], "...")

print("\n=== parse + check ===")
theory = check_theory(parse_theory(SOURCE))
print(f"sorts: {[s.name for s in theory.sorts]}")
print(f"axioms: {[a.name for a in theory.axioms]}")

print("\n=== canonical pretty-printer (round-trips through the parser) ===")
printed = print_theory(theory)
print(printed)
assert parse_theory(printed) is not None

print("=== precedence: ~ binds tighter than &, -> is right-associative ===")
f = parse_formula("~P(c) & Q(c) -> R(c) -> S(c)")
print(print_formula(f))

print("\n=== lowering to the Not/And/Forall core (demo 04 lists a full plan) ===")
# the compiler lowers |, -> and exists into negations; explain prints the
# lowered tree, one node per line with its uid
small = check_theory(parse_theory(
    "sort D card 3;\nrel P : D extern P;\nrel Q : D extern Q;\n"
    "axiom a : exists x: D . P(x) | Q(x);"))
print("source:", print_formula(small.axioms[0].formula))
plan = compile(small, bind_theory(small, externs=dict.fromkeys("PQ", lambda i: i - 1.0)))
print(explain(plan).split("samplers:")[0].rstrip())
