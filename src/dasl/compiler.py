"""Lower a checked, bound theory to a differentiable evaluation plan.

Compilation has two steps: lower once, evaluate the tree.

- One pass lowers each checked axiom into a tree of `Node`s over the
  Not/And/Forall core: Or, Implies and Exists become negations as they are
  lowered.  Each node carries a uid, its sorted free variables, its class
  width, its depth (the number of quantifiers that enclose it) and its
  per-kind payload.  The same pass checks every symbol against the
  interpretation and registers the sampler of every sampled quantifier.
- Evaluation reads only that tree and visits each node once per forward
  pass.  Every quantifier owns a tensor axis, holding `arange(card)` for an
  index sort or the sampler's draw for a dataset or embedding table, so
  nested quantifiers range over the cross product of their groundings.  A
  quantifier broadcasts its body to its axis and reduces it by an n-ary
  conjunction; a symbol sees the groundings flattened into one row axis.
  A learned symbol applied at several nodes is called once per pass, on
  the rows of all those applications, and each node reads its own slice.

A node is static when no parameter can reach it: its value is a function of
the dataset rows and the extern, fixed-constant and boolvec bindings alone.
Inside a sampled quantifier, each maximal static formula over the
quantifier's own variables is held by a `fold` node; where such formulas
are operands of one conjunction whose value is taken (not one the fused
loss splits into its conjuncts), they all are one fold, placed first.  The
first evaluation of a fold computes its formulas once over the
quantifier's whole domain and keeps one array per row in `Plan.folds`: a
fold of one formula its value, a fold of several the running sum S of
`logit.conj` over them (`logit.conj_parts`).  Every later step gathers
those rows by the draw.  An `and` whose first operand is a fold of several
resumes from S, and `logit.conj` adds the other operands to it; a fold of
one formula is its value, first in an `and` or anywhere else.  A plan's
datasets and bindings are therefore fixed once it is compiled.

A formula of class width n > 1 (an `out n` relation, a boolvec, or a
connective over one) has one truth value per class, and reads class by class:

- `~`, `&`, `|` and `->` act on each class, a width-1 operand standing for
  every class;
- a quantifier reduces its body on each class: `forall x . V` is the vector
  of ∧_x V_c(x), and `exists x . V`, lowered as `~forall x . ~V`, that of
  ∨_x V_c(x);
- `pi[t](V)` is the softmax probability of class t, as a logit, width 1;
- an axiom (so its loss) is the conjunction of its classes: an axiom
  `exists x . V` means ∧_c ∨_x V_c(x).

A static formula over one boolvec bit pattern whose other operands are one
wide (a rule mask `h -> c`) takes two values per row, those at bits 0 and 1,
and the evaluator keeps it as a `tensor.Columns` of those two columns and the
bits: a boolvec is its columns -BIG and +BIG, `not` negates both, and a
static `and` whose `Columns` operands share one bits array (a plan keeps one
per bit pattern) conjoins on the two columns.  So each class entry is the
same ops on the same inputs as at full width, at 2 entries per row.  Any
other conjunction, and a fold's table, takes a `Columns` operand narrow: the
kernel gathers its logsigmoid by the bits where it adds it, in the same
order.  Only a softselect's vector, a quantifier's body, a loss term, an
axiom's root, the logits of `scores` and a one-bit boolvec meeting a class
vector are gathered to every class.

The same tree scores a classifier: `scores` binds the variables of an axiom
`forall (x…, y): D . pi[y](V)` to given rows and returns V's class logits and
the labels, so test-time scoring applies exactly the knowledge that training
compiled.

The root conjunction fuses with the loss: since the loss of a conjunction
is the sum of its conjuncts' losses, the fused loss is a plain sum of
softplus(-l) over root-level conjuncts and all their groundings.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import logit as L
from . import tensor as T
from .errors import DaslError, InvalidValue
from .interp import (
    EmbeddingColumn,
    ExternBinding,
    FixedBinding,
    IdOutOfRange,
    Interpretation,
    Sampler,
)
from .lang import (
    And,
    ArithExpr,
    BoolConst,
    BoolVectorConst,
    Constant,
    Equals,
    Exists,
    Forall,
    FuncApp,
    Implies,
    IntLiteral,
    Not,
    Or,
    RelApp,
    SoftSelect,
    Theory,
    Variable,
)
from .lang.check import SortError, UnboundSymbol
from .lang.printer import print_formula, print_term
from .tensor import Tensor


class NonFiniteLogit(DaslError):
    pass


class RowAxisMismatch(DaslError):
    """A symbol applied to arguments returned no leading axis of one result per row."""


class ZeroDivisor(DaslError):
    """A `mod` term's divisor evaluated to 0 at some grounding."""


@dataclass
class CompiledBatch:
    """One forward evaluation: root logit, per-axiom logits or losses, vector symbol outputs."""

    root: Tensor | None  # None only for an empty axiom set
    per_axiom: dict[str, Tensor]
    symbol_outputs: dict = field(default_factory=dict)


class Node:
    """One lowered formula or term.

    kind      data                                      kids
    bool      the crisp logit, +BIG or -BIG             ()
    boolvec   the bits, one array per pattern per plan  ()
    bits      the bits, one array per pattern per plan  (index term,)
    app       (symbol, symbol_outputs key or None)      argument terms
    eq        None                                      (lhs, rhs)
    not, and  None                                      operands
    select    None                                      (index term, vector)
    index     (variable, cardinality)                   (body,)
    sample    (variables, sampler key)                  (body,)
    var       the variable name                         ()
    int       the integer                               ()
    arith     "add" or "mod"                            (lhs, rhs)
    fold      (sampler key, axis)                       static conjuncts

    An `app` applies a relation, function or constant, a constant with no
    arguments.  A sampler key is (axiom, variables, domain name).  An `app`
    has a symbol_outputs key only when its relation is vector-valued.
    `depth` counts the quantifiers that enclose a node, and an `index` or
    `sample` node's own axis is its depth.  A node's value has one leading
    axis per enclosing quantifier (size 1 where the node does not depend on
    its variables; a node without free variables may have none), then its
    class axis when `width` exceeds 1, or for a term its feature axis.

    `static` is true when no parameter can reach the node: `bool`,
    `boolvec` and `int`; a `var` whose column is not an embedding
    table; an `app` bound to an extern or a fixed value, with static
    arguments and no symbol_outputs key; and an `eq`, `arith`, `bits`,
    `not`, `and`, `select` or `index` whose kids are all static.  A `sample`
    is never static: its value depends on the draw.
    A `fold` gathers its table by the draw of the sampled quantifier that
    binds `variables` on `axis`: the value of its one formula, or the
    running sum S of its several conjuncts, each taken to its class width.
    Only the first operand of an `and` holds several, every static conjunct
    over those variables, and the `and` resumes from S.

    `src` is the source formula of an atom, select or quantifier, which
    `explain` prints, or the source term of an `arith`, which errors name.
    """

    __slots__ = ("kind", "uid", "fv", "width", "kids", "data", "static", "depth", "src")

    def __init__(self, kind: str, uid: int, fv: tuple[str, ...], width: int,
                 kids: tuple, data, static: bool, depth: int, src=None):
        self.kind = kind
        self.uid = uid
        self.fv = fv
        self.width = width
        self.kids = kids
        self.data = data
        self.static = static
        self.depth = depth
        self.src = src


# kinds that are static exactly when all their kids are
_STATIC_IF_KIDS = frozenset(("eq", "arith", "bits", "not", "and", "select", "index"))


class _Lowering:
    """The single pass from a checked axiom to its Node tree."""

    def __init__(self, plan: Plan):
        self.plan = plan
        self.theory = plan.theory
        self.symbols = plan.interp.symbols
        patterns: dict[tuple, np.ndarray] = {}  # one array per bit pattern
        self.boolvecs = {b.name: patterns.setdefault(b.bits, np.asarray(b.bits))
                         for b in plan.theory.boolvecs}
        self.outs = {r.name: r.out for r in plan.theory.rels}
        self.sites: dict[tuple, object] = {}  # sampler key -> domain, in pre-order
        self.vector_outputs: set[tuple] = set()
        self.applied: list[str] = []  # the symbol of every application with arguments
        self.uids = 0
        self.axiom = ""
        self.depth = 0  # quantifiers enclosing the current node
        self.scope: dict[str, bool] = {}  # bound variable -> static

    def node(self, kind: str, kids: tuple = (), data=None, width: int = 1,
             fv: tuple[str, ...] | None = None, static: bool | None = None,
             depth: int | None = None, src=None) -> Node:
        if len(kids) == 1:
            kid = kids[0]
            if fv is None:
                fv = kid.fv
            if static is None:
                static = kid.static and kind in _STATIC_IF_KIDS
        else:
            if fv is None:
                fv = tuple(sorted({v for k in kids for v in k.fv}))
            if static is None:
                static = kind in _STATIC_IF_KIDS and False not in [k.static for k in kids]
        self.uids += 1
        return Node(kind, self.uids, fv, width, kids, data, static,
                    self.depth if depth is None else depth, src)

    def negate(self, node: Node) -> Node:
        return self.node("not", (node,), width=node.width)

    def conj(self, items: tuple) -> Node:
        return self.node("and", items, width=max(i.width for i in items))

    def lower_axiom(self, name: str, formula) -> Node:
        self.axiom = name
        root = self.formula(formula)
        if root.fv:
            raise UnboundSymbol(root.fv[0])
        return root

    def formula(self, f) -> Node:
        if isinstance(f, RelApp):
            bits = self.boolvecs.get(f.symbol)
            if bits is not None:
                return self.node("bits", (self.term(f.args[0]),), bits, src=f)
            return self.app(f.symbol, f.args, f)
        if isinstance(f, Not):
            return self.negate(self.formula(f.body))
        if isinstance(f, And):
            return self.conj(tuple(self.formula(i) for i in f.items))
        if isinstance(f, Or):  # a | b becomes ~(~a & ~b)
            return self.negate(self.conj(tuple(self.negate(self.formula(i)) for i in f.items)))
        if isinstance(f, Implies):  # a & b -> c becomes ~(a & b & ~c), one n-ary and
            lhs = f.lhs.items if isinstance(f.lhs, And) else (f.lhs,)
            items = tuple(self.formula(i) for i in lhs)
            return self.negate(self.conj((*items, self.negate(self.formula(f.rhs)))))
        if isinstance(f, Forall):
            return self.quantifier(f)
        if isinstance(f, Exists):  # exists x: S . f becomes ~forall x: S . ~f (see bound)
            return self.negate(self.quantifier(f))
        if isinstance(f, SoftSelect):
            return self.node("select", (self.term(f.index), self.formula(f.vector)), src=f)
        if isinstance(f, Equals):
            return self.node("eq", (self.term(f.lhs), self.term(f.rhs)), src=f)
        if isinstance(f, BoolConst):
            return self.node("bool", data=L.BIG if f.value else -L.BIG, static=True, src=f)
        if isinstance(f, BoolVectorConst):
            bits = self.boolvecs.get(f.name)
            if bits is None:
                raise UnboundSymbol(f.name)
            return self.node("boolvec", data=bits, width=len(bits), static=True, src=f)
        raise SortError("compile", "a formula", type(f).__name__)

    def quantifier(self, f: Forall | Exists) -> Node:
        sort = self.theory.sort(f.domain)
        if sort is not None and sort.is_index:
            # index-range quantifiers are always exhaustive, never sampled
            body = self.bound(f, (True,))
            kind, data = "index", (f.vars[0], sort.cardinality)
        else:
            domain = self.plan.interp.domains.get(f.domain)
            if domain is None:
                raise UnboundSymbol(f.domain)
            key = (self.axiom, f.vars, f.domain)
            self.sites.setdefault(key, domain)
            body = self.bound(f, [not isinstance(c, EmbeddingColumn) for c in domain.columns])
            body = self.fold(body, frozenset(f.vars), (key, self.depth), True)
            kind, data = "sample", (f.vars, key)
        fv = tuple(v for v in body.fv if v not in f.vars)
        return self.node(kind, (body,), data, body.width, fv, src=f)

    def bound(self, f: Forall | Exists, static) -> Node:
        """Lower a quantifier's body, one level deeper, with its variables in scope."""
        outer, self.scope = self.scope, {**self.scope, **dict(zip(f.vars, static))}
        self.depth += 1
        body = self.formula(f.body)
        if isinstance(f, Exists):
            body = self.negate(body)
        self.scope, self.depth = outer, self.depth - 1
        return body

    def fold(self, node: Node, names: frozenset, data: tuple, loss: bool) -> Node:
        """Wrap the static formulas over `names` in fold nodes.

        `names` are the sampled quantifier's variables; the checker renames
        bound variables apart, so no inner quantifier rebinds them.  A maximal
        static formula over them becomes a fold of its own, except an `and`
        or `index` that the fused loss descends into (`loss`): its operands
        are folded, so each keeps its own loss term.  Any other `and` gets all
        such operands as one fold, its first operand, unless an inner
        quantifier's fold is already there; then each is folded on its own.
        """
        kind = node.kind
        if _foldable(node, names) and not (loss and kind in ("and", "index")):
            return self.node("fold", (node,), data, node.width, static=True, depth=node.depth)
        if kind == "and" and not loss and node.kids[0].kind != "fold":
            grouped = tuple(k for k in node.kids if _foldable(k, names))
            if grouped:
                group = self.node("fold", grouped, data, node.width, static=True,
                                  depth=node.depth)
                node.kids = (group, *(self.fold(k, names, data, False)
                                      for k in node.kids if not _foldable(k, names)))
                return node
        if kind in ("and", "index", "sample"):
            node.kids = tuple(self.fold(k, names, data, loss) for k in node.kids)
        elif kind == "not":
            node.kids = (self.fold(node.kids[0], names, data, False),)
        elif kind == "select":
            node.kids = (node.kids[0], self.fold(node.kids[1], names, data, False))
        return node

    def term(self, t) -> Node:
        if isinstance(t, Variable):
            return self.node("var", data=t.name, fv=(t.name,),
                             static=self.scope.get(t.name, False))
        if isinstance(t, IntLiteral):
            return self.node("int", data=t.value, static=True)
        if isinstance(t, ArithExpr):
            return self.node("arith", tuple(self.term(a) for a in t.args), t.op, src=t)
        if isinstance(t, Constant):
            return self.app(t.name, (), t)
        if isinstance(t, FuncApp):
            return self.app(t.symbol, t.args, t)
        raise SortError("compile", "a term", type(t).__name__)

    def app(self, symbol: str, args: tuple, src) -> Node:
        """A relation, function or constant applied to `args`.

        An application with arguments is recorded for `Plan.shared_symbols`.
        A vector-valued relation's output is keyed by its printed arguments.
        """
        binding = self.symbols.get(symbol)
        if binding is None:
            raise UnboundSymbol(symbol)
        if args:
            self.applied.append(symbol)
        out = self.outs.get(symbol)
        out_key = None
        if out is not None:
            out_key = (symbol, tuple(print_term(a) for a in args))
            self.vector_outputs.add(out_key)
        kids = tuple(self.term(a) for a in args)
        static = (out_key is None and isinstance(binding, (ExternBinding, FixedBinding))
                  and False not in [k.static for k in kids])
        return self.node("app", kids, (symbol, out_key), width=out or 1, static=static, src=src)


def _foldable(node: Node, names: frozenset) -> bool:
    """Whether a node is a static formula over some of `names` alone."""
    return node.static and bool(node.fv) and names.issuperset(node.fv)


class Plan:
    """Evaluation plan: checked theory + interpretation + samplers.

    `roots` holds each axiom's lowered tree; `vector_outputs` holds every
    key that `CompiledBatch.symbol_outputs` can carry; `folds` maps a fold
    node's uid to its per-row table (its formula's value, or the `conj_parts`
    of its several formulas), filled on the node's first evaluation.
    `shared_symbols` holds the learned symbols applied at more than one node,
    which each evaluator pass calls once (`_Evaluator.batch`).
    """

    def __init__(self, theory: Theory, interp: Interpretation,
                 batch_size: int | None = None, seed: int = 0):
        self.theory = theory
        self.interp = interp
        lowering = _Lowering(self)
        self.roots: list[tuple[str, Node]] = [
            (ax.name, lowering.lower_axiom(ax.name, ax.formula)) for ax in theory.axioms]
        self.vector_outputs = frozenset(lowering.vector_outputs)
        self.shared_symbols = frozenset(
            s for s, n in Counter(lowering.applied).items()
            if n > 1 and getattr(interp.symbols[s], "parameters", None))
        self.folds: dict[int, np.ndarray] = {}
        seeds = np.random.SeedSequence(seed).spawn(len(lowering.sites)) if lowering.sites else ()
        self.samplers: dict[tuple, Sampler] = {
            key: Sampler(domain, batch_size=batch_size, rng=np.random.default_rng(ss))
            for (key, domain), ss in zip(lowering.sites.items(), seeds)
        }

    @property
    def parameters(self):
        return self.interp.parameters

    def draw(self) -> dict:
        """One batch of sampler draws, keyed like evaluate expects them."""
        return {key: s.sample() for key, s in self.samplers.items()}


def compile(theory: Theory, interp: Interpretation, batch_size: int | None = None,
            seed: int = 0) -> Plan:
    """Build an evaluation plan; raises UnboundSymbol/SortError on bad input."""
    return Plan(theory, interp, batch_size=batch_size, seed=seed)


# ---------------------------------------------------------------------------
# evaluation


def _crisp(mask) -> Tensor:
    return Tensor(np.where(np.asarray(mask, dtype=bool), L.BIG, -L.BIG))


def _is_integerish(v) -> bool:
    if isinstance(v, (int, np.integer)):
        return True
    return isinstance(v, np.ndarray) and np.issubdtype(v.dtype, np.integer)


def _shape(value) -> tuple:
    return value.data.shape if isinstance(value, Tensor) else getattr(value, "shape", ())


def _on_axis(n: int, axis: int, depth: int) -> tuple:
    """The leading shape of a value that spans only `axis`, under `depth` quantifiers."""
    return (1,) * axis + (n,) + (1,) * (depth - axis - 1)


def _reshape(value, shape: tuple):
    if _shape(value) == shape:
        return value
    if isinstance(value, Tensor):
        return T.reshape(value, shape)
    return np.asarray(value).reshape(shape)


def _spread(value, shape: tuple):
    """`value` broadcast to `shape`, differentiably when it is a Tensor."""
    if _shape(value) == shape:
        return value
    if isinstance(value, Tensor):
        return T.add(value, np.zeros(shape))
    return np.broadcast_to(value, shape)


def _per_row(symbol: str, out, rows: int, axioms) -> tuple:
    """The shape of one row of `symbol`'s result on `rows` rows; raises RowAxisMismatch."""
    shape = _shape(out)
    if shape[:1] != (rows,):
        names = ", ".join(repr(a) for a in dict.fromkeys(axioms))
        raise RowAxisMismatch(
            f"axiom {names}: {symbol} on {rows} rows gave shape {shape}; a "
            f"symbol applied to arguments must return one result per row")
    return shape[1:]


def _with_classes(value, width: int, classes: int):
    """A width-1 value meeting a class vector gets a trailing class axis; a
    one-bit boolvec's `tensor.Columns` is gathered first."""
    if width == 1 and classes > 1:
        value = _wide(value)
        if value.data.ndim:
            return T.reshape(value, value.data.shape + (1,))
    return value


def _wide(value) -> Tensor:
    """A formula's value at every class: a `tensor.Columns` gathered by its bits."""
    return Tensor(value.wide()) if isinstance(value, T.Columns) else value


def _shared_bits(kids: tuple, values: list):
    """The bits array of every `tensor.Columns` among `values`, if they share one
    and every other operand is one wide; else None."""
    bits = None
    for kid, value in zip(kids, values):
        if isinstance(value, T.Columns):
            if bits is None:
                bits = value.bits
            elif value.bits is not bits:
                return None
        elif kid.width > 1:
            return None
    return bits


class _Evaluator:
    """One forward pass over the lowered trees of a plan.

    Each node is evaluated once, to an array laid out as `Node` describes:
    one leading axis per enclosing quantifier.  An environment maps each
    bound variable to its column values and the axis they lie on.

    With `fold` false, a fold's conjuncts are evaluated on the rows bound in
    the environment instead of gathering its table by the draw; under an
    `and`, into one flat conjunction with the other operands.  `axiom`
    names the axiom being evaluated, for errors.

    Each pass starts with `batch`, which calls every symbol of
    `Plan.shared_symbols` once on the rows of its applications in the trees
    about to be evaluated.  A fold's table needs no batch: its formula is
    static, so no learned symbol appears in it.
    """

    def __init__(self, plan: Plan, draws: dict, fold: bool = True, axiom: str = ""):
        self.plan = plan
        self.draws = draws
        self.fold = fold
        self.axiom = axiom
        self.symbols = plan.interp.symbols
        self.symbol_outputs: dict = {}
        self.batched: dict[int, object] = {}  # node uid -> its slice of a batched call
        self.taken: dict[int, dict] = {}  # sampled quantifier uid -> its bound columns

    def term(self, node: Node, env: dict):
        kind = node.kind
        if kind == "var":
            value, axis = env[node.data]
            shape = _shape(value)
            return _reshape(value, _on_axis(shape[0], axis, node.depth) + shape[1:])
        if kind == "int":
            return node.data
        if kind == "arith":
            a, b = (self.term(k, env) for k in node.kids)
            if node.data == "add":
                return a + b
            if not np.all(b):
                raise ZeroDivisor(f"axiom {self.axiom!r}: the divisor of "
                                  f"{print_term(node.src)} is 0 at some grounding")
            return a % b
        return self.apply(node, env)  # app

    def apply(self, node: Node, env: dict):
        """An `app` node's symbol on its arguments, called once with one row per grounding.

        A node that `batch` collected gets its slice of the batched call.  Any
        other is called on its own rows (see `rows`).  The symbol, an MLP or
        an extern, folded or not, must return one result per row: a value
        whose leading axis has that many entries, which then gets the leading
        axes back.  Any other result raises RowAxisMismatch.  A symbol without
        arguments (a constant or a 0-ary relation) returns one value, which is
        used as it is.
        """
        symbol = node.data[0]
        if not node.kids:
            return self.symbols[symbol]([])
        out = self.batched.pop(node.uid, None)
        if out is None:
            lead, args = self.rows(node, env)
            out = self.symbols[symbol](args)
            out = _reshape(out, lead + _per_row(symbol, out, math.prod(lead), [self.axiom]))
        return out

    def rows(self, node: Node, env: dict) -> tuple[tuple, list]:
        """An application's leading axes, and its arguments flattened into one row per grounding.

        The arguments are spread to their common leading axes, then flattened.
        """
        depth = node.depth
        values = [self.term(k, env) for k in node.kids]
        leads = [_shape(v)[:depth] for v, k in zip(values, node.kids) if k.fv]
        lead = T._check_broadcast(*leads) if leads else ()
        rows, args = math.prod(lead), []
        for v, k in zip(values, node.kids):
            tail = _shape(v)[depth if k.fv else 0:]
            args.append(_reshape(_spread(v, lead + tail), (rows,) + tail))
        return lead, args

    def batch(self, roots: list, env: dict) -> None:
        """Call each shared learned symbol once for all its applications under `roots`.

        `roots` holds (axiom, node) pairs, evaluated next in `env`.  Each
        application's rows are built as `apply` would build them, and the rows
        of all of them are concatenated argument by argument.  Each node's
        slice of the one call, with its leading axes back, waits in `batched`
        for `apply`.  An application inside another's arguments is evaluated
        with its parent's arguments.
        """
        if not self.plan.shared_symbols:
            return
        apps: dict[str, list] = {}
        for axiom, node in roots:
            self.axiom = axiom
            self.collect(node, env, apps)
        for symbol, group in apps.items():
            axioms, nodes, leads, arg_lists = zip(*group)
            args = arg_lists[0]
            if len(group) > 1:
                args = [T.concat(parts, axis=0) if any(isinstance(a, Tensor) for a in parts)
                        else np.concatenate(parts) for parts in zip(*arg_lists)]
            out = self.symbols[symbol](args)
            sizes = [math.prod(lead) for lead in leads]
            tail = _per_row(symbol, out, sum(sizes), axioms)
            for node, lead, n, end in zip(nodes, leads, sizes, np.cumsum(sizes).tolist()):
                part = out if len(group) == 1 else T.slice_rows(out, end - n, end)
                self.batched[node.uid] = _reshape(part, lead + tail)

    def collect(self, node: Node, env: dict, apps: dict) -> None:
        """Append to `apps` each application of a shared symbol under `node`, with its rows."""
        if node.static:  # no parameter below
            return
        kind = node.kind
        if kind == "app" and node.data[0] in self.plan.shared_symbols:
            apps.setdefault(node.data[0], []).append((self.axiom, node, *self.rows(node, env)))
            return
        if kind in ("index", "sample"):
            env = self.bind(node, env)[0]
        for kid in node.kids:
            self.collect(kid, env, apps)

    def formula(self, node: Node, env: dict) -> Tensor | T.Columns:
        kind = node.kind
        if kind == "select":
            index, vector = node.kids
            return L.softselect(_wide(self.formula(vector, env)), self.term(index, env))
        if kind == "app":
            out = self.apply(node, env)
            out = out if isinstance(out, Tensor) else Tensor(out)
            out_key = node.data[1]
            if out_key is not None:
                self.symbol_outputs.setdefault(out_key, out)
            return out
        if kind == "and":
            first = node.kids[0]
            if first.kind == "fold":
                # the other operands first; then the fold's value or sum, or its conjuncts
                rest = self.operands(node.kids[1:], env, node.width)
                if not self.fold:
                    return L.conj(*self.operands(first.kids, env, node.width), *rest)
                table = self.gathered(first, node.width)
                if len(first.kids) == 1:
                    return L.conj(table, *rest)
                return L.conj(*rest, parts=table)
            values = self.operands(node.kids, env, node.width)
            if node.width > 1 and node.static:
                bits = _shared_bits(node.kids, values)
                if bits is not None:  # a rule mask: its two columns, conjoined there
                    return T.Columns(L.conj(*[v.values if isinstance(v, T.Columns) else v
                                              for v in values]).data, bits)
            return L.conj(*values)
        if kind == "fold":  # not first in an and: one formula, whose value the table holds
            return Tensor(self.gathered(node)) if self.fold else self.formula(node.kids[0], env)
        if kind == "not":
            value = self.formula(node.kids[0], env)
            if isinstance(value, T.Columns):
                return T.Columns(-value.values, value.bits)
            return T.neg(value)
        if kind in ("index", "sample"):
            inner, n = self.bind(node, env)
            value = _wide(self.formula(node.kids[0], inner))
            axis = _on_axis(n, node.depth, node.depth + 1) + (1,) * (node.width > 1)
            shape = np.broadcast_shapes(value.data.shape, axis)
            return L.conj_reduce(_spread(value, shape), node.depth)
        if kind == "eq":
            lhs, rhs = (self.term(t, env) for t in node.kids)
            if _is_integerish(lhs) and _is_integerish(rhs):
                return _crisp(np.asarray(lhs) == np.asarray(rhs))
            return L.equality_logit(lhs, rhs)
        if kind == "bits":
            idx, n = np.asarray(self.term(node.kids[0], env)), len(node.data)
            if idx.size and idx.max() >= n:
                raise IdOutOfRange(f"axiom {self.axiom!r}: boolvec {node.src.symbol} has id "
                                   f"{idx.max()}, outside [0, {n})")
            return _crisp(node.data[idx] == 1)
        if kind == "bool":
            return Tensor(node.data)
        # a boolvec: its two columns, -BIG and +BIG, gathered by the bits
        return T.Columns(L.bool_vector((0, 1)).data, node.data)

    def bind(self, node: Node, env: dict) -> tuple[dict, int]:
        """A quantifier's variables bound on its axis; returns the env and the axis size.

        A sampled quantifier takes its drawn rows once per pass, and `batch`
        and the evaluation after it share them.
        """
        if node.kind == "index":
            var, card = node.data
            return {**env, var: (np.arange(card), node.depth)}, card
        names, key = node.data
        rows = self.draws[key]
        taken = self.taken.get(node.uid)
        if taken is None:
            taken = self.taken[node.uid] = {v: (col.take(rows), node.depth) for v, col in
                                            zip(names, self.plan.samplers[key].domain.columns)}
        return {**env, **taken}, len(rows)

    def operands(self, kids: tuple, env: dict, width: int) -> list:
        """The values of a conjunction's operands, each taken to its class `width`.

        A `tensor.Columns` stays narrow, and the conjunction gathers it where
        it adds it.
        """
        return [_with_classes(self.formula(k, env), k.width, width) for k in kids]

    def gathered(self, node: Node, width: int = 1) -> np.ndarray:
        """A fold's table rows drawn by its sampler.

        They have the node's leading axes, and a class axis of 1 when the fold
        has width 1 and meets a `width` class vector.  The table is computed
        on the node's first evaluation.
        """
        table = self.plan.folds.get(node.uid)
        if table is None:
            table = self.plan.folds[node.uid] = self.fold_table(node)
        key, axis = node.data
        rows = table[self.draws[key]]
        shape = (_on_axis(len(rows), axis, node.depth) + rows.shape[1:]
                 + (1,) * (node.width == 1 and width > 1))
        return rows.reshape(shape)

    def fold_table(self, node: Node) -> np.ndarray:
        """A fold's table, once over its quantifier's whole domain: one row per
        domain row, holding its formula's value for a fold of one formula and
        the `conj_parts` of its formulas for a fold of several.  So the
        table's kind is the node's, whichever caller reads it first.
        """
        key, axis = node.data
        axiom, names, _ = key
        domain = self.plan.samplers[key].domain
        n = domain.cardinality
        env = {v: (col.take(np.arange(n)), axis)
               for v, col in zip(names, domain.columns) if v in node.fv}
        values = _Evaluator(self.plan, {}, axiom=axiom).operands(node.kids, env, node.width)
        table = L.conj(*values).data if len(values) == 1 else L.conj_parts(*values)
        return table.reshape((n,) + table.shape[node.depth:])

    def loss(self, node: Node, env: dict, lead: tuple = (), classes: int = 1) -> Tensor:
        """softplus(-l) summed over the root-level conjuncts below node.

        Each conjunct is broadcast to the quantifier axes above it (`lead`) and
        the class width around it before the sum, so it counts once per
        grounding and class, as in the conjunction it stands for.
        """
        kind = node.kind
        classes = max(classes, node.width)
        if kind == "and":
            return _sum(self.loss(item, env, lead, classes) for item in node.kids)
        if kind in ("index", "sample"):
            inner, n = self.bind(node, env)
            return self.loss(node.kids[0], inner, lead + (n,), classes)
        value = _with_classes(_wide(self.formula(node, env)), node.width, classes)
        return T.softplus_neg_sum(value, lead + ((classes,) if classes > 1 else ()))


def _sum(terms) -> Tensor:
    """The terms added left to right from the first, or 0.0 for none.  A loss
    term is never -0.0 (softplus is not), so this equals starting from 0.0."""
    total = None
    for term in terms:
        total = term if total is None else T.add(total, term)
    return Tensor(0.0) if total is None else total


def _symbols(node: Node):
    """The symbols a node applies, at any depth."""
    if node.kind == "app":
        yield node.data[0]
    for kid in node.kids:
        yield from _symbols(kid)


def _pass(plan: Plan, draws: dict | None, roots: list, loss: bool) -> CompiledBatch:
    """Each axiom's logit, or with `loss` its fused loss, on `draws` or a new draw.

    Raises NonFiniteLogit at the first axiom whose result is not finite.
    """
    ev = _Evaluator(plan, plan.draw() if draws is None else draws)
    ev.batch(roots, {})
    per_axiom: dict[str, Tensor] = {}
    for name, node in roots:
        ev.axiom = name
        out = ev.loss(node, {}) if loss else _wide(ev.formula(node, {}))
        while not loss and out.data.ndim >= 1:  # vector-valued roots conjoin componentwise
            out = L.conj_reduce(out, axis=-1)
        if not np.isfinite(out.data):
            raise NonFiniteLogit(f"axiom {name!r} produced a non-finite "
                                 f"{'loss' if loss else 'logit'}")
        per_axiom[name] = out
    return CompiledBatch(None, per_axiom, ev.symbol_outputs)


def evaluate(plan: Plan, draws: dict | None = None) -> CompiledBatch:
    """Forward pass; index quantifiers span their sort, datasets use draws."""
    batch = _pass(plan, draws, plan.roots, loss=False)
    batch.root = L.conj(*batch.per_axiom.values()) if batch.per_axiom else None
    return batch


def _classifier(node: Node) -> Node | None:
    """The `pi[y](V)` of a root `forall (x…, y): D . pi[y](V)`, or None."""
    if node.kind != "sample":
        return None
    body = node.kids[0]
    if body.kind == "fold":
        body = body.kids[0]
    return body if body.kind == "select" else None


def classifier_axiom(plan: Plan, symbol: str, dataset: str | None = None) -> str:
    """The first axiom `forall (x…, y): D . pi[y](V)` whose V applies `symbol`.

    With `dataset` given, D must be that dataset.  Raises InvalidValue when
    no axiom qualifies.
    """
    for name, node in plan.roots:
        select = _classifier(node)
        if (select is not None and symbol in _symbols(select.kids[1])
                and dataset in (None, plan.samplers[node.data[1]].domain.name)):
            return name
    raise InvalidValue(f"no axiom forall (x…, y): {dataset or 'D'} . pi[y](V) "
                       f"with V applying {symbol!r}")


def scores(plan: Plan, axiom: str, columns) -> tuple[np.ndarray, np.ndarray]:
    """Class logits and labels of a classifier axiom on the given rows.

    The axiom must lower to `forall (x…, y): D . pi[y](V)`.  Its variables
    bind to `columns`, one array per variable in order; V evaluates to the
    logits and the pi index term to the labels.  Sampled quantifiers inside
    V range over their whole domain, and no sampler advances.  Folded
    formulas are evaluated on the given rows; `Plan.folds` is not read.  No
    tape is opened.  A non-finite logit raises NonFiniteLogit.
    """
    node = dict(plan.roots).get(axiom)
    select = None if node is None else _classifier(node)
    if select is None:
        raise InvalidValue(f"axiom {axiom!r} is not of the form forall (x…, y): D . pi[y](V)")
    names = node.data[0]
    if len(columns) != len(names):
        raise InvalidValue(f"axiom {axiom!r} binds {len(names)} variables, got {len(columns)} columns")
    env = {v: (col if isinstance(col, Tensor) else np.asarray(col), 0)
           for v, col in zip(names, columns)}
    ev = _Evaluator(plan, {key: np.arange(s.domain.cardinality)
                           for key, s in plan.samplers.items()}, fold=False, axiom=axiom)
    index, vector = select.kids
    ev.batch([(axiom, vector), (axiom, index)], env)
    logits = _wide(ev.formula(vector, env)).data
    if not np.isfinite(logits).all():
        raise NonFiniteLogit(f"axiom {axiom!r} produced a non-finite logit")
    return logits, np.asarray(ev.term(index, env))


# ---------------------------------------------------------------------------
# loss fusion


class FusedPlan:
    """Plan whose root is the scalar training loss.

    The loss of the root conjunction equals the sum of the per-conjunct
    losses, so evaluation sums softplus(-l) over root-level conjuncts
    (descending through and nodes and quantifier reductions) instead of
    materializing the conjunction logit.
    """

    def __init__(self, plan: Plan):
        self.plan = plan

    def evaluate(self, draws: dict | None = None,
                 active_axioms: set[str] | None = None) -> tuple[Tensor, CompiledBatch]:
        roots = [(name, node) for name, node in self.plan.roots
                 if active_axioms is None or name in active_axioms]
        batch = _pass(self.plan, draws, roots, loss=True)
        return _sum(batch.per_axiom.values()), batch


def fuse_loss(plan: Plan) -> FusedPlan:
    """Fuse the root conjunction with the cross-entropy loss."""
    return FusedPlan(plan)


# ---------------------------------------------------------------------------
# plan explanation


def explain(plan: Plan) -> str:
    """Plan listing, one line per lowered node headed by its uid; deterministic across runs."""
    lines: list[str] = []
    if not plan.theory.axioms:
        lines.append("0 axioms; loss = 0")
    else:
        lines.append(f"{len(plan.theory.axioms)} axioms")

    def walk(node: Node, pad: str) -> None:
        kind, src, kids = node.kind, node.src, node.kids
        if kind in ("index", "sample"):
            how = f"exhaustive 0..{node.data[1] - 1}" if kind == "index" else "sampled"
            text = f"forall {', '.join(src.vars)} in {src.domain} [{how}]"
        elif kind == "fold":  # data[0] is the sampler key, which ends with the domain
            what = "fold" if len(kids) == 1 else f"fold of {len(kids)} conjuncts"
            text = f"{what} [computed once over {node.data[0][-1]}, gathered by the draw]"
        elif kind == "boolvec" and node.width > 1:
            text = f"{src.name} [2 columns, gathered by its {node.width} bits]"
        elif kind == "and":
            text = f"and of {len(kids)}"
        elif kind == "not":
            text = "not"
        elif kind == "select":
            text, kids = f"softselect[{print_term(src.index)}]", kids[1:]
        else:
            text, kids = print_formula(src), ()
        lines.append(f"{pad}#{node.uid} {text}")
        for kid in kids:
            walk(kid, pad + "  ")

    for name, node in plan.roots:
        lines.append(f"axiom {name}:")
        walk(node, "  ")
    lines.append("samplers:")
    if not plan.samplers:
        lines.append("  (none)")
    for key, s in plan.samplers.items():
        label = "/".join(",".join(k) if isinstance(k, tuple) else str(k) for k in key)
        full = s.batch_size is None
        lines.append(f"  {label}: {'full' if full else 'shuffled-minibatch'} over "
                     f"{s.domain.name} (n={s.domain.cardinality}, "
                     f"batch={'all' if full else s.batch_size})")
    lines.append("parameters:")
    for name, binding in sorted(plan.interp.symbols.items()):
        count = sum(p.value.size for p in getattr(binding, "parameters", []))
        kind = type(binding).__name__.replace("Binding", "").lower()
        lines.append(f"  {name}: {kind}, {count} parameters")
    for dname, dom in sorted(plan.interp.domains.items()):
        for col in dom.columns:
            if isinstance(col, EmbeddingColumn):
                lines.append(f"  sort {dname}: embedding-table, {col.param.value.size} parameters")
    # a table shared by several domains is listed under each, counted once
    lines.append(f"total parameters: {plan.interp.parameter_count}")
    return "\n".join(lines)
