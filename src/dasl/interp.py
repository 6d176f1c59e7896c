"""Bind theory symbols to concrete semantics.

Constants become embedding rows or registry values, functions/relations
become MLPs or registered deterministic externs, sorts and datasets become
domains, and quantifiers get samplers.  Everything learned is a Parameter;
everything else is plain numpy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import load_csv_table, load_idx
from .lang import ExternRef, MlpSpec, SortDecl, Theory
from .logit import BIG, EqualityParams, DEFAULT_EQUALITY
from .tensor import Parameter, Tensor


class MissingExtern(Exception):
    def __init__(self, name: str):
        super().__init__(f"extern {name!r} is not registered")
        self.name = name


class DataLoadError(Exception):
    pass


class WidthMismatch(Exception):
    pass


class IdOutOfRange(Exception):
    """An MLP argument of an index sort holds an id outside [0, card)."""


class EmptyDomain(Exception):
    pass


class InsufficientClassCount(Exception):
    def __init__(self, cls: int):
        super().__init__(f"class {cls} has too few examples")
        self.cls = cls


# ---------------------------------------------------------------------------
# columns and domains


class Column:
    """Constant values of a variable, not learned: index-sort ids or feature rows.

    Row i is `values[i]`, or `values[ids[i]]` when `ids` is set, so several
    columns can address one shared table (the triples' image rows).
    """

    def __init__(self, values: np.ndarray, sort: str, ids: np.ndarray | None = None):
        self.values = values
        self.sort = sort
        self.ids = ids

    def take(self, idx: np.ndarray):
        return self.values[idx if self.ids is None else self.ids[idx]]


class EmbeddingColumn:
    """Learned rows; taking them is a differentiable gather."""

    def __init__(self, param: Parameter, ids: np.ndarray, sort: str):
        self.param = param
        self.ids = np.asarray(ids, dtype=np.int64)
        self.sort = sort

    def take(self, idx: np.ndarray):
        return T.gather(self.param, self.ids[idx])


@dataclass
class Domain:
    """A quantifiable population: one column per bound variable."""

    name: str
    cardinality: int
    columns: tuple


# ---------------------------------------------------------------------------
# symbol bindings


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class MlpBinding:
    """Affine/activation chain on the concatenated, one-hot-encoded args.

    Every argument has the same leading row axis: an index argument is a 1-D
    array of ids, any other an (rows, width) array or Tensor.  The result
    has one row per input row: (rows, out_width), or (rows,) for width 1.
    """

    def __init__(self, name: str, spec: MlpSpec, arg_widths: list[int],
                 arg_cards: list[int | None], out_width: int, rng: np.random.Generator):
        self.name = name
        self.activation = spec.activation
        self.arg_widths = arg_widths
        self.arg_cards = arg_cards  # cardinality for index args (one-hot), None otherwise
        self.in_width = sum(arg_widths)
        self.out_width = out_width
        sizes = [self.in_width, *spec.hidden, out_width]
        self.weights: list[Parameter] = []
        self.biases: list[Parameter] = []
        for i, (a, b) in enumerate(zip(sizes[:-1], sizes[1:])):
            self.weights.append(Parameter(f"{name}.w{i}", glorot_uniform(rng, a, b, (a, b))))
            self.biases.append(Parameter(f"{name}.b{i}", np.zeros(b)))

    @property
    def parameters(self) -> list[Parameter]:
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def _check(self, k: int, arg):
        """Argument k as a 1-D id array in [0, card) (index sort) or a (rows, width)
        array or Tensor."""
        width, card = self.arg_widths[k], self.arg_cards[k]
        if card is not None:
            ids = np.asarray(arg, dtype=np.int64)
            if ids.ndim != 1:
                raise WidthMismatch(f"{self.name}: expected a 1-D id array, got {ids.shape}")
            if ids.size and ids.view(np.uint64).max() >= card:  # a negative id wraps past card
                bad = ids[(ids < 0) | (ids >= card)][0]
                raise IdOutOfRange(f"{self.name}: argument {k} has id {bad}, outside "
                                   f"[0, {card})")
            return ids
        if not isinstance(arg, Tensor):
            arg = np.asarray(arg, dtype=np.float64)
        shape = arg.shape
        if len(shape) != 2 or shape[1] != width:
            raise WidthMismatch(f"{self.name}: expected rows of width {width}, got {shape}")
        return arg

    def _input(self, args: list):
        """The first layer's input: a lone argument as it is (an index argument
        one-hot), or every argument in its column block of one (rows, in_width)
        buffer, an index argument as a one-hot."""
        checked = [self._check(k, arg) for k, arg in enumerate(args)]
        rows = checked[0].shape[0]
        if len(checked) == 1 and self.arg_cards[0] is None:
            return checked[0]
        buf, dense, lo = np.zeros((rows, self.in_width)), [], 0
        for k, (arg, width, card) in enumerate(zip(checked, self.arg_widths, self.arg_cards)):
            if arg.shape[0] != rows:
                raise WidthMismatch(f"{self.name}: argument {k} has {arg.shape[0]} rows, "
                                    f"argument 0 has {rows}")
            if card is not None:
                buf[np.arange(rows), lo + arg] = 1.0
            else:
                dense.append((arg, lo))
            lo += width
        return T.write_columns(buf, dense) if dense else buf

    def __call__(self, args: list) -> Tensor:
        if len(args) != len(self.arg_widths):
            raise WidthMismatch(f"{self.name}: expected {len(self.arg_widths)} args")
        h = self._input(args)
        act = {"sigmoid": T.sigmoid, "relu": T.relu, "tanh": T.tanh}[self.activation]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = T.affine(h, w, b)
            if i < last:
                h = act(h)
        if self.out_width == 1:
            h = T.reshape(h, h.data.shape[:1])
        return h


class ExternBinding:
    """Registered deterministic function; pure and batched by contract."""

    def __init__(self, name: str, fn):
        self.name = name
        self.fn = fn
        self.parameters: list[Parameter] = []

    def __call__(self, args: list):
        raw = [a.data if isinstance(a, Tensor) else a for a in args]
        return self.fn(*raw)


class EmbeddingBinding:
    """A learned row for a constant of an embedding or data sort."""

    def __init__(self, name: str, dim: int, rng: np.random.Generator):
        self.name = name
        self.param = Parameter(name, glorot_uniform(rng, 1, dim, (1, dim)))
        self.parameters = [self.param]

    def __call__(self, args: list = ()) -> Tensor:
        return T.reshape(T.gather(self.param, np.array([0])), (self.param.shape[1],))


class FixedBinding:
    """A constant value supplied by the extern registry."""

    def __init__(self, name: str, value):
        self.name = name
        self.value = value
        self.parameters: list[Parameter] = []

    def __call__(self, args: list = ()):
        return self.value


# ---------------------------------------------------------------------------
# samplers


@dataclass
class Sampler:
    """Per-quantifier batch generator over a domain.

    With `batch_size` None it returns the whole (active) domain in order;
    otherwise it partitions each epoch into shuffled batches of `batch_size`
    that cover it exactly once.  The active_size prefix is the curriculum
    working set.
    """

    domain: Domain
    batch_size: int | None = None
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    active_size: int | None = None
    _order: np.ndarray | None = field(default=None, repr=False)
    _cursor: int = field(default=0, repr=False)

    def __post_init__(self):
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"sampler over {self.domain.name}: batch_size must be at least 1, "
                             f"got {self.batch_size}")

    def _n(self) -> int:
        n = self.domain.cardinality
        if self.active_size is not None:
            n = min(n, self.active_size)
        return n

    def set_active_size(self, size: int) -> None:
        self.active_size = size
        self._order = None  # restart the epoch over the new working set
        self._cursor = 0

    def sample(self) -> np.ndarray:
        n = self._n()
        if n < 1:
            raise EmptyDomain(self.domain.name)
        if self.batch_size is None:
            return np.arange(n)
        if self._order is None or self._cursor >= len(self._order):
            self._order = self.rng.permutation(n)
            self._cursor = 0
        take = min(self.batch_size, len(self._order) - self._cursor)
        out = self._order[self._cursor : self._cursor + take]
        self._cursor += take
        return out


# ---------------------------------------------------------------------------
# triple construction


def build_triples(rows: np.ndarray, labels: np.ndarray, per_class: int, seed: int,
                  n_classes: int = 10) -> Domain:
    """Index triples (i1, i2, i3) with label(i1) + label(i2) = label(i3) mod n.

    Labels steer construction only; the emitted domain exposes pixel rows,
    never labels.  Triples are ordered round-robin over the class of the
    third element, so any prefix of k*n_classes triples is class-balanced;
    images may repeat across triples, cycling through each class pool.
    Rows whose label is outside [0, n_classes) are never chosen.
    """
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels)
    pools = []
    for c in range(n_classes):
        pool = np.flatnonzero(labels == c)
        if len(pool) < max(per_class, 1):
            raise InsufficientClassCount(c)
        pools.append(rng.permutation(pool))
    # one draw of k values reads the generator as k scalar draws would
    y1 = rng.integers(n_classes, size=per_class * n_classes)
    y3 = np.tile(np.arange(n_classes), per_class)
    # the classes asked for, in the order a loop over triples takes them;
    # each request takes its class pool's next image, cycling through it
    wanted = np.stack([y1, (y3 - y1) % n_classes, y3], axis=1).ravel()
    # a request's cursor is the number of earlier requests for its class
    order = np.argsort(wanted, kind="stable")
    counts = np.bincount(wanted, minlength=n_classes)
    cursor = np.empty_like(wanted)
    cursor[order] = np.arange(len(wanted)) - np.repeat(np.cumsum(counts) - counts, counts)
    sizes = np.array([len(p) for p in pools])
    start = np.cumsum(sizes) - sizes
    ids = np.concatenate(pools)[start[wanted] + cursor % sizes[wanted]]
    rows = np.asarray(rows, dtype=np.float64)
    cols = tuple(Column(rows, "Image", i) for i in ids.reshape(-1, 3).T.copy())
    return Domain("Triples", len(y3), cols)


# ---------------------------------------------------------------------------
# the bound interpretation


@dataclass
class Interpretation:
    theory: Theory
    domains: dict[str, Domain]
    symbols: dict[str, object]
    big: float = BIG
    equality: EqualityParams = DEFAULT_EQUALITY

    @property
    def parameters(self) -> list[Parameter]:
        symbols = [p for b in self.symbols.values() for p in getattr(b, "parameters", [])]
        tables = [col.param for d in self.domains.values() for col in d.columns
                  if isinstance(col, EmbeddingColumn)]
        return list(dict.fromkeys(symbols + tables))

    @property
    def parameter_count(self) -> int:
        return sum(p.value.size for p in self.parameters)


def _sort_width(theory: Theory, sort_name: str) -> tuple[int, int | None]:
    """(input width, one-hot cardinality or None) of a sort used as an argument."""
    s = theory.sort(sort_name)
    if s.is_index:
        return s.cardinality, s.cardinality
    return s.dim, None


def _load_column(path: str, sort: SortDecl) -> np.ndarray:
    if not os.path.exists(path):
        raise DataLoadError(f"missing data file {path!r}")
    if path.endswith(".idx") or "ubyte" in os.path.basename(path):
        return load_idx(path)
    try:
        table = load_csv_table(path)
    except Exception as e:  # noqa: BLE001 - surface as a typed load error
        raise DataLoadError(f"{path}: {e}") from e
    if sort.is_index:  # one id per row; another column count is rejected in bind_theory
        return table[:, 0] if table.shape[1] == 1 else table
    if table.shape[1] != sort.dim:
        raise DataLoadError(f"{path}: expected {sort.dim} columns, got {table.shape[1]}")
    return table


def bind_theory(
    theory: Theory,
    externs: dict[str, object] | None = None,
    data: dict[str, tuple] | None = None,
    data_dir: str | None = None,
    seed: int = 0,
    big: float = BIG,
    equality: EqualityParams = DEFAULT_EQUALITY,
) -> Interpretation:
    """Attach a binding to every declared symbol and load every dataset.

    externs: name -> callable (functions/relations) or value (constants).
    data:    dataset name -> tuple of per-column arrays, overriding files.
    """
    externs = externs or {}
    data = data or {}
    rng = np.random.default_rng(seed)
    domains: dict[str, Domain] = {}
    symbols: dict[str, object] = {}

    for s in theory.sorts:
        if s.representation == "index-range":
            ids = np.arange(s.cardinality)
            if len(ids) != s.cardinality:  # numpy gives an empty range near 2**63
                raise DataLoadError(f"sort {s.name}: card {s.cardinality} is more ids "
                                    f"than numpy can hold")
            domains[s.name] = Domain(s.name, s.cardinality, (Column(ids, s.name),))
        elif s.representation == "embedding-table":
            try:
                table = glorot_uniform(rng, s.cardinality, s.dim, (s.cardinality, s.dim))
            except ValueError:  # numpy's "array is too big"
                raise DataLoadError(f"sort {s.name}: card {s.cardinality} dim {s.dim} is more "
                                    f"values than numpy can hold") from None
            param = Parameter(f"sort.{s.name}", table)
            domains[s.name] = Domain(s.name, s.cardinality,
                                     (EmbeddingColumn(param, np.arange(s.cardinality), s.name),))
        # data-table sorts have no standalone population; rows arrive via datasets

    for c in theory.consts:
        sort = theory.sort(c.sort)
        if c.learned:
            if sort.dim is None:
                raise WidthMismatch(f"constant {c.name}: sort {c.sort} has no dim to learn")
            symbols[c.name] = EmbeddingBinding(f"const.{c.name}", sort.dim, rng)
        else:
            if c.name not in externs:
                raise MissingExtern(c.name)
            symbols[c.name] = FixedBinding(c.name, externs[c.name])

    for f in theory.funcs:
        symbols[f.name] = _bind_callable(theory, f.name, f.binding, f.arg_sorts,
                                         lambda f=f: _result_width(theory, f.result_sort),
                                         externs, rng)
    for r in theory.rels:
        symbols[r.name] = _bind_callable(theory, r.name, r.binding, r.arg_sorts,
                                         lambda r=r: r.out or 1, externs, rng)

    for d in theory.datasets:
        if isinstance(data.get(d.name), Domain):
            dom = data[d.name]
            if len(dom.columns) != len(d.column_sorts):
                raise DataLoadError(f"{d.name}: expected {len(d.column_sorts)} columns")
            domains[d.name] = Domain(d.name, dom.cardinality, dom.columns)
            continue
        if d.name in data:
            columns = data[d.name]
            if len(columns) != len(d.column_sorts):
                raise DataLoadError(f"{d.name}: expected {len(d.column_sorts)} columns")
        else:
            paths = [p.strip() for p in d.source.split(",")]
            if len(paths) != len(d.column_sorts):
                raise DataLoadError(f"{d.name}: {len(d.column_sorts)} sorts but {len(paths)} files")
            if data_dir is not None:
                paths = [p if os.path.isabs(p) else os.path.join(data_dir, p) for p in paths]
            columns = [_load_column(p, theory.sort(s)) for p, s in zip(paths, d.column_sorts)]
        cols, n = [], None
        for i, (arr, sort_name) in enumerate(zip(columns, d.column_sorts)):
            sort = theory.sort(sort_name)
            arr = np.asarray(arr)
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise DataLoadError(f"{d.name}: column lengths differ")
            if sort.is_index:
                if arr.ndim != 1:
                    raise DataLoadError(f"{d.name}: column {i} (sort {sort_name}) must hold one "
                                        f"id per row, got shape {arr.shape}")
                cols.append(Column(_index_ids(f"{d.name}: column {i}", sort, arr), sort_name))
            else:
                if arr.ndim != 2 or arr.shape[1] != sort.dim:
                    raise DataLoadError(f"{d.name}: column of sort {sort_name} must be n x {sort.dim}")
                cols.append(Column(np.asarray(arr, dtype=np.float64), sort_name))
        domains[d.name] = Domain(d.name, n or 0, tuple(cols))

    return Interpretation(theory, domains, symbols, big=big, equality=equality)


def _index_ids(where: str, sort: SortDecl, values: np.ndarray) -> np.ndarray:
    """An index-sort column as int64 ids; raises DataLoadError at the first
    value that is not an integer in [0, card)."""
    card = sort.cardinality
    if values.dtype.kind not in "biuf":
        raise DataLoadError(f"{where} (sort {sort.name}): ids must be numbers, got {values.dtype}")
    ok = (values >= 0) & (values < card)
    if values.dtype.kind == "f":
        ok &= values == np.floor(values)
    if not ok.all():
        at = tuple(np.argwhere(~ok)[0])
        raise DataLoadError(f"{where} (sort {sort.name}) row {at[0]}: id {values[at].item()!r} "
                            f"is not an integer in [0, {card})")
    return values.astype(np.int64)


def _result_width(theory: Theory, sort_name: str) -> int:
    s = theory.sort(sort_name)
    if s.dim is None:
        raise WidthMismatch(f"function result sort {sort_name} has no dim")
    return s.dim


def _bind_callable(theory, name, binding, arg_sorts, out_width_fn, externs, rng):
    if isinstance(binding, ExternRef):
        if binding.name not in externs:
            raise MissingExtern(binding.name)
        return ExternBinding(name, externs[binding.name])
    widths, cards = [], []
    for s in arg_sorts:
        w, card = _sort_width(theory, s)
        widths.append(w)
        cards.append(card)
    return MlpBinding(name, binding, widths, cards, out_width_fn(), rng)
