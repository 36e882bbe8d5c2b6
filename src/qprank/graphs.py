"""Directed graphs: construction, seeded generators, file formats, mutation.

All randomness is the uniform stream of numpy's PCG64 bit generator
(``Generator.random``, drawn one at a time or in blocks, which give the same
numbers), so a fixed seed reproduces identical graphs across runs,
platforms, and numpy releases. Seeds are plain 64-bit
integers; ensemble drivers derive per-run seeds as ``base_seed + index``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, ParseError

FAMILIES = ("sf", "er", "hier3", "hier2")

# The node counts of a hierarchy's generations 1, 2, ..., the ones it is built to.
HIERARCHY_SIZES = {"hier3": tuple(3**g for g in range(1, 5)),
                   "hier2": tuple(2 ** (g + 1) for g in range(1, 7))}

# The longest float64 array numpy can address. A generator asked for more
# entries than this raises ParameterError, and a file naming more nodes is a
# parse error on its line; fewer, but too many for memory, is exit 2.
MAX_NODES = int(np.iinfo(np.intp).max) // 8


class Frozen:
    """Base of the package's immutable classes. ``__init__`` checks its
    arguments, where it has checks, then stores the fields in ``__dict__``;
    nothing can be set or deleted after. Instances pickle by that dict, as
    process pools need, without running ``__init__`` again. A value class
    declares its fields as class-level annotations, in the order it stores
    them, which its repr follows."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"


class DirectedGraph(Frozen):
    """Immutable directed graph on the dense node set 0..n-1.

    The edges are ordered (source, target) pairs without repeats, kept as the
    read-only int arrays ``src`` and ``dst`` sorted by (source, target), the
    canonical serialization order. ``edges`` may be any iterable of pairs or
    an (m, 2) int array; an endpoint that is not a Python or numpy integer is
    rejected, never truncated, and repeated pairs collapse. Self-loops are
    rejected unless ``allow_self_loops`` is set (file loaders set it, since
    real datasets contain them).
    """

    def __init__(self, n: int, edges, allow_self_loops: bool = False):
        if n < 0:
            raise ParameterError("node count must be >= 0")
        rows = edges if isinstance(edges, np.ndarray) else list(edges)
        pairs = np.asarray(rows)
        if pairs.size == 0:
            pairs = np.empty((0, 2), dtype=np.int64)  # np.asarray([]) is float64
        if pairs.shape[1:] != (2,):
            raise ParameterError("edges must be (source, target) pairs")
        if pairs.dtype.kind not in "iu":  # integer arrays skip the per-endpoint scan
            bad = next((pair for pair in rows
                        if not all(isinstance(u, (int, np.integer)) for u in pair)), None)
            if bad is not None:
                raise ParameterError(f"edge ({bad[0]}, {bad[1]}) has a non-integer endpoint")
        # checked before the cast, which would wrap uint64 endpoints >= 2**63
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            s, t = pairs[((pairs < 0) | (pairs >= n)).any(axis=1)][0]
            raise ParameterError(f"edge ({s}, {t}) out of range for n={n}")
        pairs = pairs.astype(np.int64, copy=False)
        loops = pairs[:, 0] == pairs[:, 1]
        if loops.any() and not allow_self_loops:
            raise ParameterError(f"self-loop at node {pairs[loops][0, 0]} not allowed here")
        src, dst = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))].T
        first = np.ones(len(src), dtype=bool)  # sorting puts repeats next to each other
        first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        self._fill(n, src[first], dst[first], allow_self_loops)

    def _fill(self, n: int, src: np.ndarray, dst: np.ndarray, allow_self_loops: bool) -> DirectedGraph:
        """Set the fields from int64 arrays already sorted by (source, target),
        without repeats, in range and free of self-loops unless allowed."""
        src.flags.writeable = dst.flags.writeable = False
        self.__dict__.update(n=n, src=src, dst=dst, allow_self_loops=allow_self_loops)
        return self

    def __eq__(self, other):  # by value, which leaves graphs unhashable
        return isinstance(other, DirectedGraph) and (self.n, self.edge_list()) == (other.n, other.edge_list())

    def __repr__(self):
        return f"DirectedGraph({self.n}, {self.edge_list()}, allow_self_loops={self.allow_self_loops})"

    @property
    def edges(self) -> frozenset:
        """The (source, target) pairs as a set, built on each access."""
        return frozenset(self.edge_list())

    @property
    def num_edges(self) -> int:
        return len(self.src)

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges sorted by (source, target); the canonical serialization order."""
        return list(zip(self.src.tolist(), self.dst.tolist()))

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.dst, minlength=self.n)

    def out_degrees(self) -> np.ndarray:
        return np.bincount(self.src, minlength=self.n)


class GeneratorSpec(Frozen):
    """Parameters of one seeded graph construction of ``n`` nodes.

    family selects the model: "sf" (directed preferential attachment),
    "er" (independent directed edges), "hier3" (ternary hierarchy) or
    "hier2" (outerplanar hierarchy), whose ``n`` is one of
    HIERARCHY_SIZES. Only the fields relevant to the chosen family are read.
    The class attributes are the defaults, of the CLI's flags too. Specs
    are equal when their fields are.
    """

    family: str
    n: int = 0
    p: float = 0.125
    sf_alpha: float = 0.41
    sf_beta: float = 0.54
    sf_delta_in: float = 0.2
    sf_delta_out: float = 0.0
    seed: int = 0
    allow_self_loops: bool = False

    def __init__(self, family: str, n: int = n, p: float = p, sf_alpha: float = sf_alpha,
                 sf_beta: float = sf_beta, sf_delta_in: float = sf_delta_in,
                 sf_delta_out: float = sf_delta_out, seed: int = seed,
                 allow_self_loops: bool = allow_self_loops):
        if family not in FAMILIES:
            raise ParameterError(f"unknown family {family!r}, expected one of {FAMILIES}")
        if seed < 0:
            raise ParameterError(f"seed {seed} must be >= 0")
        if family == "sf":
            _check_scale_free(n, sf_alpha, sf_beta, sf_delta_in, sf_delta_out)
        elif family == "er":
            _check_erdos_renyi(n, p)
        elif n not in HIERARCHY_SIZES[family]:
            raise ParameterError(f"{family} graphs have n in {HIERARCHY_SIZES[family]}, not n={n}")
        self.__dict__.update(family=family, n=n, p=p, sf_alpha=sf_alpha, sf_beta=sf_beta,
                             sf_delta_in=sf_delta_in, sf_delta_out=sf_delta_out, seed=seed,
                             allow_self_loops=allow_self_loops)

    def __eq__(self, other):
        return isinstance(other, GeneratorSpec) and vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def replace(self, **changes) -> GeneratorSpec:
        """A new spec with ``changes`` to its fields, checked as any new one is."""
        return GeneratorSpec(**{**vars(self), **changes})


def generate(spec: GeneratorSpec) -> DirectedGraph:
    """Build the graph described by ``spec``."""
    if spec.family == "sf":
        return gen_scale_free(
            spec.n,
            alpha=spec.sf_alpha,
            beta=spec.sf_beta,
            delta_in=spec.sf_delta_in,
            delta_out=spec.sf_delta_out,
            seed=spec.seed,
            allow_self_loops=spec.allow_self_loops,
        )
    if spec.family == "er":
        return gen_erdos_renyi(spec.n, spec.p, seed=spec.seed)
    n_gen = HIERARCHY_SIZES[spec.family].index(spec.n) + 1
    if spec.family == "hier3":
        return gen_hierarchical_ternary(n_gen)
    return gen_hierarchical_outerplanar(n_gen)


# Uniforms are drawn in blocks: rng.random(k) gives the same numbers as k
# calls of rng.random(), at one call per block (the first ``first`` long).
_DRAW_BLOCK = 1024


def _uniforms(rng: np.random.Generator, first: int):
    yield from rng.random(first).tolist()
    while True:
        yield from rng.random(_DRAW_BLOCK).tolist()


# Preferential picks run on Fenwick trees (binary indexed trees; Fenwick,
# Softw. Pract. Exper. 24, 1994) of integer degrees: tree[j] holds the degree
# sum of nodes j - (j & -j) .. j - 1, so a prefix sum or an increment visits
# O(log n) slots. A tree spans 2n slots, the nodes past n keeping degree 0,
# so a descent from the highest power of two <= count stays inside it.


def _fenwick_add(tree: list, i: int) -> None:
    """Add one to the degree of node i."""
    i += 1
    while i < len(tree):
        tree[i] += 1
        i += i & -i


def _fenwick_pick(tree: list, r: float, offset: float, count: int) -> int:
    """The first of nodes 0..count-1 whose prefix sum of degree + ``offset``
    exceeds ``r``, as ``searchsorted(side="right")`` finds it, clamped to
    count - 1. A node of weight zero is never picked."""
    pos = acc = 0
    step = 1 << (count.bit_length() - 1)
    while step:
        nxt = pos + step
        if acc + tree[nxt] + offset * nxt <= r:
            pos = nxt
            acc += tree[nxt]
        step >>= 1
    return min(pos, count - 1)


def _check_scale_free(n: int, alpha: float, beta: float, delta_in: float, delta_out: float) -> None:
    if n < 3:
        raise ParameterError("scale-free growth needs n >= 3 (3-node seed cycle)")
    if n > MAX_NODES:
        raise ParameterError(f"n={n} exceeds {MAX_NODES} nodes")
    # written as "not (valid)" so that NaN is rejected too
    if not (alpha >= 0 and beta >= 0 and alpha + beta <= 1.0):
        raise ParameterError("sf move probabilities must be nonnegative with alpha + beta <= 1")
    if not (delta_in >= 0 and delta_out >= 0):
        raise ParameterError("sf degree offsets must be nonnegative")
    # a pick weighs nodes by degree + delta over up to 2n Fenwick slots; where
    # delta * 2n overflows, every pick would fall on the newest node
    for name, delta in (("delta_in", delta_in), ("delta_out", delta_out)):
        if not math.isfinite(delta * 2 * n):
            raise ParameterError(f"sf degree offset {name}={delta} is too large: "
                                 f"{name} * 2n is not finite for n={n}")
    if n > 3 and beta >= 1.0:
        raise ParameterError("beta must be below 1 for the graph to grow")


def gen_scale_free(
    n: int,
    *,
    alpha: float = 0.41,
    beta: float = 0.54,
    delta_in: float = 0.2,
    delta_out: float = 0.0,
    seed: int = 0,
    allow_self_loops: bool = False,
) -> DirectedGraph:
    """Grow a directed graph by degree-preferential attachment.

    Starting from the 3-cycle 0 -> 1 -> 2 -> 0, each iteration performs one
    of three moves: with probability ``alpha`` add a new node with an edge to
    an existing node chosen proportionally to in-degree + ``delta_in``; with
    probability ``beta`` add an edge between two existing nodes, the source
    chosen by out-degree + ``delta_out`` and the target by in-degree; with
    the remaining probability gamma = 1 - alpha - beta add a new node
    receiving an edge from an existing node chosen by out-degree. Growth
    stops when ``n`` nodes exist. Repeat edges count toward degrees during
    growth but collapse in the result; self-loops (possible in the middle
    move) are dropped unless flagged.
    """
    _check_scale_free(n, alpha, beta, delta_in, delta_out)

    draw = _uniforms(np.random.default_rng(seed), min(_DRAW_BLOCK, 8 * n)).__next__
    in_tree, out_tree = [0] * (2 * n), [0] * (2 * n)
    src, dst = [0, 1, 2], [1, 2, 0]  # the seed cycle: one link in and one out per node
    for i in range(3):
        _fenwick_add(in_tree, i)
        _fenwick_add(out_tree, i)
    num_nodes = num_edges = 3

    while num_nodes < n:
        r = draw()
        if r < alpha:
            w = _fenwick_pick(in_tree, draw() * (num_edges + delta_in * num_nodes), delta_in, num_nodes)
            v = num_nodes
            num_nodes += 1
        elif r < alpha + beta:
            v = _fenwick_pick(out_tree, draw() * (num_edges + delta_out * num_nodes), delta_out, num_nodes)
            w = _fenwick_pick(in_tree, draw() * (num_edges + delta_in * num_nodes), delta_in, num_nodes)
        else:
            v = _fenwick_pick(out_tree, draw() * (num_edges + delta_out * num_nodes), delta_out, num_nodes)
            w = num_nodes
            num_nodes += 1
        src.append(v)
        dst.append(w)
        _fenwick_add(out_tree, v)
        _fenwick_add(in_tree, w)
        num_edges += 1

    pairs = np.column_stack([src, dst])
    return DirectedGraph(n, pairs[(pairs[:, 0] != pairs[:, 1]) | allow_self_loops], allow_self_loops)


def _check_erdos_renyi(n: int, p: float) -> None:
    if n < 1:
        raise ParameterError("n must be >= 1")
    if n * n > MAX_NODES:  # the n x n draws
        raise ParameterError(f"n={n}: its n * n draws exceed {MAX_NODES} numbers")
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"edge probability p={p} outside [0, 1]")


def gen_erdos_renyi(n: int, p: float, seed: int = 0) -> DirectedGraph:
    """Each ordered pair (i, j), i != j, is an edge independently with probability p."""
    _check_erdos_renyi(n, p)
    rng = np.random.default_rng(seed)
    draws = rng.random((n, n))
    mask = draws < p
    np.fill_diagonal(mask, False)
    return DirectedGraph(n, np.argwhere(mask))


def gen_hierarchical_ternary(n_gen: int) -> DirectedGraph:
    """Deterministic ternary hierarchy with 3**n_gen nodes, root at node 0.

    Generation 1 is the directed 3-cycle 0 -> 1 -> 2 -> 0. Generation g
    relabels three copies A, B, C of generation g-1 into consecutive id
    blocks; the root of copy A stays the global root, the three copy roots
    are joined in a directed 3-cycle, and every non-root node of copies B
    and C gains a directed edge to the global root.
    """
    last = len(HIERARCHY_SIZES["hier3"])
    if n_gen not in range(1, last + 1):
        raise ParameterError(f"ternary hierarchy supports generations 1..{last}")
    edges = np.array([(0, 1), (1, 2), (2, 0)])
    size = 3
    for _ in range(n_gen - 1):
        leaves = np.setdiff1d(np.arange(size, 3 * size), [size, 2 * size])  # non-roots of B and C
        roots = [(0, size), (size, 2 * size), (2 * size, 0)]
        edges = np.concatenate([edges, edges + size, edges + 2 * size, roots, np.outer(leaves, [1, 0])])
        size *= 3
    return DirectedGraph(size, edges)


def gen_hierarchical_outerplanar(n_gen: int) -> DirectedGraph:
    """Deterministic outerplanar hierarchy with 2**(n_gen+1) nodes.

    The recursion bottoms out at the single edge 0 -> 1. Each generation
    doubles the previous one: copy B is relabeled by +size and chained into
    copy A with two edges from the newer copy to the older, B.head -> A.tail
    and B.tail -> A.head. With nodes laid out in id order on a circle every
    edge is a non-crossing chord, so all vertices stay on the outer face.
    """
    last = len(HIERARCHY_SIZES["hier2"])
    if n_gen not in range(1, last + 1):
        raise ParameterError(f"outerplanar hierarchy supports generations 1..{last}")
    edges = np.array([(0, 1)])
    size = 2
    for _ in range(n_gen):
        edges = np.concatenate([edges, edges + size, [(size, size - 1), (2 * size - 1, 0)]])
        size *= 2
    return DirectedGraph(size, edges)


def remove_node(g: DirectedGraph, v: int) -> DirectedGraph:
    """Drop node v with all incident edges; survivors compact to 0..n-2.

    Re-indexing preserves relative order: old id u becomes u - (u > v).
    That map is increasing, so the surviving rows of ``g.src``/``g.dst``
    stay sorted and unique and are kept as they are, in O(m) with no re-sort.
    """
    if not isinstance(v, (int, np.integer)):
        raise ParameterError(f"node {v!r} is not an integer")
    if not 0 <= v < g.n:
        raise ParameterError(f"node {v} out of range for n={g.n}")
    keep = (g.src != v) & (g.dst != v)
    src, dst = g.src[keep], g.dst[keep]
    return DirectedGraph.__new__(DirectedGraph)._fill(g.n - 1, src - (src > v), dst - (dst > v),
                                                     g.allow_self_loops)


def degree_distribution(g: DirectedGraph) -> tuple[np.ndarray, np.ndarray]:
    """(in-degree histogram, out-degree histogram); entry k counts nodes of degree k."""
    return np.bincount(g.in_degrees()), np.bincount(g.out_degrees())


# ---------------------------------------------------------------------------
# Pajek .net format
#
# *Vertices N            (case-insensitive keywords, % starts a comment line)
# 1 "label"              (vertex lines are optional and skipped)
# *Arcs                  (directed; lines "src dst [weight ...]", 1-based)
# *Edges                 (undirected; each line expands to both directions)
# ---------------------------------------------------------------------------


def load_pajek(text: str) -> DirectedGraph:
    """Parse Pajek .net content into a directed graph.

    Endpoints are re-indexed from the file's 1-based ids to 0-based.
    Duplicate arcs collapse; self-loop arcs are kept as stated in the file.
    Malformed content raises ParseError carrying the offending line number.
    """
    n: int | None = None
    edges: set[tuple[int, int]] = set()
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if line.startswith("*"):
            keyword = line.split()[0].lower()
            if keyword == "*vertices":
                if n is not None:
                    raise ParseError("repeated *Vertices header", lineno)
                parts = line.split()
                if len(parts) < 2:
                    raise ParseError("*Vertices header missing a count", lineno)
                try:
                    n = int(parts[1])
                except ValueError:
                    raise ParseError(f"bad vertex count {parts[1]!r}", lineno) from None
                if n < 0:
                    raise ParseError(f"negative vertex count {n}", lineno)
                if n > MAX_NODES:
                    raise ParseError(f"vertex count {n} exceeds {MAX_NODES}", lineno)
                section = "vertices"
            elif keyword in ("*arcs", "*edges"):
                if n is None:
                    raise ParseError(f"{keyword} section before *Vertices", lineno)
                section = keyword[1:]
            else:
                raise ParseError(f"unsupported section {keyword!r}", lineno)
            continue
        if section == "vertices":
            continue
        if section in ("arcs", "edges"):
            parts = line.split()
            if len(parts) < 2:
                raise ParseError("expected two endpoints", lineno)
            try:
                s, t = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"non-integer endpoint in {line!r}", lineno) from None
            if not (1 <= s <= n and 1 <= t <= n):
                raise ParseError(f"endpoint out of range 1..{n} in {line!r}", lineno)
            edges.add((s - 1, t - 1))
            if section == "edges":
                edges.add((t - 1, s - 1))
            continue
        raise ParseError(f"content before any section: {line!r}", lineno)
    if n is None:
        raise ParseError("missing *Vertices header")
    return DirectedGraph(n, edges, allow_self_loops=True)


def write_pajek(g: DirectedGraph) -> str:
    """Serialize to Pajek .net text; load_pajek(write_pajek(g)) reproduces g."""
    lines = [f"*Vertices {g.n}"]
    lines.extend(f'{i + 1} "{i + 1}"' for i in range(g.n))
    lines.append("*Arcs")
    lines.extend(f"{s + 1} {t + 1}" for s, t in g.edge_list())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Plain edge list: one "src dst" pair per line, 0-based, # starts a comment.
# The writer records the node count in a leading "# nodes N" comment so that
# trailing isolated nodes survive a round trip.
# ---------------------------------------------------------------------------


def load_edge_list(text: str) -> DirectedGraph:
    n_header: int | None = None
    edges: set[tuple[int, int]] = set()
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "nodes" and parts[1].isdigit():
                if n_header is not None:
                    raise ParseError("repeated # nodes header", lineno)
                n_header = int(parts[1])
                if n_header > MAX_NODES:
                    raise ParseError(f"node count {n_header} exceeds {MAX_NODES}", lineno)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'src dst', got {line!r}", lineno)
        try:
            s, t = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint in {line!r}", lineno) from None
        if s < 0 or t < 0:
            raise ParseError(f"negative endpoint in {line!r}", lineno)
        if max(s, t) >= MAX_NODES:  # the node count, one more, must fit too
            raise ParseError(f"endpoint exceeds {MAX_NODES - 1} in {line!r}", lineno)
        edges.add((s, t))
        max_id = max(max_id, s, t)
    n = n_header if n_header is not None else max_id + 1
    if max_id >= n:
        raise ParseError(f"endpoint {max_id} exceeds declared node count {n}")
    return DirectedGraph(n, edges, allow_self_loops=True)


def write_edge_list(g: DirectedGraph) -> str:
    lines = [f"# nodes {g.n}"]
    lines.extend(f"{s} {t}" for s, t in g.edge_list())
    return "\n".join(lines) + "\n"
