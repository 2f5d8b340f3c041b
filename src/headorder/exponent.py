"""Graduated orders over a discrete valuation ring, encoded by exponent matrices.

An order here is a square integer matrix M with zero diagonal satisfying the
closure inequality m[i][k] + m[k][j] >= m[i][j], together with a vector of
block dimensions.  All operations are exact integer arithmetic; the dimension
vector is carried along but never influences the exponent computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import add, indexOf, neg, sub

from .errors import DiagonalNonzero, StepBudgetExceeded, TriangleViolation

Matrix = tuple[tuple[int, ...], ...]


def _freeze(rows) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


@dataclass(frozen=True)
class ExponentOrder:
    """A graduated order: block dimensions plus an integer exponent matrix.

    ``ram`` tags the ramification index of the base ring (1 for unramified);
    it is bookkeeping only and does not enter any exponent computation.
    """

    dims: tuple[int, ...]
    M: Matrix
    ram: int = 1

    @property
    def n(self) -> int:
        return len(self.dims)

    def max_entry(self) -> int:
        return max(x for row in self.M for x in row)

    def is_reduced(self) -> bool:
        return _unreduced_classes(self.M) == list(range(self.n))


# ExponentIdeal.shift of an ideal whose rotation symmetry is not yet known
_UNCHECKED = object()


@dataclass(frozen=True)
class ExponentIdeal:
    """Exponent matrix of a full two-sided ideal inside an ExponentOrder.

    ``shift`` is the rotation shift of N (see _rotation_shift) when it is
    already known: glued_chain sets the one its states inherit from the
    start on each step's ideal.  Any other ideal is checked when an
    idealizer needs it.
    """

    N: Matrix
    shift: object = field(default=_UNCHECKED, init=False, repr=False, compare=False)


def validate_order(M, dims, ram: int = 1) -> ExponentOrder:
    """Check the order invariants and wrap the data.

    Raises DiagonalNonzero or TriangleViolation (with offending indices) if
    M is not the exponent matrix of an order.  Off-diagonal entries may be
    negative; only zero diagonal and the triangle inequality are enforced.
    """
    M = _freeze(M)
    dims = tuple(int(d) for d in dims)
    n = len(M)
    if n == 0 or any(len(row) != n for row in M):
        raise ValueError("M must be square and nonempty")
    if len(dims) != n:
        raise ValueError("dims must have one entry per block")
    if any(d <= 0 for d in dims):
        raise ValueError("dims must be positive")
    if ram < 1:
        raise ValueError("need ram >= 1")
    for i in range(n):
        if M[i][i] != 0:
            raise DiagonalNonzero(i, M[i][i])
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if M[i][k] + M[k][j] < M[i][j]:
                    raise TriangleViolation(i, j, k)
    return ExponentOrder(dims, M, ram)


def standard_hereditary(dims, ram: int = 1) -> ExponentOrder:
    """The basic hereditary order: exponent 1 strictly above the diagonal."""
    return scaled_hereditary(dims, 1, ram)


def scaled_hereditary(dims, a: int, ram: int = 1) -> ExponentOrder:
    """a * H_n: exponent ``a`` strictly above the diagonal."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    if n == 0:
        raise ValueError("dims must be nonempty")
    M = tuple(tuple(a if j > i else 0 for j in range(n)) for i in range(n))
    return ExponentOrder(dims, M, ram)


def _unreduced_classes(M: Matrix) -> list[int]:
    """Class root of each index: the first j with m[i][j] + m[j][i] = 0.

    Such indices carry isomorphic block factors; the triangle inequality of
    an order forces their rows and columns to be diagonal shifts of one
    another.  It also makes the relation transitive, since it gives
    m_ik + m_ki <= (m_ij + m_ji) + (m_jk + m_kj) and m_ik + m_ki >= m_ii = 0.
    So the first zero of row i of M + M^T is the smallest index of i's class,
    and the search of each row stops there.
    """
    return [indexOf(map(add, row, col), 0) for row, col in zip(M, zip(*M))]


def radical(order: ExponentOrder) -> ExponentIdeal:
    """Jacobson radical of the order.

    Indices with m[i][j] + m[j][i] = 0 belong to one matrix-ring factor of
    the semisimple quotient, so the radical raises exponents by one on the
    whole class block; on a reduced order that is just the diagonal.
    """
    M = order.M
    root = _unreduced_classes(M)
    if root == list(range(len(M))):
        # reduced: every class is one index, only the diagonal rises
        N = []
        for i, row in enumerate(M):
            row = list(row)
            row[i] += 1
            N.append(tuple(row))
        return ExponentIdeal(tuple(N))
    members = {}
    for j, r in enumerate(root):
        members.setdefault(r, []).append(j)
    N = []
    for row, r in zip(M, root):
        row = list(row)
        for j in members[r]:
            row[j] += 1
        N.append(tuple(row))
    return ExponentIdeal(tuple(N))


# Old name of the general radical.  perfbench/ calls it in its oracle set-up
# and lists it in its tracer; the benchmark code is held fixed so that its
# recorded baselines stay comparable.
_radical_general = radical


def _rotate(N: Matrix, r: int) -> Matrix:
    """N relabeled by the index rotation i -> i + r: entry (i, j) is N[i+r][j+r]."""
    return tuple(row[r:] + row[:r] for row in N[r:] + N[:r])


def _diag_shift(A: Matrix, B: Matrix) -> tuple[int, ...] | None:
    """t with A[i][j] - B[i][j] = t[i] - t[j] for all i, j and t[0] = 0, or None.

    That is, A = diag_conjugate(B, -t).  Column 0 fixes the only
    candidate, t[i] = A[i][0] - B[i][0], and it is checked row by row,
    stopping at the first row that fails.
    """
    n = len(A)
    if len(B) != n:
        return None
    t = tuple(a[0] - b[0] for a, b in zip(A, B))
    for a, b, ti in zip(A, B, t):
        # A[i][j] - B[i][j] + t[j] must be t[i] for every j
        if tuple(map(add, map(sub, a, b), t)).count(ti) != n:
            return None
    return t


def _rotation_shift(N: Matrix) -> tuple[int, ...] | None:
    """s with N[i+1][j+1] = N[i][j] - s[i] + s[j] for all i, j mod n, or None.

    That is, N is invariant under the index rotation i -> i+1 up to
    conjugation by diag(pi^s): s, with s[0] = 0, is the diagonal witness of
    (N, rotated N), which is minus that of (rotated N, N).
    """
    return _diag_shift(N, _rotate(N, 1))


def idealizer(order: ExponentOrder, ideal: ExponentIdeal) -> ExponentOrder:
    """Two-sided idealizer of an ideal: the glued idealizer at depth 0 everywhere."""
    return glued_idealizer(order, ideal, [0] * order.n)


def glued_idealizer(order: ExponentOrder, ideal: ExponentIdeal, depths) -> ExponentOrder:
    """Idealizer of an ideal when diagonal blocks carry congruence constraints.

    The left condition (x N inside N) forces m[i][j] >= N[i][k] - N[j][k] for
    all k, the right condition forces m[i][j] >= N[k][j] - N[k][i]; the
    idealizer is cut out by both.  With A_i the row N[i] followed by minus
    column i of N, both maxima are the one max-plus product
    G[i][j] = max_k (A_i[k] - A_j[k]): O(n^3).

    depths[q] is the congruence depth amalgamating diagonal block q to a
    partner outside this component.  Multiplication into a glued diagonal
    block must land at valuation >= depths[q] off the diagonal, which adds
    the lower bound m[i][j] >= max(depths[i], depths[j]) - N[j][i].  With
    every depth 0 (idealizer) the bound is vacuous: the idealizer has
    m[i][j] >= N[i][i] - N[j][i] and N[i][i] >= 0 for an ideal of the
    order.  The result always contains the order.

    Equivariance: when N[i+1][j+1] = N[i][j] - s[i] + s[j] for all i, j
    (indices mod n), as on every state of the Lambda(v) chains, reindexing
    k -> k+1 in either maximum gives G[i+1][j+1] = G[i][j] - s[i] + s[j]
    with the same s, and so does the depth bound when every depth is
    equal.  That condition is checked exactly on N (see _rotation_shift),
    unless the ideal already carries its shift, so row 0 determines G and
    the rest is filled in O(n^2) by exact integer shifts; on any other N,
    or with unequal depths, every row is computed.
    """
    depths = [int(x) for x in depths]
    n = order.n
    if len(depths) != n:
        raise ValueError("depths must have length n")
    if n == 1:
        # one block: G is the zero diagonal.  Most idealizers of the tree
        # pipeline are of single blocks, and this skips their symmetry check
        return ExponentOrder(order.dims, ((0,),), order.ram)
    N = ideal.N
    s = None
    if depths.count(depths[0]) == n:
        s = ideal.shift
        if s is _UNCHECKED:
            s = _rotation_shift(N)
    cols = list(zip(*N))
    if s is None:
        A = [row + tuple(map(neg, col)) for row, col in zip(N, cols)]
        rows = ([max(map(sub, Ai, Aj)) for Aj in A] for Ai in A)
    else:
        # the left maximum runs over N[0] - N[j], the right one over
        # column j minus column 0
        row0, col0 = N[0], cols[0]
        rows = [
            [
                max(max(map(sub, row0, Nj)), max(map(sub, colj, col0)))
                for Nj, colj in zip(N, cols)
            ]
        ]
    glued = any(depths)
    G = []
    for i, row in enumerate(rows):
        if glued:
            # max(d_i, d_j) - N[j][i] is the larger of d_i - N[j][i] and
            # d_j - N[j][i]; column i of N holds N[j][i]
            col = cols[i]
            row = list(
                map(max, row, map(sub, repeat(depths[i]), col), map(sub, depths, col))
            )
            row[i] = 0
        G.append(tuple(row))
    if s is not None:
        row = G[0]
        s_prev = s[-1:] + s[:-1]
        for si in s[:-1]:
            # G[i+1][j] = G[i][j-1] - s[i] + s[j-1]
            row = tuple(map(sub, map(add, row[-1:] + row[:-1], s_prev), repeat(si)))
            G.append(row)
    return ExponentOrder(order.dims, tuple(G), order.ram)


def fixed_point_chain(step, start, max_steps: int):
    """[start, step(start), ...] up to the first state that step leaves equal.

    max_steps bounds the moves, len(chain) - 1: the application of step that
    only confirms the fixed point is not counted, so a start that already is
    its fixed point passes with max_steps = 0.  Raises StepBudgetExceeded if
    the chain would need more moves.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    chain = [start]
    current = start
    while True:
        nxt = step(current)
        if nxt == current:
            return chain
        if len(chain) > max_steps:
            raise StepBudgetExceeded(max_steps)
        chain.append(nxt)
        current = nxt


def default_step_budget(order: ExponentOrder) -> int:
    return 10 * (order.n + max(order.max_entry(), 1))


def glued_chain(order: ExponentOrder, depth: int, max_steps: int | None = None):
    """Chain of Id(J(.)) steps for a uniformly amalgamated component.

    Every diagonal block is glued at the same depth, which drops by one per
    step.  Returns the list of (order, depth) pairs from the start to the
    first exponent-and-depth fixed point.

    The rotation symmetry of _rotation_shift is checked once, on the start,
    and every state inherits it.  If M[i+1][j+1] = M[i][j] - s[i] + s[j],
    then m_ij + m_ji is invariant under i -> i+1 (the s terms cancel), so
    rotation maps the unreduced classes onto each other and the radical, M
    plus the class indicator, has the same shift s.  By the equivariance of
    glued_idealizer, the uniform-depth idealizer of the radical has shift s too,
    and by induction so has every state.  Each step's ideal carries s, so
    its row fill runs with no check on N.  A start without the
    symmetry runs the general path on every step, also on states that
    happen to be symmetric later; both paths give the same matrix.
    """
    if max_steps is None:
        max_steps = default_step_budget(order) + depth
    s = _rotation_shift(order.M)

    def step(state):
        current, f = state
        ideal = radical(current)
        object.__setattr__(ideal, "shift", s)
        return glued_idealizer(current, ideal, [f] * current.n), max(f - 1, 0)

    return fixed_point_chain(step, (order, depth), max_steps)


def idealizer_chain(order: ExponentOrder, max_steps: int | None = None):
    """Iterate Id(J(.)) until the first fixed point, returning every state.

    The returned list starts with the given order and ends with the head
    order (the first Lambda with Id(J(Lambda)) = Lambda).  This is the
    depth-0 glued chain, whose steps are plain idealizers.
    """
    return [o for o, _ in glued_chain(order, 0, max_steps)]


def diag_conjugate(order: ExponentOrder, t) -> ExponentOrder:
    """Conjugate by diag(pi^t_1, ..., pi^t_n):  m[i][j] -> m[i][j] - t_i + t_j."""
    t = [int(x) for x in t]
    if len(t) != order.n:
        raise ValueError("t must have length n")
    n = order.n
    M = order.M
    G = tuple(
        tuple(M[i][j] - t[i] + t[j] for j in range(n)) for i in range(n)
    )
    return ExponentOrder(order.dims, G, order.ram)


@dataclass(frozen=True)
class HereditaryType:
    """Hereditary type: number of blocks and grouped dimensions in class order."""

    blocks: int
    grouped_dims: tuple[int, ...]


def is_hereditary(order: ExponentOrder):
    """Test conjugacy to a standard block-step hereditary order.

    Normalizes with t_i = m[i][0] to C and lets s_i be the row sums of C:
    the order is hereditary iff C[i][j] = 1 when s_i > s_j and 0 otherwise.
    The blocks are then the distinct values of s in decreasing order, and
    the grouped dims sum the dims over each value.  Members of one unreduced
    class have equal rows and columns in C, so an unreduced order has the
    type of merge_unreduced(order).  Returns a HereditaryType, or None.
    """
    C = diag_conjugate(order, [row[0] for row in order.M]).M
    s = [sum(row) for row in C]
    if any(c != (si > sj) for row, si in zip(C, s) for c, sj in zip(row, s)):
        return None
    levels = sorted(set(s), reverse=True)
    grouped = tuple(
        sum(d for d, si in zip(order.dims, s) if si == level) for level in levels
    )
    return HereditaryType(len(levels), grouped)


def merge_unreduced(order: ExponentOrder) -> ExponentOrder:
    """Merge index pairs with m[i][j] + m[j][i] = 0 (isomorphic block factors).

    Merged indices add their dimensions; the result is reduced.  Members of a
    class differ from their root by a diagonal shift, so the root's row
    represents them all.  Idempotent on reduced input.
    """
    n = order.n
    M = order.M
    root = _unreduced_classes(M)
    roots = [i for i in range(n) if root[i] == i]
    new_dims = [
        sum(order.dims[i] for i in range(n) if root[i] == r) for r in roots
    ]
    k = len(roots)
    G = tuple(
        tuple(M[roots[i]][roots[j]] for j in range(k)) for i in range(k)
    )
    return ExponentOrder(tuple(new_dims), G, order.ram)


def equal_up_to_diag(A: Matrix, B: Matrix) -> bool:
    """True if A and B differ by a diagonal conjugation t_i - t_j."""
    return _diag_shift(A, B) is not None


def equal_up_to_diag_and_rotation(A: Matrix, B: Matrix) -> bool:
    """Equality up to diagonal conjugation and a cyclic index relabeling."""
    return any(_diag_shift(_rotate(A, r), B) is not None for r in range(len(A)))
