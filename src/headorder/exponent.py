"""Graduated orders over a discrete valuation ring, encoded by exponent matrices.

An order here is a square integer matrix M with zero diagonal satisfying the
closure inequality m[i][k] + m[k][j] >= m[i][j], together with a vector of
block dimensions.  All operations are exact integer arithmetic; the dimension
vector is carried along but never influences the exponent computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        n = self.n
        return all(
            self.M[i][j] + self.M[j][i] >= 1
            for i in range(n)
            for j in range(i + 1, n)
        )

    def with_dims(self, dims) -> "ExponentOrder":
        dims = tuple(int(d) for d in dims)
        if len(dims) != self.n:
            raise ValueError("dims length mismatch")
        return ExponentOrder(dims, self.M, self.ram)


@dataclass(frozen=True)
class ExponentIdeal:
    """Exponent matrix of a full two-sided ideal inside an ExponentOrder."""

    N: Matrix


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
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    if n == 0:
        raise ValueError("dims must be nonempty")
    M = tuple(tuple(1 if j > i else 0 for j in range(n)) for i in range(n))
    return ExponentOrder(dims, M, ram)


def scaled_hereditary(dims, a: int, ram: int = 1) -> ExponentOrder:
    """a * H_n: exponent ``a`` strictly above the diagonal."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    M = tuple(tuple(a if j > i else 0 for j in range(n)) for i in range(n))
    return ExponentOrder(dims, M, ram)


def _unreduced_classes(M: Matrix) -> list[int]:
    """Class root of each index, joining i and j when m[i][j] + m[j][i] = 0.

    Such indices carry isomorphic block factors; the triangle inequality
    forces their rows and columns to be diagonal shifts of one another.
    Every root is the smallest index of its class.
    """
    n = len(M)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if M[i][j] + M[j][i] == 0:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    return [find(i) for i in range(n)]


def radical(order: ExponentOrder) -> ExponentIdeal:
    """Jacobson radical of the order.

    Indices with m[i][j] + m[j][i] = 0 belong to one matrix-ring factor of
    the semisimple quotient, so the radical raises exponents by one on the
    whole class block; on a reduced order that is just the diagonal.
    """
    M = order.M
    root = _unreduced_classes(M)
    n = order.n
    N = tuple(
        tuple(M[i][j] + (1 if root[i] == root[j] else 0) for j in range(n))
        for i in range(n)
    )
    return ExponentIdeal(N)


# Old name of the general radical.  perfbench/ calls it in its oracle set-up
# and lists it in its tracer; the benchmark code is held fixed so that its
# recorded baselines stay comparable.
_radical_general = radical


def idealizer(order: ExponentOrder, ideal: ExponentIdeal) -> ExponentOrder:
    """Two-sided idealizer of an ideal, as an entrywise max-plus formula.

    The left condition (x N inside N) forces m[i][j] >= N[i][k] - N[j][k] for
    all k, the right condition forces m[i][j] >= N[k][j] - N[k][i]; the
    idealizer is cut out by both.  The result always contains the order.
    """
    N = ideal.N
    n = order.n
    rng = range(n)
    G = []
    for i in rng:
        row = []
        Ni = N[i]
        for j in rng:
            Nj = N[j]
            left = max(Ni[k] - Nj[k] for k in rng)
            right = max(N[k][j] - N[k][i] for k in rng)
            row.append(max(left, right))
        G.append(tuple(row))
    return ExponentOrder(order.dims, tuple(G), order.ram)


def glued_idealizer(order: ExponentOrder, ideal: ExponentIdeal, depths) -> ExponentOrder:
    """Idealizer of an ideal when diagonal blocks carry congruence constraints.

    depths[q] is the congruence depth amalgamating diagonal block q to a
    partner outside this component.  Multiplication into a glued diagonal
    block must land at valuation >= depths[q] off the diagonal, which adds
    the lower bound m[i][j] >= max(depths[i], depths[j]) - N[j][i] to the
    plain idealizer conditions.
    """
    depths = [int(x) for x in depths]
    if len(depths) != order.n:
        raise ValueError("depths must have length n")
    bare = idealizer(order, ideal)
    if not any(depths):
        # the bound -N[j][i] is vacuous: bare has m[i][j] >= N[i][i] - N[j][i]
        # and N[i][i] >= 0 for an ideal of the order
        return bare
    n = order.n
    N = ideal.N
    G = []
    for i in range(n):
        row = []
        for j in range(n):
            val = bare.M[i][j]
            if i != j:
                val = max(val, max(depths[i], depths[j]) - N[j][i])
            row.append(val)
        G.append(tuple(row))
    return ExponentOrder(order.dims, tuple(G), order.ram)


def fixed_point_chain(step, start, max_steps: int):
    """[start, step(start), ...] up to the first state that step leaves equal.

    Raises StepBudgetExceeded if no fixed point is reached within max_steps
    applications of step.
    """
    chain = [start]
    current = start
    for _ in range(max_steps):
        nxt = step(current)
        if nxt == current:
            return chain
        chain.append(nxt)
        current = nxt
    raise StepBudgetExceeded(max_steps)


def default_step_budget(order: ExponentOrder) -> int:
    return 10 * (order.n + max(order.max_entry(), 1))


def _glued_step(state):
    order, f = state
    return glued_idealizer(order, radical(order), [f] * order.n), max(f - 1, 0)


def glued_chain(order: ExponentOrder, depth: int, max_steps: int | None = None):
    """Chain of Id(J(.)) steps for a uniformly amalgamated component.

    Every diagonal block is glued at the same depth, which drops by one per
    step.  Returns the list of (order, depth) pairs from the start to the
    first exponent-and-depth fixed point.
    """
    if max_steps is None:
        max_steps = default_step_budget(order) + depth
    return fixed_point_chain(_glued_step, (order, depth), max_steps)


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
    classes: tuple[tuple[int, ...], ...] = field(default=())


def is_hereditary(order: ExponentOrder):
    """Test conjugacy to a standard block-step hereditary order.

    Normalizes with t_i = m[i][0], stably sorts indices into classes and
    checks for the 0/1 step pattern of H_k.  Returns a HereditaryType on
    success (block count and grouped dims, classes listing original
    indices), or None.
    """
    n = order.n
    t = [order.M[i][0] for i in range(n)]
    C = diag_conjugate(order, t).M
    if any(x not in (0, 1) for row in C for x in row):
        return None
    # class key: number of 1s in the row, strictly decreasing along classes
    sums = [sum(C[i]) for i in range(n)]
    idx = sorted(range(n), key=lambda i: -sums[i])
    classes: list[list[int]] = []
    for i in idx:
        if classes and sums[classes[-1][0]] == sums[i]:
            classes[-1].append(i)
        else:
            classes.append([i])
    rank = {}
    for c, members in enumerate(classes):
        for i in members:
            rank[i] = c
    for i in range(n):
        for j in range(n):
            expected = 1 if rank[i] < rank[j] else 0
            if C[i][j] != expected:
                return None
    grouped = tuple(sum(order.dims[i] for i in members) for members in classes)
    return HereditaryType(len(classes), grouped, tuple(tuple(m) for m in classes))


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
    n = len(A)
    if len(B) != n:
        return False
    s = [A[i][0] - B[i][0] for i in range(n)]
    return all(
        A[i][j] - B[i][j] == s[i] - s[j] for i in range(n) for j in range(n)
    )


def equal_up_to_diag_and_rotation(A: Matrix, B: Matrix) -> bool:
    """Equality up to diagonal conjugation and a cyclic index relabeling."""
    n = len(A)
    if len(B) != n:
        return False
    for r in range(n):
        Ar = tuple(
            tuple(A[(i + r) % n][(j + r) % n] for j in range(n))
            for i in range(n)
        )
        if equal_up_to_diag(Ar, B):
            return True
    return False
