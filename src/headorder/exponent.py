"""Graduated orders over a discrete valuation ring, encoded by exponent matrices.

An order here is a square integer matrix M with zero diagonal satisfying the
closure inequality m[i][k] + m[k][j] >= m[i][j], together with a vector of
block dimensions.  All operations are exact integer arithmetic; the dimension
vector is carried along but never influences the exponent computations.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import accumulate, repeat
from operator import add, getitem, indexOf, neg, sub
from typing import NamedTuple

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


@dataclass(frozen=True)
class ExponentIdeal:
    """Exponent matrix of a full two-sided ideal inside an ExponentOrder."""

    N: Matrix


class TwistedCirculant(NamedTuple):
    """An order or ideal whose exponent matrix is T(u, sigma), stored as row u.

    T(u, sigma)[i][j] = u[(j - i) % n] + sigma * [j < i]; twisted_matrix
    builds it, and _twisted_form finds it in a diagonal conjugate.  radical
    and glued_idealizer (at one depth on every block, with the order in
    this form too) take and return it in O(n) and O(n^2): see _radical_row
    and _idealizer_row.  glued_chain runs every rotation-symmetric chain on
    this form and builds a state's matrix when it is read.
    """

    u: tuple[int, ...]
    sigma: int

    @property
    def n(self) -> int:
        return len(self.u)


def validate_order(M, dims, ram: int = 1) -> ExponentOrder:
    """Check the order invariants and wrap the data.

    Raises DiagonalNonzero or TriangleViolation (with offending indices) if
    M is not the exponent matrix of an order.  Off-diagonal entries may be
    negative; only zero diagonal and the triangle inequality are enforced.
    """
    M = _freeze(M)
    n = len(M)
    if n == 0 or any(len(row) != n for row in M):
        raise ValueError("M must be square and nonempty")
    dims = checked_dims(dims, n, ram)
    for i in range(n):
        if M[i][i] != 0:
            raise DiagonalNonzero(i, M[i][i])
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if M[i][k] + M[k][j] < M[i][j]:
                    raise TriangleViolation(i, j, k)
    return ExponentOrder(dims, M, ram)


def checked_dims(dims, n: int, ram: int = 1) -> tuple[int, ...]:
    """dims as ints, checked: n positive entries (callers have n >= 1), and ram >= 1."""
    dims = tuple(map(int, dims))
    if len(dims) != n:
        raise ValueError("dims must have one entry per block")
    if min(dims) <= 0:
        raise ValueError("dims must be positive")
    if ram < 1:
        raise ValueError("need ram >= 1")
    return dims


def standard_hereditary(dims, ram: int = 1) -> ExponentOrder:
    """The basic hereditary order: exponent 1 strictly above the diagonal."""
    return scaled_hereditary(dims, 1, ram)


def scaled_hereditary(dims, a: int, ram: int = 1) -> ExponentOrder:
    """a * H_n: exponent ``a`` strictly above the diagonal, T((0, a, ..., a), -a)."""
    M = twisted_matrix((0,) + (a,) * (len(dims) - 1), -a)
    return ExponentOrder(checked_dims(dims, len(M), ram), M, ram)


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


def radical(order: ExponentOrder | TwistedCirculant) -> ExponentIdeal | TwistedCirculant:
    """Jacobson radical of the order.

    Indices with m[i][j] + m[j][i] = 0 belong to one matrix-ring factor of
    the semisimple quotient, so the radical raises exponents by one on the
    whole class block; on a reduced order that is just the diagonal.  An
    ExponentOrder gets an ExponentIdeal; a TwistedCirculant gets its
    radical in the same form (see _radical_row).
    """
    if isinstance(order, TwistedCirculant):
        return TwistedCirculant(_radical_row(order.u, order.sigma), order.sigma)
    return ExponentIdeal(_radical_matrix(order.M))


@lru_cache(maxsize=1)
def _radical_matrix(M: Matrix) -> Matrix:
    """The exponent matrix of the radical of the order M (see radical).

    Entry (i, j) is m_ij + [m_ij + m_ji = 0], the rule of _radical_row: on
    an order the relation m_ij + m_ji = 0 is transitive (see
    _unreduced_classes), so it is the class relation itself.  The last
    result is kept: a chain step asks for the same matrix twice, in radical
    and in the check of _maxplus_idealizer.
    """
    return tuple(
        tuple(x + (x + y == 0) for x, y in zip(row, col)) for row, col in zip(M, zip(*M))
    )


def _is_radical(M: Matrix, N: Matrix) -> bool:
    """True if M has a zero diagonal and N is its radical: O(n^2)."""
    return not any(map(getitem, M, range(len(M)))) and N == _radical_matrix(M)


# Old name of the general radical.  perfbench/ calls it in its oracle set-up
# and lists it in its tracer; the benchmark code is held fixed so that its
# recorded baselines stay comparable.
_radical_general = radical


def _rotate(N: Matrix, r: int) -> Matrix:
    """N relabeled by the index rotation i -> i + r: entry (i, j) is N[i+r][j+r]."""
    return tuple(row[r:] + row[:r] for row in N[r:] + N[:r])


def diag_key(M: Matrix) -> Matrix:
    """The diagonal normal form of M: entry (i, j) is m_ij - m_i0 + m_j0.

    It is M conjugated by t_i = m_i0, so column 0 is m_00 (zero on an order),
    and it is exact: A and B are diagonal conjugates iff their keys are
    equal.  Conjugating by t adds t_i - t_j to m_ij and t_i - t_0 to m_i0,
    which cancel in the key; and if the keys are equal, then
    a_ij - b_ij = s_i - s_j with s_i = a_i0 - b_i0.
    """
    return conjugate_matrix(M, [row[0] for row in M])


def conjugate_matrix(M: Matrix, t) -> Matrix:
    """M conjugated by diag(pi^t): entry (i, j) is m_ij - t_i + t_j."""
    return tuple(tuple(map(sub, map(add, row, t), repeat(ti))) for row, ti in zip(M, t))


def idealizer(order: ExponentOrder, ideal: ExponentIdeal) -> ExponentOrder:
    """Two-sided idealizer of an ideal: the glued idealizer at depth 0 everywhere."""
    return glued_idealizer(order, ideal, [0] * order.n)


def glued_idealizer(
    order: ExponentOrder | TwistedCirculant, ideal: ExponentIdeal | TwistedCirculant, depths
) -> ExponentOrder | TwistedCirculant:
    """Idealizer of an ideal when diagonal blocks carry congruence constraints.

    The left condition (x N inside N) forces m[i][j] >= N[i][k] - N[j][k] for
    all k, the right condition forces m[i][j] >= N[k][j] - N[k][i]; the
    idealizer is cut out by both.  With A_i the row N[i] followed by minus
    column i of N, both maxima are the one max-plus product
    G[i][j] = max_k (A_i[k] - A_j[k]): O(n^3).  When N is the radical of
    the order, each entry is m_ij or m_ij - 1 and the search for a term
    equal to m_ij stops at the first one found (proof in
    _maxplus_idealizer); each kernel checks this itself, and any other
    ideal takes the maximum.

    depths[q] is the congruence depth amalgamating diagonal block q to a
    partner outside this component.  Multiplication into a glued diagonal
    block must land at valuation >= depths[q] off the diagonal, which adds
    the lower bound m[i][j] >= max(depths[i], depths[j]) - N[j][i].  With
    every depth 0 (idealizer) the bound is vacuous: the idealizer has
    m[i][j] >= N[i][i] - N[j][i] and N[i][i] >= 0 for an ideal of the
    order.  The result always contains the order.

    There is one kernel per form, and the order and the ideal must be in
    the same one, with the same n.  An ExponentOrder and an ExponentIdeal
    take the matrix kernel, _maxplus_idealizer, at any depths.  A
    TwistedCirculant order and ideal, with one sigma, take the row kernel,
    _idealizer_row, at one depth on every block, and get T(g, sigma): one
    row of n entries, O(n^2).  Chains reach the row form through
    glued_chain, which twists a rotation-symmetric start once.
    """
    depths = list(map(int, depths))
    n = order.n
    if len(depths) != n:
        raise ValueError("depths must have length n")
    if isinstance(order, TwistedCirculant) != isinstance(ideal, TwistedCirculant):
        raise ValueError("the order and the ideal must both be TwistedCirculant or neither")
    if not isinstance(ideal, TwistedCirculant):
        if len(ideal.N) != n:
            raise ValueError("an ideal needs one row per block of the order")
        return _maxplus_idealizer(order, ideal.N, depths)
    if depths.count(depths[0]) != n:
        raise ValueError("a TwistedCirculant ideal needs one depth on every block")
    if order.sigma != ideal.sigma or order.n != ideal.n:
        raise ValueError("a TwistedCirculant ideal needs an order of its n and sigma")
    return TwistedCirculant(_idealizer_row(ideal.u, ideal.sigma, depths[0], order.u), ideal.sigma)


def _maxplus_idealizer(order: ExponentOrder, N: Matrix, depths) -> ExponentOrder:
    """glued_idealizer on every row: each entry of the maximum, then the depth bound.

    If the order M has a zero diagonal and N is its radical (_is_radical,
    O(n^2)), entry (i, j) of the maximum is m_ij when m_ij is one of its
    terms and m_ij - 1 otherwise; on any other N it is the max-plus
    maximum.  Both give the same matrix.  Write c_ij = [m_ij + m_ji = 0],
    so N = M + C.  N is a two-sided ideal of M: m_ij + N_jk >= N_ik is the
    triangle inequality unless c_ik = 1 and c_jk = 0; then i and j are in
    different classes (the classes are transitive, see _unreduced_classes),
    so m_ij >= 1 - m_ji >= 1 - m_jk - m_ki = 1 - m_jk + m_ik, as m_ki =
    -m_ik.  The right side, N_ki + m_ij >= N_kj, is the same with the
    transpose.  So every term N_ik - N_jk and N_kj - N_ki is at most m_ij.
    The term k = j is N_ij - N_jj = m_ij + c_ij - 1, since N_jj = 1: the
    maximum is at least m_ij - 1, and it is m_ij iff some term is (the
    term k = j is, when c_ij = 1).  The search stops at the first such
    term: O(n^3) at worst, as the maximum.
    """
    cols = list(zip(*N))
    A = [row + tuple(map(neg, col)) for row, col in zip(N, cols)]
    two_valued = _is_radical(order.M, N)
    G = []
    glued = any(depths)
    for i, Ai in enumerate(A):
        if two_valued:
            row = [m if m in map(sub, Ai, Aj) else m - 1 for m, Aj in zip(order.M[i], A)]
        else:
            row = [max(map(sub, Ai, Aj)) for Aj in A]
        if glued:
            # max(d_i, d_j) - N[j][i] is the larger of d_i - N[j][i] and
            # d_j - N[j][i]; column i of N holds N[j][i]
            col = cols[i]
            row = list(
                map(max, row, map(sub, repeat(depths[i]), col), map(sub, depths, col))
            )
            row[i] = 0
        G.append(tuple(row))
    return ExponentOrder(order.dims, tuple(G), order.ram)


def twisted_matrix(u, sigma: int) -> Matrix:
    """The matrix T(u, sigma)[i][j] = u[(j - i) % n] + sigma * [j < i] of a tuple u.

    Row i is w[n-i:] + u[:n-i] with w = u + sigma: its columns j < i are
    u[n-i+j] + sigma and its columns j >= i are u[j-i].
    """
    n = len(u)
    w = tuple(map(add, u, repeat(sigma)))
    return tuple(w[n - i:] + u[: n - i] for i in range(n))


def twisted_key(u, sigma: int) -> tuple[int, ...]:
    """The row v whose Lambda(v) = T(v, -v_(n-1)) is a diagonal conjugate of T(u, sigma).

    v_k = u_k + k*(sigma + u_(n-1)).  Two T(u, sigma) are diagonal
    conjugates iff their keys are equal, and T(v, -v_(n-1)) has the key v.
    Lemma: T(u', sigma') is T(u, sigma) plus t_j - t_i on entry (i, j) iff
    u'_k = u_k + k*c and sigma' = sigma - n*c for one integer c.  Proof: at
    n = 1 both are (u_0) and c is free.  At n >= 2 the superdiagonal gives
    t_(i+1) - t_i = u'_1 - u_1 = c, so t_i = t_0 + i*c; row 0 gives
    u'_k = u_k + k*c; column 0 at row i > 0 gives u'_(n-i) + sigma' =
    u_(n-i) + sigma - i*c, so sigma' = sigma - n*c.  Conversely t_i = i*c
    adds (j - i)*c to entry (i, j): k*c at k = j - i, or k*c - n*c at
    k = n + j - i if j < i.  The move takes sigma + u_(n-1) to sigma +
    u_(n-1) - c, so exactly one, c = sigma + u_(n-1), reaches a Lambda(v),
    and conjugates reach the same one.
    """
    c = sigma + u[-1]
    return tuple(x + k * c for k, x in enumerate(u))


def _untwist(u, sigma: int, P) -> Matrix:
    """T(u, sigma) conjugated back by P: the inverse of _twisted_form."""
    T = twisted_matrix(u, sigma)
    return conjugate_matrix(T, P) if any(P) else T


def _twisted_form(N: Matrix) -> tuple[tuple[int, ...], int, tuple[int, ...]] | None:
    """(u, sigma, P) with N conjugated by -P equal to T(u, sigma), or None.

    N conjugated by -P is N[i][j] + P[i] - P[j], and T(u, sigma) has the
    constant superdiagonal u[1]; so with P[0] = P[1] = 0, P[k+1] = P[k] +
    N[k][k+1] - N[0][1], u = N[0] - P, and entry (1, 0) gives sigma.  One
    comparison checks the form.  It is unique: two valid P differ by k*c
    (the lemma of twisted_key), and P[1] = 0 forces c = 0.

    None exactly when N has no rotation symmetry, N[i+1][j+1] = N[i][j] -
    s[i] + s[j] (indices mod n): T(u, sigma) has it with s = (0, ..., 0,
    sigma), and conjugation keeps it.  Conversely, take s[0] = 0 (s is
    fixed up to a constant) and Q[k] = s[0] + ... + s[k-1].  Entry
    (i+1, j+1) of N conjugated by -Q is entry (i, j) for i < n - 1, plus
    s[0] + ... + s[n-1] when j = n - 1; so it is T(its row 0, that sum),
    and Q = P since Q[0] = Q[1] = 0.
    """
    P = (0, *accumulate(N[k][k + 1] - N[0][1] for k in range(len(N) - 1)))
    u = tuple(map(sub, N[0], P))
    sigma = N[1][0] - u[-1] if len(N) > 1 else 0
    T = twisted_matrix(u, sigma)
    return (u, sigma, P) if N == (conjugate_matrix(T, P) if any(P) else T) else None


@lru_cache(maxsize=1)
def _radical_row(u, sigma: int) -> tuple[int, ...]:
    """Row 0 of the radical of the order T(u, sigma), in the same coordinates.

    Conjugation leaves m_ij + m_ji alone, and on T(u, sigma) with
    d = (j - i) % n it is 2 u_0 = 0 at d = 0 and u_d + u_(n-d) + sigma
    otherwise (exactly one of j < i and i < j holds).  So the class
    indicator depends on d alone, and the radical, M plus that indicator
    (see radical), is T(r, sigma) with r_d = u_d + [u_d + u_(n-d) + sigma
    * [d > 0] = 0]: O(n).  The last result is kept: a chain step asks for
    the same row twice, in radical and in the check of _idealizer_row.
    """
    twist = (0,) + (sigma,) * (len(u) - 1)
    return tuple(
        x + (x + y + t == 0) for x, y, t in zip(u, u[:1] + u[:0:-1], twist)
    )


def _idealizer_row(N, sigma: int, f: int, u) -> tuple[int, ...]:
    """Row 0 of the glued idealizer of T(N, sigma) at depth f on every block.

    u is the row of the order T(u, sigma) that T(N, sigma) is an ideal
    of.  G_0 = 0.  For j >= 1, row j of T = T(N, sigma) is the
    slice E[n - j : 2n - j] of E = (N + sigma) ++ N, since
    E[n - j + k] = N[(k - j) % n] + sigma * [k < j].  So the left maximum
    is G_j = max_k (N_k - E[n - j + k]): one slice and one map.  When f is
    nonzero the depth bound is f - T[j][0] = f - E[n - j].

    If u[0] = 0 and N is _radical_row(u, sigma), O(n) to check, then
    T(N, sigma) is the radical of the order T(u, sigma), and G_j is u_j
    when u_j is one of the terms and u_j - 1 otherwise; the search stops at
    the first such term.  This is the maximum: entry (0, j) of the order is
    u_j, and by the proof in _maxplus_idealizer every term is at most u_j
    and the term k = j, N_j - N_0 = N_j - 1, is at least u_j - 1 (the
    terms of the right maximum are those of the left one, see below).
    If the check fails, G_j is the maximum itself.

    The right maximum, max_k (T[k][j] - T[k][0]), is not computed: it
    equals the left one term by term.  Its term at k is
    N[(j - k) % n] + sigma * [j < k] - N[(-k) % n] - sigma * [k > 0].  Put
    k' = (j - k) % n, so N[(-k) % n] = N[(k' - j) % n]; the left term at k'
    is N[k'] - N[(k' - j) % n] - sigma * [k' < j], and the sigma terms
    agree: k = 0 gives k' = j and 0 on both sides; 0 < k <= j gives
    k' = j - k < j and -sigma on both sides; k > j gives k' = n + j - k > j
    and sigma - sigma = 0 against 0.  So G_j is the idealizer's entry
    (0, j).
    """
    n = len(N)
    E = tuple(map(add, N, repeat(sigma))) + N
    # k = n - j for j = 1, ..., n - 1
    if u[0] == 0 and N == _radical_row(u, sigma):
        G = [
            m if m in map(sub, N, E[k : k + n]) else m - 1
            for m, k in zip(u[1:], range(n - 1, 0, -1))
        ]
    else:
        G = [max(map(sub, N, E[k : k + n])) for k in range(n - 1, 0, -1)]
    if f:
        G = map(max, G, map(sub, repeat(f), E[n - 1 : 0 : -1]))
    return (0, *G)


class LazyChain(Sequence):
    """A chain of ``length`` states whose state k is make(k), made when read.

    It takes negative indices and slices, equals any sequence with the same
    states, and chain + list is a list.  key(k), if given, is state_key(self, k).
    """

    def __init__(self, length: int, make, key=None):
        self._len = length
        self._make = make
        self.key = key

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return map(self._make, range(self._len))

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self._make(i) for i in range(*k.indices(self._len))]
        if k < 0:
            k += self._len
        if not 0 <= k < self._len:
            raise IndexError("chain index out of range")
        return self._make(k)

    def __eq__(self, other):
        return isinstance(other, Sequence) and list(self) == list(other)

    __hash__ = None

    def __add__(self, other):
        return list(self) + list(other)


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
    step.  Returns the (order, depth) pairs from the start to the first
    exponent-and-depth fixed point: a list, or on a rotation-symmetric
    start a LazyChain.  Every step is step((T, f)) = (glued_idealizer(T,
    radical(T), [f] * n), max(f - 1, 0)), on the form of the start.

    _twisted_form checks the rotation symmetry once, on the start M: M
    conjugated by -P is T(u, sigma).  Radical and glued_idealizer at one
    depth on every block commute with diagonal conjugation (it adds
    t[j] - t[i] to m_ij, to both maxima of glued_idealizer and to its depth
    bound f - N[j][i], and leaves m_ij + m_ji alone), so the chain of M is
    that of T(u, sigma) conjugated by P.  They also commute with the
    rotation i -> i+1 (reindex k -> k+1 in either maximum), so every state
    keeps the symmetry of T(u, sigma), with shift (0, ..., 0, sigma), and
    is T(its row 0, sigma) by the proof in _twisted_form.  So the chain
    iterates (TwistedCirculant(u, sigma), depth) alone, O(n^2) per step
    (circulant.expand builds Lambda(v) as T(v, -v_(n-1)), with P = 0).
    Two states are equal iff their rows are, so fixed_point_chain stops and
    counts moves as on the matrices.  The chain builds state k from its row
    (_untwist) when it is first read, then keeps it; state 0 is the
    caller's object.  A start without the symmetry iterates the matrices
    through the max-plus kernel, also on states that are symmetric later;
    both kernels give the same matrix.
    """
    if max_steps is None:
        max_steps = default_step_budget(order) + depth
    n = order.n

    def step(state):
        T, f = state
        return glued_idealizer(T, radical(T), [f] * n), max(f - 1, 0)

    form = _twisted_form(order.M)
    if form is None:
        return fixed_point_chain(step, (order, depth), max_steps)
    u, sigma, P = form
    states = fixed_point_chain(step, (TwistedCirculant(u, sigma), depth), max_steps)

    @cache
    def state(k):
        if k == 0:
            return order, depth
        T, f = states[k]
        return ExponentOrder(order.dims, _untwist(T.u, sigma, P), order.ram), f

    return LazyChain(len(states), state, lambda k: (twisted_key(states[k][0].u, sigma), states[k][1]))


def state_key(chain, k: int):
    """(twisted_key of the order of state k, its depth) in a chain of (order, depth) pairs.

    O(n) from the row a glued_chain LazyChain keeps, else O(n^2) by _twisted_form;
    None on a matrix without rotation symmetry, as no T(u, sigma) is conjugate to it.
    """
    if isinstance(chain, LazyChain) and chain.key:
        return chain.key(k)
    order, depth = chain[k]
    form = _twisted_form(order.M)
    return (None if form is None else twisted_key(*form[:2])), depth


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
    return ExponentOrder(order.dims, conjugate_matrix(order.M, t), order.ram)


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
    C = diag_key(order.M)
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
    return diag_key(A) == diag_key(B)


def equal_up_to_diag_and_rotation(A: Matrix, B: Matrix) -> bool:
    """Equality up to diagonal conjugation and a cyclic index relabeling."""
    key = diag_key(B)
    return any(diag_key(_rotate(A, r)) == key for r in range(len(A)))
