"""The cyclically symmetric family Lambda(v) and its closed-form chain data.

A CirculantState holds an exponent vector v (v_0 = 0) for which Lambda(v) is
an order, checked in O(n^2) when one is made, together with an amalgamation
depth f: the number of remaining idealizer steps before the diagonal
congruences to other block components disappear.  expand drops the depth.
The closed forms below are bare rows; only head_order_w makes a CirculantState.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import sub

from .errors import NotACycle, OutOfRange
from .exponent import ExponentOrder, HereditaryType, checked_dims, state_key, twisted_matrix


@dataclass(frozen=True)
class CirculantState:
    dims: tuple[int, ...]
    v: tuple[int, ...]
    f: int = 0
    ram: int = 1

    @property
    def n(self) -> int:
        return len(self.v)

    def __post_init__(self):
        v = tuple(int(x) for x in self.v)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if len(self.dims) != len(v):
            raise ValueError("dims and v must have equal length")
        if any(d <= 0 for d in self.dims):
            raise ValueError("dims must be positive")
        if self.ram < 1:
            raise ValueError("need ram >= 1")
        if not v:
            raise ValueError("v must be nonempty")
        if v[0] != 0:
            raise ValueError("v_0 must be 0")
        # Lambda(v) is an order iff v_a + v_b >= w_(a+b) for b >= a, where w
        # extends v past the wrap by w_(n+k) = v_k + v_(n-1).  b = n - 1
        # gives v_a >= v_(a-1), so v is nondecreasing.
        w = v + tuple(x + v[-1] for x in v)
        if any(max(map(sub, w[2 * a:], v[a:])) > x for a, x in enumerate(v)):
            raise ValueError("Lambda(v) is not an order: need v_a + v_b >= v_(a+b), "
                             "with v_(n+k) = v_k + v_(n-1)")
        if not 0 <= self.f <= v[-1]:
            raise ValueError("depth f must satisfy 0 <= f <= v_{n-1}")


def expand(state: CirculantState) -> ExponentOrder:
    """Exponent matrix m_ij = v_{j-i} above, v_{n+j-i} - v_{n-1} below: T(v, -v_{n-1})."""
    return ExponentOrder(state.dims, twisted_matrix(state.v, -state.v[-1]), state.ram)


def _split(n: int, b: int):
    """n = l0*b + x0 with 0 < x0 <= b."""
    l0, x0 = divmod(n, b)
    if x0 == 0:
        l0, x0 = l0 - 1, b
    return l0, x0


def initial_reduction(n: int, a: int):
    """State after the first z*n steps: a = z*n + b reduced to (0_b, b^{n-1}).

    Returns (row, step_index); the state's depth is b.  For b = 0 the row
    is the maximal order (all exponents zero, depth 0).
    """
    if n < 1 or a < 1:
        raise ValueError("need n >= 1 and a >= 1")
    z, b = divmod(a, n)
    return (0,) + (b,) * (n - 1), z * n


def _staircase(n: int, mults, b: int) -> tuple[int, ...]:
    """(0, 1^{m_1}, ..., (b-1)^{m_(b-1)}, b, ..., b) of length n, mults = (m_1, ..., m_(b-1))."""
    v = [0]
    for u, mult in enumerate(mults, 1):
        v += [u] * mult
    return tuple(v + [b] * (n - len(v)))


def anfang_state(n: int, b: int, m: int):
    """Closed form (row, depth) of the chain state m+1 steps after (0_b, b^{n-1}).

    Valid for 0 < b < n and 0 <= m < n - l0 where n = l0*b + x0 with
    0 < x0 <= b.  Depth is max(0, b - m - 1).  With m = l*(b-1) + y and
    0 <= y < b - 1 the state is (0, 1^l, ..., (b-y-1)^l, (b-y)^{l+1}, ...,
    (b-1)^{l+1}, b, ..., b); at b = 1 it is (0, 1^{n-1}).
    """
    if not 0 < b < n:
        raise OutOfRange(f"need 0 < b < n, got b={b}, n={n}")
    l0, _ = _split(n, b)
    if not 0 <= m < n - l0:
        raise OutOfRange(f"m={m} outside [0, {n - l0})")
    # b = 1 has m = 0 and no value between 0 and b
    l, y = divmod(m, b - 1 or 1)
    mults = [l] * (b - y - 1) + [l + 1] * y
    return _staircase(n, mults, b), max(0, b - m - 1)


def defm1_state(n: int, b: int):
    """The row v^(1) reached n - l0 steps after (0_b, b^{n-1}), with its step.

    v^(1) = (0, 1^{l0}, ..., (b-y-1)^{l0}, (b-y)^{l0+1}, ..., (b-1)^{l0+1},
    b^{l0}) with y = x0 - 1 is the last early form, m = n - l0 - 1: for
    x0 < b that form has l = l0 and y < b - 1, so its ranges are 1..b-y-1
    times l0, b-y..b-1 times l0+1 and b times l0; at x0 = b it has l = l0 + 1
    and y = 0; at b = 1 both are (0, 1^{n-1}).  Its depth is 0.  The step is
    relative to the (0_b, b^{n-1}) state sitting at step 0.
    """
    if not 0 < b < n:
        raise OutOfRange(f"need 0 < b < n, got b={b}, n={n}")
    l0, _ = _split(n, b)
    return anfang_state(n, b, n - l0 - 1)[0], n - l0


def midway_state(n: int, b: int):
    """The displayed row m2 steps past v^(1), for 0 < x0 < b.

    It is (0, 1^{m_1}, ..., (b-1)^{m_(b-1)}, b^{l0}).  For x0 >= b/2,
    m2 = b - x0 - 1 and m_u alternates l0, l0+1 up to z = 2b - 2x0 - 1 and
    is l0+1 above; for x0 < b/2, m2 = x0 - 1, m_u is l0 up to
    z = b - 2x0 + 1 and alternates l0+1, l0 above.  Returns (row, m2), depth 0.
    """
    if not 0 < b < n:
        raise OutOfRange(f"need 0 < b < n, got b={b}, n={n}")
    l0, x0 = _split(n, b)
    if not 0 < x0 < b:
        raise OutOfRange("midway form requires 0 < x0 < b")
    if 2 * x0 >= b:
        m2 = b - x0 - 1
        z = 2 * b - 2 * x0 - 1
        mults = [l0 + (u > z or u % 2 == 0) for u in range(1, b)]
    else:
        m2 = x0 - 1
        z = b - 2 * x0 + 1
        mults = [l0 + (u > z and (u - z) % 2 == 1) for u in range(1, b)]
    v = _staircase(n, mults, b)
    assert v.count(b) == l0, (n, b, v)
    return v, m2


def _grading(n: int, b: int):
    """f(j) = 1 + floor((j - 1 - floor(x*j/n)) / l) with n = l*b + x, 0 <= x < b."""
    l, x = divmod(n, b)
    return lambda j: 1 + (j - 1 - (x * j) // n) // l


def head_order_w(n: int, b: int) -> CirculantState:
    """Head order w = (f(0), ..., f(n-1)) for b not dividing n, f the grading.

    n - x = l*b gives f(j - n) = f(j) - b, and f(n - 1) = b, so the entry
    w_(n+j-i) - w_(n-1) of Lambda(w) below the diagonal is f(j - i): Lambda(w)
    is head_order_f(n, b) entry for entry.
    """
    if not 0 < b < n:
        raise OutOfRange(f"need 0 < b < n, got b={b}, n={n}")
    if n % b == 0:
        raise OutOfRange("b divides n: the defm1 state is already hereditary")
    f = _grading(n, b)
    return CirculantState((1,) * n, tuple(f(j) for j in range(n)))


def head_order_f(n: int, a: int, dims=None) -> ExponentOrder:
    """Head order as the matrix m_ij = f(j - i), straight from the a-grading.

    f is _grading(n, b) with b = a mod n.  Defined for 0 < b < n (including
    b | n, where x = 0 and f(j) = 1 + floor((j - 1) / l)).  It is
    T((f(0), ..., f(n-1)), -b), since f(j - n) = f(j) - b (see head_order_w).
    """
    b = a % n
    if not 0 < b < n:
        raise OutOfRange(f"a mod n = {b}: no head formula (maximal order)")
    dims = (1,) * n if dims is None else checked_dims(dims, n)
    f = _grading(n, b)
    return ExponentOrder(dims, twisted_matrix(tuple(map(f, range(n))), -b))


@dataclass(frozen=True)
class Checkpoint:
    """One closed-form state of the (n, a) chain: its row v and depth.

    ``step`` indexes the chain from (0, a^{n-1}) at depth a, the start at
    step 0; the head has no step.  A state matches a checkpoint up to
    diagonal conjugation, when exponent.state_key gives the checkpoint's v
    (the twisted_key of Lambda(v) is v), and its depth too unless ``depth``
    is None.  v is not checked to be an order: a state keyed v is a diagonal
    conjugate of Lambda(v), and a row that no state has never matches.

    No rotation is needed: write Lambda(v) as m_ij = g(j - i).  Its
    rotation m_(i+1)(j+1) is m_ij + t_i - t_j with t = (0, ..., 0, v_(n-1)),
    so Lambda(v) is a diagonal conjugate of each of its rotations.  Every
    checkpoint is a Lambda(v), and so is head_order_f.  Hence if rot^r(A)
    is a diagonal conjugate of a checkpoint B, then A is one of rot^(-r)(B),
    and so of B.
    """

    tag: str
    step: int | None
    v: tuple[int, ...]
    depth: int | None


def chain_checkpoints(n: int, a: int) -> tuple[Checkpoint, ...]:
    """The checkpoints of the (n, a) chain, in the order they are matched.

    With a = z*n + b: the reduced start (0, b^{n-1}) at step z*n (the maximal
    order, the only checkpoint, when b = 0), the early forms m = 0 .. n - l0 - 1
    at z*n + m + 1, the first plateau v^(1) at z*n + n - l0, the midway form
    m2 steps later when 0 < x0 < b, and the head w when b does not divide n.
    The last checkpoint is always the chain's terminal state.
    """
    red, start = initial_reduction(n, a)
    b = a % n
    if b == 0:
        return (Checkpoint("maximal", start, red, 0),)
    out = [Checkpoint("reduced-start", start, red, b)]
    l0, x0 = _split(n, b)
    for m in range(n - l0):
        out.append(Checkpoint(f"early-form(m={m})", start + m + 1, *anfang_state(n, b, m)))
    v1, rel = defm1_state(n, b)
    out.append(Checkpoint("first-plateau", start + rel, v1, None))
    if 0 < x0 < b:
        v2, m2 = midway_state(n, b)
        out.append(Checkpoint(f"midway(m2={m2})", start + rel + m2, v2, None))
    if n % b:
        out.append(Checkpoint("head", None, head_order_w(n, b).v, None))
    return tuple(out)


def certify_cell(n: int, a: int, chain) -> bool:
    """True if the chain of (order, depth) pairs from (0, a^{n-1}) at depth a
    passes every checkpoint at its step and ends at the head.

    The terminal state must match the last checkpoint up to diagonal
    conjugation (Checkpoint shows that rotation adds nothing): the head w
    when b = a mod n does not divide n, the first plateau v^(1) when it
    does, and the maximal order when b = 0 (the same as merging to one
    maximal block).  For b > 0 that matrix is head_order_f(n, a): see
    head_order_w, and for b | n the grading at x = 0 is v^(1).  States match
    by state_key.  Precondition: the chain is glued_chain of a validated order.
    """
    checkpoints = chain_checkpoints(n, a)
    return state_key(chain, -1)[0] == checkpoints[-1].v and all(
        cp.step is None
        or cp.step < len(chain) and (got := state_key(chain, cp.step))[0] == cp.v
        and cp.depth in (None, got[1])
        for cp in checkpoints
    )


def main2_type(n: int, a: int, dims: dict, sigma: dict, start=None) -> HereditaryType:
    """Hereditary type of the head order of one component, from arithmetic alone.

    One walk along sigma from ``start`` (any label, by default the least;
    the type is well defined up to cyclic rotation) lists the labels in
    cycle order, and checks that sigma is one n-cycle on exactly its n
    labels.  The head simple module T_j restricts to the sum of the S_i
    over fiber j of simple_module_match(n, a), so grouped dimension j is the
    sum of dims over the labels at the positions of that fiber.
    """
    x = min(sigma, default=None) if start is None else start
    cycle = []
    while x in sigma and len(cycle) < len(sigma):
        cycle.append(x)
        x = sigma[x]
    if not (len(sigma) == n == len(set(cycle)) > 0 and x == cycle[0]):
        raise NotACycle(f"sigma must be an n-cycle on {n} labels, start one of them")
    fibers = simple_module_match(n, a).values()
    return HereditaryType(
        len(fibers), tuple(sum(dims[cycle[i]] for i in fiber) for fiber in fibers)
    )


def simple_module_match(n: int, a: int) -> dict:
    """Fibers of the head-order simple modules over Z/nZ.

    The head order has n' = n/gcd(n,a) simples T_j; the restriction of T_j
    decomposes as the sum of S_i over i in the fiber of c*j under the
    reduction Z/nZ -> Z/n'Z, where c = (a/d)^{-1} mod n'.
    """
    d = gcd(n, a)
    np = n // d
    c = pow(a // d, -1, np) if np > 1 else 0
    return {j: tuple(range(c * j % np, n, np)) for j in range(np)}
