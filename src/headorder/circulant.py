"""The cyclically symmetric family Lambda(v) and its closed-form chain data.

A CirculantState holds the nondecreasing exponent vector v (v_0 = 0) together
with an amalgamation depth f: the number of remaining idealizer steps before
the diagonal congruences to other block components disappear.  The depth is
side metadata; expansion to a full exponent matrix drops it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import NotACycle, OutOfRange
from .exponent import ExponentOrder, HereditaryType

__all__ = [
    "CirculantState",
    "expand",
    "initial_reduction",
    "anfang_state",
    "defm1_state",
    "midway_state",
    "head_order_w",
    "head_order_f",
    "main2_type",
    "simple_module_match",
]


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
        if v[0] != 0:
            raise ValueError("v_0 must be 0")
        if any(v[i] > v[i + 1] for i in range(len(v) - 1)):
            raise ValueError("v must be nondecreasing")
        if not 0 <= self.f <= v[-1]:
            raise ValueError("depth f must satisfy 0 <= f <= v_{n-1}")


def expand(state: CirculantState) -> ExponentOrder:
    """Exponent matrix m_ij = v_{j-i} above, v_{n+j-i} - v_{n-1} below."""
    v = state.v
    n = state.n
    top = v[n - 1]
    M = tuple(
        tuple(v[j - i] if j >= i else v[n + j - i] - top for j in range(n))
        for i in range(n)
    )
    return ExponentOrder(state.dims, M, state.ram)


def _ones(n):
    return (1,) * n


def _split(n: int, b: int):
    """n = l0*b + x0 with 0 < x0 <= b."""
    l0, x0 = divmod(n, b)
    if x0 == 0:
        l0, x0 = l0 - 1, b
    return l0, x0


def initial_reduction(n: int, a: int, dims=None):
    """State after the first z*n steps: a = z*n + b reduced to (0_b, b^{n-1}).

    Returns (state, step_index).  For b = 0 the state is the maximal order
    (all exponents zero, no amalgamation left at that point beyond depth 0).
    """
    if n < 1 or a < 1:
        raise ValueError("need n >= 1 and a >= 1")
    dims = _ones(n) if dims is None else tuple(dims)
    z, b = divmod(a, n)
    step = z * n
    v = (0,) + (b,) * (n - 1)
    return CirculantState(dims, v, f=b), step


def anfang_state(n: int, b: int, m: int, dims=None) -> CirculantState:
    """Closed form of the chain state m+1 steps after (0_b, b^{n-1}).

    Valid for 0 < b < n and 0 <= m < n - l0 where n = l0*b + x0 with
    0 < x0 <= b.  Depth is max(0, b - m - 1).
    """
    if not 0 < b < n:
        raise OutOfRange(f"need 0 < b < n, got b={b}, n={n}")
    dims = _ones(n) if dims is None else tuple(dims)
    l0, _ = _split(n, b)
    if not 0 <= m < n - l0:
        raise OutOfRange(f"m={m} outside [0, {n - l0})")
    f = max(0, b - m - 1)
    if b == 1:
        return CirculantState(dims, (0,) + (1,) * (n - 1), f=f)
    l, y = divmod(m, b - 1)
    v = [0]
    for j in range(1, n):
        if j <= (b - y - 1) * l:
            v.append((j - 1) // l + 1)
        elif j <= (b - 1) * l + y:
            v.append(b - y + (j - 1 - (b - y - 1) * l) // (l + 1))
        else:
            v.append(b)
    return CirculantState(dims, tuple(v), f=f)


def defm1_state(n: int, b: int, dims=None):
    """The state v^(1) reached n - l0 steps after (0_b, b^{n-1}), with its step.

    v^(1) = (0, 1^{l0}, ..., (b-y-1)^{l0}, (b-y)^{l0+1}, ..., (b-1)^{l0+1},
    b^{l0}) with y = x0 - 1.  The returned step index is relative to the
    (0_b, b^{n-1}) state sitting at step 0.
    """
    if not 0 < b < n:
        raise OutOfRange(f"need 0 < b < n, got b={b}, n={n}")
    dims = _ones(n) if dims is None else tuple(dims)
    l0, x0 = _split(n, b)
    y = x0 - 1
    v = [0]
    for u in range(1, b - y):
        v.extend([u] * l0)
    for u in range(b - y, b):
        v.extend([u] * (l0 + 1))
    v.extend([b] * l0)
    assert len(v) == n
    return CirculantState(dims, tuple(v), f=0), n - l0


def midway_state(n: int, b: int, dims=None):
    """The displayed state m2 steps past v^(1), for 0 < x0 < b.

    For x0 >= b/2, m2 = b - x0 - 1 and multiplicities below z = 2b - 2x0 - 1
    alternate l0, l0+1; for x0 <= b/2, m2 = x0 - 1 and the alternation sits
    above z = b - 2x0 + 1.  Returns (state, m2).
    """
    if not 0 < b < n:
        raise OutOfRange(f"need 0 < b < n, got b={b}, n={n}")
    dims = _ones(n) if dims is None else tuple(dims)
    l0, x0 = _split(n, b)
    if not 0 < x0 < b:
        raise OutOfRange("midway form requires 0 < x0 < b")
    v = [0]
    if 2 * x0 >= b:
        m2 = b - x0 - 1
        z = 2 * b - 2 * x0 - 1
        for u in range(1, b):
            if u <= z:
                mult = l0 if u % 2 == 1 else l0 + 1
            else:
                mult = l0 + 1
            v.extend([u] * mult)
        v.extend([b] * l0)
    else:
        m2 = x0 - 1
        z = b - 2 * x0 + 1
        for u in range(1, b):
            if u <= z:
                mult = l0
            else:
                mult = l0 + 1 if (u - z) % 2 == 1 else l0
            v.extend([u] * mult)
        v.extend([b] * l0)
    assert len(v) == n, (n, b, len(v))
    return CirculantState(dims, tuple(v), f=0), m2


def head_order_w(n: int, b: int, dims=None) -> CirculantState:
    """Head order w = (0, 1^{l_1}, ..., b^{l_b}) for b not dividing n.

    l_j = l0 + e_j with e_j = a_j - a_{j-1}, a_j = floor(x0*j/b), and
    l_b = l0.  The pattern (e_1, ..., e_i) repeats gcd(n, b) times.
    """
    if not 0 < b < n:
        raise OutOfRange(f"need 0 < b < n, got b={b}, n={n}")
    if n % b == 0:
        raise OutOfRange("b divides n: the defm1 state is already hereditary")
    dims = _ones(n) if dims is None else tuple(dims)
    l0, x0 = _split(n, b)
    a_of = lambda j: (x0 * j) // b
    v = [0]
    for j in range(1, b):
        v.extend([j] * (l0 + a_of(j) - a_of(j - 1)))
    v.extend([b] * l0)
    assert len(v) == n
    return CirculantState(dims, tuple(v), f=0)


def head_order_f(n: int, a: int, dims=None) -> ExponentOrder:
    """Head order as the matrix m_ij = f(j - i), straight from the a-grading.

    f(j) = 1 + floor((j - 1 - floor(x*j/n)) / l) where n = l*b + x with
    0 <= x < b and b = a mod n.  Defined for 0 < b < n (including b | n).
    """
    b = a % n
    if not 0 < b < n:
        raise OutOfRange(f"a mod n = {b}: no head formula (maximal order)")
    dims = _ones(n) if dims is None else tuple(dims)
    l, x = divmod(n, b)

    def f(j):
        return 1 + (j - 1 - (x * j) // n) // l

    M = tuple(tuple(f(j - i) for j in range(n)) for i in range(n))
    return ExponentOrder(dims, M)


def _perm_order(sigma: dict) -> int:
    seen = set()
    order = 1
    for start in sigma:
        if start in seen:
            continue
        length = 0
        x = start
        while True:
            seen.add(x)
            x = sigma[x]
            length += 1
            if x == start:
                break
        order = order * length // gcd(order, length)
    return order


def main2_type(n: int, a: int, dims: dict, sigma: dict, start=None) -> HereditaryType:
    """Hereditary type of the head order of one component, from arithmetic alone.

    d = gcd(n, a), t = n/d, c = (a/d)^{-1} mod t; grouped dimensions are
    D_j = sum of dims over the tau = sigma^t orbit of j, listed along
    gamma = sigma^c starting at ``start`` (any label; the type is well
    defined up to cyclic rotation).
    """
    if len(sigma) != n or _perm_order(sigma) != n:
        raise NotACycle(f"sigma must be an n-cycle on {n} labels")
    d = gcd(n, a)
    t = n // d
    c = pow(a // d, -1, t) if t > 1 else 0

    def power(p, k):
        def apply(x):
            for _ in range(k):
                x = p[x]
            return x

        return apply

    tau = power(sigma, t)
    gamma = power(sigma, c if t > 1 else 0)
    if start is None:
        start = min(sigma)
    grouped = []
    j = start
    for _ in range(t):
        orbit_sum = 0
        x = j
        for _ in range(d):
            orbit_sum += dims[x]
            x = tau(x)
        grouped.append(orbit_sum)
        j = gamma(j)
    return HereditaryType(t, tuple(grouped))


def simple_module_match(n: int, a: int) -> dict:
    """Fibers of the head-order simple modules over Z/nZ.

    The head order has n' = n/gcd(n,a) simples T_j; the restriction of T_j
    decomposes as the sum of S_i over i in the fiber of c*j under the
    reduction Z/nZ -> Z/n'Z, where c = (a/d)^{-1} mod n'.
    """
    d = gcd(n, a)
    np = n // d
    c = pow(a // d, -1, np) if np > 1 else 0
    fibers = {}
    for j in range(np):
        target = (c * j) % np
        fibers[j] = tuple(i for i in range(n) if i % np == target)
    return fibers
