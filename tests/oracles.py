"""Brute-force oracles used to cross-check the library.

Everything here recomputes answers from definitions with plain loops, so
these checks share no nontrivial code path with the implementation.  The
modular descent at the end is the oracle of the local solver: it walks every
solution class of x^2 + y^2 = delta mod p^j up to a cutoff depth at which
its verdict is exact.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import isqrt

from twosquares.errors import ParameterError, ResourceLimitError
from twosquares.localsolve import ModularSolution
from twosquares.ring import QuadInt, Splitting

# Caps on the descent: levels, level-1 work (~p^2 classes), and every lifted
# candidate past level 1 counts as one state.
_DEPTH_LIMIT = 64
_LEVEL1_LIMIT = 2_000_000
_STATE_BUDGET = 20_000_000


def brute_factorize(n: int) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


@lru_cache(maxsize=None)
def square_residues(p: int) -> frozenset[int]:
    return frozenset(x * x % p for x in range(1, p))


def brute_legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if a in square_residues(p) else -1


@lru_cache(maxsize=None)
def quartic_residues(p: int) -> frozenset[int]:
    return frozenset(pow(x, 4, p) for x in range(1, p))


def brute_jacobi(a: int, n: int) -> int:
    out = 1
    for p, e in brute_factorize(n):
        out *= brute_legendre(a, p) ** e
    return out


def conic_solvable_qp(a: int, b: int, p: int) -> bool:
    """Whether a*x^2 + b*y^2 = z^2 has a nontrivial solution over Q_p.

    Exhausts primitive solution classes mod p^m with m = 2*v_p(4ab) + 3,
    which is decisive.  A primitive class can be scaled so that one unit
    coordinate equals 1, so three linear scans against precomputed value
    tables cover everything.
    """
    v = 0
    n = 4 * a * b
    while n % p == 0:
        n //= p
        v += 1
    m = p ** (2 * v + 3)
    squares = bytearray(m)
    for z in range(m // 2 + 1):
        squares[z * z % m] = 1
    b_squares = bytearray(m)
    for y in range(m // 2 + 1):
        b_squares[b * y * y % m] = 1
    for x in range(m):
        axx = a * x * x % m
        if squares[(axx + b) % m]:  # y = 1
            return True
        if b_squares[(1 - axx) % m]:  # z = 1
            return True
    for y in range(m):
        if squares[(a + b * y * y) % m]:  # x = 1
            return True
    return False


def brute_ring_classes(
    delta: QuadInt, p: int, k: int
) -> set[tuple[tuple[int, int], tuple[int, int]]]:
    """All ((u,v),(s,t)) mod p^k with (u+v*w)^2 + (s+t*w)^2 = delta."""
    m = p**k
    a, b, d = delta.a, delta.b, delta.d
    out = set()
    for u in range(m):
        for v in range(m):
            c1 = (u * u + d * v * v - a) % m
            c2 = (2 * u * v - b) % m
            for s in range(m):
                ss = s * s
                for t in range(m):
                    if (c1 + ss + d * t * t) % m == 0 and (c2 + 2 * s * t) % m == 0:
                        out.add(((u, v), (s, t)))
    return out


def sums_of_two_squares_mod(d: int, m: int) -> set[tuple[int, int]]:
    """Every (u + v*w)^2 + (s + t*w)^2 in Z[sqrt(d)]/m, w^2 = d, as
    coordinate pairs mod m."""
    out = set()
    for u in range(m):
        for v in range(m):
            for s in range(m):
                for t in range(m):
                    a = u * u + d * v * v + s * s + d * t * t
                    out.add((a % m, (2 * u * v + 2 * s * t) % m))
    return out


@lru_cache(maxsize=None)
def squares_mod(d: int, m: int) -> frozenset[tuple[int, int]]:
    """Every (s + t*w)^2 in Z[sqrt(d)]/m, w^2 = d, as coordinate pairs mod m."""
    return frozenset(((s * s + d * t * t) % m, 2 * s * t % m) for s in range(m) for t in range(m))


def mask_rows(d: int, m: int, a: int, b: int, bound: int) -> tuple[int, ...]:
    """Row r has bit v + bound set, for v in [-bound, bound], iff
    (a + b*w) - (r + v*w)^2 is a square in Z[sqrt(d)]/m, w^2 = d."""
    squares = squares_mod(d, m)
    rows = []
    for r in range(m):
        # the condition depends on v only mod m
        passes = [((a - r * r - d * c * c) % m, (b - 2 * r * c) % m) in squares for c in range(m)]
        rows.append(sum(1 << (v + bound) for v in range(-bound, bound + 1) if passes[v % m]))
    return tuple(rows)


def brute_two_squares(n: int) -> tuple[int, int] | None:
    for x in range(isqrt(n) + 1):
        y2 = n - x * x
        y = isqrt(y2)
        if y * y == y2:
            return (x, y)
    return None


def is_representation(delta: QuadInt, x: QuadInt, y: QuadInt) -> bool:
    ra = x.a * x.a + x.d * x.b * x.b + y.a * y.a + y.d * y.b * y.b
    rb = 2 * (x.a * x.b + y.a * y.b)
    return ra == delta.a and rb == delta.b and x.d == y.d == delta.d


@lru_cache(maxsize=None)
def _first_roots(d: int, bound: int) -> dict[tuple[int, int], tuple[int, int]]:
    # the first (s, t) of the box, in (s, t) order, with (s + t*w)^2 = key
    roots: dict[tuple[int, int], tuple[int, int]] = {}
    for s in range(-bound, bound + 1):
        for t in range(-bound, bound + 1):
            roots.setdefault((s * s + d * t * t, 2 * s * t), (s, t))
    return roots


def full_box_scan(delta: QuadInt, bound: int) -> tuple[tuple[QuadInt, QuadInt] | None, int]:
    """The first (x, y) with x^2 + y^2 = delta and every coordinate in
    [-bound, bound], in (x.a, x.b, y.a, y.b) order, and how many x were
    tried up to it (every x of the box on a miss)."""
    a, b, d = delta.a, delta.b, delta.d
    roots = _first_roots(d, bound)
    box = range(-bound, bound + 1)
    tried = 0
    for u in box:
        for v in box:
            tried += 1
            root = roots.get((a - u * u - d * v * v, b - 2 * u * v))
            if root is not None:
                return (QuadInt(u, v, d), QuadInt(*root, d)), tried
    return None, tried


def pell_unit(d: int) -> tuple[int, int]:
    """The least c > 1 with c^2 - |d| e^2 = 1, as (c, e), for squarefree
    d < -1: the first convergent c/e of the continued fraction of sqrt|d|
    that solves it (Cohen, GTM 138, 5.7).  The partial quotients come from
    the exact recurrence m' = a*q - m, q' = (|d| - m'^2)/q,
    a' = (isqrt|d| + m') // q'."""
    n = -d
    if n < 2:
        raise ValueError(f"pell_unit needs d < -1, got {d}")
    a0 = isqrt(n)
    m, q, a = 0, 1, a0
    c, c_prev, e, e_prev = a0, 1, 1, 0
    while c * c - n * e * e != 1:
        m = a * q - m
        q = (n - m * m) // q
        a = (a0 + m) // q
        c, c_prev, e, e_prev = a * c + c_prev, c, a * e + e_prev, e
    return c, e


def unit_bound(delta: QuadInt) -> int:
    """A coordinate bound that some witness meets whenever delta is a sum of
    two squares, for d < -1.  The least c > 1 with c^2 - |d| e^2 = 1 gives
    the unit eps = c + e*sqrt|d| of Z[sqrt d][i], with eps * conj(eps) = 1;
    some eps^k moves any witness to one with x1^2 + |d| x2^2 + y1^2 +
    |d| y2^2 <= c * sqrt(N(delta)), so every coordinate of it is below
    isqrt(c * (isqrt(N) + 1)) + 1."""
    c, _ = pell_unit(delta.d)
    return isqrt(c * (isqrt(delta.a**2 - delta.d * delta.b**2) + 1)) + 1


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _splitting(p: int, d: int) -> Splitting:
    if (2 * d) % p == 0:
        return Splitting.RAMIFIED
    return Splitting.SPLIT if brute_legendre(d, p) == 1 else Splitting.INERT


@lru_cache(maxsize=None)
def _lift_sqrt(a: int, p: int, k: int) -> int:
    """A square root of a mod p^k for odd p, found mod p by scanning and
    lifted one digit at a time."""
    r = next(r for r in range(p) if (r * r - a) % p == 0)
    for j in range(1, k):
        m = p**j
        r += next(c for c in range(p) if ((r + c * m) ** 2 - a) % (m * p) == 0) * m
    return r


def _place_valuations(delta: QuadInt, p: int) -> list[int]:
    # valuations of delta at the places over p, each normalized to its place
    vn = _valuation(abs(delta.norm()), p)
    splitting = _splitting(p, delta.d)
    if splitting is Splitting.RAMIFIED:
        return [vn]
    if splitting is Splitting.INERT:
        return [vn // 2]
    m = p ** (vn + 1)
    r = _lift_sqrt(delta.d, p, vn + 1)
    return [_valuation((delta.a + sign * delta.b * r) % m, p) for sign in (1, -1)]


def cutoff_depth(delta: QuadInt, p: int) -> int:
    """Exact verification depth K(p, delta): the descent verdict at depth K
    equals the verdict at every deeper level."""
    if delta.is_zero():
        raise ParameterError("delta must be nonzero")
    vals = _place_valuations(delta, p)
    return 2 * ((1 if p == 2 else 0) + (max(vals) + 1) // 2) + 1


def _capped_valuation(n: int, p: int, cap: int) -> int:
    if n == 0:
        return cap
    return min(_valuation(n, p), cap)


def _is_smooth(
    sol: tuple[int, int, int, int], level: int, p: int, d: int, splitting: Splitting
) -> bool:
    u, v, s, t = sol
    if splitting is Splitting.RAMIFIED:
        cap = 2 * level
        two = 2 if p == 2 else 0
        tx = two + _capped_valuation(u * u - d * v * v, p, cap)
        ty = two + _capped_valuation(s * s - d * t * t, p, cap)
        return 2 * min(tx, ty) + 1 <= cap
    if splitting is Splitting.INERT:
        tx = _capped_valuation(u * u - d * v * v, p, 2 * level) // 2
        ty = _capped_valuation(s * s - d * t * t, p, 2 * level) // 2
        return 2 * min(tx, ty) + 1 <= level
    r = _lift_sqrt(d, p, level)
    modulus = p**level
    for sign in (1, -1):
        tx = _capped_valuation((u + sign * v * r) % modulus, p, level)
        ty = _capped_valuation((s + sign * t * r) % modulus, p, level)
        if 2 * min(tx, ty) + 1 > level:
            return False
    return True


def _solve_2x4_mod_p(
    rows: tuple[tuple[int, int, int, int], tuple[int, int, int, int]],
    rhs: tuple[int, int],
    p: int,
) -> tuple[list[int], list[list[int]]] | None:
    # All solutions of the 2x4 linear system rows * xi = rhs over F_p, as a
    # particular solution plus a basis of the homogeneous ones.
    m = [[rows[0][i] % p for i in range(4)] + [rhs[0] % p],
         [rows[1][i] % p for i in range(4)] + [rhs[1] % p]]
    pivots: list[int] = []
    row = 0
    for col in range(4):
        pr = next((r for r in range(row, 2) if m[r][col]), None)
        if pr is None:
            continue
        m[row], m[pr] = m[pr], m[row]
        inv = pow(m[row][col], -1, p)
        m[row] = [x * inv % p for x in m[row]]
        for r in range(2):
            if r != row and m[r][col]:
                f = m[r][col]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == 2:
            break
    for r in range(row, 2):
        if m[r][4]:
            return None
    particular = [0, 0, 0, 0]
    for i, col in enumerate(pivots):
        particular[col] = m[i][4]
    basis = []
    for free_col in (c for c in range(4) if c not in pivots):
        vec = [0, 0, 0, 0]
        vec[free_col] = 1
        for i, col in enumerate(pivots):
            vec[col] = -m[i][free_col] % p
        basis.append(vec)
    return particular, basis


def _descend(
    delta: QuadInt, p: int, k: int, *, stop_on_smooth: bool
) -> tuple[list[ModularSolution], list[tuple[int, int, int, int]], int | None]:
    """Walk the solution classes of x^2 + y^2 = delta mod p^j for j = 1..k.

    Returns (smooth, open_branches, empty_level).  Smooth records are kept at
    their certification level; open branches are the non-certified classes at
    level k; empty_level is the first j with no classes at all, or None.
    With stop_on_smooth the walk returns at the first certified class.
    """
    a, b, d = delta.a, delta.b, delta.d
    if p * p > _LEVEL1_LIMIT:
        raise ResourceLimitError(f"level-1 enumeration needs {p * p} classes; p too large")
    splitting = _splitting(p, d)
    states = 0

    table: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for s in range(p):
        ss = s * s
        for t in range(p):
            table.setdefault(((ss + d * t * t) % p, 2 * s * t % p), []).append((s, t))
    level1: list[tuple[int, int, int, int]] = []
    for u in range(p):
        uu = u * u
        for v in range(p):
            need = ((a - uu - d * v * v) % p, (b - 2 * u * v) % p)
            for s, t in table.get(need, ()):
                level1.append((u, v, s, t))
    states += 2 * p * p

    smooth: list[ModularSolution] = []
    open_: list[tuple[int, int, int, int]] = []
    for sol in level1:
        if _is_smooth(sol, 1, p, d, splitting):
            smooth.append(ModularSolution(sol[:2], sol[2:], 1, True))
            if stop_on_smooth:
                return smooth, open_, None
        else:
            open_.append(sol)
    if not level1:
        return smooth, [], 1

    for j in range(1, k):
        base = p**j
        children: list[tuple[int, int, int, int]] = []
        for u, v, s, t in open_:
            f1 = u * u + d * v * v + s * s + d * t * t - a
            f2 = 2 * (u * v + s * t) - b
            rows = (
                (2 * u % p, 2 * d * v % p, 2 * s % p, 2 * d * t % p),
                (2 * v % p, 2 * u % p, 2 * t % p, 2 * s % p),
            )
            rhs = (-(f1 // base) % p, -(f2 // base) % p)
            solset = _solve_2x4_mod_p(rows, rhs, p)
            if solset is None:
                continue
            particular, basis = solset
            for coeffs in product(range(p), repeat=len(basis)):
                xi = list(particular)
                for c, vec in zip(coeffs, basis):
                    if c:
                        xi = [(x + c * y) % p for x, y in zip(xi, vec)]
                child = (u + base * xi[0], v + base * xi[1], s + base * xi[2], t + base * xi[3])
                states += 1
                if states > _STATE_BUDGET:
                    raise ResourceLimitError(f"descent exceeded {_STATE_BUDGET} states at p={p}")
                if _is_smooth(child, j + 1, p, d, splitting):
                    smooth.append(ModularSolution(child[:2], child[2:], j + 1, True))
                    if stop_on_smooth:
                        return smooth, children, None
                else:
                    children.append(child)
        children.sort()
        open_ = children
        if not open_:
            if not smooth:
                return smooth, [], j + 1
            break
    return smooth, open_, None


def solvable_mod(delta: QuadInt, p: int, k: int) -> list[ModularSolution]:
    """All solution classes of x^2 + y^2 = delta in Z[sqrt(d)]/p^k, compressed:
    smooth classes are reported once at their certification level (they lift
    to every deeper level), the rest at level k exactly."""
    if k < 1:
        raise ParameterError(f"level must be >= 1, got {k}")
    if k > _DEPTH_LIMIT:
        raise ResourceLimitError(f"level {k} exceeds depth limit {_DEPTH_LIMIT}")
    smooth, open_, empty_level = _descend(delta, p, k, stop_on_smooth=False)
    if empty_level is not None:
        return []
    return sorted(smooth, key=lambda m: (m.level, m.x, m.y)) + [
        ModularSolution(sol[:2], sol[2:], k, False) for sol in open_
    ]


def primitive_sums_mod(d: int, j: int) -> dict[tuple[int, int], tuple[tuple[int, int], tuple[int, int]]]:
    """Every x0^2 + y0^2 in Z[sqrt(d)]/2^j with x0 a unit, keyed by value,
    each with the first (x0, y0) of a plain walk over all of (Z/2^j)^4."""
    m = 2**j
    sums: dict[tuple[int, int], tuple[tuple[int, int], tuple[int, int]]] = {}
    for u, v, s, t in product(range(m), repeat=4):
        if (u * u - d * v * v) % 2:
            key = ((u * u + d * v * v + s * s + d * t * t) % m, 2 * (u * v + s * t) % m)
            sums.setdefault(key, ((u, v), (s, t)))
    return sums


def _embedding_nonneg(a: int, b: int, d: int) -> bool:
    # exact sign of a + b*sqrt(d) for d > 0
    if a >= 0 and b >= 0:
        return True
    if a < 0 and b <= 0:
        return False
    if a >= 0:
        return a * a >= d * b * b
    return d * b * b >= a * a


def real_place_solvable(delta: QuadInt) -> bool:
    """Whether x^2 + y^2 = delta is solvable at every real place: always for
    d < 0, else exactly when both embeddings a +- b*sqrt(d) are >= 0."""
    if delta.d < 0:
        return True
    return _embedding_nonneg(delta.a, delta.b, delta.d) and _embedding_nonneg(delta.a, -delta.b, delta.d)
