"""Per-place solvability of x^2 + y^2 = delta over the completions of
Z[sqrt(d)]: modular descent with Hensel certification, made exact by a
valuation cutoff on the enumeration depth."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from . import numth
from .errors import ParameterError, ResourceLimitError
from .ring import Place, QuadInt, Splitting, split_type

DEFAULT_DEPTH_LIMIT = 64

# Caps on the modular enumeration: level-1 work is ~p^2 classes, and every
# lifted candidate past level 1 counts as one state.
_LEVEL1_LIMIT = 2_000_000
_STATE_BUDGET = 20_000_000


@dataclass(frozen=True)
class ModularSolution:
    """A solution class of x^2 + y^2 = delta in Z[sqrt(d)]/p^level.

    x and y are coordinate pairs (u, v) standing for u + v*sqrt(d), reduced
    mod p^level.  smooth means the Hensel margin 2*v_w(2x or 2y) < v_w(p^level)
    holds at every place w over p, so the class lifts to an exact solution in
    every completion above p (and hence to solutions at every finite level).
    """

    x: tuple[int, int]
    y: tuple[int, int]
    level: int
    smooth: bool


@dataclass(frozen=True)
class LocalVerdict:
    """Outcome of the solvability check at one place.

    For finite places, exhausted_at is the depth the descent actually
    resolved at: the certificate level when solvable, or the first level
    with no solution classes when not.  Archimedean verdicts carry neither.
    """

    place: Place
    solvable: bool
    certificate: ModularSolution | None = None
    exhausted_at: int | None = None


@lru_cache(maxsize=1024)
def _lift_sqrt(a: int, p: int, k: int) -> int:
    """The Hensel lift r mod p^k of the smaller square root of a mod p."""
    r = numth.sqrt_mod_prime(a % p, p)
    modulus = p
    for _ in range(k - 1):
        nxt = modulus * p
        t = (a - r * r) // modulus * pow(2 * r, -1, p) % p
        r = (r + t * modulus) % nxt
        modulus = nxt
    return r


def relevant_primes(delta: QuadInt) -> list[int]:
    """2 together with every prime dividing N(delta); only these can obstruct."""
    if delta.is_zero():
        raise ParameterError("delta must be nonzero")
    primes = {2}
    for q, _ in numth.factorize(abs(delta.norm())):
        primes.add(q)
    return sorted(primes)


def _place_valuations(delta: QuadInt, p: int) -> list[int]:
    # w-normalized valuations of delta at the places over p
    sp = split_type(p, delta.d)
    vn = numth.valuation(abs(delta.norm()), p)
    if sp is Splitting.RAMIFIED:
        return [vn]
    if sp is Splitting.INERT:
        return [vn // 2]
    m = vn + 1
    modulus = p**m
    r = _lift_sqrt(delta.d, p, m)
    vals = []
    for c in ((delta.a + delta.b * r) % modulus, (delta.a - delta.b * r) % modulus):
        if c == 0:
            raise RuntimeError(f"component of {delta} vanishes mod {p}^{m}; invariant violated")
        vals.append(numth.valuation(c, p))
    if sum(vals) != vn:
        raise RuntimeError(f"place valuations {vals} at p={p} miss v(N)={vn}; invariant violated")
    return vals


def cutoff_depth(delta: QuadInt, p: int) -> int:
    """Exact verification depth K(p, delta): the descent verdict at depth K
    equals the verdict at every deeper level."""
    if delta.is_zero():
        raise ParameterError("delta must be nonzero")
    v = max(_place_valuations(delta, p))
    v2 = 1 if p == 2 else 0
    return 2 * (v2 + (v + 1) // 2) + 1


def _capped_valuation(n: int, p: int, cap: int) -> int:
    if n == 0:
        return cap
    return min(numth.valuation(n, p), cap)


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
    splitting = split_type(p, delta.d)
    if p * p > _LEVEL1_LIMIT:
        raise ResourceLimitError(f"level-1 enumeration needs {p * p} classes; p too large")
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


def solvable_mod(
    delta: QuadInt, p: int, k: int, depth_limit: int = DEFAULT_DEPTH_LIMIT
) -> list[ModularSolution]:
    """All solution classes of x^2 + y^2 = delta in Z[sqrt(d)]/p^k, compressed:
    smooth classes are reported once at their certification level (they lift
    to every deeper level), the rest at level k exactly."""
    if k < 1:
        raise ParameterError(f"level must be >= 1, got {k}")
    if k > depth_limit:
        raise ResourceLimitError(f"level {k} exceeds depth limit {depth_limit}")
    split_type(p, delta.d)
    smooth, open_, empty_level = _descend(delta, p, k, stop_on_smooth=False)
    if empty_level is not None:
        return []
    return sorted(smooth, key=lambda m: (m.level, m.x, m.y)) + [
        ModularSolution(sol[:2], sol[2:], k, False) for sol in open_
    ]


def _newton_refine(x: int, y: int, c: int, p: int, m: int) -> tuple[int, int]:
    # Lift x^2 + y^2 = c from mod p to mod p^m by Newton steps on the unit
    # coordinate (p odd, c a unit, so one of x, y is a unit).
    swapped = x % p == 0
    if swapped:
        x, y = y, x
    cur = 1
    while cur < m:
        cur = min(2 * cur, m)
        modulus = p**cur
        f = (x * x + y * y - c) % modulus
        x = (x - f * pow(2 * x, -1, modulus)) % modulus
    if swapped:
        x, y = y, x
    return x, y


def _component_solve(c: int, v: int, p: int, level: int) -> tuple[int, int] | None:
    # Solvability of X^2 + Y^2 = c in Z/p^level for odd p, where v = v_p(c)
    # < level; returns a Hensel-smooth solution or None.
    modulus = p**level
    if p % 4 == 1:
        i = _lift_sqrt(-1, p, level)
        x = (c + 1) * pow(2, -1, modulus) % modulus
        y = (c - 1) * pow(2 * i % modulus, -1, modulus) % modulus
        return x, y
    if v % 2:
        return None
    m = level - v
    c1 = c // p**v % p**m
    found = None
    for x0 in range(p):
        w = (c1 - x0 * x0) % p
        if w == 0:
            found = (x0, 0)
            break
        if numth.legendre(w, p) == 1:
            found = (x0, numth.sqrt_mod_prime(w, p))
            break
    if found is None:  # x^2+y^2=c1 mod p has p - (-1/p) > 0 solutions
        raise RuntimeError(f"no solution of x^2 + y^2 = {c1} mod {p}; invariant violated")
    x, y = _newton_refine(found[0], found[1], c1, p, m)
    h = p ** (v // 2)
    return h * x % modulus, h * y % modulus


def _split_verdict(delta: QuadInt, p: int, place: Place, depth: int, vals: list[int]) -> LocalVerdict:
    modulus = p**depth
    r = _lift_sqrt(delta.d, p, depth)
    comps = ((delta.a + delta.b * r) % modulus, (delta.a - delta.b * r) % modulus)
    parts = []
    for c, v in zip(comps, vals):
        res = _component_solve(c, v, p, depth)
        if res is None:
            # odd valuation at a place where -1 is a nonresidue: the
            # component, hence the ring equation, is empty mod p^(v+1)
            return LocalVerdict(place, False, None, v + 1)
        parts.append(res)
    (x1, y1), (x2, y2) = parts
    inv2 = pow(2, -1, modulus)
    inv2r = pow(2 * r % modulus, -1, modulus)
    cert = ModularSolution(
        ((x1 + x2) * inv2 % modulus, (x1 - x2) * inv2r % modulus),
        ((y1 + y2) * inv2 % modulus, (y1 - y2) * inv2r % modulus),
        depth,
        True,
    )
    return LocalVerdict(place, True, cert, depth)


def locally_solvable(delta: QuadInt, p: int, depth_limit: int = DEFAULT_DEPTH_LIMIT) -> LocalVerdict:
    """Decide solvability of x^2 + y^2 = delta over both completions of
    Z[sqrt(d)] above p, by descent to the exact cutoff depth."""
    if delta.is_zero():
        raise ParameterError("delta must be nonzero")
    splitting = split_type(p, delta.d)
    place = Place(p, splitting)
    vals = _place_valuations(delta, p)
    v2 = 1 if p == 2 else 0
    depth = 2 * (v2 + (max(vals) + 1) // 2) + 1
    if depth > depth_limit:
        raise ResourceLimitError(f"cutoff depth {depth} exceeds limit {depth_limit}")
    if splitting is Splitting.SPLIT:
        return _split_verdict(delta, p, place, depth, vals)
    smooth, _, empty_level = _descend(delta, p, depth, stop_on_smooth=True)
    if smooth:
        return LocalVerdict(place, True, smooth[0], smooth[0].level)
    if empty_level is not None:
        return LocalVerdict(place, False, None, empty_level)
    raise RuntimeError(f"descent unresolved at cutoff {depth} for p={p}; invariant violated")


def _embedding_nonneg(a: int, b: int, d: int) -> bool:
    # exact sign of a + b*sqrt(d) for d > 0
    if a >= 0 and b >= 0:
        return True
    if a < 0 and b <= 0:
        return False
    if a >= 0:
        return a * a >= d * b * b
    return d * b * b >= a * a


def _archimedean_verdict(delta: QuadInt) -> LocalVerdict:
    place = Place.archimedean()
    if delta.d < 0:
        return LocalVerdict(place, True)
    ok = _embedding_nonneg(delta.a, delta.b, delta.d) and _embedding_nonneg(
        delta.a, -delta.b, delta.d
    )
    return LocalVerdict(place, ok)


def locally_solvable_everywhere(
    delta: QuadInt, primes: list[int] | None = None
) -> tuple[bool, list[LocalVerdict]]:
    """Check every place that can obstruct: archimedean, 2, and the primes
    dividing N(delta).

    primes, if given, is that sorted prime list from a factorization the
    caller already holds; by default it is relevant_primes(delta).
    """
    if primes is None:
        primes = relevant_primes(delta)
    verdicts = [_archimedean_verdict(delta)]
    for p in primes:
        verdicts.append(locally_solvable(delta, p))
    return all(v.solvable for v in verdicts), verdicts
