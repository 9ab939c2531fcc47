"""Per-place solvability of x^2 + y^2 = delta over the completions of
Z[sqrt(d)]: a closed form at odd places, and at p = 2 modular descent with
Hensel certification, made exact by a valuation cutoff on the enumeration
depth.  The descent also serves any prime through solvable_mod."""

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

    For finite places, exhausted_at is the certificate level when solvable,
    or the first level with no solution classes when not.  The certificate
    level is the first level the descent certifies at when p = 2; the cutoff
    depth at an odd split place; 1 at an inert place; and at a ramified
    place 1 when p = 1 mod 4, k + 1 when p = 3 mod 4 and v_w(delta) = 2k.
    Archimedean verdicts carry neither.
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
    return _cutoff(p, _place_valuations(delta, p))


def _cutoff(p: int, vals: list[int]) -> int:
    return 2 * ((1 if p == 2 else 0) + (max(vals) + 1) // 2) + 1


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


def _unit_two_squares(c: int, p: int, k: int) -> tuple[int, int]:
    # X^2 + Y^2 = c mod p^k for odd p and a unit c, with Y a unit so the pair
    # is Hensel-smooth.  Mod p there are p - (-1/p) >= 2 solutions, at most
    # two of them with Y = 0.
    for x in range(p):
        w = (c - x * x) % p
        if w and pow(w, (p - 1) // 2, p) == 1:
            return x, _lift_sqrt((c - x * x) % p**k, p, k)
    raise RuntimeError(f"no unit solution of x^2 + y^2 = {c} mod {p}; invariant violated")


def _odd_verdict(delta: QuadInt, p: int, place: Place, vals: list[int], depth: int) -> LocalVerdict:
    # Closed form at odd p (O'Meara, Introduction to Quadratic Forms, 63;
    # Serre, A Course in Arithmetic, III): x^2 + y^2 = delta fails only at a
    # place with residue field F_p, p = 3 mod 4 and odd valuation.  Anywhere
    # else -1 is a residue-field square and the form is XY.
    a, b, d = delta.a, delta.b, delta.d
    splitting = place.splitting
    if p % 4 == 3 and splitting is not Splitting.INERT:
        odd = [v for v in vals if v % 2]
        if odd:
            e = 2 if splitting is Splitting.RAMIFIED else 1
            return LocalVerdict(place, False, None, (min(odd) + 1) // e)
    if p % 4 == 1 or splitting is Splitting.INERT:
        # x = (delta + 1)/2, y = (1 - delta)*i/2 with i^2 = -1
        level = depth if splitting is Splitting.SPLIT else 1
        m = p**level
        if p % 4 == 1:
            i0, i1 = _lift_sqrt(-1, p, level), 0
        else:  # inert, p = 3 mod 4: -d is a square s^2 and i = sqrt(d)/s
            i0, i1 = 0, pow(numth.sqrt_mod_prime(-d % p, p), -1, p)
        h = pow(2, -1, m)
        x = ((a + 1) * h % m, b * h % m)
        y = (((1 - a) * i0 - d * b * i1) * h % m, ((1 - a) * i1 - b * i0) * h % m)
    elif splitting is Splitting.SPLIT:
        # solve each component p^v * unit (v even), then combine by CRT
        level = depth
        m = p**level
        r = _lift_sqrt(d, p, level)
        parts = []
        for c, v in zip(((a + b * r) % m, (a - b * r) % m), vals):
            s = p ** (v // 2)
            cx, cy = _unit_two_squares(c // p**v, p, level - v)
            parts.append((s * cx % m, s * cy % m))
        (x1, y1), (x2, y2) = parts
        h, hr = pow(2, -1, m), pow(2 * r, -1, m)
        x = ((x1 + x2) * h % m, (x1 - x2) * hr % m)
        y = ((y1 + y2) * h % m, (y1 - y2) * hr % m)
    else:
        # ramified, v = 2k: delta = s^2 * t with s = p^(k//2), times sqrt(d)
        # when k is odd, and t a unit; solve t mod p, then scale by s
        k = vals[0] // 2
        level = k + 1
        m = p**level
        g = pow(d // p, -1, p) if k % 2 else 1
        tx, ty = _unit_two_squares(a // p**k * g, p, 1)
        ty1 = b // p**k * g * pow(2 * ty, -1, p)
        s = p ** (k // 2)
        x, y = (s * tx, 0), (s * ty, s * ty1)
        if k % 2:
            x, y = (d * x[1], x[0]), (d * y[1], y[0])
        x, y = (x[0] % m, x[1] % m), (y[0] % m, y[1] % m)
    return LocalVerdict(place, True, ModularSolution(x, y, level, True), level)


def locally_solvable(delta: QuadInt, p: int, depth_limit: int = DEFAULT_DEPTH_LIMIT) -> LocalVerdict:
    """Decide solvability of x^2 + y^2 = delta over both completions of
    Z[sqrt(d)] above p: in closed form at odd p, and at p = 2 by descent to
    the exact cutoff depth, which must not exceed depth_limit."""
    if delta.is_zero():
        raise ParameterError("delta must be nonzero")
    place = Place(p, split_type(p, delta.d))
    vals = _place_valuations(delta, p)
    depth = _cutoff(p, vals)
    if p != 2:
        return _odd_verdict(delta, p, place, vals, depth)
    if depth > depth_limit:
        raise ResourceLimitError(f"cutoff depth {depth} exceeds limit {depth_limit}")
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
