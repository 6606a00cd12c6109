"""Parameter planning: pick a Hanoi graph (plus blow-up) realizing a target (n, epsilon).

Given n and an exact rational epsilon, the planner chooses m with
2^(2^m) <= n < 2^(2^(m+1)) and splits m = a + b so that

    2^(2b) / 2^(2^a)  <=  eps_sel  <  2^(2(b+1)) / 2^(2^(a-1)),

then sets r = 2^(2^a), k = 2^b.  Those intervals tile [1/2^(2^m), 1), so the
split is unique; the scan still runs from the largest b down (larger k means
larger critical distance).  When n is exactly 2^(2^m) the selection runs at
epsilon itself and no blow-up is needed; otherwise it runs at epsilon/2 and
the base graph is blown up to exactly n vertices.  Very small epsilon
(epsilon < 2/sqrt(n)) degenerates to K_n, which is the k = 1 Hanoi graph on n
values.

Every inequality is evaluated by big-integer cross-multiplication; no
floating point is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .hanoi import HanoiParams


class OutOfRange(ValueError):
    """epsilon outside [1/n, 1]; nothing can be planned."""


@dataclass(frozen=True)
class Plan:
    """A planned construction: parameters, predicted critical distance, blow-up split.

    ``within_hypothesis`` records whether epsilon <= 1/log2(n) (the regime the
    asymptotic guarantee is stated for); planning proceeds either way.
    ``k_bound_ok`` is the exact check k >= log2(base_n) / (6 log2(1/eps_sel)).
    """

    n_target: int
    epsilon: Fraction
    degenerate: bool
    r: int
    k: int
    base_n: int
    predicted_d: int
    copy_floor: int
    copy_ceil: int
    ceil_count: int
    selection_epsilon: Fraction
    within_hypothesis: bool
    k_bound_ok: bool
    m: int | None = None
    a: int | None = None
    b: int | None = None

    def params(self) -> HanoiParams:
        """Generation parameters for the base graph (always proper states)."""
        return HanoiParams(self.r, self.k, proper=True)

    @property
    def needs_blow_up(self) -> bool:
        return self.base_n != self.n_target

    def to_json_dict(self) -> dict:
        return {
            "n_target": self.n_target,
            "epsilon": f"{self.epsilon.numerator}/{self.epsilon.denominator}",
            "degenerate": self.degenerate,
            "m": self.m,
            "a": self.a,
            "b": self.b,
            "r": self.r,
            "k": self.k,
            "base_n": self.base_n,
            "predicted_d": self.predicted_d,
            "copy_counts": {
                "floor": self.copy_floor,
                "ceil": self.copy_ceil,
                "ceil_vertices": self.ceil_count,
            },
            "selection_epsilon": (
                f"{self.selection_epsilon.numerator}/{self.selection_epsilon.denominator}"
            ),
            "within_hypothesis": self.within_hypothesis,
            "k_bound_ok": self.k_bound_ok,
        }


def _k_bound_ok(k: int, base_n: int, sel: Fraction) -> bool:
    # k >= log2(base_n) / (6 log2(1/sel))  <=>  (1/sel)^(6k) >= base_n
    p, q = sel.numerator, sel.denominator
    return q ** (6 * k) >= base_n * p ** (6 * k)


def _pow_bound(n: int, p: int, bits: int, up: bool) -> tuple[int, int]:
    """(c, e) with c * 2**e <= n**p, or >= n**p when ``up``; c keeps about ``bits`` bits.

    Binary exponentiation on truncated mantissas: each product is rounded
    down (or up) to its top ``bits`` bits, so the bound stays on its side.
    """
    def trim(c: int, e: int) -> tuple[int, int]:
        drop = c.bit_length() - bits
        if drop <= 0:
            return c, e
        return (-(-c >> drop) if up else c >> drop), e + drop

    result, base = (1, 0), trim(n, 0)
    while p:
        if p & 1:
            result = trim(result[0] * base[0], result[1] + base[1])
        p >>= 1
        if p:
            base = trim(base[0] * base[0], 2 * base[1])
    return result


def _pow_at_most_pow2(n: int, p: int, q: int) -> bool:
    """Exactly n**p <= 2**q, for n >= 2 and p >= 1, without forming n**p.

    With 2**a <= n < 2**(a+1), n**p lies strictly between 2**(a*p) and
    2**((a+1)*p) unless n is a power of two; only in that band are bounds of
    growing precision needed, and they separate because n**p != 2**q there.
    """
    a = n.bit_length() - 1
    if n == 1 << a:
        return a * p <= q
    if a * p >= q:
        return False
    if (a + 1) * p <= q:
        return True
    bits = 64
    while True:
        c, e = _pow_bound(n, p, bits, up=False)
        if (c - 1).bit_length() > q - e:  # c * 2**e > 2**q
            return False
        c, e = _pow_bound(n, p, bits, up=True)
        if (c - 1).bit_length() <= q - e:  # c * 2**e <= 2**q
            return True
        bits *= 2


def plan_parameters(n: int, epsilon) -> Plan:
    """Plan a construction for an n-vertex graph that is epsilon-distance-uniform.

    Raises :class:`OutOfRange` when epsilon is outside [1/n, 1].  A plan whose
    epsilon exceeds 1/log2(n) is still produced, flagged via
    ``within_hypothesis`` (callers may warn; acceptance still holds at desk
    scale).
    """
    if n < 2:
        raise OutOfRange(f"need n >= 2, got {n}")
    eps = Fraction(epsilon)
    if eps < Fraction(1, n) or eps > 1:
        raise OutOfRange(f"epsilon {eps} outside [1/{n}, 1]")
    p, q = eps.numerator, eps.denominator
    within = _pow_at_most_pow2(n, p, q)  # eps <= 1 / log2(n)  <=>  n^p <= 2^q

    if p * p * n < 4 * q * q:  # eps < 2 / sqrt(n): constant d suffices, take K_n
        r, k, base_n, sel, m, a, b = n, 1, n, eps, None, None, None
    else:
        m = 0
        while 2 ** (2 ** (m + 1)) <= n:
            m += 1
        base_n = 2 ** (2**m)
        sel = eps if base_n == n else eps / 2
        sp, sq = sel.numerator, sel.denominator
        for b in range(m, -1, -1):
            a = m - b
            # 2^(2b) / 2^(2^a) <= sel
            lower_ok = sq * 2 ** (2 * b) <= sp * 2 ** (2**a)
            # sel < 2^(2(b+1)) / 2^(2^(a-1)), squared to keep a = 0 integral
            upper_ok = sp * sp * 2 ** (2**a) < sq * sq * 2 ** (4 * b + 4)
            if lower_ok and upper_ok:
                break
        else:
            raise OutOfRange(f"no (a, b) split of m={m} fits epsilon {sel}")
        r, k = 2 ** (2**a), 2**b
    # One copy of each vertex (1, 1, 0) when no blow-up is needed.
    floor, ceil_count = divmod(n, base_n)
    return Plan(
        n_target=n,
        epsilon=eps,
        degenerate=m is None,
        r=r,
        k=k,
        base_n=base_n,
        predicted_d=2**k - 1,
        copy_floor=floor,
        copy_ceil=floor + 1 if ceil_count else floor,
        ceil_count=ceil_count,
        selection_epsilon=sel,
        within_hypothesis=within,
        k_bound_ok=_k_bound_ok(k, base_n, sel),
        m=m,
        a=a,
        b=b,
    )
