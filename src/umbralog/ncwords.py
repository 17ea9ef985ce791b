"""Free noncommutative words over {sigma, D, E, lam, lam_inv} and the two
grade-raising rewrites used to generate the differential operators of the
log-expansion machinery.

Polynomials are kept in the canonical shape a_0*E + a_1*E*D + ... + a_k*E*D^k
(exactly one E per word, only D's after it, never a *true* free term); the
coefficients a_i are themselves words in the E-free sub-alphabet.
"""

from __future__ import annotations

from fractions import Fraction

SIGMA = "sigma"
D = "D"
E = "E"
LAM = "lam"
LAMINV = "lam_inv"

_PRETTY = {SIGMA: "σ", D: "D", E: "E", LAM: "λ", LAMINV: "λ⁻¹"}


class ShapeError(ValueError):
    """A polynomial left the canonical one-E shape."""


def word(*letters) -> tuple:
    return tuple(letters)


def pretty_word(w: tuple) -> str:
    return "·".join(_PRETTY[x] for x in w) if w else "1"


def split_canonical(w: tuple) -> tuple:
    """Split prefix·E·D^i into (prefix, i); raises on malformed words."""
    if w.count(E) != 1:
        raise ShapeError(f"word {pretty_word(w)} must contain exactly one E")
    pos = w.index(E)
    tail = w[pos + 1 :]
    if any(x != D for x in tail):
        raise ShapeError(
            f"word {pretty_word(w)} has non-D letters after E"
        )
    return w[:pos], len(tail)


class NCPoly:
    """Rational linear combination of words, as a dict word -> Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {
            k: (Fraction(v) if isinstance(v, int) else v)
            for k, v in (terms or {}).items()
            if v
        }

    @staticmethod
    def monomial(w: tuple, c=Fraction(1)) -> "NCPoly":
        return NCPoly({w: c})

    @staticmethod
    def zero() -> "NCPoly":
        return NCPoly()

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "NCPoly"):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return NCPoly(out)

    def __neg__(self):
        return NCPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "NCPoly":
        if not c:
            return NCPoly()
        return NCPoly({k: v * c for k, v in self.terms.items()})

    def concat(self, other: "NCPoly") -> "NCPoly":
        """Noncommutative product (word concatenation)."""
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        return NCPoly(out)

    def __eq__(self, other):
        return isinstance(other, NCPoly) and self.terms == other.terms

    def head_part(self) -> "NCPoly":
        """The a_0 coefficient: prefixes of words of shape prefix·E."""
        out = {}
        for w, c in self.terms.items():
            prefix, i = split_canonical(w)
            if i == 0:
                out[prefix] = c
        return NCPoly(out)

    def strip_lambda(self) -> "NCPoly":
        """Erase lam / lam_inv letters and recombine (the lam == 1 reduction)."""
        out: dict = {}
        for w, c in self.terms.items():
            w2 = tuple(x for x in w if x not in (LAM, LAMINV))
            out[w2] = out.get(w2, 0) + c
        return NCPoly(out)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms):
            bits.append(f"({self.terms[w]})·{pretty_word(w)}")
        return " + ".join(bits)


P0 = NCPoly.monomial((E,))


def _rewrite(p: NCPoly, images) -> NCPoly:
    """Sum of prefix·tail·c·weight over the (tail, weight) pairs that
    ``images(i)`` gives for each canonical word prefix·E·D^i, in one dict."""
    out: dict = {}
    for w, c in p.terms.items():
        prefix, i = split_canonical(w)
        for tail, weight in images(i):
            key = prefix + tail
            out[key] = out.get(key, 0) + c * weight
    return NCPoly(out)


def nu_step(p: NCPoly) -> NCPoly:
    """One grade-raising rewrite E·D^i -> combinations of sigma, D, E words.

    E·D^i maps to sigma·D^{i+2}·E/((i+1)(i+2)) - sigma·D·E·D^{i+1}/(i+1)
    + sigma·E·D^{i+2}/(i+2); prefixes ride along unchanged.
    """
    return _rewrite(
        p,
        lambda i: (
            ((SIGMA,) + (D,) * (i + 2) + (E,), Fraction(1, (i + 1) * (i + 2))),
            ((SIGMA, D, E) + (D,) * (i + 1), Fraction(-1, i + 1)),
            ((SIGMA, E) + (D,) * (i + 2), Fraction(1, i + 2)),
        ),
    )


def nu_bar_step(p: NCPoly) -> NCPoly:
    """The lam-conjugated variant of the rewrite.

    E·D^i maps to (sigma·lam_inv·D·lam·D^{i+1}/(i+1) - sigma·D^{i+2}/(i+2))·E
    - sigma·lam_inv·D·lam·E·D^{i+1}/(i+1) + sigma·E·D^{i+2}/(i+2).
    """
    return _rewrite(
        p,
        lambda i: (
            ((SIGMA, LAMINV, D, LAM) + (D,) * (i + 1) + (E,), Fraction(1, i + 1)),
            ((SIGMA,) + (D,) * (i + 2) + (E,), Fraction(-1, i + 2)),
            ((SIGMA, LAMINV, D, LAM, E) + (D,) * (i + 1), Fraction(-1, i + 1)),
            ((SIGMA, E) + (D,) * (i + 2), Fraction(1, i + 2)),
        ),
    )


def nu_power(n: int, step=nu_step) -> NCPoly:
    p = P0
    for _ in range(n):
        p = step(p)
    return p


def head_word_poly(n: int, step=nu_step) -> NCPoly:
    """a_0 coefficient of the n-th iterate, as an E-free word polynomial."""
    if n == 0:
        return NCPoly.monomial(())
    return nu_power(n, step).head_part()


# -- the matrix scheme --------------------------------------------------------


def scheme_matrix(k: int) -> list:
    """The (2k-1) x (2k+1) matrix of E-free word entries for step k.

    Row i (1-based) holds sigma*D^{i+1}/(i(i+1)) in the first column,
    -sigma*D/i in column i+1 and sigma/(i+1) in column i+2.
    """
    rows = 2 * k - 1
    cols = 2 * k + 1
    m = [[NCPoly.zero() for _ in range(cols)] for _ in range(rows)]
    for r in range(1, rows + 1):
        m[r - 1][0] = NCPoly.monomial(
            (SIGMA,) + (D,) * (r + 1), Fraction(1, r * (r + 1))
        )
        m[r - 1][r] = NCPoly.monomial((SIGMA, D), Fraction(-1, r))
        m[r - 1][r + 1] = NCPoly.monomial((SIGMA,), Fraction(1, r + 1))
    return m


def head_word_poly_matrix(n: int) -> NCPoly:
    """a_0 of the n-th iterate via successive row-vector times matrix."""
    vec = [NCPoly.monomial(())]
    for k in range(1, n + 1):
        m = scheme_matrix(k)
        if len(vec) != len(m):
            raise ShapeError(
                f"vector length {len(vec)} does not fit a {len(m)}-row matrix"
            )
        cols = len(m[0])
        new = [NCPoly.zero() for _ in range(cols)]
        for i, a in enumerate(vec):
            if a.is_zero():
                continue
            for j in range(cols):
                entry = m[i][j]
                if not entry.is_zero():
                    new[j] = new[j] + a.concat(entry)
        vec = new
    return vec[0]
