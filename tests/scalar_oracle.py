"""Plain-Python scalar oracle for the colors of symbolic colorings.

``scalar_color(C, v)`` walks the composition tree of C one vertex at a time
with Python integers only, following the meaning of each body node as the
construction defines it.  The vectorized ``eval`` of every node is checked
against it, through both ``Coloring.evaluate`` and ``Coloring.materialize``.

``eigenbasis_transform`` is the transform in the basis L_q (x) ... (x) L_q,
by explicit matrix steps with Python integers, that the character transform
kernel is checked against.

``int_rank`` is rank over the rationals by fraction-free (Bareiss)
elimination, and ``rank_spectrum`` the multiplicities ``k - rank(S - lambda I)``
over the graph eigenvalues that ``pcol.verify.quotient_spectrum``'s product
chain is checked against.

``quadratic_periods`` and ``quadratic_reduction`` are the period search and
period reduction that compare the whole table once per shift; the
candidate-and-coset versions in ``pcol.constructions`` are checked against
them.

``field_tables_oracle`` is the GF(q) arithmetic that ``pcol.gf.FieldTable``
is checked against: schoolbook products of coefficient lists, reduced by the
lowest-label monic irreducible that trial division finds.

``text_tokens_oracle`` reads a text file token by token through ``str``
methods and ``int``; ``pcol.pcolfile.read_pcol``'s block loop is checked
against it, value by value and fault by fault.
"""
import numpy as np

from pcol.core import _shifted_index, digits
from pcol.errors import ColorOutOfRangeError, ParseError
from pcol.pcolfile import TEXT_MAGIC, _parse_header

BODY_KINDS = ("_TableBody", "_TranslationBody", "_CylinderBody", "_OuterBody",
              "_MergeBody", "_SyndromeBody", "_RMBody")


def body_kinds(C):
    """Names of the body node types in C's composition tree."""
    body = C.body
    kinds = {type(body).__name__}
    for attr in ("base", "outer"):
        if hasattr(body, attr):
            kinds |= body_kinds(getattr(body, attr))
    for member in getattr(body, "members", ()):
        kinds |= body_kinds(member)
    return kinds


def scalar_color(C, v: int) -> int:
    body = C.body
    n, q = C.n, C.q
    kind = type(body).__name__
    if kind == "_TableBody":
        return int(body.arr[v])
    if kind == "_TranslationBody":
        # base(x - shift), digit by digit over Z_q
        w = 0
        place = 1
        for z in body.shift:
            w += ((v % q - z) % q) * place
            v //= q
            place *= q
        return scalar_color(body.base, w)
    if kind == "_CylinderBody":
        return scalar_color(body.base, (v // q**body.offset) % q**body.base.n)
    if kind == "_OuterBody":
        # F(y, x) = member_i(x^j) with outer(y) = q*i + j
        M = len(body.members)
        nb = body.members[0].n
        i, j = divmod(scalar_color(body.outer, v % q**M), q)
        x = v // q**M
        return scalar_color(body.members[i], (x // q**(j * nb)) % q**nb)
    if kind == "_MergeBody":
        return int(body.mapping[scalar_color(body.base, v)])
    if kind == "_SyndromeBody":
        syn = 0
        for p in range(n):
            if (v >> p) & 1:
                syn ^= p + 1
        return syn
    if kind == "_RMBody":
        # (sum x_i, sum x_i * alpha_i) over GF(q), encoded q * rank(beta) + a
        F = body.field
        a = 0
        beta = [0] * body.s
        for i in range(n):
            d = v % q
            v //= q
            if d:
                a = F.add(a, d)
                for t, at in enumerate(body.alphas[i]):
                    if at:
                        beta[t] = F.add(beta[t], F.mul(d, at))
        return q * sum(b * q**t for t, b in enumerate(beta)) + a
    raise TypeError(f"no scalar oracle for {kind}")


def eigenbasis_transform(values, n: int, q: int, dtype=object) -> np.ndarray:
    """The transform in the basis L_q (x) ... (x) L_q, L_q with row 0 all ones
    and row s >= 1 equal to e_0 - e_s.

    Each of the n steps multiplies one digit's axis by the explicit matrix
    L_q, in Python ints (an object array) by default.  dtype=np.int64 is for
    large tables: every value is a signed sum of distinct cells, and the
    oracle refuses a table where such a sum could reach 2**63.  It shares no
    code with the kernel.
    """
    vals = np.asarray(values).reshape(-1)
    if dtype is not object and vals.size * max(-int(vals.min()), int(vals.max())) >= 2**63:
        raise ValueError("int64 could wrap")
    vals = np.array([int(v) for v in vals.tolist()], dtype=dtype)
    L = np.array([[1] * q] + [[int(x == 0) - int(x == s) for x in range(q)] for s in range(1, q)],
                 dtype=dtype)
    for i in range(n):
        vals = np.matmul(L, vals.reshape(-1, q, q**i)).reshape(-1)
    return vals


def int_rank(rows) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    M = [list(row) for row in rows]
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    rank, prev = 0, 1
    for c in range(ncols):
        piv = next((i for i in range(rank, nrows) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        for i in range(rank + 1, nrows):
            for j in range(c + 1, ncols):
                M[i][j] = (M[i][j] * M[rank][c] - M[i][c] * M[rank][j]) // prev
            M[i][c] = 0
        prev = M[rank][c]
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_spectrum(rows, n: int, q: int) -> dict:
    """{lambda: k - rank(S - lambda I)} over the graph eigenvalues n(q-1) - q*i
    in descending order, zeros left out; ValueError when the multiplicities
    do not sum to k."""
    k = len(rows)
    spectrum = {}
    for i in range(n + 1):
        lam = n * (q - 1) - q * i
        mult = k - int_rank([[e - lam * (a == b) for b, e in enumerate(row)]
                             for a, row in enumerate(rows)])
        if mult:
            spectrum[lam] = mult
    if sum(spectrum.values()) != k:
        raise ValueError(f"eigenspaces span {sum(spectrum.values())} < {k} dimensions")
    return spectrum


def quadratic_periods(C) -> list[int]:
    """All v with C(x + v) == C(x) for every x, by one whole-table compare per v."""
    Cm = C.materialize()
    n, q = Cm.n, Cm.q
    tab = Cm.table
    idx = np.arange(q**n, dtype=np.int64)
    return [v for v in range(q**n)
            if np.array_equal(tab[_shifted_index(idx, q, digits(v, n, q), +1)], tab)]


def quadratic_reduction(colorings) -> tuple:
    """The translates z of colorings[0] that are the lowest index of their
    coset z + P, P the periods, by one coset-minimum pass per period."""
    base = colorings[0]
    n, q = base.n, base.q
    periods = quadratic_periods(base)
    idx = np.arange(q**n, dtype=np.int64)
    rep = idx.copy()
    for p in periods:
        if p == 0:
            continue
        np.minimum(rep, _shifted_index(idx, q, digits(p, n, q), +1), out=rep)
    return tuple(colorings[z] for z in range(q**n) if rep[z] == z)


def _coefficients(a: int, p: int, k: int) -> list[int]:
    return [a // p**i % p for i in range(k)]


def _label(coeffs, p: int) -> int:
    return sum(c * p**i for i, c in enumerate(coeffs))


def _remainder(a, m, p: int) -> list[int]:
    """a mod the monic m over GF(p), coefficients lowest first, len(m) - 1 of them."""
    a = list(a)
    d = len(m) - 1
    for top in range(len(a) - 1, d - 1, -1):
        lead = a[top]
        for i, mi in enumerate(m):
            a[top - d + i] = (a[top - d + i] - lead * mi) % p
    return a[:d]


def lowest_irreducible(q: int) -> tuple[int, int, tuple[int, ...]]:
    """(p, k, m) with q = p**k and m the lowest-label monic irreducible of
    degree k over GF(p), ascending coefficients, by trial division by every
    monic of degree 1 .. k // 2."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 0
    while p**k < q:
        k += 1
    assert p**k == q, f"{q} is not a prime power"

    def monics(degree):
        return ([*_coefficients(t, p, degree), 1] for t in range(p**degree))

    m = next(m for m in monics(k)
             if all(any(_remainder(m, d, p)) for e in range(1, k // 2 + 1) for d in monics(e)))
    return p, k, tuple(m)


def field_tables_oracle(q: int) -> dict:
    """FieldTable's irreducible_poly and five tables as Python lists."""
    p, k, m = lowest_irreducible(q)
    coeffs = [_coefficients(a, p, k) for a in range(q)]

    def times(a, b):
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(coeffs[a]):
            for j, y in enumerate(coeffs[b]):
                prod[i + j] += x * y
        return _label(_remainder([c % p for c in prod], m, p), p)

    mul = [[times(a, b) for b in range(q)] for a in range(q)]
    return {
        "irreducible_poly": () if k == 1 else m,
        "add_table": [[_label([(x + y) % p for x, y in zip(coeffs[a], coeffs[b])], p)
                       for b in range(q)] for a in range(q)],
        "sub_table": [[_label([(x - y) % p for x, y in zip(coeffs[a], coeffs[b])], p)
                       for b in range(q)] for a in range(q)],
        "mul_table": mul,
        "neg_table": [_label([-x % p for x in coeffs[a]], p) for a in range(q)],
        "inv_table": [0] + [mul[a].index(1) for a in range(1, q)],
    }


def text_tokens_oracle(blob: bytes):
    """(values, q, n, k) of any text file, token by token; raises on bad input."""
    try:
        text = blob.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not an ASCII PCOL file: {exc}", line=1)
    lines = text.splitlines()
    if not lines or lines[0].strip() != TEXT_MAGIC:
        raise ParseError(f"missing magic {TEXT_MAGIC!r}", line=1)
    if len(lines) < 2:
        raise ParseError("missing header line", line=2)
    q, n, k = _parse_header(lines[1].strip(), 2)
    # int() refuses more than 4300 digits.  Leading zeros add nothing, and past
    # 64 digits a color is out of range anyway: such a value is kept as text.
    values, huge = [], {}
    for lineno, line in enumerate(lines[2:], start=3):
        col = 1
        for token in line.split():
            # A token is ASCII digits: no sign, no underscore.
            if not token.isdigit():
                shown = (repr(token) if len(token) <= 20
                         else f"{token[:20]!r}... ({len(token)} characters)")
                raise ParseError(f"non-integer token {shown}", line=lineno,
                                 column=line.find(token, col - 1) + 1)
            digits = token.lstrip("0") or "0"
            if len(digits) > 64:
                huge[len(values)] = digits
            values.append(2**63 if len(values) in huge else int(digits))
            col = line.find(token, col - 1) + len(token) + 1
    try:
        arr = np.array(values, dtype=np.int64)
    except OverflowError:
        v = next(v for v, x in enumerate(values) if x >= 2**63)
        shown = huge.get(v, str(values[v]))
        if len(shown) > 64:
            shown = f"{shown[:20]}... ({len(shown)} characters)"
        raise ColorOutOfRangeError(f"vertex {v} has color {shown}, not below k={k}")
    return arr, q, n, k
