"""3-matrix factorizations via LU decomposition over the fraction field.

A certified MF2 factor is split as L*U (Doolittle: unit diagonal on L;
Crout: unit diagonal on U), turning (P, Q) into a certified triple such as
(L, U, Q). Pivots are exact zero tests; optional row pivoting takes the
first usable row and the transposed permutation is absorbed into the
L-side factor so the triple certificate survives.

A standard-method factor [[P1, -p2*I], [q2*I, Q1]] with P1*Q1 = f1*I has
the Schur complement (f/f1)*Q1, so its LU is assembled from the LUs of P1
and Q1, recursing down to 2x2 leaves. That block step checks its own
conditions exactly; any matrix that fails them goes through elimination,
which gives the same unique factors.

MF3 is the triple case of mf2.Factorization. The provenance that promote
records is checked whenever an MF3 is built, so a stored artifact cannot
claim a split that its matrices do not show.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError, SingularPivotError, StructurallySingularError
from .matrix import PermutationMatrix, RatMatrix
from .mf2 import MF2, Factorization, _blocks
from .poly import Polynomial
from .ratfunc import RationalFunction

DOOLITTLE = "doolittle"
CROUT = "crout"
_METHODS = (DOOLITTLE, CROUT)
_WHICH = ("first", "second")


@dataclass(frozen=True)
class Provenance:
    method: str
    decomposed: str
    pivoted: bool


class MF3(Factorization):
    """A certified triplet of square matrices with A1*A2*A3 = target*I.

    A provenance, when given, must match the LU split the matrices show.
    """

    __slots__ = ("provenance",)
    names = ("A1", "A2", "A3")

    def __init__(
        self,
        A1: RatMatrix,
        A2: RatMatrix,
        A3: RatMatrix,
        target: Polynomial,
        provenance: Provenance | None = None,
    ):
        super().__init__((A1, A2, A3), target)
        if provenance is not None:
            _check_provenance(self, provenance)
        self.provenance = provenance

    @property
    def A1(self) -> RatMatrix:
        return self._components[0]

    @property
    def A2(self) -> RatMatrix:
        return self._components[1]

    @property
    def A3(self) -> RatMatrix:
        return self._components[2]


def _check_provenance(x: MF3, p: Provenance):
    """Raise DimensionError unless the L, U pair of x ((A1, A2) or (A2, A3)) has
    the shape of the LU split that p names."""
    if p.method not in _METHODS:
        raise DimensionError(f"provenance method {p.method!r} is not doolittle or crout")
    if p.decomposed not in _WHICH:
        raise DimensionError(f"provenance decomposed {p.decomposed!r} is not first or second")
    k = _WHICH.index(p.decomposed)
    l_name, u_name = x.names[k : k + 2]
    L, U = x.components[k : k + 2]
    n = x.size
    claim = f"provenance claims {p.method} on the {p.decomposed} factor, but"
    if any(not U[i, j].is_zero for i in range(n) for j in range(i)):
        raise DimensionError(f"{claim} {u_name} is not upper triangular")
    if p.method == CROUT and not all(U[i, i].is_one for i in range(n)):
        raise DimensionError(f"{claim} {u_name} has a non-unit diagonal")
    # the column of each row's last nonzero entry: L's diagonal, rows permuted if pivoted
    last = [max((j for j in range(n) if not L[i, j].is_zero), default=-1) for i in range(n)]
    if (sorted(last) if p.pivoted else last) != list(range(n)):
        permuted = " up to a row permutation" if p.pivoted else ""
        raise DimensionError(f"{claim} {l_name} is not lower triangular{permuted}")
    if p.method == DOOLITTLE and not all(L[i, last[i]].is_one for i in range(n)):
        raise DimensionError(f"{claim} {l_name} has a non-unit diagonal")


@dataclass(frozen=True)
class LUResult:
    L: RatMatrix
    U: RatMatrix
    permutation: PermutationMatrix | None  # L @ U = permutation applied to the input
    method: str


def lu_decompose(A: RatMatrix, method: str = DOOLITTLE, pivot: bool = False) -> LUResult:
    """Exact LU decomposition of a square matrix over the fraction field.

    Returns L, U with L @ U == A, or L @ U == P @ A when pivoting had to
    permute rows (P is reported so A == P.transpose() @ L @ U). A zero
    pivot raises SingularPivotError unless pivot=True, in which case the
    first lower row with a nonzero entry in the pivot column is used;
    if no row qualifies the matrix is singular.

    The block step of _block_lu runs first and gives the factors of the
    method directly; where it does not apply, the gcd-reduced elimination
    loop gives the unique Doolittle factors, which Crout rescales.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown LU method {method!r}")
    if not A.is_square:
        raise DimensionError(f"LU decomposition needs a square matrix, got {A.shape}")
    factors = _block_lu(A, method)
    if factors is not None:
        return LUResult(*factors, None, method)
    L, U, permutation = _eliminate(A, pivot)
    if method == CROUT:
        L, U = _to_crout(L, U)
    return LUResult(L, U, permutation, method)


def _to_crout(L: RatMatrix, U: RatMatrix) -> tuple[RatMatrix, RatMatrix]:
    """Rescale the unique L(unit)*U decomposition into L*U(unit)."""
    n, zero = L.rows, RationalFunction.zero(L.context)
    diag = [U[i, i] for i in range(n)]
    lower = [L[i, j] * diag[j] if j <= i else zero for i in range(n) for j in range(n)]
    upper = [U[i, j] / diag[i] if j >= i else zero for i in range(n) for j in range(n)]
    return RatMatrix(L.context, n, n, lower), RatMatrix(L.context, n, n, upper)


def _block_lu(M: RatMatrix, method: str) -> tuple[RatMatrix, RatMatrix] | None:
    """L, U of M = [[A, b*I], [c*I, D]] with A @ D = s*I by method, or None.

    This is the shape of every standard-method factor (mf2.add_factorizations
    with a 1x1 pair last), where s is the partial sum f1. Since A^-1 = D/s,
    the Schur complement D - c*b*A^-1 is (t/s)*D with t = s - c*b. From the
    Doolittle factors of A and D,

        L = [[L_A, 0], [(c/s)*(D @ L_A), L_D]]
        U = [[U_A, (b/s)*(U_A @ D)], [0, (t/s)*U_D]]

    and from their Crout factors the scale (t/s) moves from U_D to L_D. A
    and D are again standard-method factors when M is one. Each condition
    is checked exactly, so the step is right for any matrix; None (odd or
    small size, other blocks, s == 0, t == 0, or a zero pivot inside A or D)
    leaves M to the elimination loop.
    """
    n = M.rows
    if n < 4 or n % 2:
        return None
    h = n // 2
    ctx = M.context

    def block(r: int, c: int) -> RatMatrix:
        return RatMatrix(ctx, h, h, [e for i in range(r, r + h) for e in M.row(i)[c : c + h]])

    A, B, C, D = block(0, 0), block(0, h), block(h, 0), block(h, h)
    b, c = B[0, 0], C[0, 0]
    if B != RatMatrix.scalar(ctx, h, b) or C != RatMatrix.scalar(ctx, h, c):
        return None
    AD = A @ D
    s = AD[0, 0]
    if s.is_zero or AD != RatMatrix.scalar(ctx, h, s):
        return None
    t = s - c * b
    if t.is_zero:
        return None
    try:
        top = lu_decompose(A, method)
        bottom = lu_decompose(D, method)
    except SingularPivotError:
        return None
    zeros = RatMatrix.zeros(ctx, h, h)
    L_D, U_D = bottom.L, bottom.U
    if method == CROUT:
        L_D = L_D * (t / s)
    else:
        U_D = U_D * (t / s)
    L = _blocks((top.L, zeros), ((D @ top.L) * (c / s), L_D))
    U = _blocks((top.U, (top.U @ D) * (b / s)), (zeros, U_D))
    return L, U


def _eliminate(A: RatMatrix, pivot: bool) -> tuple[RatMatrix, RatMatrix, PermutationMatrix | None]:
    """Doolittle elimination with exact zero tests, swapping rows only when pivot=True."""
    ctx = A.context
    n = A.rows
    zero = RationalFunction.zero(ctx)
    one = RationalFunction.one(ctx)
    work = A.row_lists()
    lower = [[one if i == j else zero for j in range(n)] for i in range(n)]
    order = list(range(n))
    swapped = False
    for k in range(n):
        if work[k][k].is_zero:
            if not pivot:
                raise SingularPivotError(k + 1)
            found = next(
                (r for r in range(k + 1, n) if not work[r][k].is_zero), None
            )
            if found is None:
                raise StructurallySingularError(k)
            work[k], work[found] = work[found], work[k]
            order[k], order[found] = order[found], order[k]
            for j in range(k):
                lower[k][j], lower[found][j] = lower[found][j], lower[k][j]
            swapped = True
        pivot_entry = work[k][k]
        for i in range(k + 1, n):
            if work[i][k].is_zero:
                continue
            factor = work[i][k] / pivot_entry
            lower[i][k] = factor
            work[i][k] = zero
            for j in range(k + 1, n):
                work[i][j] = work[i][j] - factor * work[k][j]
    L = RatMatrix(ctx, n, n, [e for row in lower for e in row])
    U = RatMatrix(ctx, n, n, [work[i][j] if j >= i else zero for i in range(n) for j in range(n)])
    return L, U, PermutationMatrix(order) if swapped else None


def promote(
    X: MF2,
    which: str = "first",
    method: str = DOOLITTLE,
    pivot: bool = False,
) -> MF3:
    """Expand a certified pair into a certified triple by LU-splitting one factor.

    which="first" decomposes P, giving (L, U, Q); which="second" decomposes
    Q, giving (P, L, U). With pivoting, L @ U = Perm @ factor, so the triple
    uses Perm.transpose() @ L in place of L and the certificate still holds.
    """
    if which not in _WHICH:
        raise ValueError(f"which must be 'first' or 'second', got {which!r}")
    factor = X.P if which == "first" else X.Q
    result = lu_decompose(factor, method=method, pivot=pivot)
    L = result.L
    if result.permutation is not None:
        L = result.permutation.transpose().apply_rows(L)
    if which == "first":
        triple = (L, result.U, X.Q)
    else:
        triple = (X.P, L, result.U)
    provenance = Provenance(method, which, result.permutation is not None)
    return MF3(*triple, X.target, provenance=provenance)
