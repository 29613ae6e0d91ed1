"""Network cost model: capex, discounted opex, and per-user TCO metrics.

Capex prices terminal nodes (equipment, civil works, routing and
distribution hardware) per node and fiber (transport plus installation) per
km. Opex is an annual stream discounted over the assessment period,
inclusive of year zero. Per-user metrics divide by the potential-user count
and are marked undefined (None) rather than infinite when it is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_book_fields, check_nonnegative

# The opex present value sums years + 1 discount factors for every book and
# Monte Carlo draw; this bound keeps 1,000 draws to about a million of them.
MAX_ASSESSMENT_YEARS = 1000


@dataclass(frozen=True)
class CostBook:
    """Unit costs and financial parameters.

    Per-node costs are USD per terminal node, per-km costs USD per km of
    fiber, opex items USD per network per year. carbon_price_usd_per_tonne
    monetizes emissions downstream.
    """

    c_olt: float = 28_000.0
    c_civil: float = 120_000.0
    c_rpu: float = 11_000.0
    c_odf: float = 18_000.0
    c_splt: float = 0.0
    c_trans: float = 600.0
    c_inst: float = 6_000.0
    o_rent: float = 11_000.0
    o_staff: float = 150_000.0
    o_pwr: float = 1_000.0
    o_reg: float = 60_000.0
    o_acq: float = 120_000.0
    o_other: float = 180_000.0
    discount_rate: float = 0.0833
    assessment_years: int = 30
    carbon_price_usd_per_tonne: float = 75.0

    def __post_init__(self) -> None:
        check_book_fields(self)
        if not self.discount_rate < 1.0:
            raise ValueError(f"discount_rate must be in [0, 1), got {self.discount_rate}")
        years = self.assessment_years
        if not isinstance(years, int) or not 1 <= years <= MAX_ASSESSMENT_YEARS:
            raise ValueError(
                f"assessment_years must be an integer in [1, {MAX_ASSESSMENT_YEARS}], "
                f"got {years!r}"
            )


# The pricing arithmetic. `b` is a CostBook or any object with its field
# names whose values are floats or numpy arrays (the report's Monte Carlo
# kernel passes one column per varied field); the expressions run in the
# same order either way, so both give bit-identical prices.


def _per_node_cost(b):
    return b.c_olt + b.c_civil + b.c_rpu + b.c_odf + b.c_splt


def _per_km_cost(b):
    return b.c_trans + b.c_inst


def _annual_opex(b):
    return b.o_rent + b.o_staff + b.o_pwr + b.o_reg + b.o_acq + b.o_other


def _capex(node_count, length_km, b):
    return node_count * _per_node_cost(b) + length_km * _per_km_cost(b)


def _opex_npv(annual, rate, years: int) -> np.ndarray:
    """Present values of each entry of the annual opex array over years
    0..years inclusive, at the discount rate (a float, or an array like
    annual): `math.fsum` of annual / (1 + rate) ** y, shape (len(annual),).

    The discount factors are Python's float `**`, which numpy's may not
    match bit for bit, computed once per distinct rate; numpy's division is
    correctly rounded, as Python's is, so each quotient is the same float.
    """
    annual = np.asarray(annual, dtype=float)  # an int too large for a float raises here
    rates, which = np.unique(np.broadcast_to(rate, annual.shape), return_inverse=True)
    factors = np.array([[(1.0 + r) ** y for r in rates.tolist()] for y in range(years + 1)])
    return _fsum_columns(annual / factors[:, which.reshape(-1)])


# `_fsum_columns` sends a whole array to `math.fsum` unless every |x| is
# below this over its column length: then no order of adding a column nears
# the largest float. Sums and error totals below _SUM_TINY go to `math.fsum`
# too, so that every bound below is a normal float.
_SUM_LIMIT = 2.0**1016
_SUM_TINY = 2.0**-960


def _two_sum(a, b):
    """(s, e) with s = a + b rounded and a + b = s + e exactly, when no step
    overflows (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    e = s - bb
    np.subtract(a, e, out=e)
    np.subtract(b, bb, out=bb)
    e += bb
    return s, e


def _fsum_columns(x: np.ndarray) -> np.ndarray:
    """`math.fsum` of each column of the 2-D float array x (at least one
    row), bit for bit, shape (columns,).

    Each column is padded with -0.0, the additive identity (-0.0 + y is y
    for every y, +0.0 included), to N rows, a power of two, and halved
    log2 N times by TwoSum, over whole contiguous rows: the column's exact
    sum is X = s + sum(e) over the N - 1 errors e. Their sum E and magnitude
    A = sum(|e|) are floats; in any order of addition, with u = 2**-53,
    k = max(N - 2, 0) and N u <= 2**-10, E is within 1.01 k u sum(|e|) of
    the real sum, and A at least (1 - 1.01 k u) times it (Higham, Accuracy
    and Stability of Numerical Algorithms, section 4.2), so
    |E - sum(e)| < 1.02 k u A. A last TwoSum gives r + t = s + E. Where
    that bound is 0 (N <= 2, or no TwoSum erred), s + E is X and r is X
    correctly rounded, ties to even included. Otherwise
    |X - r| < |t| + 1.02 k u A, and where the float |t| + 2 k u A is below
    h, half the gap from r to its nearer neighbour, that bound is below h
    too: 2 k u is exact, the product is normal and loses at most a factor
    1 - u, rounding is monotone, and h is a float. X is then closer to r
    than to either neighbour, and r is X correctly rounded. Either way r is
    what `math.fsum` returns.

    The bound needs normal floats and no overflow, so these entries go to
    `math.fsum` itself: a zero r (fsum decides the sign of an exact zero),
    |r| or a nonzero A below 2**-960, and every entry of an array with a
    non-finite value or with max |x| not below 2**1016 over its column
    length. Otherwise no partial sum of the tree, nor of fsum's own partials
    (which sum to a prefix of the column without overlapping, so add up to
    under four times it), comes near the largest float; so fsum raises
    OverflowError, or returns inf or nan, exactly where it would have.
    """
    n, columns = x.shape
    height = 1 << (n - 1).bit_length()
    if height != n:
        x = np.concatenate([x, np.full((height - n, columns), -0.0)])
    limit = _SUM_LIMIT / n
    if not (x.max(initial=0.0) < limit and -x.min(initial=0.0) < limit):  # false for a nan
        return np.array([math.fsum(column) for column in x.T.tolist()])
    s, err, mag = x, np.zeros(columns), np.zeros(columns)
    while height > 1:
        height //= 2
        s, e = _two_sum(s[:height], s[height:])
        err += e.sum(axis=0)
        mag += np.abs(e, out=e).sum(axis=0)
    r, t = _two_sum(s[0], err)
    size = np.abs(r)
    half_gap = np.minimum(np.spacing(size), size - np.nextafter(size, 0.0)) / 2
    bound = (2 * max(len(x) - 2, 0) * 2.0**-53) * mag
    certified = (
        ((bound == 0) | (np.abs(t) + bound < half_gap))
        & (size >= _SUM_TINY)
        & ((mag == 0) | (mag >= _SUM_TINY))
    )
    for i in np.flatnonzero(~certified).tolist():
        r[i] = math.fsum(x[:, i].tolist())
    return r


def _tco_parts(node_count, length_km, opex_share, b, npv):
    """(capex, opex share of the present value npv, their sum)."""
    cap = _capex(node_count, length_km, b)
    opex = npv * opex_share
    return cap, opex, cap + opex


def _per_user_tco(total, users, years):
    """(per user, annualized per user, monthly per user) views of a TCO."""
    per_user = total / users
    annualized = per_user / years
    return per_user, annualized, annualized / 12.0


@dataclass(frozen=True)
class CostBreakdown:
    """Priced design with per-user derivatives (None when users == 0)."""

    capex_usd: float
    opex_npv_usd: float
    tco_usd: float
    users: float
    tco_per_user_usd: float | None
    annualized_per_user_usd: float | None
    monthly_per_user_usd: float | None


def capex_quantities(node_count: int, length_km: float, book: CostBook) -> float:
    """Capex for raw quantities: node_count terminals and length_km fiber."""
    check_nonnegative(node_count=node_count, length_km=length_km)
    return _capex(node_count, length_km, book)


def opex_npv(book: CostBook) -> float:
    """Present value of the annual opex stream over years 0..n inclusive."""
    npv = _opex_npv([_annual_opex(book)], book.discount_rate, book.assessment_years)
    return float(npv[0])


def tco_quantities(
    node_count: int, length_km: float, book: CostBook, users: float, *, opex_share: float = 1.0
) -> CostBreakdown:
    """TCO from raw quantities; opex_share scales the opex stream for
    designs whose operating cost is split across several reporting units."""
    check_nonnegative(users=users)
    if not 0.0 <= opex_share <= 1.0:
        raise ValueError(f"opex_share must be in [0, 1], got {opex_share}")
    check_nonnegative(node_count=node_count, length_km=length_km)
    cap, opex, total = _tco_parts(node_count, length_km, opex_share, book, opex_npv(book))
    if users == 0:
        per_user = annualized = monthly = None
    else:
        per_user, annualized, monthly = _per_user_tco(total, users, book.assessment_years)
    return CostBreakdown(
        capex_usd=cap,
        opex_npv_usd=opex,
        tco_usd=total,
        users=users,
        tco_per_user_usd=per_user,
        annualized_per_user_usd=annualized,
        monthly_per_user_usd=monthly,
    )
