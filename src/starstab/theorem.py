"""Exact minimum size of star-stable graphs on the smallest vertex count.

For an r-leaf star pattern and fault budget k, among graphs on exactly
r+k+1 vertices the minimum number of edges of a k-fault-stable graph is

* (k+1)(2r+k)/2           for odd r, and for even r up to the boundary,
* ((r+k)^2 - 1)/2         for even r and odd k beyond the boundary,
* (r+k)^2 / 2             for even r and even k beyond the boundary,

where the boundary constants for even r are k1 = (r-1)^2 - 2 and
k0 = (r-1)^2. The extremal graphs are the spare-vertex construction, the
complement of a perfect matching, or the latter joined with one total vertex;
at k = k1 and k = k1 + 1 two distinct extremal graphs coexist.

``stab_result`` decides the regime once; the other functions read its record.
"""

from __future__ import annotations

from typing import NamedTuple

from .construct import star_stable
from .errors import InvalidParameterError
from .graph import (Graph, _check_fault_budget, _check_order, _check_star_size, complete,
                    conjunction, near_complete_regular)

ODD_R = "ODD_R"
EVEN_R_SMALL_K = "EVEN_R_SMALL_K"
BOUNDARY_A = "BOUNDARY_A"
BOUNDARY_B = "BOUNDARY_B"
CASE_3 = "CASE_3"
CASE_4 = "CASE_4"

CONSTRUCTION_G_RK = "CONSTRUCTION_G_RK"
REGULAR_SURVIVOR = "REGULAR_SURVIVOR"
REGULAR_PLUS_TOTAL = "REGULAR_PLUS_TOTAL"


class StabResult(NamedTuple):
    """The regime of (r, k), its value and extremal descriptors; k0 and k1 are None for odd r."""

    r: int
    k: int
    case: str
    k0: int | None
    k1: int | None
    value: int
    extremal_descriptors: tuple[str, ...]


def k1(r: int) -> int:
    """Lower boundary constant (r-1)^2 - 2 for even r; odd for even r."""
    if not isinstance(r, int) or r < 4 or r % 2:
        raise InvalidParameterError(f"boundary constants apply to even r >= 4, got {r!r}")
    return (r - 1) ** 2 - 2


def k0(r: int) -> int:
    """Upper boundary constant (r-1)^2 = k1 + 2 for even r: the first k of case 3."""
    return k1(r) + 2


def stab_result(r: int, k: int) -> StabResult:
    """Dispatch (r, k) to exactly one regime, with its value and extremal graphs."""
    r = _check_star_size(r)
    k = _check_fault_budget(k)
    value = (k + 1) * (2 * r + k) // 2
    if r % 2:
        return StabResult(r, k, ODD_R, None, None, value, (CONSTRUCTION_G_RK,))
    low, high = k1(r), k0(r)
    if k < low:
        case, descriptors = EVEN_R_SMALL_K, (CONSTRUCTION_G_RK,)
    elif k == low:
        case, descriptors = BOUNDARY_A, (CONSTRUCTION_G_RK, REGULAR_SURVIVOR)
    elif k == low + 1:
        case, descriptors = BOUNDARY_B, (CONSTRUCTION_G_RK, REGULAR_PLUS_TOTAL)
    elif k % 2:
        # Every k left is >= high, as low is odd; r + k is odd in case 3, so // floors.
        case, value, descriptors = CASE_3, (r + k) ** 2 // 2, (REGULAR_SURVIVOR,)
    else:
        case, value, descriptors = CASE_4, (r + k) ** 2 // 2, (REGULAR_PLUS_TOTAL,)
    return StabResult(r, k, case, high, low, value, descriptors)


def stab_case(r: int, k: int) -> str:
    """The regime id of (r, k)."""
    return stab_result(r, k).case


def stab_value(r: int, k: int) -> int:
    """Minimum size of a k-fault star-stable graph on exactly r+k+1 vertices."""
    return stab_result(r, k).value


def _realize(descriptor: str, r: int, k: int) -> Graph:
    if descriptor == CONSTRUCTION_G_RK:
        return star_stable(r, k)
    if descriptor == REGULAR_SURVIVOR:
        return near_complete_regular(r + k + 1)
    return conjunction(near_complete_regular(r + k), complete(1))


def extremal_family(r: int, k: int) -> list[Graph]:
    """All minimum-size stable graphs on r+k+1 vertices, one per iso class,
    in deterministic descriptor order."""
    descriptors = stab_result(r, k).extremal_descriptors
    _check_order(r + k + 1)
    return [_realize(d, r, k) for d in descriptors]
