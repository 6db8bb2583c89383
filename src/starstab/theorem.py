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


class StabCase(NamedTuple):
    """Which regime an (r, k) instance falls into; boundary constants are
    carried along for even r and are None for odd r."""

    case_id: str
    k0: int | None
    k1: int | None


class StabResult(NamedTuple):
    r: int
    k: int
    case: StabCase
    value: int
    extremal_descriptors: tuple[str, ...]


def k1(r: int) -> int:
    """Lower boundary constant (r-1)^2 - 2 for even r; odd for even r."""
    if not isinstance(r, int) or r < 4 or r % 2:
        raise InvalidParameterError(f"boundary constants apply to even r >= 4, got {r}")
    return (r - 1) ** 2 - 2


def k0(r: int) -> int:
    """Upper boundary constant (r-1)^2 = k1 + 2 for even r: the first k of case 3."""
    return k1(r) + 2


def stab_case(r: int, k: int) -> StabCase:
    """Dispatch (r, k) to exactly one regime."""
    _check_star_size(r)
    _check_fault_budget(k)
    if r % 2:
        return StabCase(ODD_R, None, None)
    low, high = k1(r), k0(r)
    if k < low:
        case_id = EVEN_R_SMALL_K
    elif k == low:
        case_id = BOUNDARY_A
    elif k == low + 1:
        case_id = BOUNDARY_B
    elif k % 2:
        # high = low + 2 and low is odd, so every k left here is >= high.
        case_id = CASE_3
    else:
        case_id = CASE_4
    return StabCase(case_id, high, low)


def stab_value(r: int, k: int) -> int:
    """Minimum size of a k-fault star-stable graph on exactly r+k+1 vertices."""
    if stab_case(r, k).case_id in (CASE_3, CASE_4):
        # r + k is odd in case 3, so the floor is ((r+k)^2 - 1)/2.
        return (r + k) ** 2 // 2
    return (k + 1) * (2 * r + k) // 2


_DESCRIPTORS: dict[str, tuple[str, ...]] = {
    ODD_R: (CONSTRUCTION_G_RK,),
    EVEN_R_SMALL_K: (CONSTRUCTION_G_RK,),
    BOUNDARY_A: (CONSTRUCTION_G_RK, REGULAR_SURVIVOR),
    BOUNDARY_B: (CONSTRUCTION_G_RK, REGULAR_PLUS_TOTAL),
    CASE_3: (REGULAR_SURVIVOR,),
    CASE_4: (REGULAR_PLUS_TOTAL,),
}


def stab_result(r: int, k: int) -> StabResult:
    case = stab_case(r, k)
    return StabResult(r, k, case, stab_value(r, k), _DESCRIPTORS[case.case_id])


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
