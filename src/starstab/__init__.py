"""Star-graph fault tolerance at exact order.

Construct vertex-stable supergraphs by the Bruck-Cypher-Ho spare-vertex
method, decide stability exhaustively, evaluate the exact minimum size of a
stable graph on the smallest possible vertex count, generate the extremal
graphs, and certify minimality and extremal uniqueness by complete
isomorph-free enumeration at desk scale.
"""

from .canon import canonical_form
from .certify import certify, enumerate_graphs_by_edges, graphs_of_order_and_size
from .construct import (
    LabeledInstance,
    bch_construct,
    recovery_embedding,
    star_stable,
)
from .errors import (
    CapacityExceededError,
    Graph6ParseError,
    InvalidParameterError,
    SchemaMismatchError,
    StarstabError,
)
from .graph import (
    Graph,
    complement,
    complete,
    conjunction,
    decode_graph6,
    empty,
    encode_graph6,
    export_dot,
    from_edges,
    near_complete_regular,
    pad,
    star,
)
from .stability import (
    StabilityVerdict,
    is_stable_general,
    is_star_stable,
)
from .theorem import (
    StabResult,
    extremal_family,
    k0,
    k1,
    stab_result,
    stab_value,
)

__all__ = [
    "CapacityExceededError",
    "Certificate",
    "Graph",
    "Graph6ParseError",
    "InvalidParameterError",
    "LabeledInstance",
    "SchemaMismatchError",
    "StabResult",
    "StabilityVerdict",
    "StarstabError",
    "bch_construct",
    "canonical_form",
    "certify",
    "complement",
    "complete",
    "conjunction",
    "decode_graph6",
    "empty",
    "encode_graph6",
    "enumerate_graphs_by_edges",
    "export_dot",
    "extremal_family",
    "from_edges",
    "graphs_of_order_and_size",
    "is_stable_general",
    "is_star_stable",
    "k0",
    "k1",
    "near_complete_regular",
    "pad",
    "read_certificate",
    "recovery_embedding",
    "stab_result",
    "stab_value",
    "star",
    "star_stable",
    "write_certificate",
]


def __getattr__(name: str):
    # The certificate names load dataclasses, so they are imported on first
    # use instead of at the start of every CLI call (PEP 562).
    if name in ("Certificate", "read_certificate", "write_certificate"):
        from . import certificate

        return getattr(certificate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
