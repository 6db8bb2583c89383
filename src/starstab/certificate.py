"""Certificates: the persisted record of one ``certify`` run and its file format.

A certificate file is one JSON object holding every field of
:class:`Certificate` under its own name, keys sorted, indented by two spaces.
Reading refuses, with ``SchemaMismatchError``, a file longer than
``_MAX_CERTIFICATE_BYTES``, one that is not JSON text or not an object, a
schema version other than ``SCHEMA_VERSION`` (schema "1" held a wall time;
``certify`` remakes such a file), keys other than the fields, and a field not
of its annotation's JSON type (code lists hold strings only).

The package imports this module on first use, because ``dataclasses`` would
otherwise add to the start-up of every CLI call.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import SchemaMismatchError

SCHEMA_VERSION = "2"

# Above the longest certificate certify can write: a refutation lists one
# census's stable classes, about 1.6 MB at most (4,613 order-64 codes).
_MAX_CERTIFICATE_BYTES = 4 << 20

# The JSON value types each Certificate field accepts, by its annotation text.
_JSON_TYPES = {"str": (str,), "int": (int,), "bool": (bool,), "tuple[str, ...]": (list,)}


@dataclass(frozen=True)
class Certificate:
    """Persisted record of one exhaustive verification run."""

    schema_version: str
    r: int
    k: int
    claimed_value: int
    minimality_ok: bool
    candidates_below: int
    extremal_found: tuple[str, ...]
    extremal_expected: tuple[str, ...]
    match: bool


def write_certificate(cert: Certificate, path: str | Path) -> str:
    """Write ``cert`` to ``path`` in the certificate file format and return the text written."""
    text = json.dumps(dataclasses.asdict(cert), indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text)
    return text


def read_certificate(path: str | Path) -> Certificate:
    with open(path, "rb") as f:
        data = f.read(_MAX_CERTIFICATE_BYTES + 1)
    if len(data) > _MAX_CERTIFICATE_BYTES:
        raise SchemaMismatchError(f"certificate is longer than {_MAX_CERTIFICATE_BYTES} bytes")
    try:
        payload = json.loads(data.decode())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise SchemaMismatchError(f"certificate is not JSON text: {exc}") from None
    if not isinstance(payload, dict):
        raise SchemaMismatchError(f"certificate is a JSON {type(payload).__name__}, not an object")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaMismatchError(
            f"unsupported certificate schema {version!r}, expected {SCHEMA_VERSION!r}")
    fields = dataclasses.fields(Certificate)
    names = {f.name for f in fields}
    for kind, keys in (("missing", names - payload.keys()), ("unknown", payload.keys() - names)):
        if keys:
            raise SchemaMismatchError(f"certificate {kind} fields: {sorted(keys)}")
    values = {}
    for f in fields:
        value = payload[f.name]
        if type(value) not in _JSON_TYPES[f.type] or (
                type(value) is list and any(type(code) is not str for code in value)):
            raise SchemaMismatchError(f"certificate field {f.name} has the wrong type: {value!r}")
        values[f.name] = tuple(value) if type(value) is list else value
    return Certificate(**values)
