"""Deterministic CSV emission for experiment results.

Every table starts with a ``# config-hash: <hex>`` comment naming the
inputs that produced it (``config.resolved_config``), so a result file
can be matched to its inputs long after the run.  Floats are rendered to six
significant digits; reruns with the same configuration and seeds must
produce byte-identical bodies.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

__all__ = [
    "config_hash",
    "emit_csv",
    "format_field",
]


def config_hash(config: dict) -> str:
    """Hex digest of a configuration mapping.

    The mapping is canonicalized (sorted keys, no whitespace) before
    hashing so key order in the source document cannot change the hash.
    """
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def format_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def emit_csv(path, header: list[str], rows, config: dict,
             comments: tuple[str, ...] = ()) -> None:
    """Write one result table.

    ``rows`` is an iterable of sequences matching ``header``.  Extra
    ``comments`` lines (already formatted, without the leading ``# ``)
    are written after the config-hash line and before the header.  An
    empty ``rows`` still produces the header, so a no-data run leaves a
    parseable file behind.
    """
    buf = io.StringIO()
    buf.write(f"# config-hash: {config_hash(config)}\n")
    for line in comments:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"row has {len(row)} fields, header has {len(header)}")
        writer.writerow([format_field(v) for v in row])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())
