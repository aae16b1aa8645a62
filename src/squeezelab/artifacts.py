"""How a run file reaches disk: the package's one writer and its text renderers.

A file bound for path is written under partial_path(path), UTF-8 with "\\n"
line ends, and renamed into place by publish_partial, so a cut write leaves
any earlier file at path whole. JSON is json_text's and CSV is csv_text's;
only checkpoints and trace.jsonl's records render their own text.
"""
from __future__ import annotations

import json
import os

PARTIAL_SUFFIX = ".partial"


def partial_path(path) -> str:
    """The name a file bound for path is written under until it is whole."""
    return os.fspath(path) + PARTIAL_SUFFIX


def publish_partial(path) -> None:
    """Rename path's partial file to path, replacing any earlier file."""
    os.replace(partial_path(path), path)


def write_partial(path, text: str) -> None:
    """Write text to partial_path(path), for publish_partial to put in place."""
    with open(partial_path(path), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_whole(path, text: str) -> None:
    """Write text to path's partial file and publish it."""
    write_partial(path, text)
    publish_partial(path)


def json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def csv_text(header, rows) -> str:
    """Header and rows as CSV lines: floats as repr(float(v)), all else as str(v)."""
    return "".join(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
                   + "\n" for row in (header, *rows))
