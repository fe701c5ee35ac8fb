"""A field-level diff of JSON documents, for the pinned ``srq verify`` documents.

The pinned documents are compared byte for byte; this module only says what
moved when they differ.  ``moved`` walks two parsed documents and lists each
path whose value differs, with its old and new value.  Leaves compare by
their JSON text, so ``-0.0`` and ``0.0`` differ, NaN equals NaN, and ``1``,
``1.0`` and ``true`` are three values.
"""

import json
import math

#: The value of a path that one of the documents does not have.
ABSENT = "<absent>"


def moved(old, new, path: str = "") -> list:
    """``(path, old, new)`` for each leaf that differs, in document order.

    A path joins dict keys with ``.`` and list indices with ``[i]``; a key or
    an index that only one side has reads ``ABSENT`` on the other.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in list(old) + [k for k in new if k not in old]:
            out += moved(old.get(key, ABSENT), new.get(key, ABSENT),
                         f"{path}.{key}" if path else key)
        return out
    if isinstance(old, list) and isinstance(new, list):
        out = []
        for i in range(max(len(old), len(new))):
            out += moved(old[i] if i < len(old) else ABSENT,
                         new[i] if i < len(new) else ABSENT, f"{path}[{i}]")
        return out
    if json.dumps(old) == json.dumps(new):
        return []
    return [(path or "$", old, new)]


def _change(old, new) -> str:
    """`` (relative change ±r)`` between two finite numbers, or nothing."""
    numbers = [v for v in (old, new) if isinstance(v, (int, float)) and not isinstance(v, bool)]
    if len(numbers) < 2 or not all(math.isfinite(v) for v in numbers) or old == 0:
        return ""
    return f" (relative change {(new - old) / abs(old):+.3g})"


def report(old_text: str, new_text: str) -> str:
    """One line per moved path, ``path: old -> new``, or a note that the two
    texts differ only in their layout."""
    lines = [f"{path}: {json.dumps(o)} -> {json.dumps(n)}{_change(o, n)}"
             for path, o, n in moved(json.loads(old_text), json.loads(new_text))]
    return "\n".join(lines) or "no field moved: the texts differ only in layout"


def assert_same_document(text: str, pinned) -> None:
    """Fail unless ``text`` is byte for byte the pinned file, naming each moved path."""
    expected = pinned.read_text()
    if text != expected:
        raise AssertionError(f"{pinned.name} moved:\n{report(expected, text)}")

