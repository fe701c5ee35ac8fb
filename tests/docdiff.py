"""A field-level diff of JSON documents, for the pinned ``srq verify`` documents.

The pinned documents are compared byte for byte; this module only says what
moved when they differ.  ``moved`` walks two parsed documents and lists each
path whose value differs, with its old and new value.  Leaves compare by
their JSON text, so ``-0.0`` and ``0.0`` differ, NaN equals NaN, and ``1``,
``1.0`` and ``true`` are three values.

Beside the four documents it pins the SHA-256 of each ``run_all(s, 200)``
document for s = 0..39 (``DIGESTS``), as the CLI's ``--json`` form prints it:
forty seeds of one sample count, which the four documents do not cover.

Run as a script, it recomputes the pinned documents with
``python -S -m srq.cli verify all --seed S --samples N --json`` and prints, for
each, how many paths moved per suite and per property, then the seeds whose
digest moved::

    python tests/docdiff.py               # report only
    python tests/docdiff.py --regenerate  # report, then rewrite the documents and digests
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys

DATA = pathlib.Path(__file__).resolve().parent / "data"
SRC = DATA.parent.parent / "src"
#: The pinned documents' (seed, samples).
PINNED = ((42, 200), (7, 1000), (99, 50), (11, 50))

#: The seeds and the sample count of the pinned digests, and their file.
DIGEST_SEEDS, DIGEST_SAMPLES = range(40), 200
DIGESTS = DATA / "run_all_digests_seeds0-39_samples200.json"

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


def pinned(seed: int, samples: int) -> pathlib.Path:
    return DATA / f"verify_all_seed{seed}_samples{samples}.json"


def summary(name: str, old_text: str, new_text: str) -> str:
    """How many paths of a ``run_all`` document moved: one line for the document,
    then one per suite with its count per property.  Fields of a suite's report
    outside ``properties`` count under ``report``, fields outside every suite
    under the suite ``document``."""
    old, new = json.loads(old_text), json.loads(new_text)
    paths = [path for path, _, _ in moved(old, new)]
    counts = {}
    for path in paths:
        found = re.match(r"suites\[(\d+)\](?:\.properties\.([^.\[]+))?", path)
        if found:
            i = int(found[1])
            suite = (new if i < len(new["suites"]) else old)["suites"][i]["suite"]
            prop = found[2] or "report"
        else:
            suite, prop = "document", "report"
        per_suite = counts.setdefault(suite, {})
        per_suite[prop] = per_suite.get(prop, 0) + 1
    lines = [f"{name}: {len(paths)} moved paths"]
    for suite, per_suite in counts.items():
        props = ", ".join(f"{prop} {n}" for prop, n in per_suite.items())
        lines.append(f"  {suite}: {sum(per_suite.values())} ({props})")
    return "\n".join(lines)


def recompute(seed: int, samples: int) -> str:
    """The document as ``srq verify all --json`` prints it, from the source tree,
    without site-packages."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-S", "-m", "srq.cli", "verify", "all",
                           "--seed", str(seed), "--samples", str(samples), "--json"],
                          env=env, capture_output=True, text=True, check=True).stdout


def digests(run_all) -> dict:
    """``{"seed": SHA-256}`` of the ``--json`` document of ``run_all(seed, DIGEST_SAMPLES)``
    for each seed of ``DIGEST_SEEDS``, in seed order."""
    return {str(seed): hashlib.sha256((json.dumps(run_all(seed, DIGEST_SAMPLES), sort_keys=True)
                                       + "\n").encode()).hexdigest()
            for seed in DIGEST_SEEDS}


def digests_text(found: dict) -> str:
    """The text of the digest file for the digests ``found``."""
    return json.dumps({"samples": DIGEST_SAMPLES, "sha256": found}, indent=1) + "\n"


def moved_seeds(pinned_text: str, found: dict) -> list:
    """The seeds whose digest differs from the pinned file's, as ints."""
    old = json.loads(pinned_text)["sha256"]
    return [int(seed) for seed in found if old.get(seed) != found[seed]]


def recompute_digests() -> dict:
    """``digests`` computed from the source tree, without site-packages."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); from docdiff import digests; "
            "from srq.verify import run_all; print(json.dumps(digests(run_all)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code, str(DATA.parent)],
                         env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Count the moved paths of the pinned "
                                     "verify documents, and optionally rewrite them.")
    parser.add_argument("--regenerate", action="store_true",
                        help="rewrite each pinned document and the digests with their "
                        "recomputed text")
    args = parser.parse_args(argv)
    for seed, samples in PINNED:
        path = pinned(seed, samples)
        text = recompute(seed, samples)
        print(summary(path.name, path.read_text(), text))
        if args.regenerate:
            path.write_text(text)
    found = recompute_digests()
    seeds = moved_seeds(DIGESTS.read_text(), found)
    print(f"{DIGESTS.name}: {len(seeds)} of {len(found)} seeds moved"
          + (f" ({', '.join(map(str, seeds))})" if seeds else ""))
    if args.regenerate:
        DIGESTS.write_text(digests_text(found))


if __name__ == "__main__":
    main()
