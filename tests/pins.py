"""The pin ledger: every pinned output of the tree, in ``tests/pins.json``.

    python -m tests.pins            # print each pin that moved; exit 1 if any did
    python -m tests.pins --write    # rewrite tests/pins.json from the current tree

Run from the root of a checkout; the package is imported from its
``src/``. The ledger maps names to values, grouped by the golden test
that reads them:

- ``keys``: the cache-key texts ``PITCH_KEY``, ``FORMANT_KEY`` and
  ``FRONTEND_KEY`` (``test_annotation_golden``, ``test_frontend_golden``);
- ``annotation``: the sha256 of each golden input's f0, F1 and F2
  tracks, and of the "vowel" input's cache line (``test_annotation_golden``);
- ``frontend``: the sha256 of each golden WAV's token grids
  (``test_frontend_golden``);
- ``corpus``: the sha256 of a synthetic corpus's WAVs (``test_pipeline``);
- ``walkthrough``: the first line of ``infer`` and the sha256 of each file
  the README walkthrough writes, and of its corpus WAVs (``test_readme``).

Each test computes its values with the function that ``compute`` calls
for its group. The values were computed with numpy 2.4 and OpenBLAS 0.3
on x86-64; another FFT, BLAS or LAPACK build may differ in the last bit.
A change that moves a tracker or frontend pin must also edit the key
text that invalidates the cached outputs it changes.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

PATH = Path(__file__).resolve().with_name("pins.json")
PINS = json.loads(PATH.read_text(encoding="utf-8"))


def float64_digest(arrays) -> str:
    """sha256 over the little-endian float64 bytes of each array, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def corpus_digest(manifest) -> str:
    """sha256 of a manifest's WAV bytes, read in manifest order."""
    h = hashlib.sha256()
    for e in manifest:
        h.update(e.audio_path.read_bytes())
    return h.hexdigest()


def compute() -> dict:
    """The ledger's groups, with the values of the current tree."""
    # imported here: main puts the checkout's src/ on the path first, and
    # the golden test modules import this one
    from spoofnet import dsp, formants, pitch
    from spoofnet.synth import generate_synthetic_corpus
    from tests import readme_walkthrough, test_annotation_golden, test_frontend_golden
    from tests.test_pipeline import PINNED_CORPUS

    with tempfile.TemporaryDirectory(prefix="spoofnet-pins-") as tmp:
        return {
            "keys": {"PITCH_KEY": pitch.PITCH_KEY, "FORMANT_KEY": formants.FORMANT_KEY,
                     "FRONTEND_KEY": dsp.FRONTEND_KEY},
            "annotation": {"tracks": test_annotation_golden.track_digests(),
                           "vowel_line": test_annotation_golden.vowel_cache_line()[2]},
            "frontend": test_frontend_golden.token_digests(Path(tmp)),
            "corpus": corpus_digest(generate_synthetic_corpus(PINNED_CORPUS, Path(tmp) / "corpus")),
            "walkthrough": readme_walkthrough.run(Path(tmp) / "walkthrough"),
        }


def _leaves(tree, name: str = "") -> dict:
    """Each pin's value by its name: its group's names joined with '/'."""
    if not isinstance(tree, dict):
        return {name: tree}
    out = {}
    for key, value in tree.items():
        out.update(_leaves(value, f"{name}/{key}" if name else key))
    return out


def differences(pinned: dict, current: dict) -> list[tuple[str, object, object]]:
    """(name, pinned value, current value) of each pin that differs; a pin
    missing on one side has the value None there."""
    old, new = _leaves(pinned), _leaves(current)
    names = list(old) + [name for name in new if name not in old]
    return [(name, old.get(name), new.get(name)) for name in names
            if old.get(name) != new.get(name)]


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        raise SystemExit("usage: python -m tests.pins [--write]")
    sys.path.insert(0, str(PATH.parent.parent / "src"))
    current = compute()
    moved = differences(PINS, current)
    for name, pinned, now in moved:
        print(f"{name}\n  pinned  {pinned}\n  current {now}")
    print(f"{len(moved)} of {len(_leaves(current))} pins differ from {PATH.name}")
    if argv:
        PATH.write_text(json.dumps(current, indent=2) + "\n", encoding="utf-8")
    return 1 if moved and not argv else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
