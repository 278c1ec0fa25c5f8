"""Run the README's command-line walkthrough and digest what it writes.

The ``spoofnet`` commands of the README's walkthrough (steps 1-6) run in
a given directory through ``spoofnet.cli.main``, with ``corpus.cfg`` and
``run.cfg`` taken from its heredocs. The commands' output is swallowed;
``run`` returns the first line of ``infer``, the sha256 of each file the
walkthrough writes and the sha256 of the corpus WAVs, read in manifest
order, so that a difference on the synthesis side shows on its own.
These are the "walkthrough" pins of ``tests/pins.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import shlex
from pathlib import Path

from spoofnet.cli import main
from spoofnet.manifest import load_manifest
from tests.pins import corpus_digest

README = Path(__file__).resolve().parent.parent / "README.md"
# the files each digest is taken of, relative to the walkthrough directory
DIGESTS = ("model.ckpt", "scores.jsonl", "report.json", "model.ckpt.history.jsonl",
           "cache/annotations.jsonl")
# the corpus that synth-corpus writes, whose WAVs get one digest
CORPUS_MANIFEST = "corpus/manifest.csv"


def walkthrough_script() -> str:
    """The shell script of the README's command-line walkthrough."""
    text = README.read_text(encoding="utf-8")
    return re.search(r"^## Command-line walkthrough$.*?^```bash\n(.*?)^```$", text,
                     flags=re.M | re.S).group(1)


def readme_heredocs() -> dict[str, str]:
    """The files the walkthrough writes with ``cat > <name> <<EOF``, by name."""
    return dict(re.findall(r"^cat > (\S+) <<EOF\n(.*?)^EOF$", walkthrough_script(),
                           flags=re.M | re.S))


def readme_commands() -> list[list[str]]:
    """The arguments of each ``spoofnet`` command of the walkthrough."""
    script = walkthrough_script().replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in script.splitlines()
            if line.startswith("spoofnet ")]


def run(workdir: Path) -> dict[str, str]:
    """Run the walkthrough in workdir, made if need be; its pins by name."""
    workdir.mkdir(exist_ok=True)
    for name, body in readme_heredocs().items():
        (workdir / name).write_text(body, encoding="utf-8")
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in readme_commands():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            if code != 0:
                raise SystemExit(f"spoofnet {argv[0]} exited {code}")
    finally:
        os.chdir(here)
    pins = {"infer": out.getvalue().splitlines()[0]}
    for name in DIGESTS:
        pins[name] = hashlib.sha256((workdir / name).read_bytes()).hexdigest()
    pins["corpus WAVs"] = corpus_digest(load_manifest(workdir / CORPUS_MANIFEST))
    return pins
