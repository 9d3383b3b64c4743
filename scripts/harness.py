"""The benchmark scripts' A/B harness: each polarlink tree in an interpreter
of its own.

A script serves one tree's calls from a fresh interpreter of itself, run
with --serve and the tree's directory first on PYTHONPATH, and the script's
own process sends it requests over a pipe, one JSON line each way, so no
import, cache or allocator state of one tree reaches another's timings.  A directory
holding no polarlink package, or whose interpreter imports polarlink from
elsewhere, is refused: no tree is timed against itself by mistake.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from contextlib import ExitStack, closing, contextmanager, nullcontext
from pathlib import Path

import numpy as np

import polarlink

THIS = Path(__file__).resolve().parents[1] / "src"  # the tree these scripts belong to


class Interpreter:
    """The polarlink package under src, served by ``script --serve *args``;
    a call sends the script's handler one request and returns its reply."""

    def __init__(self, script, src, *args):
        self.src, root = src, Path(src).resolve()
        if not (root / "polarlink" / "__init__.py").is_file():
            raise SystemExit(f"no polarlink package under {src}")
        path = os.pathsep.join(filter(None, [str(root), os.environ.get("PYTHONPATH")]))
        self.proc = subprocess.Popen([sys.executable, str(script), "--serve", *map(str, args)],
                                     env={**os.environ, "PYTHONPATH": path},
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        served = Path(self.reply())  # serve's first line
        if not served.is_relative_to(root):
            self.close()
            raise SystemExit(f"the interpreter serving {src} imported polarlink from {served}")

    def reply(self):
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"the interpreter serving {self.src} exited")
        return json.loads(line)

    def __call__(self, *request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self.reply()

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


@contextmanager
def interpreters(script, against, *args):
    """The Interpreters of script for this tree and, if given, the one under
    against, closed on the way out."""
    with ExitStack() as stack:
        yield [stack.enter_context(closing(Interpreter(script, src, *args)))
               for src in [THIS] + ([against] if against else [])]


def in_turn(trees, r):
    """(index, tree) of trees in round r's order: the lead switches every round."""
    order = list(enumerate(trees))
    return order if r % 2 == 0 else order[::-1]


def serve(handler):
    """The --serve side: the file of the polarlink imported here, then
    handler(*request)'s reply to each request on stdin."""
    print(json.dumps(str(Path(polarlink.__file__).resolve())), flush=True)
    for line in sys.stdin:
        print(json.dumps(handler(*json.loads(line))), flush=True)


def parser(doc):
    """An argument parser with the options both scripts share."""
    args = argparse.ArgumentParser(description=doc.splitlines()[0])
    args.add_argument("--against", metavar="DIR",
                      help="the directory holding another tree's polarlink package")
    args.add_argument("--out", help="write the JSON here instead of stdout")
    args.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    return args


def host():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "processor": platform.processor()}


def emit(report, out):
    """report as JSON, into the file out if given, else to stdout."""
    with open(out, "w") if out else nullcontext(sys.stdout) as fh:
        print(json.dumps(report, indent=1), file=fh)
