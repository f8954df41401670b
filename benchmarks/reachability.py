"""Which function lines of ``src/repro`` the benchmark and the CLI never call.

    PYTHONPATH=src python benchmarks/reachability.py

One profile hook (``sys.setprofile`` + ``threading.setprofile``)
records every Python function entered while this one process runs the
frozen ``benchmarks/e2e/run.py --smoke`` of each workload in its traced
form (front door, stores and kernels in-process), the ``lifecycle``
workload's end-to-end form (build, feed, crash, reopen), and every
``repro`` CLI command but ``serve`` (which runs until SIGTERM; the
traced runs drive its front door) over a scratch store.  A function's
lines are the distinct line numbers of its code object (class bodies,
which run at import, are not functions); the report is the share of
them in functions never called, per package.  Code in
child processes (the killed lifecycle writer) is
not seen, so each share is an upper bound.  Exits non-zero if a run
or a command failed, or if the total count of uncalled lines exceeds
``MAX_UNCALLED_LINES`` (a ratchet: lower it when code goes, never
raise it to let code in).  The gate is a count, not the share it
prints: deleting called code raises the share while leaving every
uncalled line where it was.
"""

import contextlib
import inspect
import io
import os
import sys
import tempfile
import threading
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.realpath(os.path.join(HERE, "..", "src"))
sys.path.insert(0, os.path.join(HERE, "e2e"))
sys.path.insert(0, SRC)

import harness  # noqa: E402
import run  # noqa: E402

from repro.cli import main as cli  # noqa: E402
from repro.datasets import dblp_tree  # noqa: E402
from repro.xmlio import write_xml  # noqa: E402

#: ceiling on the total count of uncalled function lines; it may only
#: go down.  Three functions run or not depending on timing, 22 lines
#: in all: ``ForestIndex.refreeze`` (5, the background refreeze
#: worker), ``edits/reduce.py:_untouched_between`` (16, called only
#: for the logs the time-bounded window draws) and the list
#: comprehension in ``FrontDoor.drain`` (1).  The ceiling is the
#: lowest count of ten runs when it was set (947 of 6,125 lines, after
#: the paper's reference stack moved to ``tests/support/reference``)
#: plus those 22, the most a run can read.
MAX_UNCALLED_LINES = 969

CALLED = set()


def hook(frame, event, arg):
    if event == "call":
        CALLED.add(frame.f_code)


def functions(code):
    """Every function code object nested in ``code``.  Class bodies are
    walked for their methods but not yielded: a class body runs when
    its module is imported, before the hook is installed, so it could
    never count as called."""
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            if const.co_flags & inspect.CO_OPTIMIZED:
                yield const
            yield from functions(const)


def cli_smoke(scratch):
    """The argv lists of every CLI command that failed."""
    docs = []
    for seed in range(3):
        docs.append(os.path.join(scratch, f"doc{seed}.xml"))
        with open(docs[-1], "w", encoding="utf-8") as handle:
            handle.write(write_xml(dblp_tree(6, seed=seed)))
    edits, feed = (os.path.join(scratch, name) for name in ("edits.log", "feed"))
    with open(feed, "w", encoding="utf-8") as handle:
        handle.write(f"0 {docs[2]}\n")
    store = ["store", "--dir", os.path.join(scratch, "store")]
    quiet = io.StringIO()
    with open(edits, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        with contextlib.redirect_stderr(quiet):
            cli(["diff", docs[0], docs[1]])
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        return [argv for argv in (
            ["index", docs[0], "--dump", "3"], ["index", docs[0], "--stream"],
            ["distance", docs[0], docs[1]], store + ["create"],
            store + ["add", "0", docs[0]], store + ["bulk", docs[1], docs[2]],
            store + ["edit", "0", edits], store + ["lookup", docs[1]],
            store + ["query", docs[1], "--has-label", "author", "--explain"],
            store + ["list"], store + ["show", "0"], store + ["duplicates"],
            store + ["stats", "--metrics"], store + ["watch", docs[1], "--feed", feed],
            store + ["soak", "--threads", "2", "--duration", "1"],
            store + ["verify"], ["metrics", "--dir", store[2], "--query", docs[0]],
        ) if cli(argv)]


def main() -> int:
    names = [entry["name"] for entry in harness.declared()["workloads"]]
    sys.setprofile(hook)
    threading.setprofile(hook)
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as scratch:
        runs = [["--workload", name, "--trace", "1"] for name in names]
        runs.append(["--workload", "lifecycle", "--trace", "0"])
        with contextlib.redirect_stdout(io.StringIO()):
            failed = [argv for argv in runs if run.main(argv + ["--smoke", "--out", scratch])]
        failed += cli_smoke(scratch)
    sys.setprofile(None)
    threading.setprofile(None)
    called = {
        (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_qualname)
        for code in CALLED
    }
    total, uncalled = Counter(), Counter()
    root = os.path.join(SRC, "repro")
    for directory, _, files in os.walk(root):
        for name in (name for name in files if name.endswith(".py")):
            path = os.path.join(directory, name)
            package = os.path.relpath(path, root).split(os.sep)[0].removesuffix(".py")
            with open(path, encoding="utf-8") as handle:
                module = compile(handle.read(), path, "exec")
            for code in functions(module):
                lines = len({line for _, _, line in code.co_lines() if line})
                total[package] += lines
                if (path, code.co_firstlineno, code.co_qualname) not in called:
                    uncalled[package] += lines
    print(f"{'package':<12} {'lines':>7} {'uncalled':>8} {'share':>6}")
    for package in sorted(total):
        share = uncalled[package] / total[package]
        print(f"{package:<12} {total[package]:>7} {uncalled[package]:>8} {share:>6.1%}")
    count = sum(uncalled.values())
    share = count / sum(total.values())
    print(f"{'total':<12} {sum(total.values()):>7} {count:>8} {share:>6.1%}")
    for argv in failed:
        print(f"FAILED: {' '.join(argv)}", file=sys.stderr)
    if count > MAX_UNCALLED_LINES:
        print(
            f"FAILED: {count} function lines uncalled, "
            f"ceiling {MAX_UNCALLED_LINES}",
            file=sys.stderr,
        )
        return 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
