"""Byte-identity snapshot of the engine's user-visible output.

Runs `hodgerep.cli.main` in process over a fixed set of commands and prints
one line per command: a label and the SHA-256 of the exit code, stdout and
stderr.  Two checkouts whose outputs agree byte for byte print the same
lines, so a refactor that claims unchanged output is checked with

    python3 tools/snapshot.py --root OLD_CHECKOUT > old.txt
    python3 tools/snapshot.py > new.txt
    diff old.txt new.txt

`--root` names the checkout whose `src/` is imported (default: the one
holding this script).  The commands are:
  - `verify-paper --scope all` at ranks 8, 16 and 32 in json, markdown and csv;
  - each scope at rank 8, with and without `--strict`;
  - `classify --level 1` and `classify --level 3 --products` at rank 32,
    with and without `--dedupe`;
  - the rank-14 row digest in `bench/worker.py`'s form;
  - every inspect candidate of the benchmark's `inspect_seeded` stream for
    seeds 0 to 10, read from `bench/workloads.py` of the same checkout.
Standard library only; it takes about half a minute.
"""
import argparse
import contextlib
import hashlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(11)


def _run(argv):
    """SHA-256 of (exit code, stdout, stderr) of one in-process invocation."""
    import hodgerep.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hodgerep.cli.main(list(argv))
    blob = f"{code}\n{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _commands():
    """(label, argv) of every CLI command, in print order."""
    from hodgerep.expected import load_expected
    for rank in (8, 16, 32):
        for fmt in ("json", "markdown", "csv"):
            yield (f"verify all r{rank} {fmt}",
                   ["verify-paper", "--scope", "all", "--max-rank", str(rank),
                    "--format", fmt])
    for scope in load_expected().table_names("all"):
        for strict in ([], ["--strict"]):
            yield (f"verify {scope} r8 json{' strict' if strict else ''}",
                   ["verify-paper", "--scope", scope, "--max-rank", "8",
                    "--format", "json"] + strict)
    for level, extra in (("1", []), ("3", ["--products"])):
        for dedupe in ([], ["--dedupe"]):
            yield (f"classify level {level}{' products' if extra else ''} r32"
                   f"{' dedupe' if dedupe else ''}",
                   ["classify", "--level", level, "--max-rank", "32"] + extra + dedupe)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(HERE),
                        help="checkout whose src/ and bench/ are read")
    root = os.path.abspath(parser.parse_args(argv).root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import hodgerep
    import workloads
    import worker
    if not os.path.abspath(hodgerep.__file__).startswith(os.path.join(root, "src") + os.sep):
        raise SystemExit(f"hodgerep imported from {hodgerep.__file__}, not from {root}")

    for label, command in _commands():
        print(label, _run(command), flush=True)
    report = hodgerep.verify_paper(**workloads.R14)
    print("reconcile r14 rows", workloads.digest(worker._report_text(report)), flush=True)
    for seed in SEEDS:
        for k, command in enumerate(workloads.inspect_candidates(seed)):
            print(f"inspect seed {seed} #{k} {' '.join(command[1:])}", _run(command))
    return 0


if __name__ == "__main__":
    sys.exit(main())
