"""Fingerprint the command line's output bytes on a fixed command set.

Runs 293 commands in-process through drotree.cli.main, on the water
analog (seed 0, gamma 0.95) and on the random instances 7,3,2 / 3,3,3 /
5,4,2 / 11,3,4 / 21,2,4. Per instance: `gen`; `solve` with each solver
and with --dump-lp; `classify` under both --c2-rule values, once with
--dot and once with --oracle; `sweep --gamma 0:1:0.25 --jobs 1`;
`assess` for every leaf (--paths) and every non-root node
(--realizations).

Each command prints one line: the exit code, the sha256 of stdout and of
stderr, name=sha256 of every file it wrote, then the command itself.
Two checkouts print the same lines exactly when their command-line
output is byte-identical, so one diff of

    PYTHONPATH=src python3 scripts/cli_bytes.py > bytes.txt

from each checks it. It takes about 6 seconds on a 2-vCPU host.

With --keep DIR it also saves what each command produced, in DIR/NNN/
(NNN its line number from 000): `argv` (the command), `code`, `stdout`,
`stderr` and `files/NAME` for each file it wrote. scripts/cli_diff.py
compares two such directories and says which changed bytes are digits.
"""
import argparse
import contextlib
import hashlib
import io
import os
import pathlib
import tempfile

from drotree.cli import main as cli_main
from drotree.tree import load_instance

INSTANCES = [("water", ["--water", "0", "--gamma", "0.95"])] + [
    ("random_" + spec.replace(",", "_"), ["--random", spec])
    for spec in ("7,3,2", "3,3,3", "5,4,2", "11,3,4", "21,2,4")]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(argv, written=(), keep=None) -> str:
    """Run one command; hash its stdout, stderr and `written` files, and
    save them under the directory `keep` when one is given."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    stdout, stderr = out.getvalue().encode(), err.getvalue().encode()
    files = {}
    for name in written:
        with open(name, "rb") as fh:
            files[name] = fh.read()
    if keep is not None:
        keep = pathlib.Path(keep)
        (keep / "files").mkdir(parents=True)
        (keep / "argv").write_text(" ".join(argv) + "\n")
        (keep / "code").write_text(f"{code}\n")
        (keep / "stdout").write_bytes(stdout)
        (keep / "stderr").write_bytes(stderr)
        for name, data in files.items():
            (keep / "files" / name).write_bytes(data)
    return " ".join([str(code), _sha(stdout), _sha(stderr),
                     *(f"{name}={_sha(data)}" for name, data in files.items()),
                     *argv])


def instance_commands(inst: str):
    """(argv, written files) of every command reading `inst`."""
    for solver in ("extensive", "benders", "both"):
        yield ["solve", inst, "--solver", solver], ()
    yield ["solve", inst, "--dump-lp", "x.lp"], ("x.lp",)
    for rule in ("c1_plus_c2", "c2_only"):
        yield ["classify", inst, "--c2-rule", rule, "--dot", "x.dot"], \
            ("x.dot",)
        yield ["classify", inst, "--c2-rule", rule, "--oracle"], ()
    yield ["sweep", inst, "--gamma", "0:1:0.25", "--jobs", "1"], ()
    tree = load_instance(inst)
    for leaf in tree.leaves():
        yield ["assess", inst, "--paths", leaf], ()
    for node in tree.nodes:
        if node.parent is not None:
            yield ["assess", inst, "--realizations", node.id], ()


def commands():
    """(argv, written files) of the whole set, each instance's `gen` first."""
    for name, gen_args in INSTANCES:
        inst = name + ".json"
        yield ["gen", *gen_args, "--out", inst], (inst,)
        yield from instance_commands(inst)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--keep", metavar="DIR",
                        help="also save each command's output under DIR")
    args = parser.parse_args(argv)
    keep = None if args.keep is None else pathlib.Path(args.keep).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for k, (cmd, written) in enumerate(commands()):
            print(fingerprint(cmd, written,
                              None if keep is None else keep / f"{k:03d}"),
                  flush=True)


if __name__ == "__main__":
    main()
