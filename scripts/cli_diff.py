"""Explain the changed bytes between two `cli_bytes.py --keep` directories.

    PYTHONPATH=src python3 scripts/cli_bytes.py --keep old > /dev/null
    (in the other checkout)  ... --keep new > /dev/null
    python3 scripts/cli_diff.py old new

Pairs the commands of OLD and NEW by their line number and compares each
one's exit code, stdout, stderr and written files token by token, a token
being a number or a run of other text. Two numbers that differ by at most
1e-9 relative (|new - old| / max(1, |old|), the benchmark's REL_REF) are a
"digits" difference; any other difference, a missing file or a different
command is a "content" difference. Prints, per command kind (gen, solve,
classify, classify --oracle, sweep, assess), how many commands are
identical, differ in digits only, and differ in content, then one line per
content difference, naming its first differing token pair (at most
EXCERPT characters on each side of where they part). Exits 1 when any
command differs in content.
"""
import argparse
import os
import pathlib
import re
import sys
from collections import Counter
from itertools import zip_longest

REL_DIGITS = 1e-9
EXCERPT = 40   # characters shown on each side of a content difference
KINDS = ("gen", "solve", "classify", "classify --oracle", "sweep", "assess")
_NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def tokens(text: str) -> list[str]:
    """Alternating text and number tokens; odd positions are numbers."""
    return _NUMBER.split(text)


def _excerpt(token: str, at: int) -> str:
    """token cut to EXCERPT characters on each side of index `at`."""
    lo, hi = max(0, at - EXCERPT), at + EXCERPT
    return (("..." if lo else "") + token[lo:hi]
            + ("..." if hi < len(token) else ""))


def compare_text(old: str, new: str):
    """None when equal, "digits" when only numbers moved within
    REL_DIGITS, else the first differing (old, new) token pair, each cut
    to an excerpt around the first character where they differ. A text
    that runs out of tokens first reads as an empty token there."""
    digits = False
    for k, (x, y) in enumerate(zip_longest(tokens(old), tokens(new),
                                           fillvalue="")):
        if x == y:
            continue
        if k % 2 and x and y and abs(float(y) - float(x)) <= \
                REL_DIGITS * max(1.0, abs(float(x))):
            digits = True
            continue
        at = len(os.path.commonprefix([x, y]))
        return _excerpt(x, at), _excerpt(y, at)
    return "digits" if digits else None


def _parts(cmd: pathlib.Path) -> dict[str, str]:
    """Everything one command produced, by part name."""
    parts = {name: (cmd / name).read_text(errors="replace")
             for name in ("argv", "code", "stdout", "stderr")}
    for path in sorted((cmd / "files").iterdir()):
        parts["files/" + path.name] = path.read_text(errors="replace")
    return parts


def kind(argv: str) -> str:
    words = argv.split()
    return "classify --oracle" if "--oracle" in words else words[0]


def compare_command(old: pathlib.Path, new: pathlib.Path):
    """("identical" | "digits" | "content", detail of a content change)."""
    a, b = _parts(old), _parts(new)
    if a["argv"] != b["argv"] or a.keys() != b.keys():
        return "content", f"commands or files differ: {sorted(a)} {sorted(b)}"
    verdict = "identical"
    for name in a:
        got = compare_text(a[name], b[name])
        if got == "digits":
            verdict = "digits"
        elif got is not None:
            return "content", f"{name}: {got[0]!r} -> {got[1]!r}"
    return verdict, ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    args = parser.parse_args(argv)
    names = sorted(p.name for p in args.old.iterdir())
    if names != sorted(p.name for p in args.new.iterdir()):
        print("the two directories hold different command sets")
        return 1
    counts = {k: Counter() for k in KINDS}
    problems = []
    for name in names:
        verdict, detail = compare_command(args.old / name, args.new / name)
        argv_text = (args.old / name / "argv").read_text().strip()
        counts.setdefault(kind(argv_text), Counter())[verdict] += 1
        if verdict == "content":
            problems.append(f"{name} {argv_text}: {detail}")
    print(f"{'kind':<18} {'commands':>8} {'identical':>9} {'digits':>6} "
          f"{'content':>7}")
    for k, c in [*counts.items(), ("total", sum(counts.values(), Counter()))]:
        print(f"{k:<18} {c.total():>8} {c['identical']:>9} {c['digits']:>6} "
              f"{c['content']:>7}")
    for line in problems:
        print("content:", line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
