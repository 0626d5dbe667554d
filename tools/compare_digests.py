"""Compare two listings of ``output_digest.py``, allowing the moves a change declares.

    python tools/compare_digests.py parent.txt head.txt tools/digest_moves.txt

The listings come from one corpus run on two trees.  ``digest_moves.txt``
names the outputs that the change moves on purpose, one per line as
``name reason``; blank lines and lines starting with ``#`` are skipped.  The
exit status is 1, with each offending name printed, when a name hashes
differently and is not listed, when a listed name hashes the same or is in
neither listing, or when the listings do not name the same outputs.
"""

import sys


def _listing(path: str) -> dict[str, str]:
    with open(path) as f:
        return dict(line.split() for line in f if line.strip())


def _moves(path: str) -> dict[str, str]:
    moves = {}
    with open(path) as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                name, _, reason = line.strip().partition(" ")
                moves[name] = reason.strip()
    return moves


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: compare_digests.py PARENT_LISTING HEAD_LISTING MOVES", file=sys.stderr)
        return 2
    parent, head, moves = _listing(argv[0]), _listing(argv[1]), _moves(argv[2])
    problems = [f"only in {side}: {name}"
                for side, this, other in (("parent", parent, head), ("head", head, parent))
                for name in this if name not in other]
    moved = {name for name in parent.keys() & head.keys() if parent[name] != head[name]}
    problems += [f"moved but not listed: {name}" for name in sorted(moved - moves.keys())]
    problems += [f"listed but not moved: {name}" for name in sorted(moves.keys() - moved)]
    for line in problems:
        print(line)
    print(f"{len(head)} outputs, {len(moved)} moved, {len(moves)} listed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
