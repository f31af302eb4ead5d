"""Workload mixes, seeded command lists and seeded input files.

A workload is a fixed *mix*: a list of command classes, each with a number
of copies per round.  The seed never changes the mix.  It changes the
commands: the scrambled input files they read, the `--squares`
selections, the `--vertex` of `channels`, and the order in which a round
issues its commands.  Scrambling keeps every cost the same:
it permutes the squares of a file, applies one row and one column
permutation to all of them, and relabels the symbols of each square on its
own.  These are isotopies, so orthogonality, multiplicities and edge counts
do not change, and neither does the work the program does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ADDITIVE = "additive"
SHIFT = "shift"

# Command class: (kind, family, order, t, format, copies per round).
# kind is one of gen, verify, stats, graph, channels, reject (a graph
# command on a non-orthogonal pair, expected to fail with exit 1).
MixEntry = tuple[str, str, int, int, str, int]

# The small share of other command kinds in each mix keeps every layer's
# per-layer timer measured on every workload; it costs under 2 % of the
# round on the workloads where that layer is not the subject.
_SPRINKLE_ADDITIVE: list[MixEntry] = [
    ("gen", ADDITIVE, 7, 0, "", 1),
    ("stats", ADDITIVE, 7, 3, "", 1),
    ("graph", ADDITIVE, 7, 3, "dot", 1),
    ("graph", ADDITIVE, 7, 3, "edges", 1),
    ("graph", ADDITIVE, 7, 3, "json", 1),
    ("channels", ADDITIVE, 7, 3, "", 1),
]

MIXES: dict[str, list[MixEntry]] = {
    # verify --t T on additive families at prime orders 11..23, T from 2
    # up to where C(n-1, T) reaches the low thousands.
    "verify-additive": [
        ("verify", ADDITIVE, 11, 2, "", 2),
        ("verify", ADDITIVE, 11, 3, "", 2),
        ("verify", ADDITIVE, 11, 4, "", 2),
        ("verify", ADDITIVE, 11, 5, "", 2),
        ("verify", ADDITIVE, 13, 2, "", 2),
        ("verify", ADDITIVE, 13, 3, "", 4),
        ("verify", ADDITIVE, 13, 4, "", 2),
        ("verify", ADDITIVE, 13, 5, "", 2),
        ("verify", ADDITIVE, 17, 2, "", 2),
        ("verify", ADDITIVE, 17, 3, "", 2),
        ("verify", ADDITIVE, 17, 4, "", 1),
        ("verify", ADDITIVE, 19, 2, "", 2),
        ("verify", ADDITIVE, 19, 3, "", 5),
        ("verify", ADDITIVE, 23, 2, "", 2),
        ("verify", ADDITIVE, 23, 3, "", 1),
    ] + _SPRINKLE_ADDITIVE,
    # gen, stats, graph in three formats and channels at orders 31..61,
    # plus one order-101, t=100 command (1.01 M edges) per round.
    "analyze-additive": [
        ("verify", ADDITIVE, 7, 3, "", 1),
        ("gen", ADDITIVE, 31, 0, "", 2),
        ("gen", ADDITIVE, 43, 0, "", 2),
        ("gen", ADDITIVE, 61, 0, "", 2),
        ("graph", ADDITIVE, 31, 5, "json", 4),
        ("channels", ADDITIVE, 37, 10, "", 3),
        ("stats", ADDITIVE, 31, 10, "", 4),
        ("graph", ADDITIVE, 31, 20, "edges", 5),
        ("graph", ADDITIVE, 31, 30, "dot", 5),
        ("graph", ADDITIVE, 41, 10, "dot", 5),
        ("channels", ADDITIVE, 47, 46, "", 5),
        ("stats", ADDITIVE, 37, 20, "", 3),
        ("graph", ADDITIVE, 43, 42, "edges", 3),
        ("graph", ADDITIVE, 37, 36, "json", 2),
        ("channels", ADDITIVE, 61, 60, "", 3),
        ("channels", ADDITIVE, 101, 100, "", 1),
    ],
    # The same command kinds on shift families (n+1 prime): every pair
    # fails, every triple passes, and the graphs carry parallel edges.
    "shift-family": [
        ("verify", SHIFT, 10, 2, "", 3),
        ("verify", SHIFT, 12, 2, "", 3),
        ("stats", SHIFT, 22, 3, "", 3),
        ("graph", SHIFT, 22, 5, "dot", 3),
        ("verify", SHIFT, 10, 3, "", 2),
        ("gen", SHIFT, 40, 0, "", 1),
        ("graph", SHIFT, 30, 3, "edges", 2),
        ("channels", SHIFT, 30, 20, "", 2),
        ("verify", SHIFT, 16, 2, "", 3),
        ("verify", SHIFT, 12, 3, "", 6),
        ("stats", SHIFT, 30, 10, "", 2),
        ("reject", SHIFT, 40, 2, "edges", 1),
        ("graph", SHIFT, 28, 12, "json", 2),
        ("verify", SHIFT, 18, 2, "", 2),
        ("gen", SHIFT, 60, 0, "", 1),
        ("verify", SHIFT, 22, 2, "", 2),
        ("reject", SHIFT, 58, 2, "dot", 1),
        ("verify", SHIFT, 16, 3, "", 1),
        ("stats", SHIFT, 40, 20, "", 1),
        ("graph", SHIFT, 40, 30, "dot", 1),
        ("graph", SHIFT, 46, 20, "json", 1),
        ("verify", SHIFT, 28, 2, "", 2),
        ("channels", SHIFT, 60, 59, "", 2),
        ("verify", SHIFT, 30, 2, "", 1),
        ("graph", SHIFT, 52, 40, "edges", 1),
        ("stats", SHIFT, 58, 57, "", 1),
    ],
}

# Small orders for the harness self-test: every command kind, seconds.
TINY_MIXES: dict[str, list[MixEntry]] = {
    "verify-additive": [
        ("verify", ADDITIVE, 5, 2, "", 2),
        ("verify", ADDITIVE, 7, 3, "", 2),
    ] + _SPRINKLE_ADDITIVE,
    "analyze-additive": [
        ("gen", ADDITIVE, 11, 0, "", 1),
        ("stats", ADDITIVE, 11, 10, "", 1),
        ("graph", ADDITIVE, 11, 4, "dot", 1),
        ("graph", ADDITIVE, 13, 12, "edges", 1),
        ("graph", ADDITIVE, 11, 3, "json", 1),
        ("channels", ADDITIVE, 13, 6, "", 2),
        ("verify", ADDITIVE, 7, 3, "", 1),
    ],
    "shift-family": [
        ("verify", SHIFT, 6, 2, "", 2),
        ("verify", SHIFT, 6, 3, "", 1),
        ("gen", SHIFT, 10, 0, "", 1),
        ("stats", SHIFT, 10, 4, "", 1),
        ("graph", SHIFT, 6, 3, "dot", 1),
        ("graph", SHIFT, 10, 5, "edges", 1),
        ("graph", SHIFT, 6, 4, "json", 1),
        ("channels", SHIFT, 10, 6, "", 1),
        ("reject", SHIFT, 10, 2, "edges", 1),
    ],
}

WORKLOADS = tuple(MIXES)
FILE_COPIES = 2          # scrambled copies per input family; order 101 has one


@dataclass(frozen=True)
class InputFile:
    """A seeded, scrambled family written as a square file for one run."""

    name: str                        # file name inside the run's work directory
    family: str
    order: int
    squares: tuple[tuple[tuple[int, ...], ...], ...]

    def text(self) -> str:
        n, m = self.order, len(self.squares)
        blocks = ["\n".join(" ".join(map(str, row)) for row in square)
                  for square in self.squares]
        return f"{n} {m}\n" + "\n\n".join(blocks) + "\n"


@dataclass(frozen=True)
class Command:
    kind: str
    family: str
    order: int
    t: int
    fmt: str
    file: InputFile | None
    squares: tuple[int, ...] = ()    # explicit --squares selection
    vertex: tuple[int, int] = (0, 0)  # (part, symbol) for channels

    @property
    def mix_key(self) -> tuple:
        """The command class: identical for every seed."""
        return (self.kind, self.family, self.order, self.t, self.fmt)

    def argv(self, workdir: str) -> list[str]:
        if self.kind == "gen":
            return ["gen", "--order", str(self.order), "--method", self.family]
        path = f"{workdir}/{self.file.name}"
        argv = ["verify" if self.kind == "verify" else
                "graph" if self.kind in ("graph", "reject") else self.kind,
                "--t", str(self.t), "--in", path]
        if self.squares:
            argv += ["--squares", ",".join(map(str, self.squares))]
        if self.fmt:
            argv += ["--format", self.fmt]
        if self.kind == "channels":
            argv += ["--vertex", f"{part_label(self.vertex[0])}:{self.vertex[1]}"]
        return argv

    @property
    def label(self) -> str:
        """argv with the work directory left out; the key for digests."""
        return " ".join(self.argv("."))


def part_label(index: int) -> str:
    """0 -> A, 25 -> Z, 26 -> AA, as the program names parts."""
    label = ""
    while True:
        label = chr(ord("A") + index % 26) + label
        index = index // 26 - 1
        if index < 0:
            return label


def gen_families(mix: list[MixEntry]) -> list[tuple[str, int]]:
    """The (family, order) pairs whose files the set-up generates."""
    needed = {(family, order) for kind, family, order, *_ in mix if kind != "gen"}
    return sorted(needed, key=lambda fo: (fo[1], fo[0]))


def parse_gen_output(text: str) -> list[list[list[int]]]:
    """Read the program's square file text; the format is tiny and fixed."""
    lines = text.split("\n")
    n, m = map(int, lines[0].split())
    squares = []
    for k in range(m):
        start = 1 + k * (n + 1)
        squares.append([list(map(int, line.split())) for line in lines[start:start + n]])
    return squares


def scramble(squares: list[list[list[int]]], rng: random.Random) -> tuple:
    """Shuffle the squares, permute rows and columns of all of them alike,
    and relabel each square's symbols on its own."""
    n = len(squares[0])
    order = list(range(len(squares)))
    rng.shuffle(order)
    rows = list(range(n))
    cols = list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    out = []
    for k in order:
        relabel = list(range(1, n + 1))
        rng.shuffle(relabel)
        relabel.insert(0, 0)
        square = squares[k]
        out.append(tuple(tuple(relabel[square[r][c]] for c in cols) for r in rows))
    return tuple(out)


def make_files(gen_texts: dict[tuple[str, int], str], rng: random.Random) -> dict:
    """Scrambled copies of each generated family, keyed by (family, order)."""
    files = {}
    for (family, order), text in sorted(gen_texts.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        base = parse_gen_output(text)
        copies = 1 if order > 61 else FILE_COPIES
        files[(family, order)] = [
            InputFile(f"{family[0]}{order}-{c}.txt", family, order, scramble(base, rng))
            for c in range(copies)]
    return files


def build_round(mix: list[MixEntry], files: dict, rng: random.Random) -> list[Command]:
    """One round of the mix: seeded choices, then a seeded order."""
    commands = []
    for kind, family, order, t, fmt, copies in mix:
        for copy in range(copies):
            if kind == "gen":
                commands.append(Command(kind, family, order, t, fmt, None))
                continue
            choices = files[(family, order)]
            infile = choices[copy % len(choices)]
            size = len(infile.squares)
            squares: tuple[int, ...] = ()
            vertex = (0, 0)
            if kind in ("graph", "reject"):
                squares = tuple(rng.sample(range(1, size + 1), t))
            elif kind == "channels":
                vertex = (rng.randrange(t), rng.randint(1, order))
            commands.append(Command(kind, family, order, t, fmt, infile, squares, vertex))
    rng.shuffle(commands)
    return commands
