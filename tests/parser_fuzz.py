"""Seeded mutation fuzzing of every text parser.

Each seed document is mutated once per round (a byte flipped, inserted or
deleted; a line dropped, duplicated or swapped; an integer token made huge
or negative) and the mutant is read by every parser.  A parser may accept
the text or refuse it with a ValueError or OSError subclass, the classes the
command line turns into exit 2; anything else is a failure.  A certificate
that parses must also validate against its seed's graph to (bool, str).

Run as a script, it lowers its own address space to 1 GiB after its imports
(so a parser that sizes an allocation by the text fails instead of taking
the machine down), fuzzes, prints each failure and exits 1 if there was any:

    PYTHONPATH=src python tests/parser_fuzz.py [rounds]
"""

from __future__ import annotations

import random
import re
import sys
from functools import partial

from crumby import (
    Coloring,
    build_F,
    build_G18,
    build_G40,
    complete_bipartite,
    emit_edge_list,
    emit_graph6,
    find_elimination_order,
    has_minor,
    parse_edge_list,
    parse_graph6,
    recognize_tw2,
)
from crumby.certs import (
    emit_elimination_order,
    emit_minor_witness,
    emit_reduction_trace,
    parse_certificate,
    validate_certificate,
)
from crumby.survey import generate_small

SEED = 20261018
_HUGE_OR_NEGATIVE = ("9" * 40, str(1 << 64), "1000000000005", "-1", "-7")


def seed_documents():
    """(name, text, graph a certificate read from the text is checked on)."""
    f, g18, g40 = build_F().graph, build_G18().graph, build_G40().graph
    found, witness = has_minor(f, complete_bipartite(2, 3))
    assert found
    census = [line for n in range(1, 6) for line in generate_small(n)]
    return [
        ("elimination-order", emit_elimination_order(find_elimination_order(g40)), g40),
        ("reduction-trace", emit_reduction_trace(g18.n, recognize_tw2(g18)[1]), g18),
        ("minor-witness", emit_minor_witness(complete_bipartite(2, 3), witness), f),
        ("graph6", "\n".join([*census[::4], emit_graph6(g40)]) + "\n", g40),
        ("edge-list", emit_edge_list(g40), g40),
        ("coloring", " ".join("RB"[v % 3 == 0] for v in range(g40.n)) + "\n", g40),
    ]


def mutate(rng: random.Random, data: bytes) -> bytes:
    """One random edit of `data`."""
    op = rng.randrange(7)
    if op == 0 and data:  # flip one bit of a byte
        k = rng.randrange(len(data))
        return data[:k] + bytes([data[k] ^ 1 << rng.randrange(8)]) + data[k + 1:]
    if op <= 1 or not data:  # insert a byte
        k = rng.randrange(len(data) + 1)
        return data[:k] + bytes([rng.randrange(32, 127)]) + data[k:]
    if op == 2:  # delete a byte
        k = rng.randrange(len(data))
        return data[:k] + data[k + 1:]
    if op < 6:
        lines = data.split(b"\n")
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        if op == 3:
            del lines[i]
        elif op == 4:
            lines.insert(i, lines[j])
        else:
            lines[i], lines[j] = lines[j], lines[i]
        return b"\n".join(lines)
    tokens = list(re.finditer(rb"\d+", data))
    if not tokens:
        return data
    tok = rng.choice(tokens)
    new = rng.choice(_HUGE_OR_NEGATIVE).encode()
    return data[: tok.start()] + new + data[tok.end():]


def _read_all(data: bytes, graph) -> None:
    """Read `data` with every parser, each graph6 line on its own; refusals
    propagate.  Bytes that are not UTF-8 reach the parsers as surrogates."""
    text = data.decode(errors="surrogateescape")
    reads = [partial(parse_graph6, line) for line in text.splitlines() if line.strip()]
    reads += [partial(parse_edge_list, text), partial(Coloring.from_text, text)]
    for read in reads:
        try:
            read()
        except (ValueError, OSError):
            pass
    cert = parse_certificate(text)
    ok, detail = validate_certificate(graph, cert)
    if not (isinstance(ok, bool) and isinstance(detail, str)):
        raise TypeError(f"validate_certificate gave ({ok!r}, {detail!r})")


def failures(rounds: int) -> list[str]:
    """Describe every mutant that a parser answered with the wrong exception."""
    rng = random.Random(SEED)
    docs = seed_documents()
    out = []
    for r in range(rounds):
        for name, text, graph in docs:
            data = text.encode()
            for _ in range(rng.randint(1, 3)):
                data = mutate(rng, data)
            try:
                _read_all(data, graph)
            except (ValueError, OSError):
                pass
            except Exception as exc:  # every other class is a failure
                out.append(f"{name} round {r}: {type(exc).__name__}: {exc}"
                           f" on {data[:200]!r}")
    return out


if __name__ == "__main__":
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    found = failures(int(sys.argv[1]) if len(sys.argv) > 1 else 1000)
    print("\n".join(found))
    sys.exit(1 if found else 0)
