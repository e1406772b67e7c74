"""graph6 text encoding, header-free, one graph per line.

Only the short form is handled (order 1..62, single size byte).  The
upper-triangle bits run column-major, x(0,1) x(0,2) x(1,2) x(0,3) ...,
packed big-endian six bits per character with offset 63: the bit string
of graphs._upper_bits, zero-padded to whole characters.
"""

from __future__ import annotations

from .graphs import MAX_ORDER, Graph, _upper_bits, _upper_rows


class Graph6Error(ValueError):
    """Malformed graph6 input."""


def to_graph6(g: Graph) -> str:
    npairs = g.n * (g.n - 1) // 2
    nchars = (npairs + 5) // 6
    code = _upper_bits(g.adj, range(g.n)) << (6 * nchars - npairs)
    return chr(63 + g.n) + "".join([chr(63 + ((code >> s) & 63)) for s in range(6 * nchars - 6, -1, -6)])


def from_graph6(text: str) -> Graph:
    if not text:
        raise Graph6Error("empty graph6 string")
    for k, c in enumerate(text):
        if not 63 <= ord(c) <= 126:
            raise Graph6Error(f"byte {ord(c)} at position {k} outside graph6 range")
    n = ord(text[0]) - 63
    if n == 0:
        raise Graph6Error("order 0 not supported")
    if n == 63:
        # chr(126) opens the multi-byte size form, which never fits in one byte anyway
        raise Graph6Error(f"order above {MAX_ORDER} not supported")
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    got = len(text) - 1
    if got < need:
        raise Graph6Error(f"truncated: order {n} needs {need} data characters, got {got}")
    if got > need:
        raise Graph6Error(f"trailing garbage: order {n} needs {need} data characters, got {got}")
    code = 0
    for c in text[1:]:
        code = code << 6 | (ord(c) - 63)
    pad = 6 * need - npairs
    if code & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    return Graph._of(n, tuple(_upper_rows(n, code >> pad)))
