"""Independent reference tokenizer for the theory file format.

The character loop that `dasl.lang.lexer` used before its single-pattern
scanner: one character at a time, each punctuation tried by `startswith`,
line and column counted as it goes.  Used by the tests as the second route
for token streams, errors and ASTs; deliberately slow and simple.

Its one departure from that loop: integer literals are ASCII digits, where
the loop took every character for which `str.isdigit()` holds (so '²' made
`int()` fail and '٣' read as 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from dasl.lang import LexError

KEYWORDS = {
    "sort", "const", "func", "rel", "data", "boolvec", "axiom",
    "forall", "exists", "pi", "mod", "true", "false",
    "card", "dim", "out", "mlp", "act", "extern", "learned", "from",
}
PUNCT = ["->", "(", ")", "[", "]", ":", ";", ".", ",", "&", "|", "~", "=", "+"]
DIGITS = "0123456789"


@dataclass(frozen=True)
class RefToken:
    kind: str
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[RefToken]:
    tokens: list[RefToken] = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and source[j] != '"':
                if source[j] == "\n":
                    raise LexError(line, col, "unterminated string")
                j += 1
            if j >= n:
                raise LexError(line, col, "unterminated string")
            tokens.append(RefToken("string", source[i + 1 : j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        if ch in DIGITS:
            j = i
            while j < n and source[j] in DIGITS:
                j += 1
            tokens.append(RefToken("int", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = word if word in KEYWORDS else "ident"
            tokens.append(RefToken(kind, word, line, col))
            col += j - i
            i = j
            continue
        for p in PUNCT:
            if source.startswith(p, i):
                tokens.append(RefToken(p, p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            raise LexError(line, col, f"illegal character {ch!r}")
    return tokens
