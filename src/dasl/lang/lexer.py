"""Tokenizer for the theory file format (`.dasl`).

One compiled pattern scans the whole source.  Each match skips blanks
(space, tab, carriage return, newline) and captures one lexeme: `->`, an
ASCII integer, a word, a double-quoted string on one line, a `#` comment,
or any other single character, which is illegal unless it is punctuation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class LexError(Exception):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


KEYWORDS = {
    "sort", "const", "func", "rel", "data", "boolvec", "axiom",
    "forall", "exists", "pi", "mod", "true", "false",
    "card", "dim", "out", "mlp", "act", "extern", "learned", "from",
}

PUNCT = ["->", "(", ")", "[", "]", ":", ";", ".", ",", "&", "|", "~", "=", "+"]

# a word's first character passes `[^\W\d]`, which also admits non-letters
# such as '²'; `_kind` holds words to the identifier rule (letter or '_',
# then letters, digits or '_')
_LEXEME = re.compile(r'[ \t\r\n]*(->|[0-9]+|[^\W\d]\w*|"[^"\n]*"|#[^\n]*|[^ \t\r\n])')

# lexemes whose kind is their own text
_FIXED = {text: text for text in (*KEYWORDS, *PUNCT)}


@dataclass(frozen=True)
class Token:
    kind: str  # keyword name, 'ident', 'int', 'string', or the punctuation text
    text: str  # a string's text is what lies between its quotes
    line: int
    col: int

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.text!r} @ {self.line}:{self.col})"


def _kind(lexeme: str) -> str | None:
    """Kind of a lexeme that is not a keyword or punctuation; None if illegal."""
    first = lexeme[0]
    if first in "0123456789":
        return "int"
    if first == '"':
        return "string" if len(lexeme) > 1 else None
    if first.isalpha() or first == "_":
        return "ident"
    return None


def _end(source: str) -> int:
    # every match from 0 up to here finds a lexeme, so each scan is one
    # linear pass; a search in trailing blanks would fail and retry from
    # each of them in turn
    return len(source.rstrip(" \t\r\n"))


def scan(source: str) -> tuple[list[str], list[str], list[int]]:
    """Kinds, texts and start offsets of the tokens in source.

    Drops blanks and `#` line comments.  No line:col is worked out here:
    `tokenize` does that for every token, a `LexError` for its character.
    """
    matches = list(_LEXEME.finditer(source, 0, _end(source)))
    if "#" in source:
        matches = [m for m in matches if m[1][0] != "#"]
    texts = [m[1] for m in matches]
    kinds = [_FIXED.get(text) or _kind(text) for text in texts]
    offsets = [m.start(1) for m in matches]
    if None in kinds:
        i = kinds.index(None)
        message = "unterminated string" if texts[i] == '"' else f"illegal character {texts[i][0]!r}"
        raise LexError(*_positions(source, [offsets[i]])[0], message)
    for i, kind in enumerate(kinds):
        if kind == "string":
            texts[i] = texts[i][1:-1]
    return kinds, texts, offsets


def _positions(source: str, offsets: list[int]) -> list[tuple[int, int]]:
    """The line:col (both from 1) of each of the ascending offsets."""
    found = []
    line, line_start, seen = 1, 0, 0
    for at in offsets:
        newlines = source.count("\n", seen, at)
        if newlines:
            line += newlines
            line_start = source.rindex("\n", seen, at) + 1
        seen = at
        found.append((line, at - line_start + 1))
    return found


def tokenize(source: str) -> list[Token]:
    """Split source into tokens; drops whitespace and `#` line comments."""
    kinds, texts, offsets = scan(source)
    return [Token(kind, text, line, col) for kind, text, (line, col)
            in zip(kinds, texts, _positions(source, offsets))]
