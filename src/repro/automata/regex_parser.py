"""Parser for pTest service regular expressions.

Grammar (precedence low to high)::

    union   := concat ('|' concat)*
    concat  := postfix+
    postfix := atom ('*' | '+' | '?')*
    atom    := SYMBOL | '(' union ')'

plus the paper's ``$`` end-anchor, which may appear only at the end of a
concatenation branch (as in RE (2): ``(TD$ | TY$)``).  Semantically the
anchor contributes the empty string; it exists so users can transcribe the
paper's expressions verbatim.

Tokenization understands *multi-character* service symbols.  Two modes:

* default: a symbol is a maximal run of ``[A-Za-z0-9_]`` characters, so
  ``TC (TCH)*`` tokenizes as ``TC``, ``(``, ``TCH``, ``)``, ``*``;
* alphabet-aware: pass ``alphabet={"TC", "TS", "TR", ...}`` and runs of
  symbol characters are greedily split into the *longest* known symbols,
  so the paper's ``TSTR(TCH)*`` tokenizes as ``TS TR ( TCH ) *``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.automata.regex_ast import (
    Epsilon,
    Literal,
    Optional_,
    Plus,
    RegexNode,
    Star,
    Union,
    concat_all,
)
from repro.errors import RegexSyntaxError

_OPERATORS = {"(", ")", "|", "*", "+", "?", "$"}
_POSTFIX = {"*", "+", "?"}


@dataclass(frozen=True)
class Token:
    """A single token: operator text or a service symbol."""

    kind: str  # "symbol" or "op"
    text: str
    position: int  # index in the token stream


def _split_symbol_run(run: str, offset: int, alphabet: frozenset[str]) -> list[str]:
    """Greedily split ``run`` into the longest symbols from ``alphabet``."""
    pieces: list[str] = []
    index = 0
    max_len = max(len(symbol) for symbol in alphabet)
    while index < len(run):
        for length in range(min(max_len, len(run) - index), 0, -1):
            candidate = run[index : index + length]
            if candidate in alphabet:
                pieces.append(candidate)
                index += length
                break
        else:
            raise RegexSyntaxError(
                f"cannot split {run!r} into alphabet symbols at offset "
                f"{offset + index} (unknown prefix {run[index:]!r})",
                position=offset + index,
            )
    return pieces


def tokenize(text: str, alphabet: Iterable[str] | None = None) -> list[Token]:
    """Tokenize a regular-expression string into :class:`Token` objects.

    Parameters
    ----------
    text:
        The regular expression source.
    alphabet:
        Optional set of known service symbols enabling greedy splitting of
        juxtaposed symbols (see module docstring).
    """
    known = frozenset(alphabet) if alphabet is not None else None
    if known is not None and not known:
        raise RegexSyntaxError("alphabet, when given, must be non-empty")
    tokens: list[Token] = []
    index = 0
    while index < len(text):
        char = text[index]
        if char.isspace():
            index += 1
            continue
        if char in _OPERATORS:
            tokens.append(Token("op", char, len(tokens)))
            index += 1
            continue
        if char.isalnum() or char == "_":
            start = index
            while index < len(text) and (text[index].isalnum() or text[index] == "_"):
                index += 1
            run = text[start:index]
            if known is None:
                tokens.append(Token("symbol", run, len(tokens)))
            else:
                for piece in _split_symbol_run(run, start, known):
                    tokens.append(Token("symbol", piece, len(tokens)))
            continue
        raise RegexSyntaxError(
            f"unexpected character {char!r} at offset {index}", position=index
        )
    return tokens


class _Parser:
    """Recursive-descent parser over a token list."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._index = 0

    def parse(self) -> RegexNode:
        if not self._tokens:
            return Epsilon()
        node = self._union()
        if self._index < len(self._tokens):
            token = self._tokens[self._index]
            raise RegexSyntaxError(
                f"unexpected token {token.text!r}", position=token.position
            )
        return node

    # -- token helpers -------------------------------------------------

    def _peek(self) -> Token | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    # -- grammar rules -------------------------------------------------

    def _union(self) -> RegexNode:
        node = self._concat()
        while True:
            token = self._peek()
            if token is None or token.text != "|":
                return node
            self._advance()
            node = Union(node, self._concat())

    def _concat(self) -> RegexNode:
        parts: list[RegexNode] = []
        anchored = False
        while True:
            token = self._peek()
            if token is None or token.text in {")", "|"}:
                break
            if token.text == "$":
                self._advance()
                anchored = True
                trailing = self._peek()
                if trailing is not None and trailing.text not in {")", "|"}:
                    raise RegexSyntaxError(
                        "'$' may only end a branch",
                        position=trailing.position,
                    )
                break
            if anchored:  # pragma: no cover - defended above
                raise RegexSyntaxError("content after '$'", position=token.position)
            parts.append(self._postfix())
        if not parts:
            if anchored:
                return Epsilon()
            token = self._peek()
            position = token.position if token is not None else None
            raise RegexSyntaxError("empty expression branch", position=position)
        return concat_all(parts)

    def _postfix(self) -> RegexNode:
        node = self._atom()
        while True:
            token = self._peek()
            if token is None or token.text not in _POSTFIX:
                return node
            self._advance()
            if token.text == "*":
                node = Star(node)
            elif token.text == "+":
                node = Plus(node)
            else:
                node = Optional_(node)

    def _atom(self) -> RegexNode:
        token = self._peek()
        if token is None:
            raise RegexSyntaxError("unexpected end of expression")
        if token.kind == "symbol":
            self._advance()
            return Literal(token.text)
        if token.text == "(":
            self._advance()
            node = self._union()
            closing = self._peek()
            if closing is None or closing.text != ")":
                raise RegexSyntaxError(
                    "unbalanced parenthesis", position=token.position
                )
            self._advance()
            return node
        raise RegexSyntaxError(
            f"unexpected token {token.text!r}", position=token.position
        )


def parse_regex(text: str, alphabet: Iterable[str] | None = None) -> RegexNode:
    """Parse a regular-expression string into an AST.

    >>> sorted(parse_regex("TC ((TCH)* | TS TR (TCH)*)* (TD$ | TY$)").symbols())
    ['TC', 'TCH', 'TD', 'TR', 'TS', 'TY']
    """
    return _Parser(tokenize(text, alphabet=alphabet)).parse()
