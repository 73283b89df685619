"""A small regular-expression engine (Thompson construction).

The paper's patterns are "constructed using concatenation, disjunction,
Kleene closure, etc."; this module provides exactly that, from scratch:
a regex AST, the Thompson NFA construction, and a linear-time NFA
simulation.  Supported syntax (close to classic grep):

* literal characters (``\\`` escapes the next character),
* ``.`` — any single character,
* ``[abc]`` / ``[a-z]`` / ``[^...]`` — character classes,
* ``(...)`` — grouping, ``|`` — alternation,
* postfix ``*`` ``+`` ``?``.

The simulation is kept rather than the stdlib ``re`` because ``re``
backtracks: a pattern such as ``(a|a)*c`` takes time exponential in
the length of the token it is matched against, and the patterns come
from queries.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import PatternError

#: Characters with a meaning in the pattern syntax; a word without any
#: of them denotes exactly itself.
METACHARACTERS = "().|*+?[]\\"


def is_literal_word(source: str) -> bool:
    """True when a pattern word is a plain literal (no metacharacters)."""
    return not any(ch in source for ch in METACHARACTERS)


class Regex:
    """Base class of regex AST nodes."""

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.__dict__ == self.__dict__

    def __hash__(self) -> int:
        return hash((type(self).__name__, str(self)))

    def __repr__(self) -> str:  # pragma: no cover
        return str(self)


class Epsilon(Regex):
    """The empty word."""

    def __str__(self) -> str:
        return "ε"


class Literal(Regex):
    """A single literal character."""

    def __init__(self, char: str) -> None:
        self.char = char

    def __str__(self) -> str:
        return self.char if self.char not in METACHARACTERS else (
            "\\" + self.char)


class AnyChar(Regex):
    """``.`` — any single character."""

    def __str__(self) -> str:
        return "."


class CharClass(Regex):
    """``[a-z0-9]`` or negated ``[^...]``."""

    def __init__(self, ranges: tuple[tuple[str, str], ...],
                 negated: bool = False) -> None:
        self.ranges = ranges
        self.negated = negated

    def matches(self, char: str) -> bool:
        inside = any(lo <= char <= hi for lo, hi in self.ranges)
        return inside != self.negated

    def __str__(self) -> str:
        body = "".join(lo if lo == hi else f"{lo}-{hi}"
                       for lo, hi in self.ranges)
        return f"[{'^' if self.negated else ''}{body}]"


class Concat(Regex):
    """Concatenation of two regexes."""

    def __init__(self, left: Regex, right: Regex) -> None:
        self.left = left
        self.right = right

    def __str__(self) -> str:
        return f"{self.left}{self.right}"


class Alt(Regex):
    """``l|r`` — alternation."""

    def __init__(self, left: Regex, right: Regex) -> None:
        self.left = left
        self.right = right

    def __str__(self) -> str:
        return f"({self.left}|{self.right})"


class Star(Regex):
    """``r*`` — Kleene closure."""

    def __init__(self, child: Regex) -> None:
        self.child = child

    def __str__(self) -> str:
        return f"({self.child})*"


class Plus(Regex):
    """``r+`` — one or more."""

    def __init__(self, child: Regex) -> None:
        self.child = child

    def __str__(self) -> str:
        return f"({self.child})+"


class Opt(Regex):
    """``r?`` — optional."""

    def __init__(self, child: Regex) -> None:
        self.child = child

    def __str__(self) -> str:
        return f"({self.child})?"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_regex(text: str) -> Regex:
    """Parse the pattern syntax above into a :class:`Regex`."""
    parser = _RegexParser(text)
    node = parser.alternation()
    if parser.pos != len(text):
        raise PatternError(
            f"unexpected {text[parser.pos]!r} at position {parser.pos} "
            f"in pattern {text!r}")
    return node


class _RegexParser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def alternation(self) -> Regex:
        node = self.concatenation()
        while self.peek() == "|":
            self.pos += 1
            node = Alt(node, self.concatenation())
        return node

    def concatenation(self) -> Regex:
        parts: list[Regex] = []
        while self.peek() not in ("", ")", "|"):
            parts.append(self.repetition())
        if not parts:
            return Epsilon()
        node = parts[0]
        for part in parts[1:]:
            node = Concat(node, part)
        return node

    def repetition(self) -> Regex:
        node = self.atom()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                node = Star(node)
            elif ch == "+":
                self.pos += 1
                node = Plus(node)
            elif ch == "?":
                self.pos += 1
                node = Opt(node)
            else:
                return node

    def atom(self) -> Regex:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.alternation()
            if self.peek() != ")":
                raise PatternError(
                    f"unbalanced '(' in pattern {self.text!r}")
            self.pos += 1
            return node
        if ch == ".":
            self.pos += 1
            return AnyChar()
        if ch == "[":
            return self.char_class()
        if ch == "\\":
            self.pos += 1
            if self.pos >= len(self.text):
                raise PatternError(
                    f"dangling escape in pattern {self.text!r}")
            escaped = self.text[self.pos]
            self.pos += 1
            return Literal(escaped)
        if ch in ")|*+?":
            raise PatternError(
                f"unexpected {ch!r} at position {self.pos} in pattern "
                f"{self.text!r}")
        if not ch:
            raise PatternError(f"unexpected end of pattern {self.text!r}")
        self.pos += 1
        return Literal(ch)

    def char_class(self) -> Regex:
        self.pos += 1  # '['
        negated = False
        if self.peek() == "^":
            negated = True
            self.pos += 1
        ranges: list[tuple[str, str]] = []
        while self.peek() not in ("]", ""):
            lo = self.text[self.pos]
            if lo == "\\":
                self.pos += 1
                if self.pos >= len(self.text):
                    raise PatternError("dangling escape in character class")
                lo = self.text[self.pos]
            self.pos += 1
            hi = lo
            if (self.peek() == "-" and self.pos + 1 < len(self.text)
                    and self.text[self.pos + 1] != "]"):
                self.pos += 1
                hi = self.text[self.pos]
                self.pos += 1
            if hi < lo:
                raise PatternError(
                    f"bad character range {lo}-{hi}")
            ranges.append((lo, hi))
        if self.peek() != "]":
            raise PatternError(f"unbalanced '[' in pattern {self.text!r}")
        self.pos += 1
        if not ranges:
            raise PatternError("empty character class")
        return CharClass(tuple(ranges), negated)


# ---------------------------------------------------------------------------
# Thompson construction
# ---------------------------------------------------------------------------


class Nfa:
    """An epsilon-NFA with a single start and a single accept state.

    Transition labels are either ``None`` (epsilon), a single character,
    or a predicate node (:class:`AnyChar` / :class:`CharClass`).
    """

    def __init__(self) -> None:
        self.transitions: list[list[tuple[object, int]]] = []
        self.start = self.new_state()
        self.accept = self.new_state()

    def new_state(self) -> int:
        self.transitions.append([])
        return len(self.transitions) - 1

    def add(self, source: int, label: object, target: int) -> None:
        self.transitions[source].append((label, target))

    # -- simulation ---------------------------------------------------------

    def _closure(self, states: set[int]) -> frozenset[int]:
        stack = list(states)
        seen = set(states)
        while stack:
            state = stack.pop()
            for label, target in self.transitions[state]:
                if label is None and target not in seen:
                    seen.add(target)
                    stack.append(target)
        return frozenset(seen)

    def _step(self, states: frozenset[int], char: str) -> frozenset[int]:
        moved: set[int] = set()
        for state in states:
            for label, target in self.transitions[state]:
                if label is None:
                    continue
                if isinstance(label, str):
                    if label == char:
                        moved.add(target)
                elif isinstance(label, AnyChar):
                    moved.add(target)
                elif isinstance(label, CharClass):
                    if label.matches(char):
                        moved.add(target)
        return self._closure(moved)

    def matches(self, text: str) -> bool:
        """Full match of ``text`` against the NFA."""
        current = self._closure({self.start})
        for char in text:
            current = self._step(current, char)
            if not current:
                return False
        return self.accept in current

    def search(self, text: str) -> bool:
        """Substring match: does any slice of ``text`` match?"""
        # Equivalent to matching .* pattern .* — simulate with a rolling
        # restart at every position.
        start_closure = self._closure({self.start})
        if self.accept in start_closure:
            return True
        active: set[frozenset[int]] = {start_closure}
        for char in text:
            next_active: set[frozenset[int]] = {start_closure}
            for states in active:
                stepped = self._step(states, char)
                if stepped:
                    if self.accept in stepped:
                        return True
                    next_active.add(stepped)
            active = next_active
        return False


class LiteralMatcher:
    """The matcher of a metacharacter-free word.  Its language is the
    word itself, so a full match is string equality and a substring
    match is ``in`` — the answers of the word's :class:`Nfa`, without
    simulating it character by character."""

    __slots__ = ("word",)

    def __init__(self, word: str) -> None:
        self.word = word

    def matches(self, text: str) -> bool:
        return text == self.word

    def search(self, text: str) -> bool:
        return self.word in text


def compile_regex(node: Regex) -> Nfa:
    """Thompson construction."""
    nfa = Nfa()
    _emit(node, nfa, nfa.start, nfa.accept)
    return nfa


def compile_pattern_text(text: str) -> Nfa:
    """Parse and compile in one call."""
    return compile_regex(parse_regex(text))


_MATCHER_CACHE: "OrderedDict[str, Nfa]" = OrderedDict()
_MATCHER_CACHE_CAPACITY = 64
_matcher_cache_stats = {"hits": 0, "misses": 0}


def cached_matcher(source: str) -> Nfa | LiteralMatcher:
    """The matcher of one pattern word: a :class:`LiteralMatcher` for
    a plain word, else :func:`compile_pattern_text` behind a small LRU
    keyed by the pattern source.

    Repeated non-literal probes (a vocabulary scan per query, a phrase
    matcher per word) otherwise re-run the Thompson construction every
    call.  A compiled :class:`Nfa` is immutable during matching, so one
    instance can serve every caller.
    """
    if is_literal_word(source):
        return LiteralMatcher(source)
    nfa = _MATCHER_CACHE.get(source)
    if nfa is not None:
        _MATCHER_CACHE.move_to_end(source)
        _matcher_cache_stats["hits"] += 1
        return nfa
    nfa = compile_pattern_text(source)
    _matcher_cache_stats["misses"] += 1
    _MATCHER_CACHE[source] = nfa
    while len(_MATCHER_CACHE) > _MATCHER_CACHE_CAPACITY:
        _MATCHER_CACHE.popitem(last=False)
    return nfa


def matcher_cache_info() -> dict:
    """Hit/miss/size snapshot of the matcher LRU (for tests)."""
    return {"hits": _matcher_cache_stats["hits"],
            "misses": _matcher_cache_stats["misses"],
            "size": len(_MATCHER_CACHE),
            "capacity": _MATCHER_CACHE_CAPACITY}


def clear_matcher_cache() -> None:
    """Drop every cached matcher and reset the statistics."""
    _MATCHER_CACHE.clear()
    _matcher_cache_stats["hits"] = 0
    _matcher_cache_stats["misses"] = 0


def _emit(node: Regex, nfa: Nfa, source: int, target: int) -> None:
    if isinstance(node, Epsilon):
        nfa.add(source, None, target)
    elif isinstance(node, Literal):
        nfa.add(source, node.char, target)
    elif isinstance(node, (AnyChar, CharClass)):
        nfa.add(source, node, target)
    elif isinstance(node, Concat):
        middle = nfa.new_state()
        _emit(node.left, nfa, source, middle)
        _emit(node.right, nfa, middle, target)
    elif isinstance(node, Alt):
        _emit(node.left, nfa, source, target)
        _emit(node.right, nfa, source, target)
    elif isinstance(node, Star):
        hub = nfa.new_state()
        nfa.add(source, None, hub)
        nfa.add(hub, None, target)
        _emit(node.child, nfa, hub, hub)
    elif isinstance(node, Plus):
        hub = nfa.new_state()
        _emit(node.child, nfa, source, hub)
        _emit(node.child, nfa, hub, hub)
        nfa.add(hub, None, target)
    elif isinstance(node, Opt):
        nfa.add(source, None, target)
        _emit(node.child, nfa, source, target)
    else:
        raise PatternError(f"unknown regex node {node!r}")
