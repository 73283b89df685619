"""Deterministic synthetic article corpus (for tests and benchmarks).

Generates SGML documents valid against the Figure-1 DTD, with
controllable size and a seeded linear-congruential stream so every run
reproduces the same corpus (the paper's own collections are not
available; DESIGN.md documents this substitution).

Vocabulary is chosen so the paper's queries are non-trivially selective:
some section titles contain "SGML" and "OODBMS" (Q1), some paragraphs
contain "complex object" (Q2), and attribute values include "final"
(Q5).
"""

from __future__ import annotations

from repro.sgml.instance import Element

_TITLE_WORDS = [
    "SGML", "OODBMS", "Documents", "Queries", "Paths", "Unions",
    "Storage", "Mapping", "Calculus", "Algebra", "Types", "Schemas",
]
_BODY_WORDS = [
    "structured", "document", "database", "object", "complex", "query",
    "path", "attribute", "schema", "type", "union", "tuple", "list",
    "section", "retrieval", "pattern", "matching", "index", "storage",
    "evaluation", "algebra", "calculus", "variable", "marker",
]
_AUTHORS = [
    "V. Christophides", "S. Abiteboul", "S. Cluet", "M. Scholl",
    "C. Delobel", "F. Bancilhon", "P. Kanellakis", "T. Milo",
]
_AFFILS = ["INRIA", "CNAM", "O2 Technology", "Euroclid"]


class _Rng:
    """A tiny deterministic generator (no global random state)."""

    def __init__(self, seed: int) -> None:
        self.state = seed % (2 ** 31) or 1

    def next(self) -> int:
        self.state = (self.state * 1103515245 + 12345) % (2 ** 31)
        return self.state

    def range(self, low: int, high: int) -> int:
        """Inclusive bounds."""
        return low + self.next() % (high - low + 1)

    def pick(self, items):
        return items[self.next() % len(items)]


def generate_article(seed: int = 1, sections: int | None = None,
                     paragraphs_per_body: int = 1,
                     subsection_probability_percent: int = 30) -> Element:
    """One synthetic article tree, valid against the Figure-1 DTD."""
    rng = _Rng(seed)
    article = Element("article", {
        "status": "final" if rng.next() % 2 else "draft"})
    article.append(_pcdata("title", _title(rng, 4)))
    for _ in range(rng.range(1, 4)):
        article.append(_pcdata("author", rng.pick(_AUTHORS)))
    article.append(_pcdata("affil", rng.pick(_AFFILS)))
    article.append(_pcdata("abstract", _sentence(rng, 20)))
    section_count = sections if sections is not None else rng.range(2, 5)
    for _ in range(max(1, section_count)):
        article.append(_section(rng, paragraphs_per_body,
                                subsection_probability_percent))
    article.append(_pcdata("acknowl", _sentence(rng, 8)))
    return article


def _section(rng: _Rng, paragraphs: int, subsection_pct: int) -> Element:
    section = Element("section")
    section.append(_pcdata("title", _title(rng, 3)))
    if rng.range(0, 99) < subsection_pct:
        # a2 branch: title, body*, subsectn+
        for _ in range(rng.range(0, 2)):
            section.append(_body(rng, paragraphs))
        for _ in range(rng.range(1, 3)):
            subsection = Element("subsectn")
            subsection.append(_pcdata("title", _title(rng, 3)))
            for _ in range(rng.range(1, 2)):
                subsection.append(_body(rng, paragraphs))
            section.append(subsection)
    else:
        # a1 branch: title, body+
        for _ in range(rng.range(1, 3)):
            section.append(_body(rng, paragraphs))
    return section


def _body(rng: _Rng, paragraphs: int) -> Element:
    body = Element("body")
    if rng.range(0, 9) == 0:
        figure = Element("figure")
        figure.append(Element("picture", {"sizex": "16cm"}))
        caption = _pcdata("caption", _title(rng, 2))
        figure.append(caption)
        body.append(figure)
    else:
        body.append(_pcdata("paragr", _sentence(rng, 12 * paragraphs)))
    return body


def _pcdata(name: str, content: str) -> Element:
    element = Element(name)
    element.append_text(content)
    return element


def _title(rng: _Rng, words: int) -> str:
    return " ".join(rng.pick(_TITLE_WORDS) for _ in range(words))


def _sentence(rng: _Rng, words: int) -> str:
    picked = [rng.pick(_BODY_WORDS) for _ in range(words)]
    if rng.range(0, 3) == 0 and len(picked) >= 2:
        # splice the Q2 phrase so "complex object" queries are selective
        at = rng.range(0, len(picked) - 2)
        picked[at:at + 2] = ["complex", "object"]
    return " ".join(picked) + "."


def generate_corpus(count: int, seed: int = 42, **article_options):
    """``count`` article trees with seeds derived from ``seed``."""
    return [generate_article(seed * 1000 + i, **article_options)
            for i in range(count)]
