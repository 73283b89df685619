"""Golden trees: the instance parser reproduces recorded parses exactly.

``golden_trees.json`` holds, for every document below, a canonical
dump of the tree the instance parser produced when the fixture was
written — element names, attributes in order, ``start_inferred`` /
``end_inferred`` and character data — or, for a rejected document, the
error's class, message, line and column.  The documents cover the
Figure-2 article, the letters and Knuth corpora written as SGML,
generated articles written fully tagged and minimized, and hand-written
edge cases of the tokenizer.  Each input is rebuilt from its recipe
here; the fixture records its SHA-256, so a change to a generator shows
as a changed input, not as a parser difference.

The fixture is a record of earlier behaviour: regenerate it only when
a change of the parsed trees is intended (so far one: "declared EMPTY
with slash", where ``/>`` on an EMPTY element used to close its parent
too), with::

    PYTHONPATH=src python -m tests.sgml.test_golden_trees
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE, article_dtd
from repro.corpus.generator import generate_corpus
from repro.corpus.knuth import build_knuth_database
from repro.corpus.letters import SAMPLE_LETTERS, generate_letters
from repro.errors import SgmlError
from repro.sgml import parse_document, write_document
from repro.sgml.dtd_parser import parse_dtd
from repro.sgml.instance import Element, Text

FIXTURE = Path(__file__).with_name("golden_trees.json")

LETTERS_DTD = """
<!DOCTYPE letter [
<!ELEMENT letter - - ((to & from), content)>
<!ELEMENT (to|from|content) - O (#PCDATA)>
]>
"""

#: The Knuth_Books database as a document type: ``sections`` may omit
#: both tags, so a chapter's first ``<section>`` infers its start.
KNUTH_DTD = """
<!DOCTYPE library [
<!ELEMENT library - - (series, volume+)>
<!ELEMENT series - O (#PCDATA)>
<!ELEMENT volume - O (title, chapter+)>
<!ATTLIST volume status (final | draft) draft>
<!ELEMENT chapter - O (title, sections, review*)>
<!ATTLIST chapter author CDATA #REQUIRED>
<!ELEMENT sections O O (section*)>
<!ELEMENT section - O (title, body)>
<!ELEMENT (title|body|review) - O (#PCDATA)>
]>
"""

STRICT = "<!ELEMENT doc - - (#PCDATA)>"
PAIR = "<!ELEMENT doc - - (a, b)>\n<!ELEMENT (a|b) - O (#PCDATA)>"
ENUM = ("<!ELEMENT doc - - (#PCDATA)>\n"
        "<!ATTLIST doc status (final | draft) draft\n"
        "              note CDATA #IMPLIED>")
ENTITIES = ("<!ELEMENT doc - - (#PCDATA)>\n"
            "<!ATTLIST doc note CDATA #IMPLIED>\n"
            '<!ENTITY inria "I.N.R.I.A.">\n'
            '<!ENTITY outer "the &inria; labs">\n'
            '<!ENTITY pic SYSTEM "/images/pic1">')
LIST = ("<!ELEMENT doc - - (item+)>\n"
        "<!ELEMENT item - O (#PCDATA | em)*>\n"
        "<!ELEMENT em - - (#PCDATA)>\n"
        "<!ELEMENT br - O EMPTY>")
EMPTY = ("<!ELEMENT doc - - (p, br, p)>\n"
         "<!ELEMENT p - O (#PCDATA)>\n"
         "<!ELEMENT br - O EMPTY>\n"
         "<!ATTLIST br kind (soft | hard) hard>")

#: The start of a 100 kB start tag that never ends.
LONG_TAG = "<doc " + 'note="x" ' * 11_112

#: (case name, DTD text or None, document, keep_whitespace)
EDGE_CASES = [
    ("gt in double-quoted value", None, '<a x="1>2" y="<">t</a>', False),
    ("gt in single-quoted value", None, "<a x='a>b'>t</a>", False),
    ("quote kinds mixed", None,
     """<a x='say "hi"' y="it's" z=two w=3.5-a_b>t</a>""", False),
    ("spaces around equals", None, '<a x = "1"\n\ty =\n2 >t</a>', False),
    ("attributes without separator", None, '<a x="1"y=\'2\'>t</a>', False),
    ("duplicate attribute", None, '<a x="1" x="2">t</a>', False),
    ("minimized attribute", ENUM, "<doc final>x</doc>", False),
    ("minimized then explicit", ENUM,
     '<doc draft note="n" status="final">x</doc>', False),
    ("minimized article status", ARTICLE_DTD,
     SAMPLE_ARTICLE.replace('<article status="final">', "<article draft>"),
     False),
    ("empty element slash", None, "<a><b/>text<c x='1' />more</a>", False),
    ("empty element slash space", None, "<a><b /></a>", False),
    ("declared EMPTY with defaults", EMPTY,
     "<doc><p>one<br><p>two</doc>", False),
    ("declared EMPTY with slash", EMPTY,
     "<doc><p>one<br/><p>two</doc>", False),
    ("empty root with slash", None, "<a/>", False),
    ("declared EMPTY root with slash", "<!ELEMENT br - O EMPTY>", "<br/>",
     False),
    ("declared EMPTY explicit attribute", EMPTY,
     "<doc><p>one<br soft><p>two</doc>", False),
    ("entities in text", None,
     "<a>&lt;tag&gt; &amp; &quot;q&quot; &apos;&#65;&#x42;</a>", False),
    ("entities in attribute values", ENTITIES,
     '<doc note="x &amp; &inria; &#67;">&outer; see &pic;</doc>', False),
    ("bare ampersand", None, "<a t='AT&T'>AT&T rules</a>", False),
    ("ampersand before semicolon", None, "<a>AT&T rules; R&D</a>", False),
    ("comment between tags", None,
     "<a><!-- hidden <b> --><b>x</b><!----><b>y</b></a>", False),
    ("cdata between tags", None,
     "<a><b>x</b><![CDATA[ <raw> &amp;\n  kept ]]><b>y</b></a>", False),
    ("cdata keep whitespace", None,
     "<a><![CDATA[ <raw>  two\n ]]></a>", True),
    ("doctype before root", None,
     '<!DOCTYPE a [ <!ELEMENT a - - (b*)> ]>\n<a><b>x</b></a>', False),
    ("declaration between tags", None,
     "<a><!ENTITY x 'y'><b>x</b></a>", False),
    ("whitespace in end tag", None, "<a><b>x</b\n ></a >", False),
    ("whitespace dropped in element content", LIST,
     "<doc>\n  <item>one\n  <item>two <em>big</em> end\n</doc>", False),
    ("whitespace kept where pcdata is live", LIST,
     "<doc>\n  <item>one\n  <item>  <em>big</em>  \n</doc>", True),
    ("text merged across comment", None,
     "<a>one<!-- c -->two</a>", False),
    ("non-ascii text", None, "<a>é ß — 中文\n</a>", False),
    ("trailing whitespace and comment", None,
     "<a>x</a>\n  <!-- tail -->\n", False),
    ("stray lt", None, "<a>\n  < b>", False),
    ("stray lt digit", None, "<a>1 <2</a>", False),
    ("stray lt at end", None, "<a>x<", False),
    ("end tag without name", None, "<a>x</ >", False),
    ("empty attribute value", None, "<a x=>t</a>", False),
    ("unterminated attribute value", None, '<a x="never>t</a>', False),
    ("unterminated start tag", None, "<a x='1'", False),
    ("unterminated 100 kB start tag", ENUM, LONG_TAG, False),
    ("unterminated comment", None, "<a>é \n<!-- never closed", False),
    ("unterminated cdata", None, "<a>\r\n<![CDATA[ open", False),
    ("unterminated declaration", None, "<a><!DOCTYPE a [ <", False),
    ("end tag with attribute", None, "<a>\n</a\n x>", False),
    ("bare token without dtd", None, "<a final>t</a>", False),
    ("bare unknown token", ENUM, "<doc\n   bogus>x</doc>", False),
    ("undeclared element", STRICT, "<doc>\n\n  <ghost>x</ghost></doc>",
     False),
    ("element not allowed", PAIR, "<doc><b>x</doc>", False),
    ("incomplete content", PAIR, "<doc>\n<a>x\n   </doc>", False),
    ("unclosed at end", STRICT, "<doc>text", False),
    ("second root", None, "<a>x</a>\n<b>y</b>", False),
    ("text outside root", None, "\n\nhello <a>x</a>", False),
    ("cdata outside root", None, "<![CDATA[x]]><a>y</a>", False),
    ("mismatched end tag", None, "<a>\n <b>text</a></b>", False),
    ("no element", None, "  <!-- only a comment -->  ", False),
    ("undefined entity", None, "<a>&ghost;</a>", False),
    ("bad character reference", None, "<a>&#xZZ;</a>", False),
]


def _letters() -> list[str]:
    documents = []
    for sender_first, sender, recipient, content in (
            SAMPLE_LETTERS + generate_letters(12)):
        people = [f"<from>{sender}", f"<to>{recipient}"]
        if not sender_first:
            people.reverse()
        documents.append(f"<letter>{''.join(people)}"
                         f"<content>{content}</letter>")
    return documents


def _knuth() -> list[str]:
    """The Knuth_Books library, minimized: one document, then each
    volume with its own one-volume library."""
    db = build_knuth_database()
    books = db.root("Knuth_Books")

    def volume_text(oid) -> str:
        volume = db.deref(oid)
        pieces = [f"\n<volume {volume.get('status')}>"
                  f"<title>{volume.get('title')}"]
        for chapter_oid in volume.get("chapters"):
            chapter = db.deref(chapter_oid)
            pieces.append(f"\n <chapter author=\"{chapter.get('author')}\">"
                          f"<title>{chapter.get('title')}")
            for section in chapter.get("sections"):
                pieces.append(f"\n  <section><title>{section.get('title')}"
                              f"<body>{section.get('body')}")
            pieces += [f"\n <review>{name}"
                       for name in chapter.get("review")]
        return "".join(pieces)

    head = f"<library><series>{books.get('series')}"
    volumes = [volume_text(oid) for oid in books.get("volumes")]
    return ([head + "".join(volumes) + "\n</library>"]
            + [head + text + "</library>" for text in volumes])


def cases() -> list[tuple[str, str | None, str, bool]]:
    """Every golden case: (name, DTD text or None, document,
    keep_whitespace)."""
    dtd = article_dtd()
    found = [("sample article", ARTICLE_DTD, SAMPLE_ARTICLE, False)]
    found += [(f"letter {n}", LETTERS_DTD, text, False)
              for n, text in enumerate(_letters())]
    found += [(f"knuth {n}", KNUTH_DTD, text, False)
              for n, text in enumerate(_knuth())]
    for n, tree in enumerate(generate_corpus(40, seed=17)):
        found.append((f"article {n} plain", ARTICLE_DTD,
                      write_document(tree, dtd), False))
        found.append((f"article {n} minimized", ARTICLE_DTD,
                      write_document(tree, dtd, minimize=True, indent=2),
                      n % 8 == 0))
    found += EDGE_CASES
    return found


def dump(node) -> object:
    """Canonical form of a parsed tree: a string per text node, a dict
    per element."""
    if isinstance(node, Text):
        return node.content
    assert isinstance(node, Element)
    return {"name": node.name,
            "attributes": [[name, value]
                           for name, value in node.attributes.items()],
            "start_inferred": node.start_inferred,
            "end_inferred": node.end_inferred,
            "children": [dump(child) for child in node.children]}


def outcome(dtd_text: str | None, text: str, keep_whitespace: bool):
    """The dump of the parse, or the error it raised."""
    dtd = parse_dtd(dtd_text) if dtd_text else None
    try:
        tree = parse_document(text, dtd, keep_whitespace=keep_whitespace)
    except SgmlError as error:
        return {"error": type(error).__name__, "message": str(error),
                "line": error.line, "column": error.column}
    return {"tree": dump(tree)}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.cache
def _load_fixture() -> dict:
    with FIXTURE.open(encoding="utf-8") as stream:
        return json.load(stream)


CASES = cases()


def test_fixture_covers_every_case():
    assert list(_load_fixture()) == [name for name, *_ in CASES]


@pytest.mark.parametrize("name, dtd_text, text, keep_whitespace", CASES,
                         ids=[name for name, *_ in CASES])
def test_parse_reproduces_the_golden_tree(name, dtd_text, text,
                                          keep_whitespace):
    recorded = _load_fixture()[name]
    assert digest(text) == recorded["input_sha256"], "input changed"
    assert outcome(dtd_text, text, keep_whitespace) == recorded["outcome"]


def test_parents_point_at_the_containing_element():
    tree = parse_document(SAMPLE_ARTICLE, article_dtd())
    stack = [tree]
    while stack:
        element = stack.pop()
        for child in element.children:
            assert child.parent is element
            if isinstance(child, Element):
                stack.append(child)


def write_fixture() -> None:
    recorded = {name: {"input_sha256": digest(text),
                       "outcome": outcome(dtd_text, text, keep_whitespace)}
                for name, dtd_text, text, keep_whitespace in CASES}
    with FIXTURE.open("w", encoding="utf-8") as stream:
        stream.write("{\n")
        stream.write(",\n".join(
            f"{json.dumps(name)}: {json.dumps(entry, ensure_ascii=False)}"
            for name, entry in recorded.items()))
        stream.write("\n}\n")


if __name__ == "__main__":
    write_fixture()
