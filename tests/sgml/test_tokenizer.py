"""The instance parser's tokenizer: one pattern match per text run,
start tag or end tag, and the cursor handlers for everything else.

The edge cases below pin what a tag-level pattern could get wrong
(``>`` inside a quoted value, value kinds, minimized attributes,
entity references, ``/>`` on a declared-EMPTY element, markup
declarations between tags; a stray ``<`` is a golden case and in
``TestErrorPositions``).  A property test checks that wherever the
pattern reads a start tag, it reads what the cursor's attribute reader
reads.  A start tag that never ends is rejected at the same position
however long it is, with the parser's work linear in its length: no
repetition of the patterns can match one string in two ways, and the
calls the parse makes are counted, not timed.
"""

import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DocumentSyntaxError, SgmlError
from repro.sgml.dtd_parser import parse_dtd
from repro.sgml.instance_parser import (
    _ATTRIBUTE,
    _TOKEN,
    _InstanceParser,
    parse_document,
)

try:  # the regular expression compiler's modules, renamed in 3.11
    from re import _compiler as sre_compile
    from re import _constants as sre_constants
    from re import _parser as sre_parse
except ImportError:
    import sre_compile
    import sre_constants
    import sre_parse

ENUM = parse_dtd("""
    <!ELEMENT doc - - (#PCDATA | doc)*>
    <!ATTLIST doc status (final | draft) draft
                  note CDATA #IMPLIED
                  kind (final | other) other>
    <!ENTITY inria "I.N.R.I.A.">
""")


class TestAttributeValues:
    def test_gt_inside_quoted_values(self):
        tree = parse_document("""<a x="1>2" y='a>b' z="<">t</a>""")
        assert tree.attributes == {"x": "1>2", "y": "a>b", "z": "<"}
        assert tree.text_content() == "t"

    def test_single_quoted_and_unquoted_values(self):
        tree = parse_document(
            """<a x='say "hi"' y=two z=3.5-a_b w="it's">t</a>""")
        assert tree.attributes == {"x": 'say "hi"', "y": "two",
                                   "z": "3.5-a_b", "w": "it's"}

    def test_whitespace_around_equals(self):
        tree = parse_document('<a x = "1"\n\ty =\n2 >t</a>')
        assert tree.attributes == {"x": "1", "y": "2"}

    def test_attributes_without_separator_take_the_cursor_reader(self):
        text = """<a x="1"y='2'>t</a>"""
        assert _TOKEN.match(text) is None
        assert parse_document(text).attributes == {"x": "1", "y": "2"}

    def test_minimized_attribute(self):
        tree = parse_document("<doc final>x</doc>", ENUM)
        # the first enumeration naming the token wins; defaults follow
        assert tree.attributes == {"status": "final", "kind": "other"}

    def test_entity_references_in_values(self):
        tree = parse_document(
            '<doc note="x &amp; &inria; &#67;">t</doc>', ENUM)
        assert tree.attributes["note"] == "x & I.N.R.I.A. C"


class TestSlashOnDeclaredEmpty:
    EMPTY = parse_dtd("""
        <!ELEMENT doc - - (p, br, p)>
        <!ELEMENT p - O (#PCDATA)>
        <!ELEMENT br - O EMPTY>
    """)

    def test_closes_only_the_empty_element(self):
        tree = parse_document("<doc><p>one<br/><p>two</doc>", self.EMPTY)
        assert [child.name for child in tree.child_elements()] == [
            "p", "br", "p"]

    def test_an_empty_root(self):
        assert parse_document("<br/>", self.EMPTY).name == "br"


class TestMarkupBetweenTags:
    def test_comments_cdata_and_declarations_between_tags(self):
        tree = parse_document(
            "<!DOCTYPE a [ <!ELEMENT a - - ANY> ]>\n"
            "<a><!-- <b> --><b>x</b><![CDATA[<raw> &amp;]]>"
            "<!ENTITY e 'v'><b>y</b></a>\n<!-- tail -->\n")
        assert [child.name for child in tree.child_elements()] == ["b", "b"]
        assert tree.text_content() == "x<raw> &amp;y"

    def test_whitespace_inside_end_tags(self):
        tree = parse_document("<a><b>x</b\n ></a >")
        assert tree.first("b").text_content() == "x"


#: All of ASCII and every character ``\s`` matches.
ALPHABET = [chr(code) for code in range(0x3001)]


def position_automaton(pattern: re.Pattern) -> tuple[list, list]:
    """The pattern's position (Glushkov) automaton, as the regular
    expression engine parsed it: one state per character position, with
    the characters it reads, and ``edges[state]`` listing the states
    that can follow it, once per way they can (a repetition nested in a
    repetition lists an edge twice); the last state is the start."""
    parsed = sre_parse.parse(pattern.pattern, pattern.flags)
    chars: list[frozenset[str]] = []
    edges: list[list[int]] = []

    def walk(items) -> tuple[int, list[int], list[int]]:
        """The ways ``items`` match the empty string (2 for two or
        more), and the states they begin and end on, once per way."""
        empty, first, last = 1, [], []
        for op, argument in items:
            if op in (sre_constants.LITERAL, sre_constants.NOT_LITERAL,
                      sre_constants.IN, sre_constants.ANY):
                reads = sre_compile.compile(
                    sre_parse.SubPattern(parsed.state, [(op, argument)]),
                    pattern.flags).fullmatch
                chars.append(frozenset(c for c in ALPHABET if reads(c)))
                edges.append([])
                part = (0, [len(chars) - 1], [len(chars) - 1])
            elif op is sre_constants.SUBPATTERN:
                part = walk(argument[-1])
            elif op is sre_constants.BRANCH:
                parts = [walk(branch) for branch in argument[1]]
                part = (min(2, sum(p[0] for p in parts)),
                        [state for p in parts for state in p[1]],
                        [state for p in parts for state in p[2]])
            elif (op is sre_constants.MAX_REPEAT and argument[0] <= 1
                  and argument[1] in (1, sre_constants.MAXREPEAT)):
                body = walk(argument[2])
                if argument[1] == sre_constants.MAXREPEAT:
                    for state in body[2]:
                        edges[state] += body[1]
                    repeated = 2 if body[0] else 0
                else:
                    repeated = body[0]
                part = (min(2, repeated + 1 - argument[0]), body[1],
                        body[2])
            else:
                raise NotImplementedError(f"{op} is not modelled")
            for state in last:
                edges[state] += part[1]
            first += part[1] * empty
            last = part[2] + last * part[0]
            empty = min(2, empty * part[0])
        return empty, first, last

    edges.append(walk(parsed)[1])
    chars.append(frozenset())
    return chars, edges


def unambiguous(pattern: re.Pattern) -> bool:
    """Whether every prefix of every input reaches each state of the
    pattern's position automaton along one path at most.  A
    backtracking matcher follows each path once, so its work is then
    linear in the input, however the match fails."""
    chars, edges = position_automaton(pattern)
    classes = {tuple(c in reads for reads in chars): c for c in ALPHABET}
    start = (0,) * (len(chars) - 1) + (1,)
    seen, todo = {start}, [start]
    while todo:  # the path counts per state, capped at 2, after a prefix
        counts = todo.pop()
        for c in classes.values():
            after = [0] * len(chars)
            for state, count in enumerate(counts):
                for target in edges[state]:
                    if c in chars[target]:
                        after[target] = min(2, after[target] + count)
            if 2 in after:
                return False
            if tuple(after) not in seen:
                seen.add(tuple(after))
                todo.append(tuple(after))
    return True


def long_tag(attributes: int) -> str:
    return "<doc " + 'note="x" ' * attributes


class TestUnterminatedStartTag:
    def test_the_patterns_are_unambiguous(self):
        assert unambiguous(_TOKEN) and unambiguous(_ATTRIBUTE)
        assert unambiguous(re.compile(r"(?:\s+a)*\s*>"))
        # what backtracks without bound: nested or adjacent repetitions
        # that read the same characters
        for pattern in (r"(?:\s+)+>", r"(?:\s*a*)*>", r"\s*\s*>",
                        r"(?:a|a)*c", r"(?:a*)*c"):
            assert not unambiguous(re.compile(pattern))

    def test_a_100_kB_tag_is_rejected_at_its_end(self):
        text = long_tag(11_112)
        assert len(text) > 100_000
        with pytest.raises(DocumentSyntaxError) as caught:
            parse_document(text, ENUM)
        assert (caught.value.line, caught.value.column) == (
            1, len(text) + 1)
        assert "expected '>', found ''" in str(caught.value)

    def test_the_work_is_linear_in_the_tag(self):
        def calls(attributes: int) -> int:
            counted = [0]

            def profile(frame, event, argument):
                if event in ("call", "c_call"):
                    counted[0] += 1

            sys.setprofile(profile)
            try:
                parse_document(long_tag(attributes), ENUM)
            except DocumentSyntaxError:
                pass
            finally:
                sys.setprofile(None)
            return counted[0]

        small, large = calls(500), calls(1000)
        assert large - small <= small + 50


# -- the pattern reads what the cursor reads -----------------------------------

PIECES = st.sampled_from([
    " ", "\n", "\t", "note", "status", "final", "draft", "other", "x1",
    "=", " = ", '"', "'", '"v > w"', "'v'", "v.1", "&amp;", "&inria;",
    "/", "-", "é", "<"])


def read(text: str, pattern: bool):
    """The root a start tag opens (name, attributes, where the cursor
    stops, whether it closed), or the error it raises; ``None`` when
    ``pattern`` and the token pattern does not read a start tag."""
    parser = _InstanceParser(text, ENUM, keep_whitespace=False)
    try:
        if pattern:
            token = _TOKEN.match(text)
            if token is None or token.lastindex != 4:
                return None
            parser.cursor.pos = token.end()
            parser._handle_start_tag(token)
        else:
            parser._read_start_tag()
    except SgmlError as error:
        return type(error).__name__, str(error)
    root = parser.root
    return (root.name, dict(root.attributes), parser.cursor.pos,
            not parser.stack)


@given(st.lists(PIECES, max_size=8).map("".join),
       st.sampled_from([">", "/>", " >", "\n/>"]))
@settings(max_examples=400, deadline=None)
def test_the_token_pattern_reads_what_the_cursor_reads(run, close):
    text = f"<doc{run}{close}tail"
    by_pattern = read(text, pattern=True)
    if by_pattern is not None:
        assert by_pattern == read(text, pattern=False)
