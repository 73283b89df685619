"""The README's "EXPLAIN ANALYZE and metrics" example shows what the
code prints: its snippet is run, and every line of the output block
below it must appear in the printed report, in order, once the
timings (``[…ms]``, ``time=``, ``self=``) are stripped from both.  The
counters must match exactly, so a counter added or dropped shows."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
SECTION = "### EXPLAIN ANALYZE and metrics"
TIMINGS = re.compile(r"\s*\[[0-9.]+ms\]|(time|self)=[0-9.]+ms")
#: An elided stretch of the plan in the README's block.
ELISION = "... "


def fenced_blocks(text: str) -> list[tuple[str, str]]:
    """``(info string, body)`` of each fenced block, in order."""
    return re.findall(r"^```(\w*)\n(.*?)^```$", text, re.S | re.M)


def strip(line: str) -> str:
    return TIMINGS.sub("", line).rstrip()


def section_blocks() -> tuple[str, list[str]]:
    text = README.read_text(encoding="utf-8")
    section = text[text.index(SECTION):]
    section = section[:section.index("\n### ", 1)]
    (_, snippet), (_, output) = fenced_blocks(section)[:2]
    return snippet, output.splitlines()


def run_snippet(snippet: str) -> list[str]:
    from repro import DocumentStore
    from repro.corpus import ARTICLE_DTD, SAMPLE_ARTICLE
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(snippet, {"DocumentStore": DocumentStore,
                       "ARTICLE_DTD": ARTICLE_DTD,
                       "SAMPLE_ARTICLE": SAMPLE_ARTICLE})
    return printed.getvalue().splitlines()


def counters(lines: list[str]) -> list[str]:
    return lines[lines.index("counters:") + 1:]


def test_readme_explain_block_is_what_the_snippet_prints():
    snippet, shown = section_blocks()
    printed = [strip(line) for line in run_snippet(snippet)]
    shown = [strip(line) for line in shown]
    assert any(line.lstrip().startswith("compile operators=")
               for line in shown)
    position = 0
    for line in shown:
        if line.lstrip().startswith(ELISION):
            continue
        assert line in printed[position:], line
        position = printed.index(line, position) + 1
    assert counters(shown) == [line for line in counters(printed)
                               if line]
