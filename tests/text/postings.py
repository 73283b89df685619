"""Test helper over a :class:`~repro.text.TextIndex`'s postings."""


def posting_size(index, word: str) -> int:
    """Document frequency of a literal token: the exact number of keys
    containing ``word``, walked up from its postings' offsets (the
    index's memoized key set).  ``0`` is a proof of absence: no probe
    of a pattern that needs the word finds a key."""
    return len(index._word_keys(word))
