"""Porter stemmer, written as the rule tables of Porter (1980).

Used by the ROUGE metrics when stemming is enabled: the original 1980 rules,
not the later "Porter2". Words of one or two letters are returned unchanged.
Each step (1a, 1b, 1c, 2, 3, 4, 5a, 5b) is a table of ``(suffix, replacement,
condition)`` rows, applied by `_apply`: the longest suffix the table lists wins,
and the first of its rows whose condition holds on the stem before the suffix
replaces the suffix (a replacement of ``None`` drops the stem's last letter,
Porter's "single letter"); when none holds, the step does nothing.

The conditions are Porter's, read off the stem's C/V form: ``v`` for a, e, i,
o, u and for a y after a consonant, ``c`` for any other character. ``m``
counts the form's ``vc`` pairs; ``*v*``: the form holds a ``v``; ``*d``: the
stem ends in a double consonant; ``*o``: the form ends in ``cvc``, the last
letter not w, x or y; ``*S``: the stem ends in s (so too ``*L``, ``*T``, ``*Z``).
"""

from __future__ import annotations

from collections import defaultdict

# a vowel maps to "v", y to itself until `_form` settles it, any other character to "c"
_CV = defaultdict(lambda: "c", {ord(ch): "v" for ch in "aeiou"} | {ord("y"): "y"})


def _form(stem: str) -> str:
    """The C/V form of ``stem``; each y is settled after the letter before it."""
    form = stem.translate(_CV)
    i = form.find("y")
    while i >= 0:
        form = form[:i] + ("v" if i and form[i - 1] == "c" else "c") + form[i + 1:]
        i = form.find("y", i + 1)
    return form


#: each condition as a test of a stem ``s`` with C/V form ``f``
_CONDITIONS = {
    None: lambda s, f: True,
    "m>0": lambda s, f: "vc" in f,
    "m>1": lambda s, f: f.count("vc") > 1,
    "*v*": lambda s, f: "v" in f,
    "*v* and *d and not (*L or *S or *Z)": lambda s, f: (
        "v" in f and f.endswith("c") and s[-2:] == s[-1] * 2 and s[-1] not in "lsz"),
    "*v* and m=1 and *o": lambda s, f: (
        f.count("vc") == 1 and f.endswith("cvc") and s[-1] not in "wxy"),
    "m=1 and not *o": lambda s, f: (
        f.count("vc") == 1 and not (f.endswith("cvc") and s[-1] not in "wxy")),
    "m>1 and (*S or *T)": lambda s, f: f.count("vc") > 1 and s.endswith(("s", "t")),
    "m>1 and *L": lambda s, f: f.count("vc") > 1 and s.endswith("l"),
}


def _table(rows) -> tuple[dict, list[int]]:
    """``{suffix: [(replacement, condition test), ...]}`` and the suffix lengths, longest first."""
    table: dict[str, list] = {}
    for suffix, replacement, condition in rows:
        table.setdefault(suffix, []).append((replacement, _CONDITIONS[condition]))
    return table, sorted({len(suffix) for suffix in table}, reverse=True)


def _apply(word: str, step: tuple[dict, list[int]]) -> str:
    table, lengths = step
    for n in lengths:
        suffix = word[-n:]  # the whole word when it is shorter than n
        if suffix in table:
            stem = word[:-len(suffix)]
            form = _form(stem)
            for replacement, holds in table[suffix]:
                if holds(stem, form):
                    return stem[:-1] if replacement is None else stem + replacement
            return word
    return word


_STEPS = tuple(map(_table, (
    # 1a
    [("sses", "ss", None), ("ies", "i", None), ("ss", "ss", None), ("s", "", None)],
    # 1b, its tidy-up rules folded into the rows for -ed and for -ing
    [("eed", "ee", "m>0"), *((tail + end, replacement, condition) for end in ("ed", "ing")
     for tail, replacement, condition in (
         ("at", "ate", None), ("bl", "ble", "*v*"), ("iz", "ize", None),
         ("", None, "*v* and *d and not (*L or *S or *Z)"),
         ("", "e", "*v* and m=1 and *o"), ("", "", "*v*")))],
    # 1c
    [("y", "i", "*v*")],
    # 2
    [(suffix, replacement, "m>0") for suffix, replacement in (
        ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
        ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
        ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
        ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
        ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"))],
    # 3
    [(suffix, replacement, "m>0") for suffix, replacement in (
        ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
        ("ical", "ic"), ("ful", ""), ("ness", ""))],
    # 4
    [*((suffix, "", "m>1") for suffix in (
        "al ance ence er ic able ible ant ement ment ent ou ism ate iti ous ive ize").split()),
     ("ion", "", "m>1 and (*S or *T)")],
    # 5a
    [("e", "", "m>1"), ("e", "", "m=1 and not *o")],
    # 5b: Porter's "(m>1 and *d and *L) -> single letter", as the second l of -ll
    [("l", "", "m>1 and *L")],
)))


def porter_stem(word: str) -> str:
    """Stem one lowercase word. Case is preserved as given; callers that
    want case-insensitive behavior should lowercase first."""
    if len(word) <= 2:
        return word
    for step in _STEPS:
        word = _apply(word, step)
    return word
