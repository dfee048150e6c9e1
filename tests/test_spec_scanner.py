"""The spec scanner against the per-character scanner it replaced.

The oracle below is the earlier `_Scanner` and `parse_spec_text`, kept
verbatim: it tracked line and column on every character and read lists and
inline tables with two copies of one loop.  The production scanner must
give the same value, or the same message, line and column, on every text;
where the oracle let some other exception escape, the production scanner
must raise SpecParseError.
"""

import random
from pathlib import Path

import pytest

from vkt import cli
from vkt.errors import SpecParseError

GOLDEN_SPECS = Path(__file__).resolve().parent / "golden" / "specs"


# -- the oracle: the earlier scanner, verbatim ------------------------------

class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message):
        raise SpecParseError(message, self.line, self.col)

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self):
        c = self.text[self.pos]
        self.pos += 1
        if c == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return c

    def skip_space(self, newlines=False):
        while self.pos < len(self.text):
            c = self.peek()
            if c == "#":
                while self.pos < len(self.text) and self.peek() != "\n":
                    self.advance()
            elif c in " \t" or (newlines and c in "\r\n"):
                self.advance()
            else:
                break

    def expect(self, c):
        if self.peek() != c:
            self.error(f"expected {c!r}, found {self.peek()!r}")
        self.advance()

    def entry(self, table):
        """Read `key = value` into table, refusing a key it already holds."""
        line, col, start = self.line, self.col, self.pos
        while self.peek().isalnum() or self.peek() == "_":
            self.advance()
        if start == self.pos:
            self.error("expected a key")
        key = self.text[start:self.pos]
        if key in table:
            raise SpecParseError(f"duplicate key {key!r}", line, col)
        self.skip_space()
        self.expect("=")
        table[key] = self.value()

    def value(self):
        self.skip_space()
        c = self.peek()
        if c == '"':
            return self._string()
        if c == "[":
            return self._list()
        if c == "{":
            return self._table()
        if c == "-" or c.isdigit():
            return self._int()
        self.error(f"cannot parse value starting with {c!r}")

    def _string(self):
        self.expect('"')
        out = []
        while True:
            if self.pos >= len(self.text):
                self.error("unterminated string")
            c = self.advance()
            if c == '"':
                return "".join(out)
            if c == "\n":
                self.error("newline inside string")
            out.append(c)

    def _int(self):
        start = self.pos
        if self.peek() == "-":
            self.advance()
        if not self.peek().isdigit():
            self.error("expected digits")
        while self.peek().isdigit():
            self.advance()
        return int(self.text[start:self.pos])

    def _list(self):
        self.expect("[")
        out = []
        self.skip_space(newlines=True)
        if self.peek() == "]":
            self.advance()
            return out
        while True:
            self.skip_space(newlines=True)
            out.append(self.value())
            self.skip_space(newlines=True)
            if self.peek() == ",":
                self.advance()
                continue
            self.expect("]")
            return out

    def _table(self):
        self.expect("{")
        out = {}
        self.skip_space(newlines=True)
        if self.peek() == "}":
            self.advance()
            return out
        while True:
            self.skip_space(newlines=True)
            self.entry(out)
            self.skip_space(newlines=True)
            if self.peek() == ",":
                self.advance()
                continue
            self.expect("}")
            return out


def parse_spec_text(text):
    """Parse `key = value` lines into a dict; errors carry line/column."""
    sc = _Scanner(text)
    out = {}
    while True:
        sc.skip_space(newlines=True)
        if sc.pos >= len(sc.text):
            return out
        sc.entry(out)
        sc.skip_space()
        if sc.pos < len(sc.text) and sc.peek() not in "\r\n":
            sc.error("trailing content after value")


# -- the texts ------------------------------------------------------------------

ALPHABET = "#\r\n\t \"[]{},=-_abcgkz09²é٣"
TOKENS = ["#", "# note\n", "\r\n", "\n", "\t", " ", "  ", '"', '"SU(2)"', '"a\nb"', "[", "]",
          "{", "}", ",", " = ", "=", "-", "-7", "12", "0", "key", "group", "twist", "levels",
          "x_1", "²", "1²", "-²", "é", "٣", "1٣", '"é²"']
REAL_SPECS = [
    'group = "SU(2)"\ntwist = { levels = [3] }\n',
    '# SU(2) x U(1) at level 3\r\ngroup = "SU(2) x U(1)"\r\n'
    'twist = { levels = [3], torus = [[4]], epsilon = [0, 1] }\r\n',
    'cartan = [[2, -1],\n          [-1, 2]]   # A2\ntwist = {levels=[5], shift="dual_coxeter"}\n'
    'command = "verify"\nformat = "tsv"\n',
    'torus_rank = 2\ntorus_form = [[2, 1], [1, 2]]\ntwist = {\n  torus = [[3, 1], [1, 3]],\n'
    '  epsilon = [1, 1]\n}\n',
] + [path.read_text() for path in sorted(GOLDEN_SPECS.glob("*.spec"))]
# each real spec from the start of each of its lines
LINE_TAILS = [spec[i:] for spec in REAL_SPECS
              for i in [0] + [k + 1 for k, c in enumerate(spec) if c == "\n"]]


def random_text(rng):
    """Characters or tokens drawn at random, or up to 40 characters of a
    real spec from the start of one of its lines, with a few characters
    replaced, inserted or deleted."""
    kind = rng.random()
    if kind < 0.35:
        return "".join(rng.choices(ALPHABET, k=rng.randint(0, 12)))
    if kind < 0.7:
        return "".join(rng.choices(TOKENS, k=rng.randint(1, 8)))
    text = list(rng.choice(LINE_TAILS)[:rng.randint(1, 40)])
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        edit = rng.random()
        if edit < 0.4:
            text.insert(at, rng.choice(ALPHABET))
        elif text and edit < 0.7:
            del text[min(at, len(text) - 1)]
        elif text:
            text[min(at, len(text) - 1)] = rng.choice(ALPHABET)
    return "".join(text)


def outcome(parse, text):
    try:
        return ("value", parse(text))
    except SpecParseError as exc:
        return ("error", str(exc), exc.line, exc.column)
    except Exception as exc:                    # noqa: BLE001 - the oracle's escapes
        return ("escaped", type(exc).__name__)


# -- the tests --------------------------------------------------------------------

def test_the_scanner_matches_the_per_character_oracle():
    rng = random.Random(2027)
    escaped, mismatches = 0, []
    for _ in range(50_000):
        text = random_text(rng)
        want, got = outcome(parse_spec_text, text), outcome(cli.parse_spec_text, text)
        if want[0] == "escaped":
            escaped += 1
            if got[0] != "error":
                mismatches.append((text, want, got))
        elif got != want:
            mismatches.append((text, want, got))
    assert mismatches == []
    # the oracle let a raw ValueError out on digits that int refuses
    assert escaped > 0


def test_every_real_spec_reads_as_the_oracle_reads_it():
    for text in REAL_SPECS:
        assert outcome(cli.parse_spec_text, text) == outcome(parse_spec_text, text)
        assert outcome(cli.parse_spec_text, text)[0] == "value", text


@pytest.mark.parametrize("text, message, line, column", [
    ('a = 1\nb = {c = 2, c = 3}\n', "duplicate key 'c'", 2, 13),
    ('a = 1\n  a = 2\n', "duplicate key 'a'", 2, 3),
    ('a = "x\ny"\n', "newline inside string", 2, 1),
    ('a = [1,\r\n "bc\r\nd"]', "newline inside string", 3, 1),
    ('a = "open', "unterminated string", 1, 10),
    ('a = [1, 2]\nb = "x\t', "unterminated string", 2, 8),
    ('a = [1, 2,]', "cannot parse value starting with ']'", 1, 11),
    ('a = { b = 1 c = 2 }', "expected '}', found 'c'", 1, 13),
    ('a = -x', "expected digits", 1, 6),
    ('é = 1 2', "trailing content after value", 1, 7),
])
def test_error_positions_are_worked_out_from_the_offset(text, message, line, column):
    for parse in (parse_spec_text, cli.parse_spec_text):
        with pytest.raises(SpecParseError) as err:
            parse(text)
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value) == f"line {line}, column {column}: {message}"
