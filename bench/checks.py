"""Output checks: every command's exit code and stdout against an oracle.

``Checker.check`` returns ``None`` when the output is right and a short
reason when it is not.  Expected values are computed on first use and
cached, outside the timed region.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import oracles as orc

QUARTIC = [Fraction(c) for c in (2, -4, 4, -4, 2)]  # 2S^4 - 4S^3 + 4S^2 - 4S + 2, low to high

DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def load_digests():
    with open(DIGEST_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_block(rows):
    return ["---csv---", "key,value"] + ["%s,%s" % kv for kv in rows]


def _expect_lines(out: str, want):
    got = out.split("\n")
    if got[-1] != "":
        return "stdout does not end in a newline"
    got = got[:-1]
    if len(got) != len(want):
        return "expected %d lines, got %d" % (len(want), len(got))
    for i, (g, w) in enumerate(zip(got, want)):
        if callable(w):
            reason = w(g)
            if reason:
                return "line %d: %s" % (i + 1, reason)
        elif g != w:
            return "line %d: expected %r, got %r" % (i + 1, w[:80], g[:80])
    return None


def _value_is(prefix: str, want):
    """A line check: ``prefix`` followed by a printed value equal to ``want``
    (coefficients, low to high)."""

    def check(line):
        if not line.startswith(prefix):
            return "expected %r prefix, got %r" % (prefix, line[:80])
        try:
            got = orc.parse_poly(line[len(prefix):])
        except ValueError as e:
            return str(e)
        if got != orc.p_trim(want):
            return "value %s differs from the oracle's %s" % (line[len(prefix):][:80], want)
        return None

    return check


class Checker:
    def __init__(self, inputs, digests=None):
        self.tables = inputs.tables
        self.graphs = inputs.graphs
        self.digests = digests
        self._sums = {}

    def check(self, cmd, rc: int, out: str):
        kind = cmd.check[0]
        if kind == "digest":
            if self.digests is None:
                self.digests = load_digests()
            want = self.digests.get(cmd.check[1])
            if want is None:
                return "no recorded digest for %r" % cmd.check[1]
            if rc != want[0]:
                return "exit code %d, recorded %d" % (rc, want[0])
            if orc.digest(out) != want[1]:
                return "stdout digest differs from the recorded one"
            return None
        if rc != 0:
            return "exit code %d, expected 0" % rc
        return getattr(self, "_" + kind)(out, *cmd.check[1:])

    # -- words ----------------------------------------------------------------------

    def _word(self, out, op, words):
        if op == "reduce":
            res = orc.free_reduce(words[0])
        elif op == "comm":
            res = orc.commutator(*words)
        else:
            res = orc.free_reduce(tuple(x for w in words for x in w))
        text = orc.word_text(res)
        return _expect_lines(out, [text] + _csv_block([("op", op), ("result", text)]))

    def _residual(self, out, r, spec):
        if spec == "inv":
            new = orc.inverse(r)
        elif spec.startswith("mulr:"):
            new = orc.free_reduce(r + orc.word_letters(spec[5:]))
        else:
            (x,) = orc.word_letters(spec[5:])
            new = orc.free_reduce((x,) + r + (-x,))
        text = orc.word_text(orc.free_reduce(r + orc.inverse(new)))
        return _expect_lines(out, [text] + _csv_block([("residual", text)]))

    # -- slicing ----------------------------------------------------------------------

    def _slice(self, out, typ, identify, r, s):
        if typ == "bag":
            boundary, moves = (), 6 + len(r) + (2 if identify else 0)
        elif typ == "invpair":
            boundary, moves = (), 8 + 2 * len(r)
        elif typ == "prod":
            boundary, moves = orc.free_reduce(r + orc.inverse(s)), 7 + len(r) + len(s)
        else:
            boundary, moves = orc.commutator(r, s), 12 + 2 * len(r) + 2 * len(s)
        tail_at = out.rfind("\nvalidates: ")
        if not out.startswith("slice 0\n") or tail_at < 0:
            return "no slice sequence in the output"
        if out.count("\n-- ") != moves:
            return "expected %d printed moves, got %d" % (moves, out.count("\n-- "))

        def boundary_is(prefix):
            def check(line):
                if not line.startswith(prefix):
                    return "expected %r, got %r" % (prefix, line[:80])
                try:
                    got = orc.word_letters(line[len(prefix):])
                except ValueError as e:
                    return str(e)
                if typ == "comm" and orc.is_rotation(got, boundary) and got == orc.free_reduce(got):
                    return None
                if got != boundary:
                    return "boundary %s, expected %s" % (line[len(prefix):][:80], orc.word_text(boundary)[:80])
                return None

            return check

        want = ["validates: true", boundary_is("boundary: "), "---csv---", "key,value"]
        want += ["validates,true", boundary_is("boundary,"), "moves,%d" % moves]
        return _expect_lines(out[tail_at + 1:], want)

    # -- state sums -----------------------------------------------------------------------

    def _sum(self, table, name):
        key = (table, name)
        if key not in self._sums:
            t, g = self.tables[table], self.graphs[name]
            if t.degree == 0 and t.scale == 1:
                self._sums[key] = [Fraction(orc.int64_state_sum(g, t))]
            else:
                self._sums[key] = orc.poly_state_sum(g, t)
        return self._sums[key]

    def _product(self, table, pairs):
        total = [Fraction(1)]
        for before, after in pairs:
            total = orc.p_mul(total, orc.p_sub(self._sum(table, after), self._sum(table, before)))
        return total

    def _statesum(self, out, table, names, moves):
        sums = [self._sum(table, n) for n in names]
        human = [_value_is("state sum %s.g: " % n, s) for n, s in zip(names, sums)]
        rows = [_value_is("sum:%s.g," % n, s) for n, s in zip(names, sums)]
        if len(names) >= 2:
            human.append("multiplicativity: PASS")
            rows.append("multiplicativity,PASS")
        if moves:
            _, _, chain, (left, right) = moves
            total = self._product(table, chain)
            gen = orc.p_sub(self._product(table, left), self._product(table, right))
            if gen:
                modulus = orc.p_gcd(gen, [])
                total = [] if len(modulus) == 1 else orc.p_mod(total, modulus)
            human.append(_value_is("move invariant: ", total))
            rows.append(_value_is("move_invariant,", total))
        return _expect_lines(out, human + ["---csv---", "key,value"] + rows)

    def _nonmult(self, out, table):
        t = self.tables[table]
        s = []
        for a in range(t.colors):
            s = orc.p_sub(s, [-c for c in t.entries.get((a, a, a), [])])
        quartic = _value_is("", QUARTIC)
        if len(s) > 1:
            report = lambda line: (  # noqa: E731
                None if line.startswith("symbolic: ") and not quartic(line[10:]) else "expected the symbolic report"
            )
            rows = [_value_is("s_value,", s), _value_is("defect,", QUARTIC)]
        else:
            c = s[0] if s else Fraction(0)
            v = sum(q * c**i for i, q in enumerate(QUARTIC))
            line = (
                "S = %s sits on the multiplicative locus" % c
                if v == 0
                else "non-multiplicative at S = %s: defect %s" % (c, v)
            )
            report = line
            rows = ["s_value,%s" % c, "defect,%s" % v]
        return _expect_lines(out, [quartic, report, "---csv---", "key,value", _value_is("quartic,", QUARTIC)] + rows)
