"""The CLI contract under random input: every argv that a grammar over the
seven subcommands draws ends in exit 0, 1 or 2 when run through
``cli.main`` in-process.  Exit 2 writes one ``error:`` line or argparse's
usage block to stderr and nothing to stdout; exits 0 and 1 write nothing
to stderr, and with ``--json`` stdout is one JSON report whose ``passed``
(true where a report has none) agrees with the exit code.

The values mix small indices, sizes past the CLI limits and strings that
``int`` or ``float`` read in surprising ways.  Sizes stay below the slow
end of the limits so that an example takes well under a second: every
``verify-fibration`` request audits at most 20 samples, whether the count
comes from ``--samples`` or from a tolerance file.  A new flag or
subcommand is added to the grammar."""

import contextlib
import io
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tpqr import cli
from tpqr.k3glue import strange_duality_table

INTS = st.sampled_from([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 100, 997,
                        -1, -3, 10**6, 10**18, 2**64]).map(str)
WORDS = st.sampled_from(["nan", "inf", "-inf", "1e308", "0x10", "٣", "1_0", "", "2.5", "-0",
                         "abc", " 7"])
VALUES = st.one_of(INTS, INTS, INTS, WORDS)
REALS = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr), VALUES)

# Tolerance files by name: their text, and whether a run reads its sample
# count from them (each such count is at most 20).
CONFIG_FILES = {
    "samples": ("samples = 12\nseed = 3  # a comment\n", True),
    "strict": ("rank_tol=1e-40\nsamples=10\n", True),
    "tols": ("residual_tol=1e-8\nrank_tol=1e-5\nsamples=20\n", True),
    "unknown": ("samples=10\ncolour=blue\n", False),
    "bad-tol": ("rank_tol=2\nsamples=10\n", False),
    "too-many": ("samples=100000\n", False),
    "not-int": ("samples=ten\n", False),
}
TABLE_TRIPLES = sorted({t for pair in strange_duality_table() for t in (pair.left, pair.right)})
GOOD_FILES = st.sampled_from([name for name, (_, read) in CONFIG_FILES.items() if read])
FILES = st.sampled_from(sorted(CONFIG_FILES) + ["missing"])


class Grammar:
    """The values of one request: well-formed ones, or in a wild request
    any value of the pools above as well."""

    def __init__(self, draw):
        self.draw = draw
        self.wild = draw(st.integers(0, 2)) == 0

    def value(self, good, bad=VALUES):
        return self.draw(st.one_of(good, bad) if self.wild else good)

    def triple(self, one_token=False):
        """p,q,r or three tokens: a triple of the duality table, a parabolic
        one or three small indices; in a wild request any number of values."""
        named = st.sampled_from(TABLE_TRIPLES + [(3, 3, 3), (2, 4, 4), (2, 3, 6)])
        small = st.lists(st.integers(2, 9), min_size=3, max_size=3)
        values = self.value(st.one_of(named, small), st.lists(VALUES, max_size=4))
        values = [str(v) for v in values]
        return [",".join(values)] if one_token or self.draw(st.booleans()) else values

    def option(self, argv, flag, value):
        """Append flag and value() in half the requests, and in every
        well-formed request if the flag is required."""
        if self.draw(st.booleans()) or (flag in ("--pqr", "--pair", "--case") and not self.wild):
            argv += [flag, value()]


def verify_fibration(g):
    argv = ["verify-fibration"]
    g.option(argv, "--pqr", lambda: g.triple(one_token=True)[0])
    g.option(argv, "--t", lambda: g.value(st.sampled_from(["0", "0.5", "1", "0.25"]), REALS))
    g.option(argv, "--theta", lambda: g.value(st.floats(0.0, 7.0).map(repr), REALS))
    if g.draw(st.integers(0, 3)) == 0:
        argv += ["--a", g.value(st.sampled_from(["1e9", "2e10", "1771200.0000000002"]), REALS)]
    g.option(argv, "--seed", lambda: g.value(st.integers(0, 99).map(str)))
    path = g.value(st.none() | GOOD_FILES, FILES)
    if path is not None:
        argv += ["--tolerance-file", f"@{path}"]
    if not CONFIG_FILES.get(path, ("", False))[1] or g.draw(st.booleans()):
        argv += ["--samples", g.value(st.integers(1, 20).map(str),
                                      st.sampled_from(["0", "-1", "10001", "x", "1e3"]))]
    return argv


@st.composite
def commands(draw):
    """One argv of the grammar."""
    g = Grammar(draw)
    kind = draw(st.sampled_from(["monodromy", "dual", "lattice", "k3", "inose",
                                 "verify-fibration", "verify-fibration", "table", "junk"]))
    if kind in ("monodromy", "dual"):
        argv = [kind] + g.triple()
    elif kind == "lattice":
        argv = ["lattice", g.value(st.sampled_from(["t", "ttilde", "e", "h", "k3"]))]
        g.option(argv, "--triple", lambda: g.triple(one_token=True)[0])
        g.option(argv, "--generator", lambda: g.value(st.sampled_from(["S", "S'"])))
        g.option(argv, "--k", lambda: g.value(st.integers(6, 10).map(str)))
    elif kind == "k3":
        argv = ["k3"]
        g.option(argv, "--pair", lambda: g.triple(one_token=True)[0])
    elif kind == "inose":
        argv = ["inose"]
        counts = st.lists(st.sampled_from(["0", "1", "2"]), min_size=4, max_size=4)
        g.option(argv, "--case", lambda: ",".join(g.value(counts, st.lists(VALUES, max_size=5))))
    elif kind == "verify-fibration":
        argv = verify_fibration(g)
    elif kind == "table":
        argv = ["table"]
    else:
        argv = draw(st.sampled_from([[], ["nonsense"], ["--json"], ["table", "extra"],
                                     ["monodromy", "2", "3", "7", "--bogus"]]))
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@pytest.fixture(scope="module")
def config_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("configs")
    paths = {"missing": str(root / "missing.cfg")}
    for name, (text, _) in CONFIG_FILES.items():
        (root / f"{name}.cfg").write_text(text)
        paths[name] = str(root / f"{name}.cfg")
    return paths


USAGE_ERROR = re.compile(r"tpqr( \S+)?: error: ")


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(request=commands())
def test_every_request_ends_in_a_verdict_or_one_clear_error(request, config_paths):
    argv = [config_paths[a[1:]] if a.startswith("@") else a for a in request]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.splitlines()
        assert out == "" and lines, argv
        one_line = len(lines) == 1 and lines[0].startswith("error: ")
        usage = lines[0].startswith("usage: ") and USAGE_ERROR.match(lines[-1])
        assert one_line or usage, (argv, err)
    else:
        assert err == "" and out, argv
        if "--json" in argv:
            assert json.loads(out).get("passed", True) is (code == 0), argv
