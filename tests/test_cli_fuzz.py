"""Random command lines over all five subcommands keep the exit-code contract:
0, 1 or 2, and never a traceback."""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from math import comb

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ksumlab.algebra import MAX_INDEX
from ksumlab.cli import main
from ksumlab.multisets import MAX_SUMS
from ksumlab.search import SearchSpec, _candidate_count, check_listing
from ksumlab.symfunc import MAX_EXPANSION_COST, _term_bound

# Admitted k-sum requests above this many sums are skipped, not because they
# fail but because they are slow: `collide` on two differing 22-element sets
# at k = 11, C(22, 11) = 705432 sums, takes about 3 s.  Requests the guard
# refuses are always kept.
FAST_SUMS = 20_000
# Likewise for admitted expansions, by the cost that e_expansion's guard
# prices: cold, a cost of at most 5000 builds in about 20 ms.
FAST_COST = 5_000

_JUNK = ["x", "1.5", "^3", "1/-2", "--", "1 2 3^", "0^10000000000000"]

# Sizes up to 40, with small ones drawn often enough to reach the searches
# and comparisons that run to the end.
_size = st.integers(1, 8) | st.integers(1, 40)
_arity = st.integers(-1, 8) | st.integers(-1, 40)


@st.composite
def set_literal(draw, size):
    """A set literal of about ``size`` elements: integers, rationals,
    ``x^m`` runs, zero denominators, junk, or an ``@file`` that is missing."""
    kind = draw(st.sampled_from(["ints", "ints", "run", "mixed", "missing"]))
    if kind == "missing":
        return "@{missing}"
    if kind == "run":
        return f"{draw(st.integers(-9, 9))}^{size}"
    if kind == "ints":
        return " ".join(str(draw(st.integers(-9, 9))) for _ in range(size))
    token = st.one_of(
        st.integers(-9, 9).map(str),
        st.builds("{}/{}".format, st.integers(-9, 9), st.integers(0, 4)),
        st.builds("{}^{}".format, st.integers(-9, 9), st.integers(0, 4)),
        st.sampled_from(_JUNK),
    )
    return " ".join(draw(st.lists(token, max_size=size + 2)))


@st.composite
def ksums_argv(draw):
    n, k = draw(_size), draw(_arity)
    assume(not 1 <= k <= n or comb(n, k) <= FAST_SUMS or comb(n, k) > MAX_SUMS)
    argv = ["ksums", draw(set_literal(n)), "-k", str(k)]
    return argv + (["--json"] if draw(st.booleans()) else [])


@st.composite
def collide_argv(draw):
    n, k = draw(_size), draw(_arity)
    assume(not 1 <= k <= n or comb(n, k) <= FAST_SUMS or comb(n, k) > MAX_SUMS)
    other = draw(st.sampled_from([n, n, n + 1]))
    return ["collide", draw(set_literal(n)), draw(set_literal(other)), "-k", str(k)]


@st.composite
def expand_argv(draw):
    p, k, n = draw(st.integers(-1, 70)), draw(_arity), draw(_size)
    if 1 <= p <= MAX_INDEX and 1 <= k <= n:
        cost = _term_bound(p, k) * min(k, p) ** 2
        assume(cost <= FAST_COST or cost > MAX_EXPANSION_COST)
    flags = draw(st.lists(st.sampled_from(["--s1-zero", "--check-fixtures"]), unique=True))
    return ["expand", str(p), "-k", str(k), "-n", str(n), *flags]


@st.composite
def eliminate_argv(draw):
    mode = draw(st.sampled_from(["--verify-coefficients", "--example1", "--second-root", "--residuals"]))
    if mode in ("--second-root", "--residuals"):
        return ["eliminate", mode, draw(set_literal(draw(st.sampled_from([12, 12, 11]))))]
    return ["eliminate", mode]


@st.composite
def search_argv(draw):
    n, k, bound = draw(_size), draw(_arity), draw(st.integers(-1, 6) | st.integers(-1, 40))
    symmetric = draw(st.booleans())
    try:
        spec = SearchSpec(n, k, bound, symmetric_only=symmetric)
        check_listing(spec)
    except ValueError:
        pass  # refused before any work
    else:
        # The bucket stage is priced only once the candidates are listed and
        # keyed, which can take seconds, so of the spaces admitted before
        # listing only small ones are run.
        assume(_candidate_count(spec)[0] * comb(n, k) <= FAST_SUMS)
    argv = ["search", "-n", str(n), "-k", str(k), "-B", str(bound), "--workers", "1"]
    argv += ["--symmetric"] if symmetric else []
    argv += ["--out", "{out}"] if draw(st.booleans()) else []
    argv += ["--resume", "{resume}"] if draw(st.booleans()) else []
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(ksums_argv(), collide_argv(), expand_argv(), eliminate_argv(), search_argv()))
def test_random_command_lines_keep_the_exit_code_contract(tmp_path, argv):
    scratch = tempfile.mkdtemp(dir=tmp_path)
    files = {name: f"{scratch}/{name}" for name in ("missing", "out", "resume")}
    argv = [arg.format(**files) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the command line
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
