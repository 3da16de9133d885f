"""Differential tests of the seeded generator's batched draws.

``SeededRNG.sample`` and the subset stream ``sorted_samples`` run one
Fisher-Yates step loop, and ``randranges`` makes many ``randrange`` draws at
once; all must give the same values as the per-call loops and leave the
stream at the same place.
The generators built on ``randranges`` are compared with the per-element
comprehensions they replaced, and ``spencer_independent`` with its set-based
form. ``keyed_coloring`` copies one keyed hash state per query and formats
its key with one format per tuple length; it is compared with the per-query
construction and ``map(str, t)`` key it replaced.
"""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordersize.constructions import (
    build_gr,
    random_hypergraph,
    random_ordered_graph,
    random_tournament,
)
from ordersize.core import Hypergraph, OrderedGraph, Tournament
from ordersize.rng import SeededRNG, keyed_coloring
from ordersize.search import spencer_independent

from helpers import (
    chance,
    loop_sample,
    loop_sorted_sample,
    per_call_keyed_coloring,
    set_spencer_independent,
)

SEEDS = st.integers(0, 2**64)


@st.composite
def draws(draw):
    """One (population, k, sorted?) request, with n in 1..64 and k in 0..n."""
    n = draw(st.integers(1, 64))
    k = draw(st.integers(0, n))
    population = n if draw(st.booleans()) else [5 * x + 2 for x in range(n)]
    return population, k, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.lists(draws(), min_size=1, max_size=8))
def test_sample_plan_matches_loop(seed, requests):
    """Consecutive draws on one generator, with (n, k) changing between them."""
    got, want = SeededRNG(seed), SeededRNG(seed)
    for population, k, ordered in requests:
        if ordered:
            assert got.sorted_sample(population, k) == loop_sorted_sample(want, population, k)
        else:
            assert got.sample(population, k) == loop_sample(want, population, k)
    assert got._mt.getstate() == want._mt.getstate()


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(1, 64), st.data())
def test_repeated_plan_matches_loop(seed, n, data):
    """The same (n, k) again and again, as a sampled scan draws it."""
    k = data.draw(st.integers(0, n))
    got, want = SeededRNG(seed), SeededRNG(seed)
    for _ in range(20):
        assert got.sorted_sample(n, k) == loop_sorted_sample(want, n, k)
    assert got._mt.getstate() == want._mt.getstate()


def test_sample_copies_the_plan_template():
    """A returned sample is the caller's; changing it leaves later draws alone."""
    got, want = SeededRNG(4), SeededRNG(4)
    first = got.sample(12, 12)
    assert first == loop_sample(want, 12, 12)
    first.reverse()
    assert got.sample(12, 12) == loop_sample(want, 12, 12)


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.integers(0, 64), st.data())
def test_sorted_samples_match_the_call_loop(seed, n, data):
    k = data.draw(st.integers(0, n))
    count = data.draw(st.integers(0, 40))
    got, want = SeededRNG(seed), SeededRNG(seed)
    assert list(got.sorted_samples(n, k, count)) == [loop_sorted_sample(want, n, k)
                                                       for _ in range(count)]
    assert got._mt.getstate() == want._mt.getstate()


# the draws made between two subsets: (kind, argument)
BETWEEN = st.lists(st.one_of(st.tuples(st.just("randrange"), st.integers(1, 2**40)),
                             st.tuples(st.just("bits"), st.integers(1, 64))), max_size=3)


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.integers(0, 40), st.data())
def test_sorted_samples_draw_lazily(seed, n, data):
    """Draws made on the generator between two subsets of the stream land
    where they land between two ``sorted_sample`` calls."""
    k = data.draw(st.integers(0, n))
    count = data.draw(st.integers(0, 12))
    between = data.draw(st.lists(BETWEEN, min_size=count + 1, max_size=count + 1))

    def draw_between(rng, draws):
        return [rng.randrange(x) if kind == "randrange" else rng.bits(x) for kind, x in draws]

    got, want = SeededRNG(seed), SeededRNG(seed)
    stream = got.sorted_samples(n, k, count)
    got_out = [draw_between(got, between[0])]
    for subset, draws in zip(stream, between[1:]):
        got_out += [subset, draw_between(got, draws)]
    want_out = [draw_between(want, between[0])]
    for draws in between[1:]:
        want_out += [loop_sorted_sample(want, n, k), draw_between(want, draws)]
    assert got_out == want_out
    assert got._mt.getstate() == want._mt.getstate()


@pytest.mark.parametrize("args, message", [
    ((5, -1, 3), "sample size must be nonnegative"),
    ((3, 4, 2), "sample larger than population"),
    ((0, 1, 0), "sample larger than population"),
    ((5, 2, -1), "sorted_samples needs count >= 0"),
])
def test_sorted_samples_check_at_the_call(args, message):
    rng, fresh = SeededRNG(9), SeededRNG(9)
    with pytest.raises(ValueError, match=f"^{message}$"):
        rng.sorted_samples(*args)  # never iterated
    assert rng._mt.getstate() == fresh._mt.getstate()


@pytest.mark.parametrize("call", [
    lambda rng: rng.sample(10, -2),
    lambda rng: rng.sorted_sample(5, -1),
    lambda rng: rng.sample([1, 2, 3], -1),
    lambda rng: rng.sample(3, 4),
    lambda rng: rng.randranges(0, 3),
    lambda rng: rng.randranges(-4, 3),
    lambda rng: rng.randranges(5, -1),
])
def test_invalid_draws_raise_before_drawing(call):
    rng, fresh = SeededRNG(9), SeededRNG(9)
    with pytest.raises(ValueError):
        call(rng)
    assert rng._mt.getstate() == fresh._mt.getstate()


def test_randranges_keeps_the_randrange_message():
    with pytest.raises(ValueError, match="randrange needs n >= 1"):
        SeededRNG(0).randranges(0, 1)
    with pytest.raises(ValueError, match="randrange needs n >= 1"):
        SeededRNG(0).randrange(0)


RANGES = [1, 2, 3, 5, 6, 100, 2**30, 2**30 + 1, 2**33 + 7] + [2**e for e in range(2, 31)]


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.one_of(st.sampled_from(RANGES), st.integers(1, 2**40)), st.integers(0, 300))
def test_randranges_matches_randrange_loop(seed, n, count):
    got, want = SeededRNG(seed), SeededRNG(seed)
    assert got.randranges(n, count) == [want.randrange(n) for _ in range(count)]
    assert got._mt.getstate() == want._mt.getstate()


# --- the generators against their old comprehensions -------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 14), st.integers(0, 100), SEEDS)
def test_random_hypergraph_matches_comprehension(r, n, pct, seed):
    rng = SeededRNG(seed)
    want = Hypergraph(r, n, [e for e in combinations(range(n), r) if chance(rng, pct, 100)])
    assert random_hypergraph(r, n, pct, seed) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 30), st.integers(0, 100), SEEDS)
def test_random_ordered_graph_matches_comprehension(n, pct, seed):
    rng = SeededRNG(seed)
    want = OrderedGraph(n, [p for p in combinations(range(n), 2) if chance(rng, pct, 100)])
    assert random_ordered_graph(n, pct, seed) == want


@pytest.mark.parametrize("pct", [-5, 101, 150])
def test_random_generators_reject_a_density_outside_a_percentage(pct):
    with pytest.raises(ValueError, match="^density is a percentage$"):
        random_ordered_graph(6, pct, 0)
    with pytest.raises(ValueError, match="^density is a percentage$"):
        random_hypergraph(3, 6, pct, 0)


@pytest.mark.parametrize("n", [-1, -4])
def test_random_generators_reject_a_negative_vertex_count(n):
    with pytest.raises(ValueError, match=f"^n must be nonnegative, got {n}$"):
        random_ordered_graph(n, 50, 0)
    with pytest.raises(ValueError, match=f"^n must be nonnegative, got {n}$"):
        random_hypergraph(3, n, 50, 0)
    with pytest.raises(ValueError, match=f"^n must be nonnegative, got {n}$"):
        random_tournament(n, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 30), SEEDS)
def test_random_tournament_matches_comprehension(n, seed):
    rng = SeededRNG(seed)
    want = Tournament(n, [bool(rng.coin()) for _ in range(comb(n, 2))])
    assert random_tournament(n, seed) == want


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 5), st.integers(0, 20), SEEDS)
def test_build_gr_matches_comprehension(r, extra, seed):
    n = r + extra
    rng = SeededRNG(seed)
    palette = comb(r, 2)
    colors = tuple(rng.randrange(palette) for _ in range(comb(n, 2)))
    assert build_gr(n, r, seed, materialize_cap=0).coloring.colors == colors


# --- spencer_independent on masks ------------------------------------------------


MAX_SPENCER_N = {2: 40, 3: 40, 4: 20, 5: 16}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(MAX_SPENCER_N)), st.integers(0, 60), SEEDS, st.integers(1, 6), st.data())
def test_spencer_independent_matches_set_form(r, pct, seed, trials, data):
    n = data.draw(st.integers(0, MAX_SPENCER_N[r]))
    h = random_hypergraph(r, n, pct, seed)
    assert spencer_independent(h, trials, seed) == set_spencer_independent(h, trials, seed)


@settings(max_examples=200, deadline=None)
@given(st.integers(-2**70, 2**70), st.integers(1, 7),
       st.lists(st.lists(st.one_of(st.integers(-10**6, 10**6), st.booleans()), max_size=6),
                min_size=1, max_size=6),
       st.sampled_from([list, tuple, iter]))
def test_keyed_coloring_matches_per_call_construction(seed, palette, tuples, form):
    """The same color for a query given as a list, a tuple or a one-shot
    iterator, whose elements may be bools ("True" and "False" in the key)."""
    got, want = keyed_coloring(seed, palette), per_call_keyed_coloring(seed, palette)
    for t in tuples + tuples:  # a repeated query must not see the state of the last one
        assert got(form(t)) == want(t)


@pytest.mark.parametrize("trials", [0, -1, -3])
def test_spencer_independent_rejects_fewer_than_one_trial(trials):
    # the empty and the edgeless graph return early, but not before the check
    for h in (Hypergraph(3, 0, []), Hypergraph(3, 9, []), random_hypergraph(3, 9, 40, 2)):
        with pytest.raises(ValueError, match=f"^trials must be positive, got {trials}$"):
            spencer_independent(h, trials, 0)


@pytest.mark.parametrize("palette", [0, -1, -5])
def test_keyed_coloring_rejects_an_empty_palette(palette):
    with pytest.raises(ValueError, match=f"^palette must be positive, got {palette}$"):
        keyed_coloring(7, palette)
