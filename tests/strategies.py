"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from galemb.groups import PrimeContext, make_presentation


@st.composite
def class2_presentations(draw):
    """Consistent class-2 presentations at p = 3 or 5: relative orders p or
    p^2, and a central subset of generators, with trivial relations of their
    own, receiving every power tail and commutator word of the others.
    [g_j, g_i]^(p^e_i) = [g_j, tail_i] = 1, so each commutator word's
    coefficients are scaled to order dividing p^min(e_i, e_j)."""
    p = draw(st.sampled_from([3, 5]))
    exps = draw(st.lists(st.integers(1, 2), min_size=2, max_size=5))
    k = len(exps)
    names = [f"g{i}" for i in range(k)]
    central = sorted(draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=k - 1)))
    top = [i for i in range(k) if i not in central]

    def word(level):
        out = {}
        for t in central:
            c = draw(st.integers(0, p**exps[t] - 1)) * p**max(0, exps[t] - level)
            if c % p**exps[t]:
                out[names[t]] = c
        return out

    tails = {names[i]: word(2) for i in top if draw(st.booleans())}  # unconstrained
    comms = {(names[j], names[i]): word(min(exps[i], exps[j]))
             for i in top for j in top if j > i and draw(st.booleans())}
    return make_presentation(PrimeContext.for_prime(p), list(zip(names, exps)), tails, comms)
